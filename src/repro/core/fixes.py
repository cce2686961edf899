"""The fix chase: fixes, unique fixes and certain fixes (Sect. 3).

Given a region ``(Z, Tc)``, a rule set Σ and master data ``Dm``, a *fix* of a
marked tuple ``t`` is the result of a maximal sequence of region-constrained
rule applications; ``t`` has a *unique fix* when every such sequence ends in
the same tuple, and a *certain fix* when additionally the covered attributes
reach all of ``R`` (Sect. 3).

:func:`chase` decides unique-fix existence for one concrete start point.  It
follows the PTIME algorithm inside the proof of Theorem 4 — apply all enabled
rule/master pairs in batches, detect same-batch conflicts (step (e)) and
late-arriving conflicts (step (g)) — with one strengthening: the paper's
one-level ``dep()`` test for step (g) is replaced by an exact reachability
check ("is the conflicting rule's premise derivable *without* its target
attribute?") over the hypergraph of all same-value derivations.
:mod:`repro.analysis.chase` cross-validates this against an exhaustive
order-exploring chase on small instances.

The chase runs on Σ compiled into a positional program
(:mod:`repro.core.program`): the tuple is one value list, each rule a plan
holding the positions of its key, target and pattern checks.  Instead of
rescanning Σ at every step, each rule keeps a ready count of its premise
attributes not yet validated and is examined in the step that count
reaches 0.  Each master line read is copied to a tuple once and shared by
every rule probing it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Collection, Iterable, Iterator, Mapping, Sequence

from repro.core.program import compile_rules
from repro.core.regions import Region
from repro.core.rules import EditingRule
from repro.engine.store import as_master_store
from repro.engine.tuples import Row
from repro.engine.values import UNKNOWN


@dataclass(frozen=True)
class Conflict:
    """Evidence that two fix sequences diverge.

    ``kind`` is ``"same-batch"`` when two simultaneously-enabled rules assign
    different values (the paper's step (e)) and ``"order-dependent"`` when a
    later-enabled rule could have pre-empted an earlier assignment in some
    other application order (step (g)).
    """

    kind: str
    attr: str
    values: tuple
    rules: tuple

    def describe(self) -> str:
        rule_names = ", ".join(r.name for r in self.rules)
        return (
            f"{self.kind} conflict on {self.attr!r}: candidate values "
            f"{list(self.values)} via rules [{rule_names}]"
        )


@dataclass
class ChaseOutcome:
    """Result of chasing one start point.

    ``unique`` — whether all maximal fix sequences agree;
    ``assignment`` — the canonical final values (attr -> value, possibly
    ``UNKNOWN`` for never-read, never-written attributes outside Z);
    ``covered`` — the paper's "attributes covered by (Z, Tc, Σ, Dm)";
    ``zb`` — the initial (user-validated) Z;
    ``conflict`` — the divergence witness when ``unique`` is False;
    ``applications`` — the canonical batched run, compactly: one
    ``(rule, rows, batch, index)`` per applied rule, in order, where
    ``rows`` is the tuple of guard-passing master rows the rule read (a
    tuple whatever the store returned, so outcomes compare equal across
    backends) and ``index`` the rule's position in Σ;
    ``fired`` — the same run expanded to one ``(rule, master_row, batch)``
    per guard-passing row, in order (built on access, for provenance and
    tests; :meth:`first_fired` is the per-rule view a fix needs);
    ``reads`` — every ``(Xm, key)`` in the chase's line table (the lines
    it probed, plus any it was handed), its complete master read
    footprint (excluded from ``==``, so outcomes still compare equal
    across backends); :func:`~repro.analysis.consistency.check_pattern`
    unions it into ``PatternCheck.reads``, the footprint the region guard
    files a region-build check under.
    """

    unique: bool
    assignment: dict
    covered: frozenset
    zb: frozenset
    conflict: Conflict = None
    applications: list = field(default_factory=list)
    batches: int = 0
    reads: Collection = field(default=(), compare=False, repr=False)

    @property
    def fired(self) -> list:
        return [
            (rule, tm, batch)
            for rule, rows, batch, _ in self.applications
            for tm in rows
        ]

    def first_fired(self) -> Iterator:
        """``(rule, first master row, batch, index)`` per applied rule, in
        order.

        Every row of one application carries the same ``Bm`` value (two
        distinct values would be a same-batch conflict), so this is all
        :meth:`TransFixResult.from_chase
        <repro.repair.transfix.TransFixResult.from_chase>` reads.
        """
        for rule, rows, batch, index in self.applications:
            yield rule, rows[0], batch, index

    def is_certain(self, schema) -> bool:
        """Certain fix: unique and the covered set reaches all of R."""
        return self.unique and self.covered >= set(schema.attributes)

    def uncovered(self, schema) -> tuple:
        return tuple(a for a in schema.attributes if a not in self.covered)

    def final_row(self, schema) -> Row:
        """Materialize the fixed tuple (requires no UNKNOWN values)."""
        values = []
        for a in schema.attributes:
            v = self.assignment.get(a, UNKNOWN)
            values.append(v)
        return Row(schema, values)

    def explain(self) -> str:
        """Human-readable provenance: which rule and master tuple set each
        attribute, in application order."""
        lines = [f"validated by the user: {sorted(self.zb)}"]
        for rule, tm, batch in self.fired:
            key = dict(zip(rule.lhs, tm[rule.lhs_m]))
            lines.append(
                f"batch {batch}: {rule.rhs} := {tm[rule.rhs_m]!r} "
                f"via {rule.name} (master match on {key})"
            )
        if not self.unique:
            lines.append(f"DIVERGENT: {self.conflict.describe()}")
        elif not self.fired:
            lines.append("no rule applied")
        return "\n".join(lines)


def _as_assignment(t, schema_attrs: Sequence) -> dict:
    if isinstance(t, Row):
        return dict(zip(t.schema.attributes, t.values))
    if isinstance(t, Mapping):
        out = dict(t)
        for a in schema_attrs:
            out.setdefault(a, UNKNOWN)
        return out
    raise TypeError(f"cannot interpret {type(t).__name__} as a tuple")


def applicable_pairs(
    assignment: Mapping,
    validated: frozenset,
    rules: Iterable,
    master,
) -> Iterator:
    """Yield ``(φ, tm)`` pairs applicable under the region semantics.

    Requires ``X ∪ Xp ⊆ validated``, ``B ∉ validated``, ``t[Xp] ≈ tp`` and
    ``t[X] = tm[Xm]`` — conditions (1)–(3) of ``t →((Z,Tc),φ,tm) t'``.
    *master* is a :class:`~repro.engine.store.MasterStore` or a plain
    relation (adapted on entry).
    """
    master = as_master_store(master)
    for rule in rules:
        if not rule.premise_attrs <= validated:
            continue
        if rule.rhs in validated:
            continue
        if not rule.pattern.matches_values(assignment):
            continue
        key = tuple(assignment[a] for a in rule.lhs)
        if any(v is UNKNOWN for v in key):
            continue
        for tm in master.probe_ref(rule.lhs_m, key):
            if rule.master_guard.matches(tm):
                yield rule, tm


def _derivable_without(
    target: str,
    premises_needed: frozenset,
    edges: list,
    zb: frozenset,
) -> bool:
    """Whether every attribute of *premises_needed* is reachable from *zb*
    via same-value derivation edges that never pass through *target*."""
    derivable = set(zb)
    derivable.discard(target)
    if premises_needed <= derivable:
        return True
    pending = [e for e in edges if e[1] != target]
    changed = True
    while changed:
        changed = False
        remaining = []
        for premise, rhs in pending:
            if rhs in derivable:
                continue
            if premise <= derivable:
                derivable.add(rhs)
                changed = True
                if premises_needed <= derivable:
                    return True
            else:
                remaining.append((premise, rhs))
        pending = remaining
    return premises_needed <= derivable


def chase(
    t,
    z0: Iterable,
    rules: Sequence,
    master,
    read: dict = None,
) -> ChaseOutcome:
    """Chase one start point and decide unique-fix existence.

    Parameters
    ----------
    t:
        A :class:`Row` or mapping giving values for (at least) the
        attributes in *z0*.  Attributes outside *z0* may be ``UNKNOWN``.
    z0:
        The initially validated attributes (the region's ``Z``); the caller
        has already checked that ``t`` is marked by the region.
    rules, master:
        The rule set Σ and the master data ``Dm`` — a
        :class:`~repro.engine.store.MasterStore` or a plain relation
        (adapted on entry); every master access is a keyed probe.  Σ is a
        :class:`~repro.core.program.RuleProgram` or a plain rule list,
        compiled on entry; callers that chase in a loop compile once.
    read:
        Optional ``{(Xm, key): rows}`` table of master lines already read
        from the same master state.  The chase probes only the lines it
        lacks and adds them; :class:`~repro.repair.certainfix.CertainFix`
        shares one table across the chases of one monitored tuple.

    The chase runs on the compiled program.  The tuple is one positional
    value list (a row over the program's R is copied once, anything else
    is read by name); the outcome's ``assignment`` dict is built only
    when the chase returns.  Each rule keeps a ready count, the number of
    its premise attributes not yet validated: validating an attribute
    decrements the counts of the rules that read it, and a rule whose
    count reaches 0 is examined in the next step.  Ready rules are
    examined in Σ order, so applications, probe order and conflict
    witnesses are those of a rescan of Σ at every step.

    Master reads: each step collects every ready rule whose pattern
    matches and whose key is known — protected targets included — and
    reads all their keys with one
    :meth:`~repro.engine.store.MasterStore.probe_batch` call (a remote
    store sends that step's cache misses in one request).  Each distinct
    ``(Xm, key)`` is read at most once per *read* table and copied to a
    tuple once, which every rule probing that line shares; the set of
    lines in the table is the outcome's ``reads`` — the footprint the
    region guard re-verifies build checks by
    (:mod:`repro.repair.invalidation`).  In the step a rule is examined,
    one walk over its read keeps the guard-passing rows and their
    distinct ``Bm`` values (``tm.values`` at ``Bm``'s position; first row
    per value, row order).  Both conflict tests only compare values, so
    step (e) and the step (g) post-pass iterate those distinct values —
    almost always one — rather than the rows, and the post-pass reuses
    them in Σ order without probing again.  Values that compare equal are
    one value (``1`` and ``1.0`` do not conflict); the first in row order
    is the one assigned, as :meth:`ChaseOutcome.first_fired` reports it.
    """
    master = as_master_store(master)
    program = compile_rules(rules, None, master)
    plans = program.plans
    names = program.attrs
    readers = program.readers
    zb = frozenset(z0)
    values, aligned = program.load(t)
    # ``known`` flags validated positions; ``missing`` counts each rule's
    # unvalidated premise attributes.
    known = [False] * len(names)
    missing = [len(plan.premise_pos) for plan in plans]
    for attr in zb:
        position = program.positions.get(attr)
        if position is not None:
            known[position] = True
            for index in readers[position]:
                missing[index] -= 1
    ready = [index for index, count in enumerate(missing) if not count]
    validated = set(zb)
    applications: list = []
    batches = 0
    # A rule is examined once, in the step its ready count reaches 0:
    # master data is fixed and validated values never change, so its
    # pattern verdict, key and master rows are final.  ``kept`` holds its
    # guard-passing rows and their distinct Bm values (None: pattern
    # mismatch or unknown key) for step (g), and ``read`` makes every
    # (attrs, key) one read per chase.
    kept: list = [None] * len(plans)
    if read is None:
        read = {}

    while ready:
        step: list = []
        wanted: dict = {}
        for index in ready:
            plan = plans[index]
            for position, condition in plan.checks:
                value = values[position]
                if value is UNKNOWN or not condition.matches(value):
                    break
            else:
                key = plan.key_of(values)
                if UNKNOWN in key:
                    continue
                line = (plan.lhs_m, key)
                step.append((plan, line))
                if line not in read:
                    wanted[line] = None
        if wanted:
            lines = list(wanted)
            for line, rows in zip(lines, master.probe_batch(lines)):
                read[line] = rows if type(rows) is tuple else tuple(rows)
        batch: list = []
        new_values: dict = {}
        culprit: dict = {}
        for plan, line in step:
            rows = read[line]
            # The distinct Bm values of the guard-passing rows, in order of
            # first appearance (an equal later value keeps the first).
            distinct: dict = {}
            if rows:
                position = plan.bm_pos
                guard = plan.guard
                if guard is not None:
                    rows = tuple(filter(guard.matches, rows))
                for tm in rows:
                    value = tm.values[position]
                    if value not in distinct:
                        distinct[value] = None
            kept[plan.index] = distinct
            target = plan.rhs_pos
            if not rows or known[target]:
                continue  # nothing to apply, or a protected target (step (g))
            rule = plan.rule
            for value in distinct:
                if target in new_values and new_values[target] != value:
                    return _outcome(
                        program, t, values, aligned, zb, validated,
                        applications, batches, read, Conflict(
                            kind="same-batch",
                            attr=plan.rhs,
                            values=(new_values[target], value),
                            rules=(culprit[target], rule),
                        ),
                    )
                new_values.setdefault(target, value)
                culprit[target] = rule
            batch.append((rule, rows, plan.index))
        if not batch:
            break
        batches += 1
        for rule, rows, index in batch:
            applications.append((rule, rows, batches, index))
        ready = []
        for target, value in new_values.items():
            values[target] = value
            known[target] = True
            validated.add(names[target])
            for index in readers[target]:
                missing[index] -= 1
                if not missing[index]:
                    ready.append(index)
        ready.sort()

    # Post-pass (exact step (g)): examine every pair applicable w.r.t. the
    # final values whose target is already validated — exactly the kept
    # rows, since every rule with a validated premise was examined.
    # Different-value pairs are conflicts iff their premise is derivable
    # without their own target over the same-value derivation edges.
    # Only values matter, so each rule contributes its distinct values:
    # at most one edge and one candidate per other value.  Edges are
    # collected only when some candidate needs them.
    candidates: list = []
    for plan, distinct in zip(plans, kept):
        if distinct is None or plan.rhs in zb:
            continue
        current = values[plan.rhs_pos]
        for value in distinct:
            if not value == current:
                candidates.append((plan, value))
    if candidates:
        edges: list = []
        for plan, distinct in zip(plans, kept):
            if distinct is None:
                continue
            current = values[plan.rhs_pos]
            for value in distinct:
                if value == current:
                    edges.append((plan.premise_attrs, plan.rhs))
        for plan, value in candidates:
            if _derivable_without(plan.rhs, plan.premise_attrs, edges, zb):
                return _outcome(
                    program, t, values, aligned, zb, validated,
                    applications, batches, read, Conflict(
                        kind="order-dependent",
                        attr=plan.rhs,
                        values=(values[plan.rhs_pos], value),
                        rules=(plan.rule,),
                    ),
                )
    return _outcome(
        program, t, values, aligned, zb, validated, applications, batches,
        read, None,
    )


def _outcome(
    program, t, values, aligned, zb, validated, applications, batches, read,
    conflict,
) -> ChaseOutcome:
    """The :class:`ChaseOutcome` of a chase that stopped here: unique iff
    no *conflict*, with the assignment dict built from the value list."""
    return ChaseOutcome(
        unique=conflict is None,
        assignment=program.assignment(t, values, aligned, zb),
        covered=frozenset(validated),
        zb=zb,
        conflict=conflict,
        applications=applications,
        batches=batches,
        reads=read.keys(),
    )


def region_apply(t: Row, region: Region, rule: EditingRule, tm: Row):
    """One step ``t →((Z,Tc),φ,tm) t'`` with all side conditions checked.

    Returns ``(t', ext(Z, Tc, φ))``.  Raises ``ValueError`` when a side
    condition fails, naming the violated one — useful in examples and tests.
    """
    if not region.marks(t):
        raise ValueError(f"tuple is not marked by region {region!r}")
    z = region.attr_set
    if not set(rule.lhs) <= z:
        raise ValueError(
            f"X = {list(rule.lhs)} not contained in Z = {list(region.attrs)}"
        )
    if not set(rule.pattern.attrs) <= z:
        raise ValueError(
            f"Xp = {list(rule.pattern.attrs)} not contained in Z = "
            f"{list(region.attrs)}"
        )
    if rule.rhs in z:
        raise ValueError(f"B = {rule.rhs!r} is protected (already in Z)")
    if not rule.applies_to(t, tm):
        raise ValueError(f"({rule.name}, {tm!r}) does not apply to {t!r}")
    return rule.apply_unchecked(t, tm), region.extend(rule)


def fix_sequence(t: Row, region: Region, steps: Iterable):
    """Apply an explicit sequence of ``(rule, master_row)`` steps.

    Implements the paper's ``t →*((Z,Tc),Σ,Dm) t'`` for a chosen order;
    returns the final tuple and the final (extended) region.
    """
    current, reg = t, region
    for rule, tm in steps:
        current, reg = region_apply(current, reg, rule, tm)
    return current, reg


def is_fixpoint(t: Row, region: Region, rules: Iterable, master) -> bool:
    """Condition (2) of the fix definition: no pair ``(φ, tm)`` applies.

    Note the quantification: the sequence is maximal only when *no* pair is
    applicable at all — a pair that would re-assign the value already present
    still applies (and would extend ``Z``), so its mere applicability means
    the sequence can be continued.
    """
    assignment = dict(zip(t.schema.attributes, t.values))
    validated = frozenset(region.attrs)
    for _rule, _tm in applicable_pairs(assignment, validated, rules, master):
        return False
    return True
