"""Procedure Suggest (Sect. 5.2).

Given a tuple ``t`` whose attributes ``Z`` are validated, a *suggestion* is a
set ``S`` of further attributes such that asserting ``t[S]`` lands the tuple
in a certain region (Proposition 20 reduces the search to the *applicable
rules* ``Σt[Z]``: rules surviving three conditions and refined with the
validated values, ``φ⁺``).  Finding a minimum ``S`` is NP-complete and
approximation-hard (the S-minimum problem), so this module implements the
paper's practical route:

1. derive ``Σt[Z]`` (conditions (a)–(c), refinement (i)–(ii));
2. seed ``S`` with the attributes no applicable rule can fix, then grow
   greedily by attribute-closure gain until the closure reaches ``R``;
3. search for a master-backed witness pattern over ``Z ∪ S`` (the expensive
   certain-region computation that Suggest⁺'s BDD cache later avoids).

The refinement ``φ⁺`` serves only this fresh Suggest and its witness
search: it adds the validated key to a rule's pattern, which leaves the
premise ``X ∪ Xp`` unchanged, so the closure steps above and Suggest⁺'s
reuse check reach the same verdict without it.  That check tests
conditions (b)–(c) per rule with :func:`rule_survives` inside its closure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.analysis.closure import attribute_closure, grow_closure
from repro.analysis.consistency import check_pattern
from repro.analysis.zproblems import (
    attr_master_options,
    attr_pattern_constants,
)
from repro.core.patterns import ANY, Const, PatternTuple
from repro.core.program import compile_rules
from repro.core.regions import Region
from repro.engine.schema import RelationSchema
from repro.engine.store import MasterStore, as_master_store
from repro.engine.tuples import Row
from repro.engine.values import UNKNOWN


@dataclass
class Suggestion:
    """A recommended attribute set ``S`` for the next interaction round."""

    attrs: tuple
    certain: bool
    witness: PatternTuple = None
    source: str = "structural"

    def __bool__(self) -> bool:
        return bool(self.attrs)


def pattern_witness(rule):
    """Condition (c) with an empty validated key, per master row: the test
    ``tm -> bool`` of whether *tm* passes the rule's master guard and
    matches the pattern part ``tp[Xp ∩ X]`` through its correspondence,
    or ``None`` when every row does (no pattern check, no guard).

    The sweep (:func:`_pattern_holds_on_master`) and the delta patcher of
    its cached verdicts
    (:func:`~repro.repair.invalidation.patch_pattern_cache`) both decide
    a row through this one test.
    """
    checks = [
        (rule.master_attr_of(attr), rule.pattern[attr])
        for attr in rule.pattern.attrs
        if attr in rule.lhs and not rule.pattern[attr].is_wildcard
    ]
    guard = rule.master_guard
    if not checks and not len(guard):
        return None

    def witnesses(tm) -> bool:
        return guard.matches(tm) and all(
            condition.matches(tm[column]) for column, condition in checks
        )

    return witnesses


def _pattern_holds_on_master(rule, master: MasterStore) -> bool:
    """Condition (c) with an empty validated key: some master tuple is a
    :func:`pattern_witness` of the rule."""
    witnesses = pattern_witness(rule)
    if witnesses is None:
        return len(master) > 0
    return any(map(witnesses, master))


def rule_survives(
    plan,
    master: MasterStore,
    values: Sequence,
    z: frozenset,
    pattern_cache: dict = None,
) -> bool:
    """Conditions (b) and (c) of ``Σt[Z]`` (Sect. 5.2) for one rule φ.

    *plan* is φ's :class:`~repro.core.program.RulePlan` and *values* the
    tuple's values aligned with its program
    (:meth:`~repro.core.program.RuleProgram.values_of`).  (b) φ's pattern
    holds on the validated attributes, none of them ``UNKNOWN``; (c) some
    master tuple matches both the validated key part and the pattern part
    — a keyed :meth:`~repro.engine.store.MasterStore.probe_ref`, or, when
    no key attribute is validated, a pattern-only sweep whose verdict is
    cached per rule in *pattern_cache*.  :func:`applicable_rules` and the
    Suggest⁺ reuse check both decide survival here.
    """
    for attr, position, condition in plan.pattern_slots:  # (b)
        if attr not in z:
            continue
        value = values[position]
        if value is UNKNOWN or (
            condition is not None and not condition.matches(value)
        ):
            return False
    key_slots = [entry for entry in plan.lhs_slots if entry[0] in z]
    if key_slots:  # (c), keyed probe on the validated part of the key
        key = tuple([values[position] for _, position, _ in key_slots])
        if UNKNOWN in key:
            return False
        columns = tuple([column for _, _, column in key_slots])
        matches = master.probe_ref(columns, key)
        checks = [
            (mpos, condition)
            for attr, mpos, condition in plan.master_checks
            if attr not in z
        ]
        guard = plan.guard
        for tm in matches:
            if guard is not None and not guard.matches(tm):
                continue
            if all(
                condition.matches(tm.values[mpos]) for mpos, condition in checks
            ):
                return True
        return False
    # (c), pattern-only probe (cacheable per rule).  Keyed by the rule
    # itself, not its name: names need not be unique (an unnamed rule is
    # named "(X)->B"), and rules sharing one may differ in pattern or
    # master guard.
    rule = plan.rule
    holds = pattern_cache.get(rule) if pattern_cache is not None else None
    if holds is None:
        holds = _pattern_holds_on_master(rule, master)
        if pattern_cache is not None:
            pattern_cache[rule] = holds
    return holds


def applicable_rules(
    rules: Sequence,
    master,
    row: Row,
    z: frozenset,
    pattern_cache: dict = None,
) -> list:
    """The refined applicable rules ``Σt[Z]`` (Sect. 5.2).

    For each rule φ, keep it iff (a) its target is outside ``Z`` and
    :func:`rule_survives` — (b) its pattern holds on the validated
    attributes and (c) some master tuple matches both the validated key
    part and the pattern part; the survivor ``φ⁺`` absorbs the validated
    key attributes into its pattern with the concrete values of ``t``.
    Only the fresh Suggest, its witness search and :func:`s_minimum_exact`
    read that refinement; the Suggest⁺ reuse check tests survival rule by
    rule inside its closure and builds no ``φ⁺``.  *rules* is a plain
    rule list or a :class:`~repro.core.program.RuleProgram`.
    """
    master = as_master_store(master)
    program = compile_rules(rules, row.schema, master)
    values = program.values_of(row)
    out = []
    for plan in program.plans:
        if plan.rhs in z:  # (a)
            continue
        if not rule_survives(plan, master, values, z, pattern_cache):
            continue
        # Refinement (i)-(ii): extend the pattern with the validated key.
        rule = plan.rule
        refined = rule.pattern.extend(
            {a: Const(row[a]) for a in rule.lhs if a in z}
        )
        out.append(rule.with_pattern(refined))
    return out


def _grow_suggestion(schema, z: frozenset, applicable: list) -> tuple:
    """Seed + closure-greedy growth of the suggestion set ``S``."""
    fixable = {rule.rhs for rule in applicable}
    seed = [a for a in schema.attributes if a not in z and a not in fixable]
    s = grow_closure(schema, applicable, seed, fixed=z)
    return tuple(a for a in schema.attributes if a in s)


def _witness_search(
    rules, master, schema, row, z, s, validate_patterns, max_instantiations
):
    """Look for a pattern over ``Z ∪ S`` (values of ``t`` on ``Z``, master
    projections on ``S``) that certifies a certain region (Prop. 20)."""
    # Compiled once: every candidate's check chases on the same program.
    rules = compile_rules(rules, schema, master)
    zs = tuple(a for a in schema.attributes if a in z or a in set(s))
    per_attr_static = {}
    per_attr_columns = {}
    for attr in s:
        columns = attr_master_options(attr, rules)
        constants = attr_pattern_constants(attr, rules)
        per_attr_columns[attr] = columns
        per_attr_static[attr] = list(constants) if (columns or constants) else [ANY]

    # Sweep the whole master relation for candidate patterns (the paper's
    # Suggest recomputes a certain region over Dm — an O(|Dm|)-and-up step;
    # exactly the latency the BDD cache of Suggest⁺ exists to avoid), then
    # validate a bounded prefix.
    z_conditions = {}
    for attr in zs:
        if attr in z:
            z_conditions[attr] = (
                Const(row[attr]) if row[attr] is not UNKNOWN else ANY
            )
    import itertools

    seen = set()
    candidates = []
    s_attrs = [attr for attr in zs if attr not in z]
    for tm in master:
        option_lists = []
        for attr in s_attrs:
            options = list(per_attr_static[attr])
            for column in per_attr_columns[attr]:
                value = tm[column]
                if value not in options:
                    options.append(value)
            option_lists.append(options if options else [ANY])
        # Bounded per-row product: a row may support several pattern
        # shapes (e.g. home vs mobile phone with its type constant).
        combos = itertools.islice(itertools.product(*option_lists), 8)
        for combo in combos:
            conditions = dict(z_conditions)
            conditions.update(zip(s_attrs, combo))
            pattern = PatternTuple({a: conditions[a] for a in zs})
            if pattern not in seen:
                seen.add(pattern)
                candidates.append(pattern)
    for pattern in candidates[:validate_patterns]:
        region = Region(zs, tableau=None)
        check = check_pattern(
            rules, master, region, pattern, schema, max_instantiations
        )
        if check.certain and check.instantiations > 0:
            return pattern
    return None


def s_minimum_exact(
    rules: Sequence,
    master,
    schema: RelationSchema,
    row: Row,
    z: frozenset,
    max_size: int = None,
    max_subsets: int = 20_000,
    validate_patterns: int = 64,
    max_instantiations: int = 50_000,
):
    """The S-minimum problem, solved exactly by bounded subset search.

    Sect. 5.2: find the smallest ``S`` disjoint from ``Z`` such that ``S``
    is a suggestion for ``t`` w.r.t. ``t[Z]`` — NP-complete and not
    ``c log n``-approximable (it has the Z-minimum problem as the ``Z = ∅``
    special case), hence the subset-budget guard.  Returns
    ``(S tuple, witness pattern)`` or ``None``.
    """
    master = as_master_store(master)
    z = frozenset(z)
    # Compiled once: the witness search of every subset chases on it.
    applicable = compile_rules(
        applicable_rules(rules, master, row, z), schema, master
    )
    candidates = [a for a in schema.attributes if a not in z]
    all_attrs = set(schema.attributes)
    limit = max_size if max_size is not None else len(candidates)
    # Attributes no applicable rule can fix must be in every S.
    fixable = {rule.rhs for rule in applicable}
    mandatory = tuple(a for a in candidates if a not in fixable)
    optional = [a for a in candidates if a not in mandatory]
    from itertools import combinations

    examined = 0
    for k in range(0, max(0, limit - len(mandatory)) + 1):
        for extra in combinations(optional, k):
            examined += 1
            if examined > max_subsets:
                raise RuntimeError(
                    f"S-minimum examined more than {max_subsets} subsets; "
                    f"the problem is NP-complete (Sect. 5.2)"
                )
            s = tuple(
                a for a in schema.attributes
                if a in mandatory or a in extra
            )
            if attribute_closure(z | set(s), applicable) < all_attrs:
                continue
            witness = _witness_search(
                applicable, master, schema, row, z, s,
                validate_patterns, max_instantiations,
            )
            if witness is not None:
                return s, witness
    return None


def suggest(
    rules: Sequence,
    master,
    schema: RelationSchema,
    row: Row,
    z: frozenset,
    pattern_cache: dict = None,
    validate_patterns: int = 48,
    max_instantiations: int = 50_000,
) -> Suggestion:
    """Compute a new suggestion for ``t`` given validated attributes ``Z``.

    *master* may be any :class:`~repro.engine.store.MasterStore` (or a plain
    relation); the result is a pure function of ``(Z, t[Z])`` for a fixed
    ``(Σ, Dm)``, which is what makes the BDD cache of
    :class:`~repro.repair.certainfix.CertainFix` sound.
    """
    master = as_master_store(master)
    z = frozenset(z)
    applicable = applicable_rules(rules, master, row, z, pattern_cache)
    s = _grow_suggestion(schema, z, applicable)
    if not s:
        # Nothing left that rules cannot settle; suggest whatever remains
        # unvalidated so the user can close out the tuple.
        s = tuple(a for a in schema.attributes if a not in z)
        return Suggestion(
            attrs=s,
            certain=False,
            source="remainder",
        )
    witness = None
    if validate_patterns > 0 and applicable:
        witness = _witness_search(
            applicable, master, schema, row, z, s,
            validate_patterns, max_instantiations,
        )
    return Suggestion(
        attrs=s,
        certain=witness is not None,
        witness=witness,
        source="certain-region" if witness is not None else "structural",
    )
