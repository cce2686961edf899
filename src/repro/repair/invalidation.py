"""Delta-aware cache invalidation (the machinery behind surgical purges).

One master mutation used to drop *every* version-stamped cache — regions,
the Suggest⁺ BDD, pattern probes — costing 0.6–1.7s of rebuild per
mutation at bench scale.  The :class:`~repro.engine.store` delta journal
names exactly which rows changed, and a region-build check knows what it
read: its *read footprint*, every keyed probe ``(attrs, key)`` it made.
The Theorem 4 chase reads master data exclusively through keyed probes
and reports them as ``ChaseOutcome.reads``; ``check_pattern`` reports the
union over its chases as ``PatternCheck.reads`` — the complete master
dependency set of the check, which is what lets the region guard
re-verify exactly the checks a mutated row touched instead of rejecting
wholesale.  Full sweeps (iteration, ``active_values``) are not
footprints: the state they derive is guarded by other means (the region
guard's active-value snapshot, the pattern-cache patcher).  This module
turns deltas and footprints into per-key decisions:

* :class:`FootprintIndex` — a reverse index from probe footprints to the
  region guard's pattern checks that performed them.  ``hits(values)``
  names the recorded probe keys a mutated row projects onto and the
  checks behind them, in time proportional to the number of distinct
  probed attribute lists, not the number of checks.
* :class:`RegionGuard` — decides whether the precomputed certain regions
  survive a delta batch *unchanged*, for inserts, deletes and updates
  (which journal as delete+insert) alike.  It proves the fresh rebuild
  would produce the identical region list: no row appears in two deltas
  of the batch; every examined seed had at least as many candidate
  patterns as the build's validation window (so patterns projected off
  an inserted row land beyond the checked window) and no deleted row
  projects onto a pattern a seed checked (so the window never loses a
  member); a probe key a changed row falls under either keeps, for every
  rule probing it, the same set of guard-passing ``rhs_m`` values before
  and after the batch, or the checks that probed it are re-run against
  the live master (their good/not-good verdict must not flip); a deleted
  value that leaves a domain-feeding column re-runs the non-vacuous
  checks that instantiate over it; and checks whose instantiation
  choices grow with an inserted row's novel active values are
  re-verified by chasing exactly the new value combinations.  Anything
  it cannot prove falls back to a rebuild — the guard only ever skips
  work, never correctness.
* :func:`patch_pattern_cache` — applies the pattern-probe sweep's
  per-row witness test (:func:`~repro.repair.suggest.pattern_witness`)
  to each delta row, patching cached rule eligibility instead of
  re-sweeping the master.

Everything here is advisory: every consumer treats "cannot prove" as
"fall back to the full drop", so the delta path yields fixes bit-identical
to the full-drop path by construction (pinned by the equivalence fuzz in
``tests/test_store_equivalence.py``).
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Sequence

from repro.analysis.active_domain import (
    ActiveDomainCache,
    attribute_active_domain,
    instantiate_condition,
    read_attrs,
)
from repro.analysis.consistency import AnalysisExplosion, check_pattern
from repro.analysis.zproblems import projection_options, row_projected_patterns
from repro.core.fixes import chase
from repro.core.program import compile_rules
from repro.core.regions import Region
from repro.engine.schema import RelationSchema
from repro.engine.store import MasterStore
from repro.engine.tuples import Row
from repro.engine.values import UNKNOWN
from repro.repair.suggest import pattern_witness


class FootprintIndex:
    """Reverse index: master probe footprints → dependent entries.

    Entries register with :meth:`add` under an opaque key (the region
    guard's ``(seed, check)`` position) and the footprint the computation
    of the entry's value reported (a pattern check's
    ``PatternCheck.reads``).  :meth:`hits` projects a mutated row onto
    every distinct probed attribute list and yields the recorded probe
    keys it matches; the entries behind them are exactly those whose
    deterministic recompute could observe the mutation.  Not thread-safe:
    it belongs to one engine, which runs on one thread.
    """

    def __init__(self, schema: RelationSchema):
        self._schema = schema
        self._positions: dict = {}  # attrs -> value positions
        self._by_probe: dict = {}   # attrs -> {key: set(entry keys)}
        self._entries: dict = {}    # entry key -> tuple of footprints

    def __len__(self) -> int:
        return len(self._entries)

    def add(self, entry, footprints: Iterable) -> None:
        self.discard(entry)
        footprints = tuple(footprints)
        self._entries[entry] = footprints
        for attrs, key in footprints:
            if attrs not in self._positions:
                self._positions[attrs] = [
                    self._schema.index_of(a) for a in attrs
                ]
            self._by_probe.setdefault(attrs, {}).setdefault(
                key, set()
            ).add(entry)

    def discard(self, entry) -> None:
        footprints = self._entries.pop(entry, None)
        if not footprints:
            return
        for attrs, key in footprints:
            keyed = self._by_probe.get(attrs)
            if keyed is None:
                continue
            owners = keyed.get(key)
            if owners is not None:
                owners.discard(entry)
                if not owners:
                    del keyed[key]

    def hits(self, values: Sequence) -> Iterator[tuple]:
        """``(attrs, key, entries)`` for every recorded probe key the
        master value tuple *values* (a delta payload) projects onto.

        Cost is one projection + dict lookup per distinct attribute list
        ever probed — a handful for real rule sets.  *entries* is the
        live owner set: copy it before mutating the index.
        """
        for attrs, keyed in self._by_probe.items():
            key = tuple(values[p] for p in self._positions[attrs])
            entries = keyed.get(key)
            if entries:
                yield attrs, key, entries


def patch_pattern_cache(cache: dict, rules: Sequence, deltas, rows) -> None:
    """Update a ``{rule: holds}`` pattern cache for a delta batch.

    Mirrors what a fresh ``_pattern_holds_on_master`` sweep would answer,
    through the same per-row test (:func:`pattern_witness`): an inserted
    witness flips a cached False to True; deleting a witness of a cached
    True drops the entry (the remaining rows may or may not still contain
    one — recompute lazily); every other combination leaves the cached
    verdict exact.
    """
    for rule in rules:
        if rule not in cache:
            continue
        witnesses = pattern_witness(rule)
        for delta, row in zip(deltas, rows):
            cached = cache.get(rule)
            if cached is None:
                break  # dropped below; recomputed lazily on next use
            witnessed = witnesses is None or witnesses(row)
            if delta.op == "insert":
                if not cached and witnessed:
                    cache[rule] = True
            elif cached and witnessed:
                del cache[rule]


class _SnapshotActives:
    """Adapter exposing a ``{column: values}`` snapshot as the
    ``active_values`` surface :func:`attribute_active_domain` reads."""

    def __init__(self, snapshot: dict):
        self._snapshot = snapshot

    def active_values(self, column: str) -> set:
        return self._snapshot.get(column, set())


class RegionGuard:
    """Decides whether precomputed certain regions survive a delta batch.

    Built alongside ``comp_c_region`` from two artifacts of the build —
    its ``record``: per seed, how many candidate patterns existed, the
    build's validation window and instantiation budget, and per checked
    pattern the verdict and keyed-probe footprint (``PatternCheck.reads``)
    — and a snapshot of the master's active values for every column that
    feeds a readable attribute's instantiation domain.  The build probes
    by key only inside ``check_pattern``, so the per-check footprints
    cover every keyed read it made.  :meth:`absorb` then
    proves, delta batch by delta batch, that a fresh rebuild would
    reproduce the current region list exactly — or returns False,
    sending the owner down the ordinary rebuild path (a False return
    leaves the guard stale; the owner must discard it together with the
    regions).  Proof obligations per batch:

    1. **batch shape** — no row's values appear in two deltas of the
       batch (an update's delete and insert carry different rows, so
       updates qualify; an insert-then-delete of one row does not);
    2. **window** — every examined seed saw at least as many candidates
       as its validation window, and candidates are generated per master
       row in insertion order, so patterns projected off an inserted row
       append beyond the checked window; a deleted row leaves the window intact
       iff none of its projected patterns is one the seed checked (the
       checked prefix of the candidate sequence never came from it);
    3. **probe hits** — the chase reads a probed master row only through
       ``rule.master_guard.matches(tm)`` and ``tm[rule.rhs_m]``, so a
       changed row under a recorded probe key is benign iff, for every
       rule probing that attribute list whose master guard the row
       passes, the set of guard-passing ``rhs_m`` values under the key
       is the same before and after the batch.  Other hits re-run their
       checks against the live master — the good/not-good verdict (the
       only part of an examination the region list depends on) must not
       flip; checks the changed rows' probes miss replay identically by
       determinism;
    4. **shrinking active domains** — a domain-feeding column whose
       deleted value no longer occurs in the live master re-runs every
       non-vacuous check of the seeds reading an attribute it feeds
       (a vacuous check stays vacuous: deletes never grow a choice
       list);
    5. **growing active domains** — for unhit checks whose instantiation
       choices grow with the inserted rows' novel active values: the
       grown instantiation space must stay within budget (a fresh build
       would raise ``AnalysisExplosion`` beyond it), a vacuous check
       must keep at least one empty choice list, and a certain check
       must chase every *new* value combination to a unique covering
       fix — old combinations are a subset that replays identically.
       Checks whose affected attributes are all constant in the pattern
       are skipped: a constant's choice list ignores active domains.
    """

    def __init__(
        self,
        rules: Sequence,
        schema: RelationSchema,
        store: MasterStore,
        seed_records: Sequence,
    ):
        # Compiled once: re-verification chases on it.
        self._rules = compile_rules(rules, schema, store)
        self._schema = schema  # the input schema R (region attrs live here)
        self._master_schema = store.schema
        # Mutable copies: check entries become [pattern, verdict, reads]
        # lists so re-verification can refresh verdicts and footprints.
        # ``checked`` and ``options`` serve the delete-window proof.
        self._records = [
            {
                "z": rec["z"],
                "max_instantiations": rec["max_instantiations"],
                "checks": [list(entry) for entry in rec["checks"]],
                "checked": frozenset(entry[0] for entry in rec["checks"]),
                "options": projection_options(rec["z"], self._rules),
            }
            for rec in seed_records
        ]
        self._readable = read_attrs(self._rules)
        # Retention precondition (1): with fewer candidates than the
        # window, a pattern projected off an inserted row could enter the
        # checked window and change the build outcome.
        usable = all(
            rec["candidates"] >= rec["validate_patterns"]
            for rec in seed_records
        )
        # Reverse probe index: footprint -> the (seed, check) entries
        # whose verdict depended on it.
        self._footprints = FootprintIndex(self._master_schema)
        if usable:
            for ri, rec in enumerate(self._records):
                for ci, entry in enumerate(rec["checks"]):
                    self._footprints.add((ri, ci), entry[2])
        self._usable = usable
        # Master columns feeding each readable attribute's active domain
        # (mirrors attribute_active_domain's column collection; attributes
        # the rules never read instantiate without a domain).
        self._columns_by_attr: dict = {}
        self._rules_by_lhs_m: dict = {}
        for rule in self._rules:
            for attr in rule.lhs:
                self._columns_by_attr.setdefault(attr, set()).add(
                    rule.master_attr_of(attr)
                )
            if rule.rhs in self._readable:
                self._columns_by_attr.setdefault(rule.rhs, set()).add(
                    rule.rhs_m
                )
            self._rules_by_lhs_m.setdefault(tuple(rule.lhs_m), []).append(rule)
        # Active-value snapshot for every domain-feeding column, taken at
        # build time and advanced to the post-batch values by every
        # absorbed batch.
        self._active: dict = {}
        if usable:
            for columns in self._columns_by_attr.values():
                for column in columns:
                    if column not in self._active:
                        self._active[column] = set(store.active_values(column))
        self._column_positions = {
            column: self._master_schema.index_of(column)
            for column in self._active
        }

    # -- the absorb decision -------------------------------------------------

    def absorb(self, deltas, store: MasterStore) -> bool:
        """True iff the current region list equals a fresh rebuild's.

        *store* is the live master (deltas already applied); re-checks
        and new value combinations run against it, exactly as a rebuild
        would.  A False return leaves the guard stale — the owner must
        discard it together with the regions.
        """
        if not self._usable:
            return False
        values = [delta.values for delta in deltas]
        if len(set(values)) != len(values):
            return False  # obligation 1: one row, several deltas
        if any(delta.op not in ("insert", "delete") for delta in deltas):
            return False
        inserted = {d.values for d in deltas if d.op == "insert"}
        deleted = [
            Row(self._master_schema, d.values)
            for d in deltas if d.op == "delete"
        ]
        if deleted and not self._window_survives(deleted):
            return False
        # Which checks did the changed rows' probe keys touch (minus hits
        # proven benign)?
        hit: set = set()
        for delta in deltas:
            row = Row(self._master_schema, delta.values)
            for attrs, key, owners in self._footprints.hits(delta.values):
                if not self._benign_hit(
                    attrs, key, row, inserted, deleted, store
                ):
                    hit.update(owners)
        new_active, grown, shrunk = self._post_batch_actives(deltas, store)
        if shrunk:
            hit.update(self._domain_readers(shrunk))
        if hit and not self._reverify_hits(hit, store):
            return False
        if grown and not self._absorb_novel_values(
            grown, new_active, hit, store
        ):
            return False
        self._active = new_active
        return True

    def _window_survives(self, deleted: list) -> bool:
        """Obligation 2 for deletes: no deleted row projects onto a
        pattern any seed checked, so each checked window is unchanged."""
        for rec in self._records:
            checked = rec["checked"]
            for row in deleted:
                for pattern in row_projected_patterns(
                    rec["z"], rec["options"], row
                ):
                    if pattern in checked:
                        return False
        return True

    def _benign_hit(
        self, attrs: tuple, key: tuple, row: Row, inserted: set,
        deleted: list, store: MasterStore,
    ) -> bool:
        """Whether *row* entering or leaving the ``(attrs, key)`` probe
        result cannot change any chase outcome that performed the probe.

        The chase consumes a probed master row through exactly two reads:
        ``rule.master_guard.matches(tm)`` and ``tm[rule.rhs_m]`` (batch
        firing, conflict detection and the post-pass all reduce to the set
        of guard-passing rhs values under the key).  So for every rule
        probing with this attribute list whose master guard *row* passes,
        that set must be the same before and after the batch.  "Before" is
        the live matches minus the batch's inserted rows plus its deleted
        rows under the key.  Probe keys shared by many checks (common:
        instantiated patterns reuse hot master keys) then skip
        re-verification entirely.
        """
        rules = self._rules_by_lhs_m.get(attrs)
        if rules is None:
            return False  # probe not attributable to a rule — be safe
        live = store.probe_ref(attrs, key)
        gone = [tm for tm in deleted if tm[attrs] == key]
        for rule in rules:
            guard = rule.master_guard
            if not guard.matches(row):
                continue
            after: set = set()
            before: set = set()
            for tm in live:
                if not guard.matches(tm):
                    continue
                after.add(tm[rule.rhs_m])
                if tuple(tm.values) not in inserted:
                    before.add(tm[rule.rhs_m])
            for tm in gone:
                if guard.matches(tm):
                    before.add(tm[rule.rhs_m])
            if before != after:
                return False
        return True

    def _post_batch_actives(self, deltas, store: MasterStore) -> tuple:
        """``(post-batch active snapshot, grown columns, shrunk columns)``.

        Inserted values join their columns.  A deleted value may have
        left its column: unless an inserted row of the batch re-supplies
        it, one live ``active_values`` sweep per such column decides.
        Unchanged columns share the current snapshot's set.
        """
        added: dict = {}
        removed: dict = {}
        for delta in deltas:
            bucket = added if delta.op == "insert" else removed
            for column, position in self._column_positions.items():
                bucket.setdefault(column, set()).add(delta.values[position])
        new_active = dict(self._active)
        for column, values in removed.items():
            if not values <= added.get(column, set()):
                new_active[column] = set(store.active_values(column))
        for column, values in added.items():
            if not values <= new_active[column]:
                new_active[column] = new_active[column] | values
        changed = [
            column for column, active in new_active.items()
            if active is not self._active[column]
        ]
        grown = {c for c in changed if not new_active[c] <= self._active[c]}
        shrunk = {c for c in changed if not self._active[c] <= new_active[c]}
        return new_active, grown, shrunk

    def _domain_readers(self, columns: set) -> set:
        """Obligation 4: the non-vacuous checks of every seed whose Z
        holds a readable attribute fed by one of *columns*."""
        out: set = set()
        for ri, rec in enumerate(self._records):
            if not any(
                self._columns_by_attr.get(attr, set()) & columns
                for attr in rec["z"]
            ):
                continue
            for ci, entry in enumerate(rec["checks"]):
                if entry[1] != "vacuous":
                    out.add((ri, ci))
        return out

    def _reverify_hits(self, hit: set, store: MasterStore) -> bool:
        """Re-run every probe-hit check against the live master.

        The region list depends on each check only through its
        good/not-good verdict (good patterns form the tableau in check
        order; counts and quality follow), so retention needs exactly
        that bit to survive.  Verdicts and footprints are refreshed from
        the re-run so future absorbs see current dependencies.
        """
        # One live master version for the whole call: each active domain
        # is read once, not once per re-run check.
        domains = ActiveDomainCache(self._rules, store)
        for ri, ci in sorted(hit):
            rec = self._records[ri]
            entry = rec["checks"][ci]
            try:
                check = check_pattern(
                    self._rules,
                    store,
                    Region(rec["z"], tableau=None),
                    entry[0],
                    self._schema,
                    rec["max_instantiations"],
                    domains=domains,
                )
            except AnalysisExplosion:
                return False  # a fresh build would raise; rebuild to match
            is_good = check.certain and check.instantiations > 0
            if is_good != (entry[1] == "good"):
                return False
            entry[1] = (
                "good" if is_good
                else "vacuous" if check.instantiations == 0
                else "failed"
            )
            entry[2] = check.reads
            self._footprints.add((ri, ci), entry[2])
        return True

    def _absorb_novel_values(
        self, novel_columns: set, new_active: dict, hit: set,
        store: MasterStore,
    ) -> bool:
        """Verify unhit checks whose instantiation choices grew."""
        # Instantiation contexts: active domains and per-(attr, condition)
        # choice lists are pure functions of the snapshot — memoised per
        # absorb so checks sharing conditions (the common case: candidate
        # patterns differ in a few attributes) pay for them once.
        old_ctx = (_SnapshotActives(self._active), {}, {})
        new_ctx = (_SnapshotActives(new_active), {}, {})
        for ri, rec in enumerate(self._records):
            z = rec["z"]
            affected = [
                attr
                for attr in z
                if self._columns_by_attr.get(attr, set()) & novel_columns
            ]
            if not affected:
                continue
            for ci, entry in enumerate(rec["checks"]):
                if (ri, ci) in hit:
                    continue  # already re-verified against the live master
                pattern = entry[0]
                if all(pattern[attr].is_constant for attr in affected):
                    continue  # a constant's choices ignore active domains
                if not self._check_survives_growth(
                    ri, ci, entry, z, old_ctx, new_ctx, store
                ):
                    return False
        return True

    def _choices(self, z, pattern, ctx) -> list:
        """Per-attribute instantiation values against a snapshot context
        ``(snapshot, domain memo, choice memo)`` — the exact logic of
        ``_instantiation_space`` with snapshot actives.  Returned lists
        are shared through the memo; callers must not mutate them."""
        snapshot, domains, memo = ctx
        choices = []
        for attr in z:
            condition = pattern[attr]
            if attr not in self._readable:
                choices.append(
                    [condition.value] if condition.is_constant else [UNKNOWN]
                )
                continue
            cached = memo.get((attr, condition))
            if cached is None:
                active = domains.get(attr)
                if active is None:
                    active = domains[attr] = attribute_active_domain(
                        attr, self._rules, snapshot
                    )
                cached = memo[(attr, condition)] = instantiate_condition(
                    condition, active, self._schema.domain_of(attr), attr
                )
            choices.append(cached)
        return choices

    def _check_survives_growth(
        self, ri, ci, entry, z, old_ctx, new_ctx, store
    ) -> bool:
        pattern, verdict, _reads = entry
        old_choices = self._choices(z, pattern, old_ctx)
        new_choices = self._choices(z, pattern, new_ctx)
        added = [
            [v for v in new if v not in set(old)]
            for old, new in zip(old_choices, new_choices)
        ]
        if not any(added):
            return True
        space = 1
        for values in new_choices:
            space *= max(len(values), 1)
        if space > self._records[ri]["max_instantiations"]:
            # A fresh check_pattern would raise AnalysisExplosion before
            # even the vacuous early-return; rebuild so the owner
            # reproduces the build-time behaviour.
            return False
        if verdict == "vacuous":
            # Vacuous = some attribute's choice list is empty; inserts
            # only grow lists, so vacuousness persists iff one stays
            # empty.  A check waking up could change the good set.
            return any(not values for values in new_choices)
        if verdict != "good":
            # The failing combination recorded at build replays
            # identically (its probes missed the new rows, else this
            # check would be in the hit set), so it cannot turn good.
            return True
        # Certain check: old combinations replay identically; chase
        # exactly the combinations that include at least one new value,
        # recording their probes so future deltas can find this check.
        reads = set(entry[2])
        all_attrs = set(self._schema.attributes)
        for index, fresh_values in enumerate(added):
            if not fresh_values:
                continue
            # Positions before `index` take old values, `index` takes
            # only new values, later positions run the full new lists
            # — disjoint and jointly exhaustive over "at least one
            # new value" without re-enumerating the old product.
            pools = [
                old_choices[i] if i < index
                else (fresh_values if i == index else new_choices[i])
                for i in range(len(new_choices))
            ]
            for combo in itertools.product(*pools):
                outcome = chase(dict(zip(z, combo)), z, self._rules, store)
                if not outcome.unique or not outcome.covered >= all_attrs:
                    return False
                reads.update(outcome.reads)
        entry[2] = frozenset(reads)
        self._footprints.add((ri, ci), entry[2])
        return True
