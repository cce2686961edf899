"""Delta-aware cache invalidation (the machinery behind surgical purges).

One master mutation used to drop *every* version-stamped cache — regions,
the Suggest⁺ BDD, the chase memo, pattern probes — costing 0.6–1.7s
of rebuild per mutation at bench scale.  The :class:`~repro.engine.store`
delta journal names exactly which rows changed; this module provides the
consumer-side machinery that turns those deltas into per-key purges:

* :class:`RecordingStore` — a pass-through :class:`MasterStore` wrapper
  that records the *read footprint* of a computation: every keyed probe
  ``(attrs, key)`` it forwarded.  The chase reads master data
  exclusively through keyed probes, so a recorded footprint is the
  complete master dependency set of a memo entry or a pattern check's
  chase work.  ``push_sink``/``pop_sink`` additionally scope footprints
  to one sub-computation (one ``check_pattern`` call of a region build),
  which is what lets the region guard re-verify exactly the checks a
  mutated row touched instead of rejecting wholesale.
* :class:`FootprintIndex` — a reverse index from probe footprints to the
  derived state that performed them: chase-memo entries of the batch
  engine and the region guard's pattern checks alike.  ``hits(values)``
  names the recorded probe keys a mutated row projects onto, and
  ``affected(rows)`` the entries behind them, in time proportional to the
  number of distinct probed attribute lists, not the number of entries.
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
* :func:`row_supports_pattern` — the per-row body of the pattern-probe
  sweep (``_pattern_holds_on_master``), used to patch cached rule
  eligibility per delta instead of re-sweeping the master.

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
from repro.core.regions import Region
from repro.engine.schema import RelationSchema
from repro.engine.store import MasterStore
from repro.engine.tuples import Row
from repro.engine.values import UNKNOWN


class RecordingStore(MasterStore):
    """Pass-through store wrapper that records keyed-probe footprints.

    ``footprints`` accumulates ``(attrs, key)`` for every keyed read
    (``probe_ref``, ``probe_batch`` and ``scan_probe``, plus ``probe``,
    ``probe_many`` and ``contains_key``, which the base class derives from
    the first two); ``swept`` notes whether any full sweep (iteration,
    ``len``, ``active_values``) happened.  Sweeps are *not* footprints:
    consumers whose sweep-derived state is guarded by other means (the
    region guard's active-value snapshot, the pattern-cache patcher)
    deliberately ignore them.

    A *sink* pushed with :meth:`push_sink` additionally receives every
    footprint recorded until :meth:`pop_sink`, scoping dependencies to
    one sub-computation without losing the global set.
    """

    def __init__(self, store: MasterStore):
        self._store = store
        self.footprints: set = set()
        self.swept = False
        self._sink = None

    def push_sink(self, sink: set) -> None:
        self._sink = sink

    def pop_sink(self) -> None:
        self._sink = None

    def _record(self, attrs: tuple, key: tuple) -> None:
        footprint = (attrs, key)
        self.footprints.add(footprint)
        if self._sink is not None:
            self._sink.add(footprint)

    # -- read API (recorded) -------------------------------------------------

    def probe_ref(self, attrs: Iterable, key):
        attrs = tuple(attrs)
        key = tuple(key)
        self._record(attrs, key)
        return self._store.probe_ref(attrs, key)

    def probe_batch(self, probes: Iterable) -> list:
        probes = [(tuple(attrs), tuple(key)) for attrs, key in probes]
        for attrs, key in probes:
            self._record(attrs, key)
        return self._store.probe_batch(probes)

    def scan_probe(self, attrs: Iterable, key) -> tuple:
        # Index-free, but still a keyed read: same dependency shape.
        attrs = tuple(attrs)
        key = tuple(key)
        self._record(attrs, key)
        return self._store.scan_probe(attrs, key)

    # -- read API (sweeps) ---------------------------------------------------

    def __len__(self) -> int:
        self.swept = True
        return len(self._store)

    def __iter__(self) -> Iterator[Row]:
        self.swept = True
        return iter(self._store)

    def iter_from(self, start: int) -> Iterator[Row]:
        self.swept = True
        return self._store.iter_from(start)

    def active_values(self, attr: str) -> set:
        self.swept = True
        return self._store.active_values(attr)

    # -- plumbing ------------------------------------------------------------

    @property
    def schema(self) -> RelationSchema:
        return self._store.schema

    @property
    def version(self) -> int:
        return self._store.version

    def ensure_index(self, attrs: Iterable) -> None:
        self._store.ensure_index(attrs)

    def insert(self, row) -> None:
        self._store.insert(row)

    def delete(self, row) -> bool:
        return self._store.delete(row)


class FootprintIndex:
    """Reverse index: master probe footprints → dependent entries.

    Entries register with :meth:`add` under an opaque key (a chase-memo
    key, a region guard's ``(seed, check)`` position) and the footprint
    set a :class:`RecordingStore` captured while the entry's value was
    computed.  :meth:`hits` projects a mutated row onto every distinct
    probed attribute list and yields the recorded probe keys it matches;
    the entries behind them are exactly those whose deterministic
    recompute could observe the mutation.  Not thread-safe; callers hold
    the owning engine's memo guard.
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

    def affected(self, rows: Iterable) -> set:
        """Entries whose recorded probes any of *rows* projects onto."""
        out: set = set()
        for values in rows:
            for _attrs, _key, entries in self.hits(values):
                out.update(entries)
        return out

    def clear(self) -> None:
        self._by_probe.clear()
        self._entries.clear()


def row_supports_pattern(rule, row: Row) -> bool:
    """Whether master row *row* witnesses *rule*'s pattern part.

    The per-row body of ``_pattern_holds_on_master`` (condition (c) with
    an empty validated key): with no pattern checks and no master guard
    any row is a witness (the sweep degenerates to ``len(master) > 0``).
    Used to patch per-rule pattern caches delta by delta.
    """
    checks = [
        (rule.master_attr_of(attr), rule.pattern[attr])
        for attr in rule.pattern.attrs
        if attr in rule.lhs and not rule.pattern[attr].is_wildcard
    ]
    if not checks and not len(rule.master_guard):
        return True
    if not rule.master_guard.matches(row):
        return False
    return all(condition.matches(row[column]) for column, condition in checks)


def patch_pattern_cache(cache: dict, rules: Sequence, deltas, rows) -> None:
    """Update a ``{rule: holds}`` pattern cache for a delta batch.

    Mirrors what a fresh ``_pattern_holds_on_master`` sweep would answer:
    an inserted witness flips a cached False to True; deleting a witness
    of a cached True drops the entry (the remaining rows may or may not
    still contain one — recompute lazily); every other combination leaves
    the cached verdict exact.
    """
    for rule in rules:
        if rule not in cache:
            continue
        for delta, row in zip(deltas, rows):
            cached = cache.get(rule)
            if cached is None:
                break  # dropped below; recomputed lazily on next use
            if delta.op == "insert":
                if not cached and row_supports_pattern(rule, row):
                    cache[rule] = True
            elif cached and row_supports_pattern(rule, row):
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

    Built alongside ``comp_c_region`` from three artifacts of the build:
    per-check keyed-probe footprints (each ``check_pattern`` call runs
    with a :class:`RecordingStore` sink pushed), per-seed records of how
    many candidate patterns existed and what verdict each checked
    pattern received, plus the build's validation window and
    instantiation budget (the ``record`` sink of ``comp_c_region``), and a
    snapshot of the master's active values for every column that feeds
    a readable attribute's instantiation domain.  :meth:`absorb` then
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
        footprints: Iterable,
        seed_records: Sequence,
    ):
        self._rules = list(rules)
        self._schema = schema  # the input schema R (region attrs live here)
        self._master_schema = store.schema
        # Mutable copies: check entries become [pattern, verdict, sink]
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
        scoped: set = set()
        if usable:
            for ri, rec in enumerate(self._records):
                for ci, entry in enumerate(rec["checks"]):
                    if len(entry) < 3 or entry[2] is None:
                        # No per-check scope recorded (builder ran against
                        # a store without sink support) — unattributable.
                        usable = False
                        break
                    scoped.update(entry[2])
                    self._footprints.add((ri, ci), entry[2])
                if not usable:
                    break
        # Safety net: a probe performed outside any check scope has no
        # owner to re-verify, making retention unattributable.
        if usable and set(footprints) - scoped:
            usable = False
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
        recording = RecordingStore(store)
        # One live master version for the whole call: active domains are
        # swept once, not once per re-run check.
        domains = ActiveDomainCache(self._rules, recording)
        for ri, ci in sorted(hit):
            rec = self._records[ri]
            entry = rec["checks"][ci]
            pattern, old_verdict, _old_sink = entry
            sink: set = set()
            recording.push_sink(sink)
            try:
                check = check_pattern(
                    self._rules,
                    recording,
                    Region(rec["z"], tableau=None),
                    pattern,
                    self._schema,
                    rec["max_instantiations"],
                    domains=domains,
                )
            except AnalysisExplosion:
                return False  # a fresh build would raise; rebuild to match
            finally:
                recording.pop_sink()
            is_good = check.certain and check.instantiations > 0
            if is_good != (old_verdict == "good"):
                return False
            entry[1] = (
                "good" if is_good
                else "vacuous" if check.instantiations == 0
                else "failed"
            )
            entry[2] = frozenset(sink)
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
        pattern, verdict, _sink = entry
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
        recording = RecordingStore(store)
        sink: set = set()
        recording.push_sink(sink)
        all_attrs = set(self._schema.attributes)
        try:
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
                    outcome = chase(dict(zip(z, combo)), z, self._rules, recording)
                    if not outcome.unique or not outcome.covered >= all_attrs:
                        return False
        finally:
            recording.pop_sink()
        entry[2] = frozenset(entry[2] | sink)
        self._footprints.add((ri, ci), entry[2])
        return True
