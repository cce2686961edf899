"""Algorithm CertainFix / CertainFix⁺ (Sect. 5, Fig. 3).

The interactive driver: pick the highest-quality precomputed certain region
as the first suggestion; each round, ask the user to assert a suggested
attribute set, validate that the asserted values lead to a unique fix
(PTIME — the asserted tuple is a concrete pattern), fix and validate
everything the rules entail, and compute the next suggestion until every
attribute of the tuple is validated.  The Theorem 4 chase that decides
uniqueness has already applied every enabled rule to the fixpoint every
fix sequence reaches, so the round's fix is read off that unique chase
instead of a TransFix (Sect. 5.1) rerun.

``CertainFix⁺`` is the same driver with the BDD suggestion cache
(:class:`repro.repair.bdd.SuggestionCache`) replacing fresh Suggest calls.

Master data is reached exclusively through the
:class:`~repro.engine.store.MasterStore` seam — the Sect. 5.1 hash table
behind ``probe`` — so in-memory and out-of-core backends are
interchangeable.  All derived state (certain regions, the BDD, pattern
probes) is stamped with the store version it was computed against and
rebuilt lazily when the master mutates.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

from repro import obs
from repro.core.fixes import chase
from repro.core.program import compile_rules
from repro.engine.schema import RelationSchema
from repro.engine.store import as_master_store
from repro.engine.tuples import Row
from repro.obs import FixProvenance
from repro.repair.bdd import SuggestionCache
from repro.repair.invalidation import RegionGuard, patch_pattern_cache
from repro.repair.region_search import comp_c_region
from repro.repair.suggest import Suggestion, suggest
# ``transfix`` is no longer called here; the module attribute stays
# because perfbench/tracing.py wraps it by name.
from repro.repair.transfix import TransFixResult, transfix  # noqa: F401


@dataclass
class RoundLog:
    """What happened in one interaction round."""

    index: int
    suggested: tuple
    asserted: tuple
    corrected_by_user: tuple
    suggestion_source: str
    elapsed: float
    revisions: int = 0
    row_after: object = None
    validated_after: frozenset = frozenset()
    #: The round's rule applications, by reference: ``(rule, tm)`` per
    #: rule-fixed cell in application order (the round's
    #: ``TransFixResult.applied``), and each rule's position in Σ.
    applied: list = field(default_factory=list)
    rule_indices: list = field(default_factory=list)

    @property
    def fixed_by_rules(self) -> tuple:
        return tuple(rule.rhs for rule, _ in self.applied)

    @property
    def provenance(self) -> tuple:
        """One :class:`repro.obs.FixProvenance` per rule-fixed cell of
        this round, built on each read (``t[B] := tm[Bm]`` wrote it)."""
        return tuple(
            FixProvenance(
                attr=rule.rhs,
                value=tm[rule.rhs_m],
                rule_name=rule.name,
                rule_index=index,
                master_key=tm[rule.lhs_m],
                round_index=self.index,
            )
            for (rule, tm), index in zip(
                self.applied, self.rule_indices, strict=True
            )
        )


@dataclass
class FixSession:
    """Outcome of monitoring one input tuple."""

    final: Row
    validated: frozenset
    rounds: list = field(default_factory=list)
    completed: bool = False

    @property
    def round_count(self) -> int:
        return len(self.rounds)

    @property
    def attrs_fixed_by_rules(self) -> frozenset:
        out = set()
        for r in self.rounds:
            out.update(r.fixed_by_rules)
        return frozenset(out)

    @property
    def attrs_asserted_by_user(self) -> frozenset:
        out = set()
        for r in self.rounds:
            out.update(r.asserted)
        return frozenset(out)

    @property
    def attrs_corrected_by_user(self) -> frozenset:
        out = set()
        for r in self.rounds:
            out.update(r.corrected_by_user)
        return frozenset(out)

    @property
    def total_elapsed(self) -> float:
        return sum(r.elapsed for r in self.rounds)

    def state_after_round(self, k: int):
        """The tuple and user-asserted attribute set after round *k*.

        Rounds beyond the session's last repeat the final state (the tuple
        was already fully validated), which is how the per-round recall
        curves of Fig. 9 are read.
        """
        if not self.rounds or k < 1:
            return self.final, frozenset()
        index = min(k, len(self.rounds)) - 1
        row = self.rounds[index].row_after
        asserted = set()
        for r in self.rounds[: index + 1]:
            asserted.update(r.asserted)
        return row, frozenset(asserted)


class ValidationFailed(RuntimeError):
    """The user's assertions kept conflicting with the rules and master data."""


class IncompleteFix(RuntimeError):
    """A session exhausted ``max_rounds`` without validating every attribute.

    Raised by :meth:`CertainFix.fix_stream` (and the batch engine) under the
    ``on_incomplete="raise"`` policy; carries the truncated session so the
    caller can inspect how far monitoring got.
    """

    def __init__(self, session: "FixSession", index: int = None):
        missing = sorted(
            set(session.final.schema.attributes) - set(session.validated)
        )
        position = f" (stream position {index})" if index is not None else ""
        super().__init__(
            f"monitoring stopped after {session.round_count} rounds with "
            f"{missing} still unvalidated{position}"
        )
        self.session = session
        self.index = index


class CertainFix:
    """The interactive monitoring engine.

    Parameters
    ----------
    rules, master, schema:
        The rule set Σ, the master data ``Dm`` — a
        :class:`~repro.engine.store.MasterStore` or a plain relation
        (adapted on entry) — and the input schema ``R``.
    regions:
        Precomputed certain-region candidates (output of
        :func:`repro.repair.region_search.comp_c_region`).  Computed once on
        first use when omitted; index 0 (highest quality) seeds round 1.
        Recomputed from the store whenever its version moves: regions are
        valid only for the master state they were derived from.
    use_bdd:
        Enable the Suggest⁺ cache — this is CertainFix⁺.
    initial_region_rank:
        Which precomputed region to start from (0 = CRHQ; higher ranks give
        the CRMQ comparison of Exp-1(2)).
    delta_invalidation:
        Consume the store's delta journal on master mutation: purge only
        the cache entries a changed row can touch and keep everything
        else stamped valid, falling back to the full drop whenever the
        journal cannot vouch for the gap (window overflow, bulk loads).
        Certain regions survive an insert, delete or update batch when
        the :class:`~repro.repair.invalidation.RegionGuard` proves a
        fresh CompCRegion would return the same list; otherwise only
        they are rebuilt (counted in ``region_rebuilds``).  Off means every
        version move performs the historical full teardown — the
        reference behaviour the equivalence fuzz compares against.

    Σ is compiled once, at construction, against ``(R, Rm)`` into a
    positional :class:`~repro.core.program.RuleProgram`.  Every chase of
    a round (through ``chase`` as named in this module), the Suggest⁺
    reuse check, region builds and their guard run on that program: they
    read tuples by position instead of looking attribute names up per
    rule per test.  ``rules`` stays the plain rule list.

    An engine runs on one thread: its caches (regions, the BDD, pattern
    probes, the version stamp) take no locks.  The version stamp moves
    only in :meth:`_sync_master_version`, at the start of :meth:`fix`,
    never during a round; a store mutated from elsewhere mid-round moves
    ``store.version`` instead, which the next :meth:`fix` reconciles.
    Parallel monitoring runs one engine per worker process
    (:class:`~repro.repair.batch.BatchRepairEngine` with
    ``concurrency > 1``).
    """

    def __init__(
        self,
        rules: Sequence,
        master,
        schema: RelationSchema,
        regions: list = None,
        use_bdd: bool = False,
        initial_region_rank: int = 0,
        max_rounds: int = 12,
        max_revisions: int = 3,
        delta_invalidation: bool = True,
    ):
        self.rules = list(rules)
        self.store = as_master_store(master)
        # ``master`` stays as an alias of the store: every legacy call site
        # (and the analyses this engine delegates to) reads through it.
        self.master = self.store
        self.schema = schema
        self._program = compile_rules(self.rules, schema, self.store)
        self.max_rounds = max_rounds
        self.max_revisions = max_revisions
        self._regions = regions
        self._initial_rank = initial_region_rank
        self._cache = (
            SuggestionCache(self._program, self.store, schema)
            if use_bdd else None
        )
        # Per-rule pattern-probe verdicts; with the BDD on, its own dict.
        self._pattern_cache: dict = (
            self._cache.pattern_cache if self._cache is not None else {}
        )
        self.cache_invalidations = 0
        self._delta_invalidation = delta_invalidation
        self._region_guard = None
        #: How many master-version moves were absorbed via per-key delta
        #: purges vs. how many fell back to the historical full drop.
        self.delta_purges = 0
        self.full_drops = 0
        #: Of the delta purges, how many discarded the certain regions
        #: because the region guard could not prove them unchanged (a full
        #: drop always discards them).
        self.region_rebuilds = 0
        # Attribute positions in R, for the per-round correction diff.
        self._position = {a: i for i, a in enumerate(schema.attributes)}
        # Force master indexes for every rule key up front so the first
        # monitored tuple does not pay index-build latency.
        for rule in self.rules:
            self.store.ensure_index(rule.lhs_m)
        self._master_version = self.store.version

    # -- precomputation ----------------------------------------------------------

    @property
    def regions(self) -> list:
        if self._regions is None:
            with obs.time_block("repro_region_precompute_seconds"):
                # The build's record (per-check verdicts and master
                # footprints) lets the region guard later prove a delta
                # batch leaves the rebuild outcome unchanged.
                record: list = []
                self._regions = comp_c_region(
                    self._program, self.store, self.schema, record=record
                )
                if self._delta_invalidation:
                    self._region_guard = RegionGuard(
                        self._program, self.schema, self.store, record
                    )
            if not self._regions:
                raise ValueError(
                    "no certain region exists for (Σ, Dm); CertainFix needs "
                    "at least one to seed its first suggestion"
                )
        return self._regions

    @property
    def initial_region(self):
        regions = self.regions
        rank = min(self._initial_rank, len(regions) - 1)
        return regions[rank]

    @property
    def cache_stats(self):
        """The Suggest⁺ BDD's hit accounting, or ``None`` without it."""
        return self._cache.stats if self._cache is not None else None

    # -- master-version synchronisation -----------------------------------------

    def _sync_master_version(self) -> bool:
        """Reconcile version-stamped state when the master store moved.

        Checked on every monitored tuple (an integer compare when nothing
        changed).  Regions, the Suggest⁺ BDD and the pattern-probe cache
        were all computed against a concrete master state; any of them may
        certify fixes that are no longer certain after an
        insert/delete/update.  With ``delta_invalidation`` on,
        the store's delta journal names the changed rows and
        :meth:`_apply_master_deltas` purges surgically; whenever the
        journal cannot vouch for the gap (``deltas_since`` returns
        ``None``) or a delta resists surgical treatment, the historical
        full drop runs instead — so correctness never depends on the
        delta path succeeding.
        """
        version = self.store.version
        if version == self._master_version:
            return False
        deltas = (
            self.store.deltas_since(self._master_version)
            if self._delta_invalidation
            else None
        )
        if deltas and self._apply_master_deltas(deltas):
            self.delta_purges += 1
            counter = "repro_store_delta_purge_total"
        else:
            self._drop_master_caches()
            self.full_drops += 1
            counter = "repro_store_full_drop_total"
        self._master_version = version
        self.cache_invalidations += 1
        obs.inc(counter)
        obs.inc("repro_cache_invalidations_total")
        return True

    def _drop_master_caches(self) -> None:
        """The historical full teardown: every derived cache rebuilds
        lazily."""
        self._regions = None
        self._region_guard = None
        self._pattern_cache.clear()
        if self._cache is not None:
            self._cache.invalidate()

    def _apply_master_deltas(self, deltas) -> bool:
        """Purge per-key for a journal delta batch; True on success.

        Regions survive iff the :class:`RegionGuard` proves a rebuild
        would reproduce them; the per-rule pattern cache is patched row by
        row; BDD nodes are retained because ``_valid_for`` tests every
        rule it lets fire in a cached suggestion's closure against the
        live master (a rule it never tests cannot make S valid).
        A False return means the caller must fall back to
        :meth:`_drop_master_caches`.
        """
        rows = [Row(self.store.schema, delta.values) for delta in deltas]
        if self._regions is not None:
            guard = self._region_guard
            kept = guard is not None and guard.absorb(deltas, self.store)
            if not kept:
                self._regions = None
                self._region_guard = None
                self.region_rebuilds += 1
            obs.inc(
                "repro_region_guard_total",
                result="kept" if kept else "rebuilt",
            )
        patch_pattern_cache(self._pattern_cache, self.rules, deltas, rows)
        return True

    # -- the main loop (Fig. 3) -----------------------------------------------

    def fix(self, t: Row, oracle) -> FixSession:
        """Monitor one input tuple to a certain fix.

        Follows Fig. 3: Z' starts empty; each round recommends ``sug``,
        collects the user's assertions, validates them (unique-fix check on
        the concrete pattern ``t[Z' ∪ S]``), applies the fix read off that
        unique chase, and either finishes or computes a new suggestion.
        """
        self._sync_master_version()
        with obs.time_block("repro_fix_seconds"):
            session = self._fix_monitored(t, oracle)
        obs.inc(
            "repro_sessions_total",
            completed="true" if session.completed else "false",
        )
        obs.inc("repro_rounds_total", session.round_count)
        return session

    def _fix_monitored(self, t: Row, oracle) -> FixSession:
        row = t
        validated: frozenset = frozenset()
        session = FixSession(final=row, validated=validated)
        suggestion = Suggestion(
            attrs=self.initial_region.region.attrs,
            certain=True,
            source="initial-region",
        )
        cursor = self._start_cursor()
        all_attrs = set(self.schema.attributes)
        # Master lines read by this tuple's chases: the master version
        # moves only between tuples, so a later round reuses the lines an
        # earlier one read instead of probing them again.
        lines: dict = {}

        for round_index in range(1, self.max_rounds + 1):
            started = time.perf_counter()
            sug_attrs = tuple(
                a for a in suggestion.attrs if a not in validated
            )
            if not sug_attrs:
                sug_attrs = tuple(
                    a for a in self.schema.attributes if a not in validated
                )
            row_before = row
            values = oracle.assert_correct(row, sug_attrs)
            row = row.with_values(values)
            asserted = frozenset(values)
            revisions = 0

            result = self._validated_fix(row, validated | asserted, lines)
            while result is None:
                revisions += 1
                if revisions > self.max_revisions:
                    raise ValidationFailed(
                        f"assertions on {sorted(asserted)} do not lead "
                        f"to a unique fix after {revisions - 1} revisions"
                    )
                values = oracle.revise(
                    row, sug_attrs, "assertions conflict with master data"
                )
                row = row.with_values(values)
                asserted = asserted | frozenset(values)
                result = self._validated_fix(
                    row, validated | asserted, lines
                )

            # Compare against the row as it stood when the round began, so
            # values changed during revision rounds count as corrections too
            # (Fig. 10/11 metrics must not credit them to the rules).
            now, before = row.values, row_before.values
            position = self._position
            corrected = tuple(sorted(
                a for a in asserted if now[position[a]] != before[position[a]]
            ))
            row = result.row
            validated = result.validated

            done = set(validated) >= all_attrs
            source = suggestion.source
            if not done:
                # Generating the next suggestion is part of this round's
                # latency (Fig. 12 measures "the time spent on fixing tuples
                # ... and for generating a suggestion").
                suggestion = self._next_suggestion(cursor, row, validated)

            session.rounds.append(
                RoundLog(
                    index=round_index,
                    suggested=sug_attrs,
                    asserted=tuple(sorted(asserted)),
                    corrected_by_user=corrected,
                    suggestion_source=source,
                    elapsed=time.perf_counter() - started,
                    revisions=revisions,
                    row_after=row,
                    validated_after=validated,
                    applied=result.applied,
                    rule_indices=result.rule_indices,
                )
            )

            if done:
                session.completed = True
                break

        session.final = row
        session.validated = validated
        return session

    # -- the round's fix --------------------------------------------------------

    def _validated_fix(
        self, row: Row, validated: frozenset, lines: dict
    ) -> TransFixResult | None:
        """The round's fix of ``t[Z']``, or ``None`` when it is not unique.

        One Theorem 4 chase of ``t[Z']`` against the master, on the
        engine's compiled program, decides uniqueness and, when unique,
        already holds TransFix's fixpoint
        (:meth:`TransFixResult.from_chase`).  *lines* is the tuple's
        table of master lines read so far (see :func:`chase`).
        """
        outcome = chase(row, validated, self._program, self.store, lines)
        if not outcome.unique:
            return None
        return TransFixResult.from_chase(row, validated, outcome.first_fired())

    def _start_cursor(self):
        return self._cache.start() if self._cache is not None else None

    def _next_suggestion(self, cursor, row: Row, validated: frozenset) -> Suggestion:
        if cursor is not None:
            return cursor.next_suggestion(row, validated)
        return suggest(
            self._program,
            self.store,
            self.schema,
            row,
            validated,
            pattern_cache=self._pattern_cache,
        )

    # -- stream helper ----------------------------------------------------------

    def fix_stream(self, pairs, on_incomplete: str = "keep") -> list:
        """Monitor a sequence of ``(dirty_row, oracle)`` pairs.

        ``on_incomplete`` decides what happens when a session exhausts
        ``max_rounds`` without validating every attribute: ``"keep"`` returns
        the truncated session in place (``session.completed`` is False),
        ``"raise"`` surfaces it as :class:`IncompleteFix`.
        """
        if on_incomplete not in ("keep", "raise"):
            raise ValueError(
                f"on_incomplete must be 'keep' or 'raise', "
                f"got {on_incomplete!r}"
            )
        sessions = []
        for index, (row, oracle) in enumerate(pairs):
            session = self.fix(row, oracle)
            if not session.completed and on_incomplete == "raise":
                raise IncompleteFix(session, index=index)
            sessions.append(session)
        return sessions
