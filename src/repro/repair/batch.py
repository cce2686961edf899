"""Batch repair: high-throughput monitoring of dirty tuple streams.

The paper evaluates CertainFix one tuple at a time; production workloads
(Guided Data Repair, AWMRR — see PAPERS.md) arrive as bulk streams of
thousands of dirty tuples that share most of their structure.  This module
adds the throughput layer on top of :class:`repro.repair.certainfix.CertainFix`:

* **shared precomputation** — certain regions, master hash indexes and the
  BDD suggestion cache are built once per ``(Σ, Dm)`` and reused by every
  session ("computed once and repeatedly used as long as Σ and Dm are
  unchanged").  These are the only state kept across tuples: every round
  chases its validated pattern against the live master, as
  :meth:`CertainFix.fix_stream` does;
* **versioned invalidation** — masters are reached through the
  :class:`~repro.engine.store.MasterStore` seam; every shared structure
  (regions, master indexes, the BDD) is stamped with the store version it
  was built against, and an ``insert``/``delete``/``update`` of a master
  tuple moves the version so all of them are reconciled before the next
  monitored tuple — incremental master updates can no longer poison the
  shared caches;
* **chunked execution** — the input stream is consumed in bounded chunks
  (generators welcome: CSV ingestion never materializes the workload).
  One run loop serves both ways a chunk is monitored: inline on the
  caller's thread (``concurrency=1``) or through an ordered window of
  tasks on a process pool (``concurrency > 1``);
* **structured reporting** — :class:`BatchReport` carries throughput,
  rounds per tuple and per-cache hit rates for the perf trajectory.  Every
  chunk comes back with the :class:`EngineCounters` delta it caused and,
  from the process pool, the worker that monitored it, so the per-worker
  rows add up to the run totals.

Why processes and not threads: monitoring is embarrassingly parallel per
dirty tuple — master data and Σ are read-only while a tuple is fixed — but
the chase, the oracle and Suggest⁺ are Python code that holds the GIL, and
the remote client sends every request over one keep-alive connection, so
threads overlap neither the compute nor the wire.  An engine therefore runs
on one thread, and ``concurrency > 1`` buys real cores with a process pool.
The pool ships a picklable :class:`EngineSpec` to each worker once (pool
initializer), where it is rehydrated — certain regions, master indexes and
the BDD are rebuilt per worker — so expect a per-worker warm-up cost
that pays off on streams much longer than ``workers × chunk_size``.

Every worker must monitor against exactly the parent's master, and a live
worker catches up one way: each task carries the parent's version and its
journal deltas since the newest stamp every worker acked, which a worker
behind replays through ``adopt_deltas`` (or fails with a ``StoreError``).
When the journal cannot bridge the gap (window overflow, a bulk load, a
remote full drop), the chunks in flight drain and the pool is respawned.

Determinism: with ``concurrency=1`` the engine produces sessions identical
to :meth:`CertainFix.fix_stream` on the same inputs, with or without the
BDD cache.  With ``concurrency > 1`` each tuple is still monitored
independently; without the BDD cache the result is bit-identical to the
sequential run (suggestions are pure functions of ``(t, Z')``), while with
it each worker grows its own BDD, so the *suggestion order* may vary with
how chunks land on workers, but every produced fix remains a certain fix
and the fixed rows are identical (tests pin both properties).  Chunks are
dispatched with stable sequence numbers and merged in submission order, so
results always come back in stream order.
"""

from __future__ import annotations

import itertools
import multiprocessing
import operator
import os
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from typing import Callable, Iterable, NamedTuple, Sequence

from repro.engine.csvio import stream_rows_from_csv
from repro.engine.relation import Relation
from repro.engine.schema import RelationSchema
from repro.engine.store import StoreError, as_master_store
from repro.obs import count_fixes_by_rule, session_provenance
from repro.repair.certainfix import CertainFix, IncompleteFix
from repro.repair.oracle import SimulatedUser


@dataclass
class MemoStats:
    """Hit/miss accounting for one memo table."""

    hits: int = 0
    misses: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        total = self.lookups
        return self.hits / total if total else 0.0


@dataclass
class EngineCounters:
    """One snapshot of the engine counters a batch run reports.

    Snapshots subtract into per-chunk deltas and add up into run totals,
    with the same arithmetic inline and in every process worker.
    :func:`_counters` reads one off an engine's BDD hit/miss stats and its
    master-sync counters.
    """

    suggestion_hits: int = 0
    suggestion_misses: int = 0
    cache_invalidations: int = 0
    delta_purges: int = 0
    full_drops: int = 0
    region_rebuilds: int = 0

    def __add__(self, other: "EngineCounters") -> "EngineCounters":
        return EngineCounters(*map(operator.add, _values(self), _values(other)))

    def __sub__(self, other: "EngineCounters") -> "EngineCounters":
        return EngineCounters(*map(operator.sub, _values(self), _values(other)))


_values = operator.attrgetter(*(f.name for f in fields(EngineCounters)))


def _counters(engine: CertainFix) -> EngineCounters:
    """Snapshot of every counter a :class:`BatchReport` carries."""
    bdd = engine.cache_stats
    return EngineCounters(
        suggestion_hits=bdd.hits if bdd is not None else 0,
        suggestion_misses=bdd.misses if bdd is not None else 0,
        cache_invalidations=engine.cache_invalidations,
        delta_purges=engine.delta_purges,
        full_drops=engine.full_drops,
        region_rebuilds=engine.region_rebuilds,
    )


@dataclass
class BatchReport:
    """What one :meth:`BatchRepairEngine.run` did, in numbers."""

    tuples: int = 0
    completed: int = 0
    incomplete: int = 0
    rounds: int = 0
    chunks: int = 0
    elapsed: float = 0.0
    chunk_size: int = 0
    workers: int = 1
    #: Per-worker breakdown of a process-pool run, keyed ``pid-<n>`` by
    #: worker process: ``chunks``, ``tuples``, ``suggestion_hits`` and
    #: ``suggestion_misses``, each worker counting against its own BDD.
    #: Empty for inline runs (``concurrency=1``).
    worker_stats: dict = field(default_factory=dict)
    regions_precomputed: int = 0
    #: Always zero; the next benchmark change removes it and its reader.
    chase_memo: MemoStats = field(default_factory=MemoStats)
    #: Always zero; the next benchmark change removes it and its reader.
    transfix_memo: MemoStats = field(default_factory=MemoStats)
    suggestion_hits: int = 0
    suggestion_misses: int = 0
    cache_invalidations: int = 0
    #: Of the ``cache_invalidations``, how many were absorbed via per-key
    #: delta purges vs. how many fell back to the historical full drop.
    delta_purges: int = 0
    full_drops: int = 0
    #: Of the ``delta_purges``, how many discarded the certain regions
    #: (the region guard could not prove them unchanged), so the next
    #: tuple paid a full CompCRegion rebuild.  Full drops always do.
    region_rebuilds: int = 0
    master_version: int = 0
    #: Wall-clock seconds of the shared precomputation this run leaned on:
    #: ``region_precompute_s`` (paid once at engine construction, amortized
    #: across runs) and ``probe_warmup_s`` (chunk probe_batch warm-up on
    #: batched-probe backends, summed across workers).
    timings: dict = field(default_factory=dict)
    #: ``{rule_name: fixed-cell count}`` across the run (provenance rollup).
    fixes_by_rule: dict = field(default_factory=dict)
    #: Messages of :class:`~repro.engine.store.StoreError` failures that
    #: aborted the run (unreachable master server, closed connection,
    #: vanished database file).  A run that raises a ``StoreError`` still
    #: builds its report — sessions monitored before the failure, plus
    #: this field — and attaches it to the exception as ``exc.report``.
    store_errors: list = field(default_factory=list)

    @property
    def throughput(self) -> float:
        """Monitored tuples per second of wall clock."""
        return self.tuples / self.elapsed if self.elapsed > 0 else 0.0

    @property
    def mean_rounds(self) -> float:
        return self.rounds / self.tuples if self.tuples else 0.0

    @property
    def suggestion_hit_rate(self) -> float:
        total = self.suggestion_hits + self.suggestion_misses
        return self.suggestion_hits / total if total else 0.0

    def to_dict(self) -> dict:
        return {
            "tuples": self.tuples,
            "completed": self.completed,
            "incomplete": self.incomplete,
            "rounds": self.rounds,
            "mean_rounds": round(self.mean_rounds, 4),
            "chunks": self.chunks,
            "chunk_size": self.chunk_size,
            "workers": self.workers,
            "worker_stats": {
                worker: dict(stats)
                for worker, stats in self.worker_stats.items()
            },
            "elapsed_s": round(self.elapsed, 6),
            "throughput_tps": round(self.throughput, 2),
            "regions_precomputed": self.regions_precomputed,
            "suggestion_cache": {
                "hits": self.suggestion_hits,
                "misses": self.suggestion_misses,
                "hit_rate": round(self.suggestion_hit_rate, 4),
            },
            "cache_invalidations": self.cache_invalidations,
            "delta_purges": self.delta_purges,
            "full_drops": self.full_drops,
            "region_rebuilds": self.region_rebuilds,
            "master_version": self.master_version,
            "timings": {
                name: round(value, 6)
                for name, value in sorted(self.timings.items())
            },
            "fixes_by_rule": dict(sorted(self.fixes_by_rule.items())),
            "store_errors": list(self.store_errors),
        }

    def describe(self) -> str:
        lines = [
            f"monitored {self.tuples} tuples in {self.elapsed:.3f}s "
            f"({self.throughput:.1f} tuples/s, {self.chunks} chunks, "
            f"{self.workers} worker(s))",
            f"rounds/tuple: {self.mean_rounds:.2f}  "
            f"completed: {self.completed}  incomplete: {self.incomplete}",
        ]
        if self.suggestion_hits or self.suggestion_misses:
            lines.append(
                f"suggestion cache: {self.suggestion_hit_rate:.0%} hit "
                f"({self.suggestion_hits}/"
                f"{self.suggestion_hits + self.suggestion_misses})"
            )
        if self.timings:
            lines.append(
                "precompute: " + "  ".join(
                    f"{name}: {value:.3f}s"
                    for name, value in sorted(self.timings.items())
                )
            )
        if self.fixes_by_rule:
            top = sorted(
                self.fixes_by_rule.items(), key=lambda kv: (-kv[1], kv[0])
            )
            lines.append(
                "fixes by rule: " + "  ".join(
                    f"{name}: {count}" for name, count in top
                )
            )
        if self.cache_invalidations:
            lines.append(
                f"master updated mid-run: shared caches reconciled "
                f"{self.cache_invalidations} time(s) "
                f"({self.delta_purges} delta purge(s), "
                f"{self.region_rebuilds} region rebuild(s), "
                f"{self.full_drops} full drop(s), "
                f"store version {self.master_version})"
            )
        for message in self.store_errors:
            lines.append(f"STORE FAILURE: {message}")
        for worker, stats in sorted(self.worker_stats.items()):
            lines.append(
                f"  {worker}: {stats['tuples']} tuples in "
                f"{stats['chunks']} chunk(s)"
            )
        return "\n".join(lines)


def _rate(hits: int, misses: int) -> float:
    total = hits + misses
    return hits / total if total else 0.0


@dataclass
class BatchResult:
    """Sessions (stream order) plus the run's :class:`BatchReport`."""

    sessions: list
    report: BatchReport

    @property
    def final_rows(self) -> list:
        return [session.final for session in self.sessions]

    @property
    def provenance(self) -> list:
        """Per session (stream order), ``{attr: FixProvenance}`` for every
        rule-fixed cell, built on each read."""
        return [session_provenance(session) for session in self.sessions]

    def to_relation(self, schema: RelationSchema) -> Relation:
        """Materialize the repaired stream as a relation."""
        return Relation(schema, self.final_rows)


def _chunked(iterable: Iterable, size: int):
    iterator = iter(iterable)
    while True:
        chunk = list(itertools.islice(iterator, size))
        if not chunk:
            return
        yield chunk


# -- process-pool fan-out ------------------------------------------------------


@dataclass(frozen=True)
class EngineSpec:
    """Everything a worker process needs to rebuild the repair engine.

    Pickled exactly once per worker (through the pool initializer, not per
    chunk): rules and schema by value, the master through a
    :meth:`~repro.engine.store.MasterStore.detach` handle — sqlite
    connections cannot cross a fork/spawn boundary, so the handle re-opens
    the database file in the worker, while an in-memory master ships its
    rows by value.  ``build()`` rehydrates the engine: certain regions,
    master probe indexes and the BDD are rebuilt per worker against
    the reattached store's version stamp, so the parent's and every
    worker's caches sit on one shared version stream.
    """

    rules: tuple
    schema: RelationSchema
    store_handle: object
    use_bdd: bool
    engine_options: tuple  # sorted (name, value) pairs, picklable

    def build(self) -> CertainFix:
        store = self.store_handle.reattach()
        engine = CertainFix(
            list(self.rules), store, self.schema,
            use_bdd=self.use_bdd, **dict(self.engine_options),
        )
        engine.regions  # noqa: B018 — precompute before the first chunk
        return engine


#: The rehydrated engine of this worker process (set by the initializer).
_WORKER_ENGINE = None


def _process_worker_init(spec: EngineSpec) -> None:
    global _WORKER_ENGINE
    _WORKER_ENGINE = spec.build()


def _warm_chunk_probes(engine, pairs) -> float:
    """Batch-probe every rule key of the chunk before monitoring starts.

    Only called for stores with round-trip probe cost
    (``supports_batched_probes``): one ``probe_batch`` over every
    ``(rule, tuple)`` key fills the probe cache with exactly the keys the
    chase is about to ask for — one round trip per chunk on a remote
    master, one statement per block of keys on sqlite.  Returns the
    seconds spent warming (the chunk's share of
    ``BatchReport.timings["probe_warmup_s"]``).
    """
    started = time.perf_counter()
    probes = dict.fromkeys(
        (rule.lhs_m, row[rule.lhs])
        for rule in engine.rules
        for row, _ in pairs
    )
    if probes:
        engine.store.probe_batch(list(probes))
    return time.perf_counter() - started


def _process_worker_chunk(task: tuple) -> tuple:
    """Monitor one chunk in this worker.

    ``task`` is ``(seq, pairs, version, deltas)``.  *version* is the
    parent store's version when the chunk was dispatched; when it is newer
    than this worker's store the master mutated, and the worker replays
    the shipped journal *deltas* through ``adopt_deltas`` before
    monitoring.  That keeps the worker store's own journal contiguous, so
    the chunk's first ``engine.fix`` resyncs with per-key purges, inside
    the chunk's counter delta.  A list that cannot be
    replayed raises :class:`StoreError`: monitoring on would read a master
    other than the parent's.

    Returns ``(worker label, sessions, counter delta, warm_s,
    store_version)``; the store version is the ack that lets the parent
    stop shipping deltas once every worker holds the new stamp.
    """
    seq, pairs, version, deltas = task
    engine = _WORKER_ENGINE
    store = engine.store
    before = _counters(engine)
    # Strictly newer only: tasks are dispatched through one FIFO queue, so
    # dispatch versions arrive monotonically; the guard is belt-and-braces
    # against ever "syncing" a worker backwards.
    if version > store.version:
        if not store.adopt_deltas(deltas, version):
            raise StoreError(
                f"worker pid-{os.getpid()} cannot replay the master deltas "
                f"from version {store.version} to {version}; the next run "
                f"starts a fresh process pool"
            )
    warm_s = 0.0
    if store.supports_batched_probes:
        warm_s = _warm_chunk_probes(engine, pairs)
    sessions = [engine.fix(row, oracle) for row, oracle in pairs]
    return (
        f"pid-{os.getpid()}", sessions, _counters(engine) - before, warm_s,
        store.version,
    )


class _Chunk(NamedTuple):
    """One monitored chunk, as the inline loop or the pool hands it to
    the run loop."""

    sessions: list
    #: What the chunk moved in the engine counters.
    counters: EngineCounters
    #: Label of the process worker that monitored the chunk; ``None``
    #: when it ran inline.
    worker: str | None = None
    #: Seconds spent warming the chunk's probes (process workers only).
    warm_s: float = 0.0


def _hit_rates(totals: EngineCounters) -> dict:
    if not (totals.suggestion_hits or totals.suggestion_misses):
        return {}
    return {
        "suggest": _rate(totals.suggestion_hits, totals.suggestion_misses)
    }


class BatchRepairEngine:
    """Monitor thousands of dirty tuples through CertainFix at throughput.

    Parameters
    ----------
    rules, master, schema:
        As for :class:`CertainFix`: *master* is any
        :class:`~repro.engine.store.MasterStore` (in-memory or sqlite) or a
        plain relation, and probe indexes for every rule key are forced at
        construction.  Mutating the store between (or during) runs bumps
        its version; all shared caches rebuild lazily before the next
        monitored tuple, and the run's :class:`BatchReport` counts the
        rebuilds.
    regions:
        Precomputed certain-region candidates; computed (once) at
        construction when omitted — never per tuple, recomputed only when
        the store version moves.
    use_bdd:
        Share a Suggest⁺ BDD cache across all sessions (default on: this is
        the batch workload the cache was designed for).
    chunk_size:
        How many stream elements to pull per execution chunk.
    concurrency:
        Monitoring workers.  1 (default) monitors every chunk inline on
        the calling thread, against this engine's caches.  N > 1 fans
        chunks out to a pool of N worker processes, each rehydrating its
        own engine and caches from a picklable :class:`EngineSpec` (see
        the module docstring for why processes, not threads); the report
        splits its BDD counters per worker
        (``BatchReport.worker_stats``).  The pool requires rows and
        oracles to be picklable, and a sqlite master to be file-backed
        (``path=...``), since its handle is re-opened per worker.
    mp_start_method:
        Process pool only: the :mod:`multiprocessing` start method
        (``"fork"``, ``"spawn"``, ``"forkserver"``; None = platform
        default).
    on_incomplete:
        ``"keep"`` returns truncated sessions (``completed=False``) in
        place; ``"raise"`` surfaces the first one as :class:`IncompleteFix`.
    preflight:
        Lint gate in front of every precompute (regions, the BDD):
        ``"error"`` (default) raises
        :class:`~repro.lint.diagnostics.LintError` when the rule program
        has error-level structural findings, ``"warn"`` prints findings to
        stderr and continues, ``"off"`` skips linting entirely, and
        ``"certify"`` additionally runs the exact master-aware
        certification passes (E205/W206/I208) against the master store —
        refusing provably inconsistent programs before any repair runs.
    engine_options:
        Forwarded to the underlying :class:`CertainFix` (``max_rounds``,
        ``max_revisions``, ``delta_invalidation``, ...).

    A process pool is created lazily on the first ``run()`` and reused
    across runs (workers keep their warmed caches); call :meth:`close` (or
    use the engine as a context manager) to shut it down deterministically.
    """

    def __init__(
        self,
        rules: Sequence,
        master: Relation,
        schema: RelationSchema,
        regions: list = None,
        use_bdd: bool = True,
        chunk_size: int = 256,
        concurrency: int = 1,
        mp_start_method: str = None,
        on_incomplete: str = "keep",
        preflight: str = "error",
        **engine_options,
    ):
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        if concurrency < 1:
            raise ValueError(f"concurrency must be >= 1, got {concurrency}")
        if on_incomplete not in ("keep", "raise"):
            raise ValueError(
                f"on_incomplete must be 'keep' or 'raise', "
                f"got {on_incomplete!r}"
            )
        # Lint BEFORE any precompute: a rule program with error-level
        # findings would crash (or silently corrupt) the region/BDD build
        # below; surface the diagnostics while they are still cheap.
        from repro.lint import preflight as lint_preflight

        lint_preflight(
            rules, schema,
            master_schema=as_master_store(master).schema,
            mode=preflight, context="BatchRepairEngine rule program",
            master=master,
        )
        self.chunk_size = chunk_size
        self.concurrency = concurrency
        self.mp_start_method = mp_start_method
        self.on_incomplete = on_incomplete
        self._use_bdd = use_bdd
        self._engine_options = dict(engine_options)
        self._engine = CertainFix(
            rules, master, schema,
            regions=regions, use_bdd=use_bdd, **engine_options,
        )
        self._pool = None
        self._pool_version = None  # newest version every worker is known
        #                            to hold (starts at the spec's stamp)
        self._worker_versions = {}  # worker label -> last acked version
        # Precompute everything shareable up front so run() never pays
        # per-session setup: regions (CertainFix builds master indexes in
        # its own constructor already).  Timed: every run's report carries
        # the construction cost it amortizes (timings["region_precompute_s"]).
        started = time.perf_counter()
        self._engine.regions  # noqa: B018 — forces the (cached) computation
        self._region_precompute_s = time.perf_counter() - started

    @property
    def engine(self) -> CertainFix:
        """The shared underlying CertainFix engine (caches included)."""
        return self._engine

    @property
    def store(self):
        """The engine's :class:`~repro.engine.store.MasterStore`.

        Mutations made through it (``insert`` / ``delete`` / ``update``)
        are picked up before the next monitored tuple.
        """
        return self._engine.store

    # -- process-pool lifecycle ------------------------------------------------

    def _make_spec(self) -> EngineSpec:
        return EngineSpec(
            rules=tuple(self._engine.rules),
            schema=self._engine.schema,
            store_handle=self._engine.store.detach(),
            use_bdd=self._use_bdd,
            engine_options=tuple(sorted(self._engine_options.items())),
        )

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            spec = self._make_spec()
            context = multiprocessing.get_context(self.mp_start_method)
            self._pool = ProcessPoolExecutor(
                max_workers=self.concurrency,
                mp_context=context,
                initializer=_process_worker_init,
                initargs=(spec,),
            )
            self._pool_version = spec.store_handle.version
            self._worker_versions = {}
        return self._pool

    def close(self) -> None:
        """Shut the process pool down (no-op when none was started).

        Chunks still queued are cancelled.  The engine stays usable: the
        next pooled run builds a fresh pool (workers re-warm from the
        then-current master state).
        """
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None
            self._pool_version = None
            self._worker_versions = {}

    def __enter__(self) -> "BatchRepairEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _task_for(self, seq: int, chunk: list) -> tuple:
        """Build one worker task: ``(seq, chunk, version, deltas)``.

        *deltas* are the parent's journal records since ``_pool_version``,
        the newest stamp every worker is known to hold; a worker already
        past it skips the prefix it applied.  Once all ``concurrency``
        workers have acked the current version through their chunk
        results, ``_pool_version`` catches up and tasks ship ``()`` (a
        late-spawning worker rehydrates from the original spec, so the ack
        must come from every worker, not just the ones seen so far).
        *deltas* is ``None`` when the journal cannot bridge the gap; the
        caller then respawns the pool.
        """
        store = self._engine.store
        version = store.version
        if version != self._pool_version:
            acked = sum(
                1 for v in self._worker_versions.values() if v >= version
            )
            if acked >= self.concurrency:
                self._pool_version = version
        return (seq, chunk, version, store.deltas_since(self._pool_version))

    # -- execution -------------------------------------------------------------

    def _safe_store_version(self) -> int:
        """The store version for reporting — never raises.

        Reading a remote store's version can itself need the network; a
        report built *because* the store died must not die the same way.
        """
        try:
            return self._engine.store.version
        except StoreError:
            return self._engine._master_version

    def run(self, pairs: Iterable, progress=None) -> BatchResult:
        """Monitor a stream of ``(dirty_row, oracle)`` pairs.

        The stream is consumed lazily in chunks of ``chunk_size``; sessions
        come back in stream order regardless of ``concurrency``.  One
        loop serves both ways a chunk is monitored (inline, or through the
        ordered window of process tasks): each chunk comes back with its
        sessions, the engine-counter delta it caused and the worker that
        monitored it.

        *progress* is an optional :class:`repro.obs.ProgressReporter`: it is
        started with the run's own timer, advanced once per completed chunk
        with the running cache hit rates and per-worker tuple counts, and
        always receives a final
        :meth:`~repro.obs.ProgressReporter.finish` — including after a
        mid-run store failure, so the last heartbeat reflects everything
        that completed.
        """
        sessions: list = []
        totals = EngineCounters()
        warm_s = 0.0
        workers: dict = {}  # label -> [chunks, tuples, EngineCounters]
        chunks = 0
        store_failure = None

        def worker_tuples() -> dict:
            return {label: row[1] for label, row in workers.items()}

        monitored = self._monitor(_chunked(pairs, self.chunk_size))
        started = time.perf_counter()
        if progress is not None:
            progress.start()
        try:
            for chunk in monitored:
                for offset, session in enumerate(chunk.sessions):
                    if not session.completed and self.on_incomplete == "raise":
                        raise IncompleteFix(
                            session, index=len(sessions) + offset
                        )
                sessions.extend(chunk.sessions)
                chunks += 1
                totals += chunk.counters
                warm_s += chunk.warm_s
                if chunk.worker is not None:
                    row = workers.setdefault(
                        chunk.worker, [0, 0, EngineCounters()]
                    )
                    row[0] += 1
                    row[1] += len(chunk.sessions)
                    row[2] += chunk.counters
                if progress is not None:
                    progress.advance(
                        len(chunk.sessions),
                        rates=_hit_rates(totals),
                        workers=worker_tuples(),
                    )
        except StoreError as exc:
            # Infrastructure died mid-run (the master connection, usually).
            # Report what completed and re-raise with the report attached —
            # see BatchReport.store_errors.
            store_failure = exc
        finally:
            monitored.close()
        elapsed = time.perf_counter() - started
        if progress is not None:
            progress.finish(rates=_hit_rates(totals), workers=worker_tuples())

        report = BatchReport(
            tuples=len(sessions),
            completed=sum(1 for s in sessions if s.completed),
            incomplete=sum(1 for s in sessions if not s.completed),
            rounds=sum(s.round_count for s in sessions),
            chunks=chunks,
            elapsed=elapsed,
            chunk_size=self.chunk_size,
            workers=self.concurrency,
            worker_stats={
                label: {
                    "chunks": n,
                    "tuples": tuples,
                    "suggestion_hits": counters.suggestion_hits,
                    "suggestion_misses": counters.suggestion_misses,
                }
                for label, (n, tuples, counters) in workers.items()
            },
            regions_precomputed=len(self._engine.regions),
            suggestion_hits=totals.suggestion_hits,
            suggestion_misses=totals.suggestion_misses,
            cache_invalidations=totals.cache_invalidations,
            delta_purges=totals.delta_purges,
            full_drops=totals.full_drops,
            region_rebuilds=totals.region_rebuilds,
            master_version=self._safe_store_version(),
            timings={
                "region_precompute_s": self._region_precompute_s,
                "probe_warmup_s": warm_s,
            },
            fixes_by_rule=count_fixes_by_rule(sessions),
            store_errors=(
                [str(store_failure)] if store_failure is not None else []
            ),
        )
        if store_failure is not None:
            store_failure.report = report
            raise store_failure
        return BatchResult(sessions=sessions, report=report)

    def _monitor(self, chunks):
        """Monitor *chunks* inline or on the process pool; yields a
        :class:`_Chunk` per chunk, in stream order.

        The process pool is built here, eagerly, so a run that starts it
        does not time the engine spec's store snapshot.
        """
        if self.concurrency > 1:
            self._ensure_pool()
            return self._monitor_in_processes(chunks)
        return self._monitor_inline(chunks)

    def _monitor_inline(self, chunks):
        engine = self._engine
        for chunk in chunks:
            before = _counters(engine)
            sessions = [engine.fix(row, oracle) for row, oracle in chunk]
            yield _Chunk(sessions, _counters(engine) - before)

    def _monitor_in_processes(self, chunks):
        """Fan chunks out to the worker processes; yield in stream order.

        A chunk whose task cannot carry the deltas to the workers' stamp
        first drains the chunks in flight, then respawns the pool at the
        current version; that chunk's counters report the respawn as one
        cache invalidation and one full drop.
        """
        def collect(entry) -> _Chunk:
            future, respawn = entry
            label, sessions, counters, warm_s, version = future.result()
            self._worker_versions[label] = max(
                version, self._worker_versions.get(label, 0)
            )
            return _Chunk(sessions, counters + respawn, label, warm_s)

        # Keep a bounded window of chunks in flight: enough to feed every
        # worker with one chunk of lookahead, without materializing an
        # unbounded stream in the submission queue.
        max_inflight = 2 * self.concurrency
        pending: deque = deque()  # (future, respawn counters)
        try:
            for seq, chunk in enumerate(chunks):
                task = self._task_for(seq, chunk)
                respawn = EngineCounters()
                if task[3] is None:  # no deltas reach the workers' stamp
                    while pending:
                        yield collect(pending.popleft())
                    self.close()
                    self._ensure_pool()
                    respawn = EngineCounters(
                        cache_invalidations=1, full_drops=1
                    )
                    task = self._task_for(seq, chunk)
                future = self._pool.submit(_process_worker_chunk, task)
                pending.append((future, respawn))
                if len(pending) >= max_inflight:
                    yield collect(pending.popleft())
            while pending:
                yield collect(pending.popleft())
        except StoreError:
            # A worker that failed may hold a master other than the
            # parent's; the next run starts from a fresh pool.
            self.close()
            raise
        finally:
            for future, _ in pending:
                future.cancel()

    def run_dirty(self, dirty_tuples: Iterable, progress=None) -> BatchResult:
        """Monitor a :class:`repro.datasets.dirty.DirtyDataset` (or any
        iterable of objects with ``dirty``/``clean`` rows) against simulated
        truthful users, as the paper's experiments do."""
        return self.run(
            ((dt.dirty, SimulatedUser(dt.clean)) for dt in dirty_tuples),
            progress=progress,
        )

    def run_csv(
        self,
        dirty_path,
        clean_path=None,
        oracle_factory: Callable = None,
        progress=None,
    ) -> BatchResult:
        """Stream a dirty CSV file through the engine (constant memory).

        Exactly one feedback source must be provided: *clean_path*, a CSV
        aligned row-for-row with the dirty file whose values play the
        truthful simulated user, or *oracle_factory*, a callable mapping a
        dirty :class:`Row` to an oracle (with ``concurrency > 1`` the
        produced oracles must be picklable).  Misaligned dirty/clean files
        raise ``ValueError`` naming both paths and row counts rather than
        silently truncating to the shorter stream.
        """
        if (clean_path is None) == (oracle_factory is None):
            raise ValueError(
                "provide exactly one of clean_path or oracle_factory"
            )
        schema = self._engine.schema
        dirty = stream_rows_from_csv(dirty_path, schema=schema)
        if clean_path is not None:
            clean = stream_rows_from_csv(clean_path, schema=schema)
            pairs = _aligned_pairs(dirty, clean, dirty_path, clean_path)
        else:
            pairs = ((d, oracle_factory(d)) for d in dirty)
        return self.run(pairs, progress=progress)


def _aligned_pairs(dirty, clean, dirty_path, clean_path):
    """Zip the two streams strictly — never ``zip``'s silent truncation.

    A clean file shorter than the dirty one would silently leave the tail
    of the stream unmonitored (and a longer one would silently ignore
    ground truth), so when either stream ends first the other is drained
    to count it, and a ``ValueError`` naming both paths and both row
    counts surfaces through :meth:`BatchRepairEngine.run_csv`.
    """
    _end = object()
    dirty_rows, clean_rows = iter(dirty), iter(clean)
    index = 0
    while True:
        d = next(dirty_rows, _end)
        c = next(clean_rows, _end)
        if d is _end and c is _end:
            return
        if (d is _end) or (c is _end):
            # Drain the longer stream so the error can name both totals.
            longer = clean_rows if d is _end else dirty_rows
            surplus = 1 + sum(1 for _ in longer)
            dirty_count = index if d is _end else index + surplus
            clean_count = index if c is _end else index + surplus
            raise ValueError(
                f"dirty and clean CSVs are not aligned row-for-row: "
                f"{dirty_path} has {dirty_count} data rows but "
                f"{clean_path} has {clean_count}"
            )
        yield d, SimulatedUser(c)
        index += 1
