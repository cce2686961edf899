"""One benchmark run: setup, warm-up, the timed closed loop, the metrics.

The client is one closed loop in one process: it sends one tuple per
``BatchRepairEngine.run([pair])`` call and the next only after the previous
one returned, which is the data-entry monitoring shape CertainFix targets.
Each result is checked against the ground truth as it returns; only
counters are kept, never the sessions, so the heap does not grow with run
length.

The timed phase is cut into blocks of ``BLOCK`` consecutive requests (on
``hosp-churn`` each block holds one insert and one update).  On a shared
2-vCPU host, co-tenants were measured slowing this pure-Python loop by up
to 2x for seconds at a time, up to half the time.  So the wall-time
metrics (throughput, p50, p99) are taken over the quietest quarter of the
blocks, ranked by their 75th-percentile request latency (:func:`quiet`);
a change that slows every request still slows every block.  The
all-block figures, and the p75 of the first and the last quarter of the
blocks (:func:`drift`, which shows a slowdown that grows with run length),
go to the record line.  For the same reason ``setup_s`` is the fastest of
five fresh store+engine constructions, three made before the timed phase
and two after it (all five are in the record line).  ``rss_mb`` is the
peak resident memory once the timed phase has sent the ``QUIET_SHARE *
MIN_KEPT_REQUESTS`` requests every run sends: heap growth per request moves
it, and a fixed amount of work keeps it from following host speed.

Untraced runs (``trace=False``) report the end-to-end metrics.  Traced runs
alternate untraced and traced blocks over the same stream, so the
per-layer figures come from the traced blocks and the tracing overhead is
the difference between the two kinds of block.
"""

from __future__ import annotations

import gc
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from array import array
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from repro.repair.batch import BatchRepairEngine

from tracing import (MUTATION_REQUEST, SETUP_REQUEST, Tracer, layer_totals,
                     outermost_spans)
from workloads import Backend, Workload, make_inputs

#: Fresh store+engine constructions per untraced run, before and after
#: the timed phase; setup_s is the fastest.
SETUPS_BEFORE = 3
SETUPS_AFTER = 2

#: Requests per block of the timed phase.
BLOCK = 50

#: The wall-time metrics keep the fastest 1/QUIET_SHARE of the blocks.
QUIET_SHARE = 4

#: Least requests in the kept blocks, so the p99 has at least ten samples
#: above it; a run may outlast ``--seconds`` until it has them.  rss_mb is
#: read once the timed phase has sent QUIET_SHARE times as many.
MIN_KEPT_REQUESTS = 1000

#: Hard stop for the timed phase, seconds.
MAX_PHASE_SECONDS = 90.0

#: Largest tolerated gap between the summed layer self times and the
#: request wall time of the traced requests, as a share of the latter.
COVERAGE_TOLERANCE = 0.05

END_TO_END = (
    ("throughput_tps", "tuples/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("setup_s", "s"),
    ("rss_mb", "MiB"),
    ("rounds_per_tuple", "rounds"),
    ("correct_fraction", "ratio"),
)

PER_LAYER = (
    ("batch.self_ms_per_tuple", "ms/tuple"),
    ("batch.self_share", "ratio"),
    ("batch.memo_chase_hit_rate", "ratio"),
    ("batch.memo_transfix_hit_rate", "ratio"),
    ("certainfix.self_ms_per_tuple", "ms/tuple"),
    ("certainfix.revisions_per_tuple", "revisions/tuple"),
    ("chase.calls_per_tuple", "calls/tuple"),
    ("chase.ms_per_tuple", "ms/tuple"),
    ("transfix.calls_per_tuple", "calls/tuple"),
    ("transfix.ms_per_tuple", "ms/tuple"),
    ("transfix.lookups_per_call", "lookups/call"),
    ("suggest.calls_per_tuple", "calls/tuple"),
    ("suggest.ms_per_tuple", "ms/tuple"),
    ("bdd.hit_rate", "ratio"),
    ("regions.builds", "count"),
    ("regions.build_ms", "ms"),
    ("invalidation.absorb_calls", "count"),
    ("invalidation.absorb_ms", "ms"),
    ("invalidation.region_survival_rate", "ratio"),
    ("invalidation.delta_purges", "count"),
    ("invalidation.full_drops", "count"),
    ("churn.post_mutation_p50_ms", "ms"),
    ("store.probes_per_tuple", "probes/tuple"),
    ("store.probe_us_p50", "us"),
    ("store.probe_ms_per_tuple", "ms/tuple"),
    ("store.cache_hit_rate", "ratio"),
    ("store.cache_evictions", "count"),
    ("store.cache_capacity", "lines"),
    ("store.distinct_probe_keys", "keys"),
    ("store.mutation_ms", "ms"),
    ("remote.requests_per_tuple", "requests/tuple"),
    ("remote.probe_ms_per_tuple", "ms/tuple"),
    ("remote.cache_hit_rate", "ratio"),
    ("remote.reconnects", "count"),
    ("lint.preflight_ms", "ms"),
    ("oracle.ms_per_tuple", "ms/tuple"),
    ("run.cpu_ms_per_tuple", "ms/tuple"),
    ("run.wait_ms_per_tuple", "ms/tuple"),
    ("trace.overhead_pct", "%"),
    ("trace.coverage", "ratio"),
)


class TruthfulUser:
    """The simulated user: asserts the ground-truth values it is asked for."""

    __slots__ = ("clean",)

    def __init__(self, clean):
        self.clean = clean

    def assert_correct(self, current, suggestion) -> dict:
        clean = self.clean
        return {attr: clean[attr] for attr in suggestion}

    def revise(self, current, suggestion, reason) -> dict:
        return self.assert_correct(current, suggestion)


@dataclass
class Counters:
    """Outcome and layer counts of a set of checked requests."""

    attempted: int = 0
    failed: int = 0
    correct: int = 0
    rounds: int = 0
    revisions: int = 0
    memo: dict = field(default_factory=lambda: dict.fromkeys(
        ("chase_hits", "chase_lookups", "transfix_hits", "transfix_lookups",
         "bdd_hits", "bdd_lookups", "delta_purges", "full_drops"), 0
    ))

    def check(self, result, clean) -> None:
        """Count one returned result against its ground truth."""
        self.attempted += 1
        session = result.sessions[0]
        report = result.report
        self.rounds += session.round_count
        self.revisions += sum(r.revisions for r in session.rounds)
        memo = self.memo
        memo["chase_hits"] += report.chase_memo.hits
        memo["chase_lookups"] += report.chase_memo.lookups
        memo["transfix_hits"] += report.transfix_memo.hits
        memo["transfix_lookups"] += report.transfix_memo.lookups
        memo["bdd_hits"] += report.suggestion_hits
        memo["bdd_lookups"] += report.suggestion_hits + report.suggestion_misses
        memo["delta_purges"] += report.delta_purges
        memo["full_drops"] += report.full_drops
        if session.completed and session.final == clean:
            self.correct += 1
        else:
            self.failed += 1

    def error(self) -> None:
        self.attempted += 1
        self.failed += 1


def host_record() -> dict:
    return {
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "loadavg": list(os.getloadavg()),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending sequence (0 when empty)."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def fastest(values, share: int) -> list:
    """Indexes of the smallest ``1/share`` of *values* (at least one)."""
    order = sorted(range(len(values)), key=values.__getitem__)
    return sorted(order[:-(-len(order) // share)])


def _block_latencies(phase, block: int):
    return phase["latency"][block * BLOCK:(block + 1) * BLOCK]


def quiet(phase, blocks) -> list:
    """The fastest ``1/QUIET_SHARE`` of *blocks*, ranked by the 75th
    percentile of their request latencies: a contended stretch of the host
    raises it, a few slow requests (a region rebuild, a GC pause) do not,
    so the kept blocks still carry their share of the tail."""
    ranks = [percentile(sorted(_block_latencies(phase, b)), 0.75)
             for b in blocks]
    return [blocks[i] for i in fastest(ranks, QUIET_SHARE)]


def wall_metrics(phase, blocks) -> dict:
    """Throughput and latency percentiles over the requests of *blocks*."""
    pooled = sorted(
        value for block in blocks for value in _block_latencies(phase, block)
    )
    elapsed = sum(phase["block_elapsed"][block] for block in blocks)
    return {
        "throughput_tps": len(pooled) / elapsed if elapsed else 0.0,
        "latency_p50_ms": percentile(pooled, 0.50) * 1e3,
        "latency_p99_ms": percentile(pooled, 0.99) * 1e3,
        "requests": len(pooled),
    }


def drift(phase, blocks) -> dict:
    """The 75th-percentile request latency of the first and the last
    quarter of *blocks*: :func:`quiet` may keep only early blocks, so a
    slowdown that grows with run length shows here."""
    blocks = list(blocks)
    quarter = -(-len(blocks) // 4)

    def p75_ms(part) -> float:
        return percentile(sorted(
            value for block in part for value in _block_latencies(phase, block)
        ), 0.75) * 1e3

    return {"first_quarter_p75_ms": p75_ms(blocks[:quarter]),
            "last_quarter_p75_ms": p75_ms(blocks[-quarter:])}


def _rate(hits: int, lookups: int) -> float:
    return hits / lookups if lookups else 0.0


def _mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


class Run:
    """State of one benchmark invocation."""

    def __init__(self, workload: Workload, seed: int, seconds: float,
                 trace: bool, root: Path, scale: float = 1.0,
                 min_kept_requests: int = MIN_KEPT_REQUESTS):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.root = root
        self.scale = scale
        self.min_kept_requests = min_kept_requests
        self.counters = Counters()  # every request, warm-up included
        self.traced_counters = Counters()  # the traced requests only
        self.tracer = Tracer(TruthfulUser) if trace else None
        self._errors_shown = 0

    # -- one request ------------------------------------------------------------

    def _request(self, engine, dirty, clean, traced: bool = False) -> None:
        pairs = [(dirty, TruthfulUser(clean))]
        try:
            if traced:
                result = self.tracer.call("batch.run", engine.run, pairs)
            else:
                result = engine.run(pairs)
        except Exception:  # noqa: BLE001 — a failed request is counted
            self.counters.error()
            if traced:
                self.traced_counters.error()
            if self._errors_shown < 3:
                self._errors_shown += 1
                traceback.print_exc(file=sys.stderr)
            return
        self.counters.check(result, clean)
        if traced:
            self.traced_counters.check(result, clean)

    # -- phases -----------------------------------------------------------------

    @staticmethod
    def _construct(backend: Backend, inputs) -> tuple:
        """One timed store load plus engine construction:
        ``(store, engine, seconds)``."""
        gc.collect()
        started = time.perf_counter()
        store = backend.make_store()
        engine = BatchRepairEngine(inputs.rules, store, inputs.schema)
        return store, engine, time.perf_counter() - started

    @staticmethod
    def _setup_samples(backend: Backend, inputs, count: int) -> list:
        """Seconds of *count* constructions that are released at once."""
        times = []
        for _ in range(count):
            store, _, seconds = Run._construct(backend, inputs)
            backend.release(store)
            times.append(seconds)
        return times

    def _drive(self, engine, store, inputs) -> dict:
        """The timed closed loop; returns per-request and per-block arrays."""
        tracer = self.tracer
        every = self.workload.mutate_every
        mutations = iter(inputs.mutations)
        stream = inputs.stream
        latency = array("d")
        cpu = array("d")
        post_flags = bytearray()
        block_elapsed = array("d")
        clock = time.perf_counter
        cpu_clock = time.process_time
        gc.collect()
        started = clock()
        deadline = started + self.seconds
        hard_stop = started + MAX_PHASE_SECONDS
        needed = QUIET_SHARE * self.min_kept_requests
        rss_mb = None
        index = 0
        try:
            while index + BLOCK <= len(stream):
                now = clock()
                if (now >= deadline and index >= needed) or now >= hard_stop:
                    break
                traced = tracer is not None and len(block_elapsed) % 2 == 1
                if traced:
                    tracer.install(store)
                block_start = clock()
                for dirty, clean in stream[index:index + BLOCK]:
                    post = bool(every) and index % every == 0
                    if post:
                        if tracer is not None:
                            tracer.request = MUTATION_REQUEST
                        _mutate(store, next(mutations))
                    if tracer is not None:
                        tracer.request = index
                    cpu0 = cpu_clock()
                    begin = clock()
                    self._request(engine, dirty, clean, traced)
                    latency.append(clock() - begin)
                    cpu.append(cpu_clock() - cpu0)
                    post_flags.append(post)
                    index += 1
                block_elapsed.append(clock() - block_start)
                if traced:
                    tracer.uninstall()
                if rss_mb is None and index >= needed:
                    rss_mb = peak_rss_mb()
        finally:
            if tracer is not None:
                tracer.uninstall()
        return {
            "latency": latency,
            "cpu": cpu,
            "post": post_flags,
            "block_elapsed": block_elapsed,
            "rss_mb": peak_rss_mb() if rss_mb is None else rss_mb,
        }

    # -- the whole run ----------------------------------------------------------

    def execute(self) -> dict:
        """Run everything; returns ``{"result": ..., "record": ...}``."""
        host_before = host_record()
        inputs = make_inputs(self.workload, self.seed, self.seconds,
                             scale=self.scale)
        # The inputs live for the whole run: keep them out of every
        # collection so GC pauses do not scale with the stream length.
        gc.collect()
        gc.freeze()
        workdir = self.root / "perfbench" / "out" / f"work-{os.getpid()}"
        backend = Backend(self.workload, inputs, workdir,
                          src=self.root / "src")
        store = None
        setup_times = []
        try:
            if self.trace:
                self.tracer.install(None)
                try:
                    store, engine, seconds = self._construct(backend, inputs)
                finally:
                    self.tracer.uninstall()
            else:
                setup_times = self._setup_samples(backend, inputs,
                                                  SETUPS_BEFORE - 1)
                store, engine, seconds = self._construct(backend, inputs)
            setup_times.append(seconds)
            for dirty, clean in inputs.warmup:
                self._request(engine, dirty, clean)
            cache0 = _cache_info(store)
            conn0 = _connection_info(store)
            phase = self._drive(engine, store, inputs)
            rss_mb_end = peak_rss_mb()
            cache1 = _cache_info(store)
            conn1 = _connection_info(store)
            backend.release(store)
            store = engine = None
            if not self.trace:
                setup_times += self._setup_samples(backend, inputs,
                                                   SETUPS_AFTER)
        finally:
            if store is not None:
                backend.release(store)
            backend.close()
            gc.unfreeze()
        counters = self.counters
        blocks = len(phase["block_elapsed"])
        record = {
            "workload": self.workload.name,
            "seed": self.seed,
            "trace": self.trace,
            "host_before": host_before,
            "host_after": host_record(),
            "setup_s_samples": setup_times,
            "timed_requests": len(phase["latency"]),
            "timed_seconds": sum(phase["block_elapsed"]),
            "blocks": blocks,
            "stream_exhausted": len(phase["latency"]) + BLOCK
            > len(inputs.stream),
            "error_fraction": counters.failed / max(counters.attempted, 1),
            "all_blocks": wall_metrics(phase, range(blocks)),
            "drift": drift(phase, range(0, blocks, 2 if self.trace else 1)),
            "post_mutation_requests": sum(phase["post"]),
            "rss_mb_end": rss_mb_end,
            "store_cache": {"before": cache0, "after": cache1},
            "connection": {"before": conn0, "after": conn1},
        }
        if self.trace:
            metrics = self._per_layer(phase, cache0, cache1, conn0, conn1,
                                      record)
            catalog = PER_LAYER
        else:
            kept = wall_metrics(phase, quiet(phase, range(blocks)))
            record["kept_requests"] = kept.pop("requests")
            metrics = dict(
                kept,
                setup_s=min(setup_times),
                rss_mb=phase["rss_mb"],
                rounds_per_tuple=counters.rounds / max(counters.attempted, 1),
                correct_fraction=counters.correct / max(counters.attempted, 1),
            )
            catalog = END_TO_END
        result = {
            "correct": counters.attempted > 0
            and counters.correct == counters.attempted,
            "attempted": counters.attempted,
            "failed": counters.failed,
            "metrics": {
                name: {"value": metrics[name], "unit": unit}
                for name, unit in catalog
            },
        }
        return {"result": result, "record": record}

    # -- per-layer metrics ------------------------------------------------------

    def _per_layer(self, phase, cache0, cache1, conn0, conn1,
                   record) -> dict:
        tracer = self.tracer
        spans = tracer.spans
        counters = self.traced_counters
        latency, cpu = phase["latency"], phase["cpu"]
        blocks = range(len(phase["block_elapsed"]))
        traced_blocks = [b for b in blocks if b % 2 == 1]
        untraced_blocks = [b for b in blocks if b % 2 == 0]
        traced = [i for b in traced_blocks
                  for i in range(b * BLOCK, (b + 1) * BLOCK)]
        untraced = [i for b in untraced_blocks
                    for i in range(b * BLOCK, (b + 1) * BLOCK)]
        n = max(len(traced), 1)
        m = max(len(untraced), 1)
        requests = set(traced)
        totals = layer_totals(spans, requests)

        def self_ms(layer: str) -> float:
            return totals.get(layer, (0, 0))[0] / 1e6 / n

        def calls(layer: str) -> int:
            return totals.get(layer, (0, 0))[1]

        outermost = defaultdict(list)  # span name -> [(ms, request id)]
        for name, duration, request in outermost_spans(spans):
            outermost[name].append((duration / 1e6, request))

        def durations_ms(name: str, request_ids=None) -> list:
            return [
                ms for ms, request in outermost[name]
                if request_ids is None or request in request_ids
            ]

        # batch.run is the root span, so the summed self times equal the
        # request wall time by construction: the coverage gate checks the
        # span bookkeeping only.  Time spent outside every other wrapped
        # layer lands in batch self time, reported as batch.self_share.
        traced_wall = sum(latency[i] for i in traced)
        layer_self = sum(value[0] for value in totals.values()) / 1e9
        coverage = layer_self / traced_wall if traced_wall else 0.0
        record["coverage_ok"] = abs(1.0 - coverage) <= COVERAGE_TOLERANCE
        batch_self = totals.get("batch", (0, 0))[0] / 1e9
        # Overhead: the quiet blocks of each kind, so a burst of host
        # contention over one kind does not read as tracing cost.
        elapsed = phase["block_elapsed"]
        traced_quiet, untraced_quiet = (
            _mean([elapsed[b] for b in quiet(phase, kind)])
            for kind in (traced_blocks, untraced_blocks)
        )
        untraced_wall = sum(latency[i] for i in untraced)
        untraced_cpu = sum(cpu[i] for i in untraced)
        post = sorted(latency[i] for i in untraced if phase["post"][i])
        probe_us = sorted(
            d * 1e3 for d in durations_ms("store.probe", requests)
        )
        region_ms = durations_ms("regions.build")
        absorb_ms = durations_ms("invalidation.absorb")
        mutation_ms = durations_ms("store.mutation", {MUTATION_REQUEST})
        preflight_ms = durations_ms("lint.preflight", {SETUP_REQUEST})
        hits = cache1.get("hits", 0) - cache0.get("hits", 0)
        lookups = hits + cache1.get("misses", 0) - cache0.get("misses", 0)
        remote = bool(conn1)
        timed = max(len(latency), 1)
        memo = counters.memo
        metrics = {
            "batch.self_ms_per_tuple": self_ms("batch"),
            "batch.self_share": batch_self / traced_wall if traced_wall
            else 0.0,
            "batch.memo_chase_hit_rate": _rate(
                memo["chase_hits"], memo["chase_lookups"]),
            "batch.memo_transfix_hit_rate": _rate(
                memo["transfix_hits"], memo["transfix_lookups"]),
            "certainfix.self_ms_per_tuple": self_ms("certainfix"),
            "certainfix.revisions_per_tuple":
                counters.revisions / max(counters.attempted, 1),
            "chase.calls_per_tuple": calls("chase") / n,
            "chase.ms_per_tuple": self_ms("chase"),
            "transfix.calls_per_tuple": calls("transfix") / n,
            "transfix.ms_per_tuple": self_ms("transfix"),
            "transfix.lookups_per_call":
                tracer.transfix_lookups / max(calls("transfix"), 1),
            "suggest.calls_per_tuple": calls("suggest") / n,
            "suggest.ms_per_tuple": self_ms("suggest"),
            "bdd.hit_rate": _rate(memo["bdd_hits"], memo["bdd_lookups"]),
            "regions.builds": len(durations_ms("regions.build", requests)),
            "regions.build_ms": _mean(region_ms),
            "invalidation.absorb_calls": len(absorb_ms),
            "invalidation.absorb_ms": _mean(absorb_ms),
            "invalidation.region_survival_rate": _rate(
                tracer.absorb_survived, len(absorb_ms)),
            "invalidation.delta_purges": memo["delta_purges"],
            "invalidation.full_drops": memo["full_drops"],
            "churn.post_mutation_p50_ms": percentile(post, 0.5) * 1e3,
            "store.probes_per_tuple": calls("store") / n,
            "store.probe_us_p50": percentile(probe_us, 0.5),
            "store.probe_ms_per_tuple": self_ms("store"),
            "store.cache_hit_rate": _rate(hits, lookups),
            "store.cache_evictions":
                cache1.get("evictions", 0) - cache0.get("evictions", 0),
            "store.cache_capacity": cache1.get("maxsize", 0),
            "store.distinct_probe_keys": len(tracer.probe_keys),
            "store.mutation_ms": _mean(mutation_ms),
            "remote.requests_per_tuple": (
                conn1["requests"] - conn0["requests"]) / timed
            if remote else 0.0,
            "remote.probe_ms_per_tuple": self_ms("store") if remote else 0.0,
            "remote.cache_hit_rate": _rate(hits, lookups) if remote else 0.0,
            "remote.reconnects": (conn1["reconnects"] - conn0["reconnects"])
            if remote else 0,
            "lint.preflight_ms": sum(preflight_ms),
            "oracle.ms_per_tuple": self_ms("oracle"),
            "run.cpu_ms_per_tuple": untraced_cpu * 1e3 / m,
            "run.wait_ms_per_tuple": (untraced_wall - untraced_cpu) * 1e3 / m,
            "trace.overhead_pct": (traced_quiet / untraced_quiet - 1.0) * 100
            if untraced_quiet else 0.0,
            "trace.coverage": coverage,
        }
        record["traced_requests"] = len(traced)
        record["spans"] = len(spans)
        return metrics


def _mutate(store, mutation) -> None:
    kind, payload = mutation
    if kind == "insert":
        store.insert(payload)
    elif not store.update(*payload):
        raise RuntimeError(f"master update target vanished: {payload[0]!r}")


def _cache_info(store) -> dict:
    info = getattr(store, "probe_cache_info", None)
    return info() if info is not None else {}


def _connection_info(store) -> dict:
    info = getattr(store, "connection_info", None)
    return info() if info is not None else {}
