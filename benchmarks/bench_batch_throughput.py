#!/usr/bin/env python3
"""Batch repair throughput: naive per-tuple monitoring vs the batch engine.

Seeds the repo's perf trajectory (``BENCH_batch.json``): the baseline is
``CertainFix.fix_stream`` exactly as the experiments run it — a bare
sequential loop with fresh ``Suggest`` calls every round — and the
contender is :class:`repro.repair.batch.BatchRepairEngine` with all shared
caches enabled (precomputed regions, master indexes, the Suggest⁺ BDD and
validated-pattern memoization), monitoring inline on one thread.

An ``obs_overhead`` series re-runs the sequential hosp batch with
``repro.obs`` telemetry enabled and gates the cost (default: within 5%
of the plain sequential throughput) — the observability layer must stay
effectively free on the hot path.

A second series gates the process pool on a **CPU-bound oracle
workload** (:class:`repro.repair.oracle.CpuBoundOracle`: feedback that
computes its answers, holding the GIL), where the pool
(``concurrency > 1``) scales with physical cores.  The series cuts the
stream into two chunks per worker, so every worker of the pool gets work
and the speedup measures the whole pool.  The process assertion
(>= ``--min-process-speedup`` over sequential) is only enforced when the
machine actually has >= 2 usable cores — on a single core no pool can
beat sequential, and the series then only checks bit-identical output.

Run:  PYTHONPATH=src python benchmarks/bench_batch_throughput.py [--quick]

Not a pytest module on purpose: this is a standalone perf harness whose
output file downstream sessions diff against.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time
from pathlib import Path

from repro import obs
from repro.experiments.config import ExperimentConfig, load_workload
from repro.repair.batch import BatchRepairEngine
from repro.repair.certainfix import CertainFix
from repro.repair.oracle import CpuBoundOracle, SimulatedUser

REPO_ROOT = Path(__file__).resolve().parent.parent


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _precompute_regions(bundle) -> tuple:
    """Certain regions are offline infrastructure shared by every engine
    ("computed once and repeatedly used as long as Σ and Dm are
    unchanged") — both contenders get them precomputed, and the one-time
    cost is reported separately."""
    from repro.repair.region_search import comp_c_region

    started = time.perf_counter()
    regions = comp_c_region(bundle.rules, bundle.master, bundle.schema)
    return regions, time.perf_counter() - started


def _time_naive(bundle, data, regions) -> dict:
    """The pre-batch path: per-tuple loop, no suggestion reuse."""
    started = time.perf_counter()
    engine = CertainFix(bundle.rules, bundle.master, bundle.schema,
                        regions=regions, use_bdd=False)
    sessions = engine.fix_stream(
        (dt.dirty, SimulatedUser(dt.clean)) for dt in data
    )
    elapsed = time.perf_counter() - started
    return {
        "elapsed_s": round(elapsed, 4),
        "throughput_tps": round(len(sessions) / elapsed, 2),
        "rounds": sum(s.round_count for s in sessions),
        "completed": sum(1 for s in sessions if s.completed),
    }


def _time_batch(bundle, data, regions) -> dict:
    started = time.perf_counter()
    engine = BatchRepairEngine(
        bundle.rules, bundle.master, bundle.schema,
        regions=regions, use_bdd=True, memoize=True,
    )
    result = engine.run_dirty(data)
    elapsed = time.perf_counter() - started  # engine setup included
    out = result.report.to_dict()
    out["elapsed_s"] = round(elapsed, 4)
    out["throughput_tps"] = round(result.report.tuples / elapsed, 2)
    return out


def _time_cpu_bound(bundle, data, regions, workers, cost, chunk_size):
    """One CPU-bound-oracle run; returns (stats dict, fixed rows).

    Timing includes engine construction — for the process pool that
    means pool spawn and per-worker rehydration (regions, indexes, memo
    tables), the real cost a deployment would pay.  ``use_bdd=False`` so
    sessions are bit-identical to the inline run by construction and the
    identity check below is exact.
    """
    pairs = [
        (dt.dirty, CpuBoundOracle(SimulatedUser(dt.clean), cost=cost))
        for dt in data
    ]
    started = time.perf_counter()
    engine = BatchRepairEngine(
        bundle.rules, bundle.master, bundle.schema,
        regions=regions, use_bdd=False, memoize=True,
        concurrency=workers, chunk_size=chunk_size,
    )
    with engine:
        result = engine.run(pairs)
    elapsed = time.perf_counter() - started
    stats = {
        "workers": workers,
        "elapsed_s": round(elapsed, 4),
        "throughput_tps": round(result.report.tuples / elapsed, 2),
    }
    return stats, result.final_rows


def _measure_obs_overhead(bundle, data, regions, repeats: int = 3) -> dict:
    """Sequential batch throughput with telemetry off vs on (same workload).

    Instrumentation must be effectively free: the gate keeps the
    ``repro.obs``-enabled run within a few percent of the plain one.
    Plain/instrumented repeats are interleaved and compared best-of-N,
    so a sustained machine-wide slowdown (CPU contention, throttling)
    degrades both series instead of masquerading as telemetry cost, and
    the enabled side is cross-checked against its own session counters
    so a silently-disabled registry can't fake a pass.
    """
    best = {"plain": 0.0, "instrumented": 0.0}
    recorded = 0
    for _ in range(repeats):
        out = _time_batch(bundle, data, regions)
        best["plain"] = max(best["plain"], out["throughput_tps"])
        obs.enable()
        try:
            out = _time_batch(bundle, data, regions)
            recorded = sum(
                value
                for (name, _), value in obs.snapshot().counters.items()
                if name == "repro_sessions_total"
            )
        finally:
            obs.disable()
        best["instrumented"] = max(
            best["instrumented"], out["throughput_tps"]
        )
    if recorded < len(data):
        raise AssertionError(
            "instrumented series recorded fewer sessions than tuples — "
            "telemetry was not actually enabled during the measurement"
        )
    overhead_pct = 100.0 * (1.0 - best["instrumented"] / best["plain"])
    return {
        "plain_tps": best["plain"],
        "instrumented_tps": best["instrumented"],
        "overhead_pct": round(overhead_pct, 2),
        "repeats": repeats,
    }


def _run_cpu_bound_series(quick: bool, workers: int) -> dict:
    """Sequential vs the process pool on the CPU-bound oracle workload."""
    cores = _usable_cores()
    # Scaled so the oracle/monitoring compute dominates pool spawn and
    # per-worker rehydration by a wide margin — otherwise the speedup
    # floor would measure fixed costs, not parallelism.
    scale = (
        {"master_size": 600, "input_size": 100}
        if quick
        else {"master_size": 1000, "input_size": 150}
    )
    cost = 8000 if quick else 10000
    config = ExperimentConfig(dataset="hosp", **scale)
    bundle, data = load_workload(config)
    regions, _ = _precompute_regions(bundle)
    # Two chunks per worker: with one chunk per run (the engine default
    # of 256 tuples) a single worker would monitor the whole stream.
    chunk_size = max(1, len(data) // (2 * workers))
    print(f"[cpu-bound oracle] |Dm|={len(bundle.master)}  |D|={len(data)}  "
          f"(sha256 chain cost {cost}, chunk size {chunk_size}, "
          f"{cores} usable core(s))")

    sequential, rows_seq = _time_cpu_bound(
        bundle, data, regions, 1, cost, chunk_size
    )
    print(f"  sequential       : {sequential['throughput_tps']:8.1f} tuples/s")
    process, rows_proc = _time_cpu_bound(
        bundle, data, regions, workers, cost, chunk_size
    )
    p_speedup = process["throughput_tps"] / sequential["throughput_tps"]
    print(f"  process (x{workers})     : {process['throughput_tps']:8.1f} "
          f"tuples/s  ({p_speedup:.2f}x)")

    identical = rows_seq == rows_proc
    if not identical:
        raise AssertionError(
            "process-pool outputs diverged from sequential on the "
            "CPU-bound oracle workload"
        )
    return {
        "dataset": "hosp",
        "master_size": len(bundle.master),
        "input_size": len(data),
        "oracle_cost": cost,
        "chunk_size": chunk_size,
        "usable_cores": cores,
        "sequential": sequential,
        f"process_x{workers}": process,
        "speedup_process": round(p_speedup, 2),
        "outputs_identical": identical,
    }


def run(quick: bool, workers: int, output: Path) -> dict:
    scale = (
        {"master_size": 600, "input_size": 100}
        if quick
        else {"master_size": 1500, "input_size": 200}
    )
    results = {}
    for dataset in ("hosp", "dblp"):
        config = ExperimentConfig(dataset=dataset, **scale)
        bundle, data = load_workload(config)
        regions, region_time = _precompute_regions(bundle)
        print(f"[{dataset}] |Dm|={len(bundle.master)}  |D|={len(data)}  "
              f"(regions precomputed in {region_time:.2f}s)")

        naive = _time_naive(bundle, data, regions)
        print(f"  naive fix_stream : {naive['throughput_tps']:8.1f} tuples/s")

        batch = _time_batch(bundle, data, regions)
        speedup = batch["throughput_tps"] / naive["throughput_tps"]
        print(f"  batch (seq)      : {batch['throughput_tps']:8.1f} tuples/s"
              f"  ({speedup:.2f}x)")

        results[dataset] = {
            "master_size": len(bundle.master),
            "input_size": len(data),
            "region_precompute_s": round(region_time, 4),
            "naive_fix_stream": naive,
            "batch_sequential": batch,
            "speedup_sequential": round(speedup, 2),
        }

        if dataset == "hosp":
            overhead = _measure_obs_overhead(bundle, data, regions)
            print(f"  obs enabled      : "
                  f"{overhead['instrumented_tps']:8.1f} tuples/s  "
                  f"({overhead['overhead_pct']:+.1f}% vs plain sequential)")
            results[dataset]["obs_overhead"] = overhead

    payload = {
        "benchmark": "batch_repair_throughput",
        "mode": "quick" if quick else "full",
        "python": platform.python_version(),
        "usable_cores": _usable_cores(),
        "results": results,
        "cpu_bound_oracle": _run_cpu_bound_series(quick, workers),
    }
    output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {output}")
    return payload


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="smoke scale (|Dm|~600, |D|=100)")
    parser.add_argument("--concurrency", type=int, default=4,
                        help="process-pool workers for the CPU-bound "
                             "oracle series")
    parser.add_argument("--output", type=Path,
                        default=REPO_ROOT / "BENCH_batch.json")
    parser.add_argument("--min-speedup", type=float, default=2.0,
                        help="fail unless every dataset's sequential batch "
                             "speedup reaches this factor")
    parser.add_argument("--min-process-speedup", type=float, default=2.0,
                        help="fail unless the process pool reaches this "
                             "factor over sequential on the CPU-bound "
                             "oracle workload (enforced only with >= 2 "
                             "usable cores)")
    parser.add_argument("--max-obs-overhead-pct", type=float, default=5.0,
                        help="fail if enabling repro.obs telemetry costs "
                             "more than this percent of sequential batch "
                             "throughput on hosp")
    args = parser.parse_args(argv)

    payload = run(args.quick, args.concurrency, args.output)
    worst = min(
        entry["speedup_sequential"] for entry in payload["results"].values()
    )
    if worst < args.min_speedup:
        print(f"FAIL: worst sequential speedup {worst:.2f}x "
              f"< required {args.min_speedup:.2f}x")
        return 1
    print(f"OK: worst sequential speedup {worst:.2f}x "
          f">= {args.min_speedup:.2f}x")

    overhead = payload["results"]["hosp"]["obs_overhead"]["overhead_pct"]
    if overhead > args.max_obs_overhead_pct:
        print(f"FAIL: telemetry overhead {overhead:.1f}% "
              f"> allowed {args.max_obs_overhead_pct:.1f}%")
        return 1
    print(f"OK: telemetry overhead {overhead:.1f}% "
          f"<= {args.max_obs_overhead_pct:.1f}%")

    cpu = payload["cpu_bound_oracle"]
    workers = args.concurrency
    # The floor is only meaningful where the hardware can express the
    # parallelism: N workers can never beat sequential by more than
    # min(N, cores), so on narrower machines the series is recorded (and
    # outputs are still verified bit-identical) but the floor is waived.
    if cpu["usable_cores"] >= workers >= 2:
        if cpu["speedup_process"] < args.min_process_speedup:
            print(f"FAIL: process-pool speedup {cpu['speedup_process']:.2f}x "
                  f"< required {args.min_process_speedup:.2f}x on the "
                  f"CPU-bound oracle workload")
            return 1
        print(f"OK: process-pool speedup {cpu['speedup_process']:.2f}x "
              f">= {args.min_process_speedup:.2f}x")
    else:
        print(f"NOTE: {cpu['usable_cores']} usable core(s) for "
              f"{workers} worker(s) — process-pool speedup "
              f"{cpu['speedup_process']:.2f}x recorded but the "
              f"{args.min_process_speedup:.2f}x floor is not enforced; "
              f"outputs verified bit-identical to sequential")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
