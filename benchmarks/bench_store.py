#!/usr/bin/env python3
"""MasterStore backends: memory vs sqlite vs remote, plus invalidation cost.

Seeds ``BENCH_store.json``.  Six questions, per dataset:

1. **backend throughput** — the same batch workload through
   :class:`~repro.engine.store.InMemoryStore` (hash indexes in RAM),
   :class:`~repro.engine.store.SqliteStore` (out-of-core indexed tables
   behind an LRU probe cache) and :class:`~repro.engine.remote.RemoteStore`
   (HTTP read-through client against an in-process
   :class:`~repro.engine.remote.MasterServer`), outputs asserted identical;
2. **warm-cache rerun** — the same workload again on warmed shared caches
   (the steady state of a monitoring service);
3. **post-update rerun** — one master insert between runs bumps the store
   version (over HTTP for the remote backend), so the rerun first rebuilds
   regions/BDD; the gap between (2) and (3) is the price of an
   incremental master update;
4. **sustained mutations** — a series of master inserts alternating with
   updates of the row just inserted, each followed by a rerun, the
   monitoring steady state the delta journal targets: the engine must
   answer every bump with a per-key purge (``delta_purges`` climbs,
   ``full_drops`` stays 0), keep its certain regions through inserts and
   updates alike (``region_rebuilds`` stays 0) and hold near-warm
   throughput.  The backends step in lockstep and must fix identically
   after every step;
5. **delta-invalidation speedup** — the same post-update rerun through a
   ``delta_invalidation=False`` engine measures the historical full-drop
   cost on the same machine; in full mode the delta path must beat it by
   ``DELTA_SPEEDUP_FLOOR`` (≥5×), the acceptance bar of the journal seam.
   Three trials each insert one row and time the delta rerun and the
   reference rerun back to back; the floor gates the median ratio;
6. **probe latency** — raw ``probe()`` microbenchmark per backend, cold
   (first touch per key) vs warm (read-through caches hot).  The remote
   backend's warm-cache probe throughput must stay within 5× of sqlite's —
   both are one LRU hit; the floor catches a broken client cache, which
   would otherwise silently turn every probe into an HTTP round-trip.

Run:  PYTHONPATH=src python benchmarks/bench_store.py [--quick]

Not a pytest module on purpose: a standalone perf harness whose output
file downstream sessions diff against.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import time
from pathlib import Path

from repro.engine.relation import Relation
from repro.engine.remote import MasterServer, RemoteStore
from repro.engine.store import InMemoryStore, SqliteStore, as_master_store
from repro.experiments.config import ExperimentConfig, load_workload
from repro.repair.batch import BatchRepairEngine

REPO_ROOT = Path(__file__).resolve().parent.parent

#: The remote warm-probe floor relative to sqlite (see module docstring).
REMOTE_WARM_FACTOR = 5.0

#: Post-update throughput floor of the delta path over the measured
#: full-drop reference (enforced in full mode; quick mode only reports).
DELTA_SPEEDUP_FLOOR = 5.0

#: Paired post-update trials (one insert each) behind that floor; the
#: gate reads the median of their delta/reference ratios.
SPEEDUP_TRIALS = 3


def _run(engine, data) -> tuple:
    started = time.perf_counter()
    result = engine.run_dirty(data)
    elapsed = time.perf_counter() - started
    return result, elapsed


def _throughput(count: int, elapsed: float) -> float:
    return round(count / elapsed, 2) if elapsed > 0 else 0.0


def _fresh_master_row(bundle, key: str = "bench-store-fresh-key"):
    """A master tuple with an unseen key, to force real invalidation."""
    donor = bundle.master.row_at(0)
    first_attr = bundle.master.schema.attributes[0]
    return donor.with_values({first_attr: key})


def _private_column(bundle) -> str:
    """A master column every rule touching it also keys on the first
    attribute, so rewriting it in a fresh-key row (see
    :func:`_fresh_master_row`) only moves master keys no other row
    shares: the certain regions must survive the update."""
    key = bundle.schema.attributes[0]
    for column in bundle.schema.attributes[1:]:
        touching = [
            rule for rule in bundle.rules
            if column in rule.lhs_m or column == rule.rhs_m
        ]
        if touching and all(key in rule.lhs_m for rule in touching):
            return column
    raise ValueError(f"{bundle.name}: no column is private to {key!r}")


def _make_backends(bundle) -> tuple:
    """(ordered backend dict, cleanup callable).

    All three are loaded from the same initial master before any backend
    mutates (the post-update phase inserts per backend).
    """
    sqlite = SqliteStore.from_relation(bundle.master)
    backing = InMemoryStore(
        Relation(bundle.schema, bundle.master.iter_rows())
    )
    server = MasterServer(backing).start()
    remote = RemoteStore(server.url)
    backends = {
        "memory": as_master_store(bundle.master),
        "sqlite": sqlite,
        "remote": remote,
    }

    def cleanup():
        remote.close()
        server.close()
        sqlite.close()

    return backends, cleanup


def _bench_probe_latency(store, attr: str, keys: list, repeats: int) -> dict:
    """Raw probe cost: cold (first touch per key) vs warm (caches hot)."""
    store.ensure_index((attr,))
    started = time.perf_counter()
    for key in keys:
        store.probe((attr,), key)
    cold = time.perf_counter() - started
    started = time.perf_counter()
    for _ in range(repeats):
        for key in keys:
            store.probe((attr,), key)
    warm = time.perf_counter() - started
    return {
        "keys": len(keys),
        "cold_tps": _throughput(len(keys), cold),
        "warm_tps": _throughput(len(keys) * repeats, warm),
    }


def bench_dataset(dataset: str, scale: dict, probe_repeats: int,
                  mutations: int, enforce_speedup: bool) -> dict:
    config = ExperimentConfig(dataset=dataset, **scale)
    bundle, data = load_workload(config)
    print(f"[{dataset}] |Dm|={len(bundle.master)}  |D|={len(data)}")

    backends, cleanup = _make_backends(bundle)
    try:
        out: dict = {
            "master_size": len(bundle.master),
            "input_size": len(data),
            "backends": {},
            "probe_latency": {},
        }
        finals = {}
        engines = {}
        phases = {}
        for name, store in backends.items():
            setup_started = time.perf_counter()
            engine = BatchRepairEngine(bundle.rules, store, bundle.schema)
            setup = time.perf_counter() - setup_started

            cold, cold_s = _run(engine, data)
            warm, warm_s = _run(engine, data)

            store.insert(_fresh_master_row(bundle))
            updated, updated_s = _run(engine, data)
            assert updated.report.cache_invalidations == 1, (
                f"{name}: master insert did not invalidate the shared caches"
            )
            finals[name] = [s.final for s in cold.sessions]
            engines[name] = engine
            phases[name] = (setup, cold_s, warm_s, updated, updated_s)

        # sustained-mutation series: the monitoring steady state — every
        # insert, and every update of the row just inserted, must resolve
        # through the delta journal (not a full drop) without discarding
        # the certain regions, and throughput must hold near the warm
        # level.  All backends take each step before the next one starts,
        # so their fixes can be compared step by step.
        column = _private_column(bundle)
        series_tps: dict = {name: [] for name in backends}
        region_rebuilds = {name: 0 for name in backends}
        last = None
        for i in range(mutations):
            if i % 2:
                new = last.with_values({column: f"{last[column]}-rev{i}"})
            else:
                new = _fresh_master_row(bundle, f"bench-store-sustained-{i}")
            step_finals = {}
            for name, store in backends.items():
                if i % 2:
                    assert store.update(last, new), (
                        f"{name}: sustained-series row vanished"
                    )
                else:
                    store.insert(new)
                step, step_s = _run(engines[name], data)
                series_tps[name].append(_throughput(len(data), step_s))
                region_rebuilds[name] += step.report.region_rebuilds
                step_finals[name] = [s.final for s in step.sessions]
            last = new
            for name in step_finals:
                assert step_finals[name] == step_finals["memory"], (
                    f"step {i}: memory and {name} fixed differently after "
                    f"the same master mutation"
                )
        for name, count in region_rebuilds.items():
            assert count == 0, (
                f"{name}: {count} of {mutations} sustained mutations "
                f"discarded the certain regions"
            )

        for name, store in backends.items():
            setup, cold_s, warm_s, updated, updated_s = phases[name]
            engine = engines[name]
            inner = engine.engine
            assert inner.delta_purges + inner.full_drops == 1 + mutations, (
                f"{name}: {1 + mutations} master mutations must produce "
                f"{1 + mutations} invalidations"
            )

            # full-drop reference on the same machine/backend: what the
            # identical post-update rerun costs without the delta path.
            # Each trial inserts one fresh row and reruns the delta engine
            # and the reference back to back, so both samples see the same
            # master and the same moment of host load; the gate reads the
            # median of the per-trial ratios.
            ref_engine = BatchRepairEngine(
                bundle.rules, store, bundle.schema, delta_invalidation=False
            )
            _run(ref_engine, data)  # build the shared caches once
            delta_trials, ref_trials, speedups = [], [], []
            for trial in range(SPEEDUP_TRIALS):
                store.insert(_fresh_master_row(
                    bundle, f"bench-store-ref-key-{trial}"
                ))
                _, trial_s = _run(engine, data)
                ref_updated, ref_s = _run(ref_engine, data)
                assert ref_updated.report.cache_invalidations == 1
                assert ref_engine.engine.delta_purges == 0, (
                    f"{name}: the delta_invalidation=False reference must "
                    f"not take the delta path"
                )
                delta_trials.append(_throughput(len(data), trial_s))
                ref_trials.append(_throughput(len(data), ref_s))
                speedups.append(
                    delta_trials[-1] / ref_trials[-1]
                    if ref_trials[-1] else 0.0
                )
            # the delta engine's first post-reference rerun closes the
            # sustained series (mutations + 1 entries)
            series_tps[name].append(delta_trials[0])
            ref_tps = statistics.median(ref_trials)
            speedup = round(statistics.median(speedups), 2)
            if enforce_speedup:
                assert speedup >= DELTA_SPEEDUP_FLOOR, (
                    f"{name}: delta-path post-update rerun is only "
                    f"{speedup}x the full-drop reference (median of "
                    f"{SPEEDUP_TRIALS} paired trials: {delta_trials} vs "
                    f"{ref_trials} tps); the journal seam requires >= "
                    f"{DELTA_SPEEDUP_FLOOR:.0f}x"
                )

            tps = series_tps[name]
            entry = {
                "setup_s": round(setup, 4),
                "cold_run": {
                    "elapsed_s": round(cold_s, 4),
                    "throughput_tps": _throughput(len(data), cold_s),
                },
                "warm_cache_run": {
                    "elapsed_s": round(warm_s, 4),
                    "throughput_tps": _throughput(len(data), warm_s),
                },
                "post_update_run": {
                    "elapsed_s": round(updated_s, 4),
                    "throughput_tps": _throughput(len(data), updated_s),
                    "cache_invalidations": updated.report.cache_invalidations,
                },
                "invalidation_overhead_s": round(
                    max(updated_s - warm_s, 0.0), 4
                ),
                "sustained_mutation_runs": {
                    "mutations": mutations + 1,
                    "updated_column": column,
                    "throughput_tps": tps,
                    "mean_tps": round(sum(tps) / len(tps), 2) if tps else 0.0,
                    "delta_purges": inner.delta_purges,
                    "full_drops": inner.full_drops,
                    "region_rebuilds": region_rebuilds[name],
                },
                "full_drop_reference": {
                    "post_update_tps": ref_tps,
                    "delta_speedup": speedup,
                    "paired_trials": {
                        "delta_tps": delta_trials,
                        "reference_tps": ref_trials,
                        "speedups": [round(x, 2) for x in speedups],
                    },
                },
                "master_version_final": store.version,
            }
            if hasattr(store, "probe_cache_info"):
                entry["probe_cache"] = store.probe_cache_info()
            if hasattr(store, "connection_info"):
                entry["connection"] = store.connection_info()
            out["backends"][name] = entry
            print(f"  {name:6s}: cold "
                  f"{entry['cold_run']['throughput_tps']:8.1f} tps  warm "
                  f"{entry['warm_cache_run']['throughput_tps']:8.1f} tps  "
                  f"post-update "
                  f"{entry['post_update_run']['throughput_tps']:8.1f} tps  "
                  f"sustained "
                  f"{entry['sustained_mutation_runs']['mean_tps']:8.1f} tps "
                  f"(purges={inner.delta_purges} drops={inner.full_drops} "
                  f"region rebuilds={region_rebuilds[name]})  "
                  f"full-drop ref {ref_tps:8.1f} tps "
                  f"(speedup {speedup}x)")

        for name in finals:
            assert finals["memory"] == finals[name], (
                f"backend outputs diverged — memory and {name} must fix "
                f"identically"
            )

        # raw probe microbenchmark (all backends hold identical rows here:
        # the same initial master plus each its own fresh-key insert)
        attr = bundle.schema.attributes[0]
        keys = list(dict.fromkeys(
            (row[attr],) for row in bundle.master.iter_rows()
        ))
        for name, store in backends.items():
            probe = _bench_probe_latency(store, attr, keys, probe_repeats)
            out["probe_latency"][name] = probe
            print(f"  {name:6s} probes: cold {probe['cold_tps']:10.1f} tps  "
                  f"warm {probe['warm_tps']:10.1f} tps")

        sqlite_warm = out["probe_latency"]["sqlite"]["warm_tps"]
        remote_warm = out["probe_latency"]["remote"]["warm_tps"]
        assert remote_warm * REMOTE_WARM_FACTOR >= sqlite_warm, (
            f"remote warm-cache probes fell below 1/{REMOTE_WARM_FACTOR:.0f} "
            f"of sqlite ({remote_warm:.0f} vs {sqlite_warm:.0f} tps) — the "
            f"read-through LRU is not serving hits"
        )
        out["remote_warm_within_factor"] = round(
            sqlite_warm / remote_warm, 3
        ) if remote_warm else None
    finally:
        cleanup()

    mem = out["backends"]["memory"]["cold_run"]["throughput_tps"]
    sql = out["backends"]["sqlite"]["cold_run"]["throughput_tps"]
    rem = out["backends"]["remote"]["cold_run"]["throughput_tps"]
    out["sqlite_relative_throughput"] = round(sql / mem, 3) if mem else 0.0
    out["remote_relative_throughput"] = round(rem / mem, 3) if mem else 0.0
    print(f"  outputs identical; sqlite at "
          f"{out['sqlite_relative_throughput']:.0%}, remote at "
          f"{out['remote_relative_throughput']:.0%} of memory throughput")
    return out


def run(quick: bool, output: Path, enforce_speedup: bool = False) -> dict:
    scale = (
        {"master_size": 600, "input_size": 100}
        if quick
        else {"master_size": 1500, "input_size": 200}
    )
    probe_repeats = 3 if quick else 10
    mutations = 3 if quick else 5
    results = {
        dataset: bench_dataset(dataset, scale, probe_repeats, mutations,
                               enforce_speedup=enforce_speedup or not quick)
        for dataset in ("hosp", "dblp")
    }
    payload = {
        "benchmark": "master_store_backends",
        "mode": "quick" if quick else "full",
        "python": platform.python_version(),
        "remote_warm_probe_floor": f"within {REMOTE_WARM_FACTOR:.0f}x of "
                                   f"sqlite",
        "delta_speedup_floor": (
            f"post-update rerun >= {DELTA_SPEEDUP_FLOOR:.0f}x the full-drop "
            f"reference (enforced in full mode)"
        ),
        "results": results,
    }
    output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {output}")
    return payload


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="smoke scale (|Dm|~600, |D|=100)")
    parser.add_argument("--enforce-speedup", action="store_true",
                        help="gate the delta-invalidation speedup floor "
                             "even in --quick mode")
    parser.add_argument("--output", type=Path,
                        default=REPO_ROOT / "BENCH_store.json")
    args = parser.parse_args(argv)
    run(args.quick, args.output, enforce_speedup=args.enforce_speedup)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
