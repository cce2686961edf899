#!/usr/bin/env python3
"""Batch repair at throughput: shared caches over a dirty tuple stream.

The paper's CertainFix monitors one tuple at a time; production streams
arrive in bulk.  ``BatchRepairEngine`` precomputes the certain regions,
master hash indexes and the Suggest⁺ BDD once, reuses them for every
tuple, and runs the stream in chunks — here on a HOSP workload, with
the CSV round trip the CLI's ``batch-repair`` command uses.

Run:  PYTHONPATH=src python examples/batch_throughput.py
"""

import tempfile
import time
from pathlib import Path

from repro import BatchRepairEngine, CertainFix, SimulatedUser, make_hosp
from repro.datasets import make_dirty_dataset
from repro.engine.csvio import relation_to_csv
from repro.engine.relation import Relation


def main():
    hosp = make_hosp(num_hospitals=60, num_measures=8, seed=13)
    data = make_dirty_dataset(
        hosp, size=150, duplicate_rate=0.3, noise_rate=0.2, seed=13
    )
    print(f"workload: |Dm| = {len(hosp.master)}, |D| = {len(data)} dirty tuples")

    # ------------------------------------------------- the batch engine
    engine = BatchRepairEngine(
        hosp.rules, hosp.master, hosp.schema,
        use_bdd=True, chunk_size=64,
    )
    result = engine.run_dirty(data)
    print("\n## BatchRepairEngine")
    print(result.report.describe())
    assert all(s.final == dt.clean for s, dt in zip(result.sessions, data))
    print("every fix matches the ground truth (certain fixes)")

    # -------------------------------- baseline: naive per-tuple monitoring
    naive = CertainFix(hosp.rules, hosp.master, hosp.schema, use_bdd=False,
                       regions=engine.engine.regions)
    started = time.perf_counter()
    naive.fix_stream((dt.dirty, SimulatedUser(dt.clean)) for dt in data)
    elapsed = time.perf_counter() - started
    print(f"\nnaive fix_stream: {len(data) / elapsed:.1f} tuples/s vs "
          f"batch {result.report.throughput:.1f} tuples/s "
          f"({result.report.throughput * elapsed / len(data):.1f}x)")

    # ------------------------------------------------- CSV streaming path
    with tempfile.TemporaryDirectory() as tmp:
        dirty_csv = Path(tmp) / "dirty.csv"
        clean_csv = Path(tmp) / "clean.csv"
        relation_to_csv(Relation(hosp.schema, (dt.dirty for dt in data)),
                        dirty_csv)
        relation_to_csv(Relation(hosp.schema, (dt.clean for dt in data)),
                        clean_csv)
        csv_result = engine.run_csv(dirty_csv, clean_path=clean_csv)
        # Typed columns (Score is INT) coerce back on load, so the CSV
        # path reaches the same ground truth as the in-memory run.
        assert all(s.final == dt.clean
                   for s, dt in zip(csv_result.sessions, data))
        print(f"\nCSV streaming path: {csv_result.report.tuples} rows, "
              f"{csv_result.report.throughput:.1f} tuples/s "
              f"(suggestion cache "
              f"{csv_result.report.suggestion_hit_rate:.0%} hit)")


if __name__ == "__main__":
    main()
