#!/usr/bin/env python3
"""Batch-repair benchmark: one closed-loop client driving CertainFix.

Usage (from the repository root)::

    python3 perfbench/run.py --workload hosp-churn --seed 1 --seconds 25 \\
        --trace 0

The benchmark generates every input from ``--seed`` (see
``perfbench/workloads.py``), builds the store and the
``BatchRepairEngine`` from ``src/`` of the checkout it sits in, sends an
untimed warm-up prefix, then measures for ``--seconds`` seconds (longer
only until the quietest quarter of the timed blocks holds 1000 requests,
see ``perfbench/harness.py``).  Every fix is compared with the ground
truth as it returns.

The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (spans written to ``perfbench/out/``).  The lines
before it record the host (usable cores, Python version, load average
before and after) and the run's details, including ``error_fraction``.
``failed`` counts requests that raised, ended incomplete or returned a
row other than the ground truth.

Exit codes: 0 on a correct run; 1 when any fix was wrong (a faster wrong
fix never counts) or, in a traced run, when the layer self times miss the
request wall time by more than the stated tolerance; 2 on a usage error or
when the program under test cannot be found next to the benchmark.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _load_program() -> bool:
    """Put the checkout's ``src/`` first on the path; False if absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(SRC))
    import repro

    return Path(repro.__file__).resolve().is_relative_to(SRC.resolve())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not _load_program():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2

    from harness import COVERAGE_TOLERANCE, Run
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    run = Run(workload, args.seed, args.seconds, bool(args.trace), ROOT)
    outcome = run.execute()
    result, record = outcome["result"], outcome["record"]
    if args.trace:
        spans_path = ROOT / "perfbench" / "out" / f"{workload.name}.spans.tsv.gz"
        run.tracer.write(spans_path)
        record["spans_file"] = str(spans_path.relative_to(ROOT))
    print("host " + json.dumps({
        "before": record["host_before"], "after": record["host_after"],
    }))
    print("record " + json.dumps(record, default=str))
    print(json.dumps(result))
    if not result["correct"]:
        return 1
    if args.trace and not record["coverage_ok"]:
        print(f"error: layer self times miss the request wall time by more "
              f"than {COVERAGE_TOLERANCE:.0%}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
