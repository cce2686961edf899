"""Self-test of the benchmark: tiny runs of every workload, span arithmetic.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

from harness import (BLOCK, END_TO_END, PER_LAYER, Run, drift,  # noqa: E402
                     fastest)
from tracing import layer_totals, outermost_spans, self_times  # noqa: E402
from workloads import WORKLOADS, make_inputs  # noqa: E402


def _declared(kind: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def test_catalogs_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert _declared("end_to_end") == dict(END_TO_END)
    assert _declared("per_layer") == dict(PER_LAYER)
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)


@pytest.mark.parametrize("trace", [False, True], ids=["e2e", "traced"])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_emits_every_metric(name, trace):
    run = Run(WORKLOADS[name], seed=3, seconds=0.3, trace=trace, root=ROOT,
              scale=0.05, min_kept_requests=25)
    outcome = run.execute()
    result, record = outcome["result"], outcome["record"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert record["error_fraction"] == 0
    assert record["timed_requests"] >= 100
    declared = _declared("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
        assert math.isfinite(metric["value"])
    if trace:
        assert record["coverage_ok"], result["metrics"]["trace.coverage"]
    else:
        assert len(record["setup_s_samples"]) == 5
    if WORKLOADS[name].mutate_every:
        assert record["post_mutation_requests"] >= 2


def test_inputs_are_a_function_of_the_seed():
    workload = WORKLOADS["hosp-churn"]
    first = make_inputs(workload, seed=5, seconds=0.2, scale=0.05)
    again = make_inputs(workload, seed=5, seconds=0.2, scale=0.05)
    other = make_inputs(workload, seed=6, seconds=0.2, scale=0.05)
    assert first.stream == again.stream
    assert first.mutations == again.mutations
    assert first.stream != other.stream


def test_churn_blocks_hold_one_mutation_cycle():
    for workload in WORKLOADS.values():
        if workload.mutate_every:
            assert 2 * workload.mutate_every == BLOCK


def test_fastest_keeps_the_smallest_share():
    assert fastest([5, 1, 4, 2, 3, 9, 7, 8], 4) == [1, 3]
    assert fastest([3.0, 1.0, 2.0, 0.5, 9.0], 2) == [1, 2, 3]
    assert fastest([7], 4) == [0]


def _span(name, start, end, parent, request=0):
    return (name, start, end, parent, request)


def test_self_times_on_a_synthetic_tree():
    spans = [
        _span("batch.run", 0, 100, -1),          # 0
        _span("certainfix.fix", 10, 40, 0),      # 1
        _span("certainfix.fix", 50, 90, 0),      # 2
        _span("chase", 15, 25, 1),               # 3
        _span("chase", 20, 35, 1),               # 4 overlaps 3
        _span("store.probe", 85, 120, 2),        # 5 ends past its parent
        _span("store.probe", 86, 88, 5),         # 6 nested in its own layer
        _span("oracle", 0, 7, -1, request=1),    # 7 another request
    ]
    # 0: 100 - (30 + 40); 1: 30 - |15..35|; 2: 40 - |85..90|;
    # 5: 35 - 2; 7: no children.
    assert self_times(spans) == [30, 10, 35, 10, 15, 33, 2, 7]
    totals = layer_totals(spans, requests={0})
    assert totals == {
        "batch": (30, 1),
        "certainfix": (45, 2),
        "chase": (25, 2),
        "store": (35, 1),
    }
    assert sum(total for total, _ in totals.values()) == 135
    assert list(outermost_spans(spans)) == [
        ("batch.run", 100, 0),
        ("certainfix.fix", 30, 0),
        ("certainfix.fix", 40, 0),
        ("chase", 10, 0),
        ("chase", 15, 0),
        ("store.probe", 35, 0),
        ("oracle", 7, 1),
    ]


def test_drift_compares_the_first_and_last_quarter():
    # Eight blocks whose requests take 1 ms, rising to 8 ms in the last two.
    latency = [1e-3] * (6 * BLOCK) + [8e-3] * (2 * BLOCK)
    figures = drift({"latency": latency}, range(8))
    assert figures == {"first_quarter_p75_ms": 1.0,
                       "last_quarter_p75_ms": 8.0}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hosp-churn",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
