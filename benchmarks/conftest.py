"""Shared benchmark configuration.

Benchmark scale: the paper's defaults (d% = 30, |Dm| = 10K,
n% = 20, C++ implementation) are scaled to |Dm| ≈ 1.5K and |D| ≈ 200 so the
whole harness regenerates every table and figure in minutes of pure Python.
All sweeps keep the paper's relative parameter spans; every bench asserts
the paper's qualitative shape and prints the regenerated rows.
"""

import pathlib

import pytest

from repro.experiments.config import ExperimentConfig

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

BENCH_HOSP = ExperimentConfig(dataset="hosp", master_size=1500, input_size=200)
BENCH_DBLP = ExperimentConfig(dataset="dblp", master_size=1500, input_size=200)


def emit(name: str, text: str) -> None:
    """Print a regenerated table and persist it under benchmarks/results/."""
    print()
    print(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")


@pytest.fixture(scope="session")
def bench_hosp():
    return BENCH_HOSP


@pytest.fixture(scope="session")
def bench_dblp():
    return BENCH_DBLP
