"""Experiment drivers reproducing the paper's evaluation (Sect. 6).

One function per table/figure; each returns plain data rows that the
benchmark harnesses (``benchmarks/``) print in the paper's format and that
``benchmarks/run_all.py`` assembles into EXPERIMENTS.md.

Scaling note: the paper's defaults are ``d% = 30``, ``|Dm| = 10K``,
``n% = 20``, with up to 10M input tuples on a C++ implementation.  The
drivers keep the same parameter *spans* but scale sizes to laptop-Python
budgets; every claim checked is about curve shapes, not absolute numbers.
"""

from repro.experiments.config import DEFAULTS, ExperimentConfig, load_dataset
from repro.experiments.runner import StreamResult, metrics_after_round, run_stream
from repro.experiments.tables import format_table

__all__ = [
    "DEFAULTS",
    "ExperimentConfig",
    "StreamResult",
    "format_table",
    "load_dataset",
    "metrics_after_round",
    "run_stream",
]
