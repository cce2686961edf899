"""Experiment configuration and dataset loading.

The paper's defaults (d% = 30, |Dm| = 10K, n% = 20, 10K input tuples) are
scaled down for a pure-Python laptop run; the *relative* spans of every
sweep are preserved.  All generators are deterministic given the seed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.datasets import make_dblp, make_dirty_dataset, make_hosp


@dataclass(frozen=True)
class ExperimentConfig:
    """One experimental setting (the paper's d%, n%, |Dm|, |D| knobs)."""

    dataset: str = "hosp"
    duplicate_rate: float = 0.3
    noise_rate: float = 0.2
    master_size: int = 1500
    input_size: int = 250
    seed: int = 42

    def with_(self, **kwargs) -> "ExperimentConfig":
        return replace(self, **kwargs)


DEFAULTS = {
    "hosp": ExperimentConfig(dataset="hosp"),
    "dblp": ExperimentConfig(dataset="dblp"),
}

_HOSP_MEASURES = 10

_dataset_cache: dict = {}


def load_dataset(config: ExperimentConfig):
    """Build (and cache) the master data bundle for a config."""
    key = (config.dataset, config.master_size, config.seed)
    bundle = _dataset_cache.get(key)
    if bundle is None:
        if config.dataset == "hosp":
            hospitals = max(1, config.master_size // _HOSP_MEASURES)
            bundle = make_hosp(
                num_hospitals=hospitals,
                num_measures=_HOSP_MEASURES,
                seed=config.seed,
            )
        elif config.dataset == "dblp":
            bundle = make_dblp(
                num_papers=config.master_size,
                num_authors=max(20, config.master_size // 3),
                num_venues=max(8, config.master_size // 20),
                seed=config.seed,
            )
        else:
            raise ValueError(f"unknown dataset {config.dataset!r}")
        _dataset_cache[key] = bundle
    return bundle


def load_workload(config: ExperimentConfig):
    """Dataset bundle + dirty input stream for a config."""
    bundle = load_dataset(config)
    data = make_dirty_dataset(
        bundle,
        size=config.input_size,
        duplicate_rate=config.duplicate_rate,
        noise_rate=config.noise_rate,
        seed=config.seed + 1,
    )
    return bundle, data
