"""Seeded inputs and master backends for the two benchmark workloads.

Everything a run feeds the repair engine is generated here, before any
setup is timed: the master rows and the rule set of the workload's
dataset, and from the ``--seed`` argument a warm-up prefix, a timed stream
of ``(dirty, clean)`` pairs at the paper's defaults (duplicate rate
d% = 30, noise rate n% = 20) and the workload's master mutations.  The
engine only ever sees those rows, rules and master data.

The master is generated from a fixed seed per dataset: it is part of the
workload, so set-up work (lint, indexes, region precompute over the
master) is the same for every ``--seed``.

A workload's stream is sized from ``max_rate`` (tuples per measured
second): a run ends early, with correct figures, if the program ever
outruns it.
"""

from __future__ import annotations

import os
import random
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

from repro.datasets import make_dblp, make_dirty_dataset, make_hosp
from repro.engine.csvio import relation_to_csv
from repro.engine.relation import Relation
from repro.engine.remote import RemoteStore
from repro.engine.store import InMemoryStore

#: Untimed requests sent before each timed phase so the BDD and the probe
#: LRUs fill (mutation-free).
WARMUP_REQUESTS = 500

#: HOSP measures per hospital, as in ``repro.experiments.config``.
HOSP_MEASURES = 10

#: Master-data seeds (the dataset generators' defaults).
MASTER_SEEDS = {"hosp": 7, "dblp": 11}


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: dataset, backend and mutation schedule."""

    name: str
    dataset: str        # "hosp" | "dblp"
    backend: str        # "memory" | "remote"
    master_size: int    # |Dm| in rows
    max_rate: int       # stream tuples generated per measured second
    mutate_every: int = 0  # one mutation before every K-th request


# hosp-churn keeps 2 * mutate_every == harness.BLOCK, so every timed block
# holds one insert and one update and the blocks stay comparable.
WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload("hosp-churn", "hosp", "memory", 500, max_rate=600,
                 mutate_every=25),
        Workload("dblp-remote", "dblp", "remote", 2000, max_rate=1000),
    )
}


@dataclass
class Inputs:
    """Everything generated for one run, before setup."""

    schema: object
    rules: list
    master: Relation
    warmup: list        # [(dirty Row, clean Row)]
    stream: list        # [(dirty Row, clean Row)]
    mutations: list     # [("insert", row) | ("update", (old, new))]


def make_inputs(workload: Workload, seed: int, seconds: float,
                scale: float = 1.0) -> Inputs:
    """Generate a run's inputs; the same seed gives the same inputs.

    *scale* shrinks the master and the warm-up prefix (the self-test runs
    every workload at a tiny size).
    """
    master_size = max(50, int(workload.master_size * scale))
    if workload.dataset == "hosp":
        bundle = make_hosp(
            num_hospitals=max(1, master_size // HOSP_MEASURES),
            num_measures=HOSP_MEASURES,
            seed=MASTER_SEEDS["hosp"],
        )
    else:
        bundle = make_dblp(
            num_papers=master_size,
            num_authors=max(20, master_size // 3),
            num_venues=max(8, master_size // 20),
            seed=MASTER_SEEDS["dblp"],
        )
    warmup = max(1, int(WARMUP_REQUESTS * scale))
    size = warmup + max(1, int(workload.max_rate * seconds))
    data = make_dirty_dataset(
        bundle, size=size, duplicate_rate=0.3, noise_rate=0.2, seed=seed + 1
    )
    pairs = [(t.dirty, t.clean) for t in data.tuples]
    mutations = []
    if workload.mutate_every:
        count = size // workload.mutate_every + 1
        mutations = _make_mutations(bundle, count, random.Random(seed + 2))
    return Inputs(
        schema=bundle.schema,
        rules=bundle.rules,
        master=bundle.master,
        warmup=pairs[:warmup],
        stream=pairs[warmup:],
        mutations=mutations,
    )


def _make_mutations(bundle, count: int, rng) -> list:
    """Alternating inserts and updates that leave every stream tuple's
    ground truth intact.

    An insert adds a fresh entity (new key values, consistent with every
    master-derivable value).  An update rewrites the free-text ``sample``
    column of the entity inserted just before it, so no stream tuple
    depends on the changed row; it journals as delete+insert.
    """
    out = []
    last = None
    for index in range(count):
        if index % 2:
            new = last.with_values({"sample": f"{last['sample']} rev{index}"})
            out.append(("update", (last, new)))
            last = new
        else:
            last = _fresh_entity(bundle, rng)
            out.append(("insert", last))
    return out


def _fresh_entity(bundle, rng):
    """An entity whose master-derivable values no stream tuple contradicts.

    HOSP's ``(mCode, ST) -> sAvg`` spans entities: a fresh entity in a
    state the master does not average draws a random ``sAvg``, which
    would become the "certain" fix of every later stream tuple with that
    pair.  Such draws are skipped.
    """
    while True:
        row = bundle.entity_factory(rng)
        if (row["mCode"], row["ST"]) in bundle.state_avg:
            return row


class Backend:
    """Builds fresh master stores for one run and cleans up after it.

    ``memory`` loads the master in this process.  ``remote`` starts one
    memory-backed ``serve-master`` process per run and hands out fresh
    clients (one keep-alive connection each).
    """

    def __init__(self, workload: Workload, inputs: Inputs, workdir: Path,
                 src: Path):
        self.kind = workload.backend
        self.inputs = inputs
        self.workdir = workdir
        self._src = src
        self._server = None
        self._url = None
        workdir.mkdir(parents=True, exist_ok=True)
        if self.kind == "remote":
            self._start_server()

    def _start_server(self) -> None:
        csv_path = self.workdir / "master.csv"
        relation_to_csv(self.inputs.master, csv_path)
        env = dict(os.environ, PYTHONPATH=str(self._src))
        self._server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve-master",
             "--master", str(csv_path), "--master-backend", "memory",
             "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, env=env, cwd=str(self.workdir),
        )
        for line in self._server.stdout:
            if line.strip().startswith("url:"):
                self._url = line.split("url:", 1)[1].strip()
                break
        if self._url is None:
            self.close()
            raise RuntimeError("serve-master exited before printing its url")

    def make_store(self):
        """A freshly loaded store (the timed "store load" of setup)."""
        inputs = self.inputs
        if self.kind == "memory":
            return InMemoryStore(
                Relation(inputs.schema, inputs.master.iter_rows())
            )
        return RemoteStore(self._url)

    @staticmethod
    def release(store) -> None:
        close = getattr(store, "close", None)
        if close is not None:
            close()

    def close(self) -> None:
        """Stop the server (if any), wait for it, and remove the workdir."""
        if self._server is not None:
            self._server.terminate()
            try:
                self._server.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self._server.kill()
                self._server.wait()
            self._server.stdout.close()
            self._server = None
        shutil.rmtree(self.workdir, ignore_errors=True)
