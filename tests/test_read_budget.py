"""Keyed-read budgets: master reads over a fixed request prefix.

Wall-time gates flake on a shared host, but the keyed reads a fixed
prefix makes are deterministic.  Every ``store.probe_ref`` call — the
chase's batched reads (``probe_batch`` reads through it), the Suggest⁺
reuse check, region builds — is counted over the 300-tuple prefix that
``tests/test_bdd.py`` pins the reuse check on, for HOSP and for DBLP.
The bounds are the counts measured when they were set; a change that
cuts reads lowers its bound in the same change.
"""

import pytest

from repro.datasets import make_dblp, make_dirty_dataset, make_hosp
from repro.engine.relation import Relation
from repro.engine.store import InMemoryStore
from repro.repair.batch import BatchRepairEngine
from repro.repair.oracle import SimulatedUser

#: Keyed reads over the 300-tuple prefix, as measured.
READ_BUDGET = {"hosp": 4_003, "dblp": 3_596}


def _bundle(name):
    if name == "hosp":
        return make_hosp(num_hospitals=50, num_measures=10, seed=7)
    return make_dblp(num_papers=2000, num_authors=666, num_venues=100,
                     seed=11)


@pytest.mark.parametrize("name", sorted(READ_BUDGET))
def test_keyed_reads_on_a_fixed_prefix_stay_within_budget(name):
    bundle = _bundle(name)
    data = make_dirty_dataset(bundle, size=300, duplicate_rate=0.3,
                              noise_rate=0.2, seed=2)
    store = InMemoryStore(
        Relation(bundle.master.schema, bundle.master.iter_rows())
    )
    engine = BatchRepairEngine(bundle.rules, store, bundle.schema)
    reads = [0]
    probe_ref = store.probe_ref

    def counting_probe_ref(*args):
        reads[0] += 1
        return probe_ref(*args)

    store.probe_ref = counting_probe_ref
    result = engine.run(
        [(t.dirty, SimulatedUser(t.clean)) for t in data.tuples]
    )

    assert [s.final for s in result.sessions] == [t.clean for t in data.tuples]
    assert reads[0] <= READ_BUDGET[name]
