"""How the chase reads master data: one batched read per step.

Each chase step reads every rule key it needs with one ``probe_batch``
call, a ``(Xm, key)`` pair is read at most once per chase, and the step
(g) post-pass reuses the rows the steps kept.  On a remote master that
means one request per step that had cache misses.  Chase *outcomes* are
cross-validated against the order-exploring chase in
``tests/test_chase_explorer.py`` and ``tests/test_property_based.py``.
"""

import pytest

from repro.core.fixes import chase
from repro.engine.relation import Relation
from repro.engine.remote import MasterServer, RemoteStore
from repro.engine.store import InMemoryStore
from repro.repair.batch import _warm_chunk_probes
from repro.repair.certainfix import CertainFix


class CountingStore(InMemoryStore):
    """Records every keyed read and every ``probe_batch`` call."""

    def __init__(self, relation):
        super().__init__(relation)
        self.reads: list = []
        self.batch_sizes: list = []

    def probe_ref(self, attrs, key):
        self.reads.append((tuple(attrs), tuple(key)))
        return super().probe_ref(attrs, key)

    def probe_batch(self, probes):
        probes = list(probes)
        self.batch_sizes.append(len(probes))
        return super().probe_batch(probes)

    def reset(self) -> None:
        self.reads.clear()
        self.batch_sizes.clear()


def _start_points(bundle, dirty, regions: int = 4):
    """(tuple, Z) pairs: clean tuples chased from the top certain regions."""
    engine = CertainFix(bundle.rules, bundle.master, bundle.schema)
    zs = [c.region.attrs for c in engine.regions[:regions]]
    return [(dt.clean, z) for dt in list(dirty)[:10] for z in zs]


def test_chase_reads_each_rule_key_once_with_one_batch_per_step(
    hosp, hosp_dirty
):
    store = CountingStore(Relation(hosp.schema, hosp.master.iter_rows()))
    multi_step = 0
    for t, z0 in _start_points(hosp, hosp_dirty):
        store.reset()
        outcome = chase(t, z0, hosp.rules, store)
        assert outcome == chase(t, z0, hosp.rules, hosp.master)
        # Every read went through probe_batch: no post-pass probe_ref.
        assert len(store.reads) == sum(store.batch_sizes)
        # ... and no (attrs, key) pair twice, so step (g) read nothing.
        assert len(store.reads) == len(set(store.reads))
        # The outcome reports exactly what it read: its master footprint.
        assert set(outcome.reads) == set(store.reads)
        # At most one batch per step (the last step fires nothing).
        assert len(store.batch_sizes) <= outcome.batches + 1
        multi_step += len(store.batch_sizes) >= 2
    assert multi_step


@pytest.fixture
def dblp_server(dblp):
    backing = InMemoryStore(
        Relation(dblp.master.schema, dblp.master.iter_rows())
    )
    with MasterServer(backing) as server:
        yield server


def test_cold_remote_chase_sends_one_request_per_step(
    dblp, dblp_dirty, dblp_server
):
    keys_per_request = []
    for t, z0 in _start_points(dblp, dblp_dirty, regions=2):
        client = RemoteStore(dblp_server.url, schema=dblp.master.schema)
        steps: list = []
        batched = client.probe_batch

        def counting(probes, steps=steps, batched=batched):
            probes = list(probes)
            steps.append(len(probes))
            return batched(probes)

        client.probe_batch = counting
        before = client.connection_info()["requests"]
        outcome = chase(t, z0, dblp.rules, client)
        requests = client.connection_info()["requests"] - before
        client.close()
        # Cold client: every step's keys are new, hence all misses.
        assert requests == len(steps)
        assert outcome == chase(t, z0, dblp.rules, dblp.master)
        keys_per_request.extend(steps)
    assert max(keys_per_request) > 1


def test_chunk_warmup_is_one_request(dblp, dblp_dirty, dblp_server):
    """The process-pool chunk warm-up sends every rule key of the chunk in
    one request instead of one per rule."""

    class Engine:
        rules = dblp.rules
        store = RemoteStore(dblp_server.url, schema=dblp.master.schema)

    pairs = [(dt.dirty, None) for dt in list(dblp_dirty)[:8]]
    before = Engine.store.connection_info()["requests"]
    _warm_chunk_probes(Engine, pairs)
    assert Engine.store.connection_info()["requests"] - before == 1
    info = Engine.store.probe_cache_info()
    assert info["size"] == len({
        (rule.lhs_m, row[rule.lhs]) for rule in dblp.rules for row, _ in pairs
    })
    Engine.store.close()
