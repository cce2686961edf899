"""Process-pool batch repair: bit-identical output, start methods, resync.

These tests exercise the process pool (``concurrency > 1``) end to end:
workers rehydrate the engine from a pickled :class:`EngineSpec`, chunks
are merged in submission order, and master mutations reach live workers
one way — the parent's journal deltas, replayed through ``adopt_deltas``
— or, when the journal cannot bridge the gap, through a respawned pool.
"""

import io
import multiprocessing

import pytest

from repro.engine.store import (
    DEFAULT_DELTA_WINDOW,
    SqliteStore,
    StoreDelta,
    StoreError,
)
from repro.engine.tuples import Row
from repro.obs import ProgressReporter
from repro.repair.batch import BatchRepairEngine, EngineSpec
from repro.repair.certainfix import CertainFix
from repro.repair.oracle import CpuBoundOracle, SimulatedUser


def _pairs(data):
    return [(dt.dirty, SimulatedUser(dt.clean)) for dt in data]


def _example_clean(example, key="s1", item="CD"):
    """A clean R-tuple derived from a master tuple (R and Rm differ)."""
    s = example.masters[key]
    return Row(example.schema, {
        "FN": s["FN"], "LN": s["LN"], "AC": s["AC"], "phn": s["Mphn"],
        "type": 2, "str": s["str"], "city": s["city"], "zip": s["zip"],
        "item": item,
    })


def _assert_sessions_identical(proc_sessions, ref_sessions):
    assert len(proc_sessions) == len(ref_sessions)
    for p, r in zip(proc_sessions, ref_sessions):
        assert p.final == r.final
        assert p.validated == r.validated
        assert p.round_count == r.round_count
        assert p.completed == r.completed
        assert [x.asserted for x in p.rounds] == [x.asserted for x in r.rounds]


# -- bit-identical output -----------------------------------------------------


def test_process_matches_sequential_hosp(hosp, hosp_dirty):
    sequential = CertainFix(hosp.rules, hosp.master, hosp.schema,
                            use_bdd=False)
    ref = sequential.fix_stream(_pairs(hosp_dirty))
    with BatchRepairEngine(hosp.rules, hosp.master, hosp.schema,
                           use_bdd=False,
                           concurrency=2, chunk_size=5) as batch:
        result = batch.run(_pairs(hosp_dirty))
    _assert_sessions_identical(result.sessions, ref)
    report = result.report
    assert report.workers == 2
    assert report.tuples == len(hosp_dirty)
    # concurrency=2 alone selects the pool: every row is a worker process.
    assert report.worker_stats
    assert all(label.startswith("pid-") for label in report.worker_stats)
    assert sum(s["tuples"] for s in report.worker_stats.values()) \
        == len(hosp_dirty)
    payload = report.to_dict()
    for stats in payload["worker_stats"].values():
        assert 0.0 <= stats["chase_hit_rate"] <= 1.0


def test_inline_and_process_reports_have_one_shape(hosp, hosp_dirty):
    reports = {}
    for workers in (1, 2):
        with BatchRepairEngine(hosp.rules, hosp.master, hosp.schema,
                               concurrency=workers, chunk_size=5) as batch:
            reports[workers] = batch.run_dirty(hosp_dirty).report.to_dict()
    inline, process = reports[1], reports[2]
    assert set(inline) == set(process)
    assert inline["worker_stats"] == {}
    rows = process["worker_stats"].values()
    assert rows and all(
        set(row) == {"chunks", "tuples", "chase_hits", "chase_misses",
                     "suggestion_hits", "suggestion_misses",
                     "chase_hit_rate"}
        for row in rows
    )
    assert sum(row["tuples"] for row in rows) == len(hosp_dirty)
    # Per-worker memo counters add up to the run totals.
    assert sum(row["chase_hits"] for row in rows) \
        == process["chase_memo"]["hits"]
    assert sum(row["suggestion_misses"] for row in rows) \
        == process["suggestion_cache"]["misses"]


def test_process_heartbeats_carry_per_worker_counts(hosp, hosp_dirty):
    sink = io.StringIO()
    progress = ProgressReporter(label="batch", interval=0, stream=sink)
    with BatchRepairEngine(hosp.rules, hosp.master, hosp.schema,
                           concurrency=2, chunk_size=5) as batch:
        batch.run_dirty(hosp_dirty, progress=progress)
    heartbeats = sink.getvalue().splitlines()
    assert len(heartbeats) == -(-len(hosp_dirty) // 5) + 1  # + finish
    assert all("pid-" in line for line in heartbeats)


def test_process_matches_sequential_running_example(example):
    workload = []
    for key, item in (("s1", "CD"), ("s2", "BOOK")):
        s = example.masters[key]
        clean = Row(example.schema, {
            "FN": s["FN"], "LN": s["LN"], "AC": s["AC"], "phn": s["Mphn"],
            "type": 2, "str": s["str"], "city": s["city"], "zip": s["zip"],
            "item": item,
        })
        workload.append((clean.with_values({"FN": "Bobby", "city": "???"}),
                         clean))
        workload.append((clean, clean))
    sequential = CertainFix(example.rules, example.master, example.schema)
    ref = sequential.fix_stream(
        (dirty, SimulatedUser(clean)) for dirty, clean in workload
    )
    with BatchRepairEngine(example.rules, example.master, example.schema,
                           use_bdd=False,
                           concurrency=2, chunk_size=1) as batch:
        result = batch.run(
            (dirty, SimulatedUser(clean)) for dirty, clean in workload
        )
    _assert_sessions_identical(result.sessions, ref)
    for session, (_, clean) in zip(result.sessions, workload):
        assert session.final == clean


def test_process_with_bdd_fixes_to_ground_truth(hosp, hosp_dirty):
    """Per-worker BDD caches may reorder suggestions, but every fix is
    still the certain fix: final rows equal the ground truth."""
    with BatchRepairEngine(hosp.rules, hosp.master, hosp.schema,
                           use_bdd=True,
                           concurrency=2, chunk_size=8) as batch:
        result = batch.run_dirty(hosp_dirty)
    assert result.report.completed == len(hosp_dirty)
    for session, dt in zip(result.sessions, hosp_dirty):
        assert session.final == dt.clean


# -- start methods ------------------------------------------------------------


@pytest.mark.parametrize("method", ["fork", "spawn"])
def test_start_methods(example, method):
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"start method {method!r} unavailable on this platform")
    clean = _example_clean(example)
    dirty = clean.with_values({"FN": "Bobby", "city": "???"})
    sequential = CertainFix(example.rules, example.master, example.schema)
    ref = sequential.fix_stream(
        [(dirty, SimulatedUser(clean)) for _ in range(4)]
    )
    with BatchRepairEngine(example.rules, example.master, example.schema,
                           use_bdd=False, concurrency=2,
                           chunk_size=2, mp_start_method=method) as batch:
        result = batch.run([(dirty, SimulatedUser(clean)) for _ in range(4)])
    _assert_sessions_identical(result.sessions, ref)
    for session in result.sessions:
        assert session.final == clean


# -- mid-batch master mutation (version stamp re-check) -----------------------


def test_memory_master_update_reaches_live_workers(hosp, hosp_dirty):
    """An update between runs of one live pool ships a row snapshot with
    the next chunks; workers adopt the parent's version stamp and drop
    their caches (reported as cache_invalidations)."""
    from repro.engine.relation import Relation

    data = list(hosp_dirty)
    master = Relation(hosp.schema, hosp.master.iter_rows())  # private copy
    with BatchRepairEngine(hosp.rules, master, hosp.schema,
                           use_bdd=False,
                           concurrency=2, chunk_size=5) as batch:
        first = batch.run(_pairs(data))
        assert first.report.cache_invalidations == 0
        version0 = batch.store.version
        # Touch the master through the store seam: delete+insert of one row
        # moves it to iteration end and bumps the version.
        victim = master.row_at(0)
        assert batch.store.delete(victim)
        batch.store.insert(victim)
        assert batch.store.version > version0
        second = batch.run(_pairs(data))
        # Both live workers had stale stamps and must rebuild exactly once.
        assert second.report.cache_invalidations >= 1
        assert second.report.master_version == batch.store.version
    reference = CertainFix(hosp.rules, master, hosp.schema, use_bdd=False)
    ref = reference.fix_stream(_pairs(data))
    _assert_sessions_identical(second.sessions, ref)


def test_sqlite_master_update_reaches_live_workers(tmp_path, hosp,
                                                   hosp_dirty):
    data = list(hosp_dirty)
    store = SqliteStore.from_relation(hosp.master,
                                      path=tmp_path / "master.db")
    with BatchRepairEngine(hosp.rules, store, hosp.schema,
                           use_bdd=False,
                           concurrency=2, chunk_size=5) as batch:
        batch.run(_pairs(data))
        victim = next(iter(store))
        assert store.update(victim, victim.with_values({}))
        second = batch.run(_pairs(data))
        assert second.report.cache_invalidations >= 1
    reference = CertainFix(hosp.rules, store, hosp.schema, use_bdd=False)
    ref = reference.fix_stream(_pairs(data))
    _assert_sessions_identical(second.sessions, ref)
    store.close()


def test_tasks_carry_no_deltas_once_every_worker_acked(hosp, hosp_dirty):
    """After a mutation, journal deltas ride along with chunk tasks only
    until every worker has acked the new version stamp; then the parent's
    _pool_version catches up and tasks carry an empty delta list."""
    from repro.engine.relation import Relation

    data = list(hosp_dirty)
    master = Relation(hosp.schema, hosp.master.iter_rows())
    with BatchRepairEngine(hosp.rules, master, hosp.schema,
                           use_bdd=False,
                           concurrency=2, chunk_size=3) as batch:
        batch.run(_pairs(data))
        assert batch._task_for(0, [])[3] == ()
        victim = master.row_at(0)
        assert batch.store.delete(victim)
        batch.store.insert(victim)
        # Freshly mutated: the next task carries the delete+insert pair.
        assert [d.op for d in batch._task_for(0, [])[3]] \
            == ["delete", "insert"]
        batch.run(_pairs(data))  # every worker processes chunks and acks
        assert batch._task_for(0, [])[3] == ()
        assert batch._pool_version == batch.store.version


def _assert_respawn_matches_sequential(batch, master, data, rules, schema):
    """Run *data* on *batch*; its rows must equal a sequential CertainFix
    on *master* and the run must report the pool respawn as one drop."""
    result = batch.run(_pairs(data))
    assert result.report.full_drops == 1
    assert result.report.cache_invalidations == 1
    assert result.report.master_version == batch.store.version
    assert batch._pool_version == batch.store.version
    reference = CertainFix(rules, master, schema, use_bdd=False)
    assert result.final_rows == [
        s.final for s in reference.fix_stream(_pairs(data))
    ]


def test_window_overflow_respawns_the_pool(hosp, hosp_dirty):
    """More inserts between runs than the journal window holds: no delta
    list reaches the workers' stamp, so the pool is respawned."""
    import random

    from repro.engine.relation import Relation

    data = list(hosp_dirty)
    master = Relation(hosp.schema, hosp.master.iter_rows())
    rng = random.Random(11)
    with BatchRepairEngine(hosp.rules, master, hosp.schema,
                           use_bdd=False,
                           concurrency=2, chunk_size=5) as batch:
        batch.run(_pairs(data))
        stamp = batch.store.version
        for _ in range(DEFAULT_DELTA_WINDOW + 1):
            batch.store.insert(hosp.entity_factory(rng))
        assert batch.store.deltas_since(stamp) is None
        _assert_respawn_matches_sequential(
            batch, master, data, hosp.rules, hosp.schema
        )


def test_sqlite_fresh_reload_respawns_the_pool(tmp_path, hosp, hosp_dirty):
    """A bulk reload of the master file (the load ``fresh=True`` runs)
    journals no per-row deltas, so the pool is respawned."""
    import random

    data = list(hosp_dirty)
    store = SqliteStore.from_relation(hosp.master,
                                      path=tmp_path / "master.db")
    rng = random.Random(12)
    rows = list(hosp.master.iter_rows())[1:] + [
        hosp.entity_factory(rng) for _ in range(3)
    ]
    with BatchRepairEngine(hosp.rules, store, hosp.schema,
                           use_bdd=False,
                           concurrency=2, chunk_size=5) as batch:
        batch.run(_pairs(data))
        stamp = store.version
        store._insert_many(rows, replace=True)
        assert list(store) == rows
        assert store.deltas_since(stamp) is None
        _assert_respawn_matches_sequential(
            batch, store, data, hosp.rules, hosp.schema
        )
    store.close()


def test_failed_worker_replay_fails_the_run_and_the_pool(hosp, hosp_dirty,
                                                         monkeypatch):
    """A worker that cannot replay the shipped deltas (here: a delete of a
    row it never had) fails the run with a typed StoreError instead of
    monitoring on; the pool is shut down and the next run starts fresh."""
    import random

    from repro.engine.relation import Relation

    data = list(hosp_dirty)
    master = Relation(hosp.schema, hosp.master.iter_rows())
    ghost = hosp.entity_factory(random.Random(13))
    with BatchRepairEngine(hosp.rules, master, hosp.schema,
                           use_bdd=False,
                           concurrency=2, chunk_size=5) as batch:
        batch.run(_pairs(data))
        batch.store.insert(ghost)
        with monkeypatch.context() as patch:
            patch.setattr(batch.store, "deltas_since", lambda version: (
                StoreDelta(version + 1, "delete", tuple(ghost.values)),
            ))
            with pytest.raises(StoreError, match="cannot replay") as failed:
                batch.run(_pairs(data))
        assert failed.value.report.store_errors
        assert batch._pool is None
        result = batch.run(_pairs(data))
    reference = CertainFix(hosp.rules, master, hosp.schema, use_bdd=False)
    assert result.final_rows == [
        s.final for s in reference.fix_stream(_pairs(data))
    ]


def test_back_to_back_inserts_never_full_drop_workers(hosp):
    """A worker already holding an intermediate stamp is shipped the gap
    since the slowest worker's stamp; it skips the prefix it applied and
    adopts the rest per-key instead of resetting from the snapshot."""
    import random

    from repro.datasets import make_dirty_dataset
    from repro.engine.relation import Relation

    data = list(make_dirty_dataset(hosp, size=16, seed=9))
    batches = [data[0:4], data[4:8], data[8:12], data]
    rng = random.Random(5)
    inserts = [hosp.entity_factory(rng) for _ in range(3)]
    pooled = Relation(hosp.schema, hosp.master.iter_rows())
    serial = Relation(hosp.schema, hosp.master.iter_rows())
    with BatchRepairEngine(hosp.rules, pooled, hosp.schema,
                           use_bdd=False,
                           concurrency=2, chunk_size=4) as batch, \
            BatchRepairEngine(hosp.rules, serial, hosp.schema,
                              use_bdd=False) as reference:
        for step, chunk in enumerate(batches):
            if step < len(inserts):
                batch.store.insert(inserts[step])
                reference.store.insert(inserts[step])
            result = batch.run(_pairs(chunk))
            expected = reference.run(_pairs(chunk))
            assert result.report.full_drops == 0, step
            assert result.final_rows == expected.final_rows
            assert result.final_rows == [dt.clean for dt in chunk]


# -- spec / lifecycle ---------------------------------------------------------


def test_engine_spec_roundtrip(hosp):
    import pickle

    engine = BatchRepairEngine(hosp.rules, hosp.master, hosp.schema,
                               use_bdd=False)
    spec = engine._make_spec()
    assert isinstance(spec, EngineSpec)
    clone = pickle.loads(pickle.dumps(spec)).build()
    assert clone.store.version == engine.engine.store.version
    assert len(clone.regions) == len(engine.engine.regions)
    assert [r.name for r in clone.rules] \
        == [r.name for r in engine.engine.rules]


def test_memory_sqlite_store_refuses_process_executor(hosp, hosp_dirty):
    store = SqliteStore.from_relation(hosp.master)  # private :memory: db
    batch = BatchRepairEngine(hosp.rules, store, hosp.schema,
                              use_bdd=False,
                              concurrency=2)
    with pytest.raises(ValueError, match="cannot cross a fork/spawn"):
        batch.run_dirty(hosp_dirty)
    store.close()


def test_close_is_idempotent_and_pool_rebuilds(example):
    clean = _example_clean(example)
    dirty = clean.with_values({"city": "???"})
    batch = BatchRepairEngine(example.rules, example.master, example.schema,
                              use_bdd=False,
                              concurrency=2, chunk_size=1)
    first = batch.run([(dirty, SimulatedUser(clean))])
    batch.close()
    batch.close()  # no-op
    second = batch.run([(dirty, SimulatedUser(clean))])  # fresh pool
    batch.close()
    assert first.final_rows == second.final_rows == [clean]


# -- CPU-bound oracle ---------------------------------------------------------


def test_cpu_bound_oracle_is_transparent(example):
    clean = _example_clean(example)
    dirty = clean.with_values({"FN": "Bobby", "city": "???"})
    engine = CertainFix(example.rules, example.master, example.schema)
    plain = engine.fix(dirty, SimulatedUser(clean))
    burned = engine.fix(dirty, CpuBoundOracle(SimulatedUser(clean), cost=10))
    assert burned.final == plain.final == clean
    assert burned.validated == plain.validated
    with pytest.raises(ValueError, match="cost"):
        CpuBoundOracle(SimulatedUser(clean), cost=-1)
