"""Backend equivalence: memory and sqlite masters produce identical fixes.

The acceptance bar for the MasterStore seam: per backend, fix output is
bit-identical on the running example, HOSP and DBLP — including after
master inserts/deletes mid-batch — and a master mutation bumps ``version``,
rebuilds the shared regions/indexes/BDD/memo caches, and makes subsequent
fixes reflect the new master.
"""

import random

import pytest

from repro.core.rules import EditingRule
from repro.engine.relation import Relation
from repro.engine.schema import RelationSchema
from repro.engine.store import InMemoryStore, SqliteStore
from repro.engine.tuples import Row
from repro.repair.batch import BatchRepairEngine
from repro.repair.certainfix import CertainFix
from repro.repair.oracle import SimulatedUser


def _pairs(data):
    return [(dt.dirty, SimulatedUser(dt.clean)) for dt in data]


def _assert_sessions_identical(left, right):
    assert len(left) == len(right)
    for a, b in zip(left, right):
        assert a.final == b.final
        assert a.validated == b.validated
        assert a.round_count == b.round_count
        assert a.completed == b.completed
        assert [r.asserted for r in a.rounds] == [r.asserted for r in b.rounds]
        assert [r.fixed_by_rules for r in a.rounds] == \
            [r.fixed_by_rules for r in b.rounds]


# -- dataset bundles ----------------------------------------------------------


@pytest.mark.parametrize("use_bdd", [False, True])
def test_backends_identical_on_hosp(hosp, hosp_dirty, use_bdd):
    memory = BatchRepairEngine(hosp.rules, hosp.master, hosp.schema,
                               use_bdd=use_bdd)
    sqlite = BatchRepairEngine(hosp.rules,
                               SqliteStore.from_relation(hosp.master),
                               hosp.schema, use_bdd=use_bdd)
    r_mem = memory.run(_pairs(hosp_dirty))
    r_sql = sqlite.run(_pairs(hosp_dirty))
    _assert_sessions_identical(r_mem.sessions, r_sql.sessions)
    assert r_mem.report.completed == r_sql.report.completed
    assert r_mem.report.incomplete == r_sql.report.incomplete


@pytest.mark.parametrize("use_bdd", [False, True])
def test_backends_identical_on_dblp(dblp, dblp_dirty, use_bdd):
    memory = BatchRepairEngine(dblp.rules, dblp.master, dblp.schema,
                               use_bdd=use_bdd)
    sqlite = BatchRepairEngine(dblp.rules,
                               SqliteStore.from_relation(dblp.master),
                               dblp.schema, use_bdd=use_bdd)
    r_mem = memory.run(_pairs(dblp_dirty))
    r_sql = sqlite.run(_pairs(dblp_dirty))
    _assert_sessions_identical(r_mem.sessions, r_sql.sessions)
    assert r_mem.report.completed == r_sql.report.completed


def test_backends_identical_on_running_example(example):
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
    memory = BatchRepairEngine(example.rules, example.master, example.schema,
                               use_bdd=False)
    sqlite = BatchRepairEngine(example.rules,
                               SqliteStore.from_relation(example.master),
                               example.schema, use_bdd=False)
    r_mem = memory.run((d, SimulatedUser(c)) for d, c in workload)
    r_sql = sqlite.run((d, SimulatedUser(c)) for d, c in workload)
    _assert_sessions_identical(r_mem.sessions, r_sql.sessions)
    for session, (_, clean) in zip(r_sql.sessions, workload):
        assert session.final == clean


def test_backends_identical_after_insert_mid_batch(hosp, hosp_dirty):
    """Split the workload, insert a fresh master tuple between the halves:
    both backends must bump, invalidate, and keep producing identical
    sessions against the grown master."""
    data = list(hosp_dirty)
    half = len(data) // 2
    donor = hosp.master.row_at(0)
    fresh = donor.with_values({hosp.schema.attributes[0]: "ZZ-NEW-KEY"})

    results = {}
    for name, master in (
        ("memory", InMemoryStore(Relation(hosp.schema, hosp.master))),
        ("sqlite", SqliteStore.from_relation(hosp.master)),
    ):
        engine = BatchRepairEngine(hosp.rules, master, hosp.schema)
        first = engine.run(_pairs(data[:half]))
        assert first.report.cache_invalidations == 0
        version_before = master.version
        master.insert(fresh)
        assert master.version > version_before
        second = engine.run(_pairs(data[half:]))
        assert second.report.cache_invalidations == 1
        assert second.report.master_version == master.version
        results[name] = first.sessions + second.sessions

    _assert_sessions_identical(results["memory"], results["sqlite"])


# -- a tiny observable scenario: updates change fix outcomes ------------------


def _tiny_bundle():
    schema = RelationSchema("T", ["key", "val"])
    rules = [EditingRule(("key",), ("key",), "val", "val", name="key->val")]
    rows = [Row(schema, ("k1", "v1")), Row(schema, ("k2", "v2"))]
    return schema, rules, rows


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
def test_master_update_changes_subsequent_fixes(backend):
    """Without versioned invalidation a cached region or suggestion would
    keep serving the stale master state; the engine must notice the update
    and fix against the new master."""
    schema, rules, rows = _tiny_bundle()
    if backend == "memory":
        store = InMemoryStore(Relation(schema, rows))
    else:
        store = SqliteStore(schema, rows)
    engine = BatchRepairEngine(rules, store, schema, use_bdd=True)

    dirty = Row(schema, ("k1", "wrong"))
    first = engine.run([(dirty, SimulatedUser(Row(schema, ("k1", "v1"))))])
    assert first.sessions[0].final["val"] == "v1"
    assert "val" in first.sessions[0].attrs_fixed_by_rules

    assert store.update(Row(schema, ("k1", "v1")), Row(schema, ("k1", "v1b")))
    second = engine.run([(dirty, SimulatedUser(Row(schema, ("k1", "v1b"))))])
    assert second.report.cache_invalidations == 1
    assert second.sessions[0].final["val"] == "v1b"
    assert "val" in second.sessions[0].attrs_fixed_by_rules


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
def test_master_delete_disables_rule_fixes(backend):
    """Deleting the matching master tuple must push the fix back to the
    user: the rule can no longer certify ``val``, so Suggest recommends it
    for assertion instead of TransFix copying it."""
    schema, rules, rows = _tiny_bundle()
    if backend == "memory":
        store = InMemoryStore(Relation(schema, rows))
    else:
        store = SqliteStore(schema, rows)
    engine = BatchRepairEngine(rules, store, schema, use_bdd=True)

    dirty = Row(schema, ("k2", "wrong"))
    clean = Row(schema, ("k2", "v2"))
    first = engine.run([(dirty, SimulatedUser(clean))])
    assert "val" in first.sessions[0].attrs_fixed_by_rules

    assert store.delete(Row(schema, ("k2", "v2")))
    second = engine.run([(dirty, SimulatedUser(clean))])
    assert second.report.cache_invalidations == 1
    session = second.sessions[0]
    assert session.completed
    assert session.final == clean
    assert "val" not in session.attrs_fixed_by_rules
    assert "val" in session.attrs_asserted_by_user


def test_hypothesis_remote_vs_memory_interleavings():
    """Property test (hypothesis): random interleavings of probe / insert /
    delete / update against a RemoteStore vs a plain InMemoryStore must
    produce identical fixed outputs and identical version *observations*
    (the stamp moves iff a mutation succeeded, in lockstep per backend).

    Complements ``test_fuzz_backends_stay_identical_under_random_mutations``
    (one seeded walk): hypothesis drives many interleavings and shrinks a
    failure to the minimal op sequence.
    """
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    from repro.engine.remote import MasterServer, RemoteStore

    keys = [f"k{i}" for i in range(5)]

    @hypothesis.settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[hypothesis.HealthCheck.too_slow,
                               hypothesis.HealthCheck.data_too_large],
    )
    @hypothesis.given(data=st.data())
    def run(data):
        schema, rules, rows = _tiny_bundle()
        memory = InMemoryStore(Relation(schema, list(rows)))
        backing = InMemoryStore(Relation(schema, list(rows)))
        with MasterServer(backing) as server:
            remote = RemoteStore(server.url)
            engines = {
                "memory": BatchRepairEngine(rules, memory, schema,
                                            use_bdd=False),
                "remote": BatchRepairEngine(rules, remote, schema,
                                            use_bdd=False),
            }
            stores = {"memory": memory, "remote": remote}
            known = list(rows)
            next_id = [0]

            def do_insert():
                key = data.draw(st.sampled_from(keys), label="insert key")
                row = Row(schema, (key, f"v{next_id[0]}"))
                next_id[0] += 1
                # unique keys per master, or the rule hits a MasterConflict
                for existing in list(known):
                    if existing["key"] == key:
                        assert memory.delete(existing)
                        assert remote.delete(existing)
                        known.remove(existing)
                memory.insert(row)
                remote.insert(row)
                known.append(row)

            def do_delete():
                if len(known) <= 1:
                    return
                victim = known.pop(
                    data.draw(st.integers(0, len(known) - 1), label="victim")
                )
                assert memory.delete(victim)
                assert remote.delete(victim)

            def do_update():
                if not known:
                    return
                index = data.draw(st.integers(0, len(known) - 1),
                                  label="update index")
                old = known[index]
                new = Row(schema, (old["key"], f"v{next_id[0]}"))
                next_id[0] += 1
                assert memory.update(old, new)
                assert remote.update(old, new)
                known[index] = new

            def do_probe():
                key = data.draw(st.sampled_from(keys), label="probe key")
                assert memory.probe(("key",), (key,)) == \
                    remote.probe(("key",), (key,))

            actions = {"insert": do_insert, "delete": do_delete,
                       "update": do_update, "probe": do_probe}
            for _ in range(data.draw(st.integers(2, 8), label="ops")):
                before = {n: s.version for n, s in stores.items()}
                actions[data.draw(st.sampled_from(sorted(actions)),
                                  label="action")]()
                # version observations move in lockstep: bumped on both
                # backends or on neither
                moved = {n: s.version > before[n] for n, s in stores.items()}
                assert moved["memory"] == moved["remote"]

                if not known:
                    continue
                target = known[data.draw(
                    st.integers(0, len(known) - 1), label="target")]
                dirty = Row(schema, (target["key"], "dirty"))
                clean = Row(schema, (target["key"], target["val"]))
                outputs = {
                    name: engine.run([(dirty, SimulatedUser(clean))]).sessions
                    for name, engine in engines.items()
                }
                _assert_sessions_identical(outputs["memory"],
                                           outputs["remote"])
                assert outputs["memory"][0].final == clean
            assert list(memory) == list(remote)

    run()


def test_hypothesis_delta_invalidation_matches_full_drop():
    """Property test (hypothesis): the delta-aware invalidation path
    (per-key purges + region retention) must be observationally
    equivalent to the historical full cache drop under random
    insert / delete / update interleavings — the acceptance bar of the
    delta journal.  Non-BDD sessions must match bit-for-bit; BDD runs
    retain solver nodes across deltas, so there the contract is the
    user-observable outcome (final rows, completion, validated attrs).
    """
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    keys = [f"k{i}" for i in range(5)]

    @hypothesis.settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[hypothesis.HealthCheck.too_slow,
                               hypothesis.HealthCheck.data_too_large],
    )
    @hypothesis.given(data=st.data())
    def run(data):
        use_bdd = data.draw(st.booleans(), label="use_bdd")
        schema, rules, rows = _tiny_bundle()
        stores = {
            "delta": InMemoryStore(Relation(schema, list(rows))),
            "drop": InMemoryStore(Relation(schema, list(rows))),
        }
        engines = {
            "delta": BatchRepairEngine(rules, stores["delta"], schema,
                                       use_bdd=use_bdd),
            "drop": BatchRepairEngine(rules, stores["drop"], schema,
                                      use_bdd=use_bdd,
                                      delta_invalidation=False),
        }
        known = list(rows)
        next_id = [0]

        def do_insert():
            key = data.draw(st.sampled_from(keys), label="insert key")
            row = Row(schema, (key, f"v{next_id[0]}"))
            next_id[0] += 1
            # unique keys per master, or the rule hits a MasterConflict
            for existing in list(known):
                if existing["key"] == key:
                    for store in stores.values():
                        assert store.delete(existing)
                    known.remove(existing)
            for store in stores.values():
                store.insert(row)
            known.append(row)

        def do_delete():
            if len(known) <= 1:
                return
            victim = known.pop(
                data.draw(st.integers(0, len(known) - 1), label="victim")
            )
            for store in stores.values():
                assert store.delete(victim)

        def do_update():
            if not known:
                return
            index = data.draw(st.integers(0, len(known) - 1),
                              label="update index")
            old = known[index]
            new = Row(schema, (old["key"], f"v{next_id[0]}"))
            next_id[0] += 1
            for store in stores.values():
                assert store.update(old, new)
            known[index] = new

        actions = {"insert": do_insert, "delete": do_delete,
                   "update": do_update}
        for _ in range(data.draw(st.integers(2, 6), label="ops")):
            actions[data.draw(st.sampled_from(sorted(actions)),
                              label="action")]()
            if not known:
                continue
            target = known[data.draw(
                st.integers(0, len(known) - 1), label="target")]
            dirty = Row(schema, (target["key"], "dirty"))
            clean = Row(schema, (target["key"], target["val"]))
            outputs = {
                name: engine.run([(dirty, SimulatedUser(clean))]).sessions
                for name, engine in engines.items()
            }
            if use_bdd:
                for a, b in zip(outputs["delta"], outputs["drop"]):
                    assert a.final == b.final
                    assert a.completed == b.completed
                    assert a.validated == b.validated
            else:
                _assert_sessions_identical(outputs["delta"],
                                           outputs["drop"])
            assert outputs["delta"][0].final == clean
        # both engines observed every mutation; the full-drop reference
        # never takes the delta path
        delta_engine, drop_engine = (engines["delta"].engine,
                                     engines["drop"].engine)
        assert (delta_engine.delta_purges + delta_engine.full_drops
                == delta_engine.cache_invalidations)
        assert drop_engine.delta_purges == 0

    run()


def test_fuzz_backends_stay_identical_under_random_mutations():
    """Property test: interleave random master mutations with monitoring;
    after every step both backends report the same version delta and fix
    streams stay bit-identical."""
    schema, rules, rows = _tiny_bundle()
    memory = InMemoryStore(Relation(schema, rows))
    sqlite = SqliteStore(schema, rows)
    engines = {
        "memory": BatchRepairEngine(rules, memory, schema, use_bdd=False),
        "sqlite": BatchRepairEngine(rules, sqlite, schema, use_bdd=False),
    }
    rng = random.Random(1234)
    known = list(rows)
    next_id = 0

    for step in range(25):
        action = rng.random()
        if action < 0.3:
            key, val = f"k{rng.randrange(8)}", f"v{next_id}"
            next_id += 1
            row = Row(schema, (key, val))
            # keys must stay unique per backend or the rule hits a
            # MasterConflict; replace any same-key tuple first
            for existing in list(known):
                if existing["key"] == key:
                    memory.delete(existing)
                    sqlite.delete(existing)
                    known.remove(existing)
            memory.insert(row)
            sqlite.insert(row)
            known.append(row)
        elif action < 0.45 and len(known) > 1:
            victim = known.pop(rng.randrange(len(known)))
            assert memory.delete(victim)
            assert sqlite.delete(victim)

        if not known:
            continue
        target = known[rng.randrange(len(known))]
        dirty = Row(schema, (target["key"], "dirty"))
        oracle_clean = Row(schema, (target["key"], target["val"]))
        outputs = {}
        for name, engine in engines.items():
            result = engine.run([(dirty, SimulatedUser(oracle_clean))])
            outputs[name] = result.sessions
        _assert_sessions_identical(outputs["memory"], outputs["sqlite"])
        assert outputs["memory"][0].final == oracle_clean
    assert memory.version > 0 and sqlite.version > 0
    assert list(memory) == list(sqlite)


# -- suggestion invalidation -------------------------------------------------


def test_suggest_memo_invalidated_by_master_mutation():
    schema, rules, rows = _tiny_bundle()
    store = InMemoryStore(Relation(schema, rows))
    engine = CertainFix(rules, store, schema, use_bdd=False)
    dirty = Row(schema, ("k2", "wrong"))
    clean = Row(schema, ("k2", "v2"))
    engine.fix(dirty, SimulatedUser(clean))
    store.delete(Row(schema, ("k2", "v2")))
    session = engine.fix(dirty, SimulatedUser(clean))
    assert engine.cache_invalidations == 1
    assert session.final == clean
    assert "val" in session.attrs_asserted_by_user
