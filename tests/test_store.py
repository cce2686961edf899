"""MasterStore backends: API, versioning, the sqlite codec and LRU cache."""

import pytest

from repro.engine.index import HashIndex
from repro.engine.relation import Relation
from repro.engine.schema import INT, RelationSchema
from repro.engine.store import (
    InMemoryStore,
    MasterStore,
    SqliteStore,
    as_master_store,
    _decode,
    _encode,
)
from repro.engine.tuples import Row
from repro.engine.values import NULL, UNKNOWN


@pytest.fixture
def schema():
    return RelationSchema("m", ["k", "v", ("n", INT)])


@pytest.fixture
def rows(schema):
    return [
        Row(schema, ("a", "x", 1)),
        Row(schema, ("b", "y", 2)),
        Row(schema, ("a", "x", 3)),
        Row(schema, ("c", NULL, 4)),
    ]


@pytest.fixture(params=["memory", "sqlite"])
def store(request, schema, rows):
    if request.param == "memory":
        return InMemoryStore(Relation(schema, rows))
    return SqliteStore(schema, rows)


# -- codec --------------------------------------------------------------------


def test_codec_reproduces_python_equality():
    values = ["", "abc", "i87", 87, -3, 0, 1.5, 2.0, True, False,
              NULL, UNKNOWN]
    for value in values:
        assert _decode(_encode(value)) == value
    # ints and their string spellings must not collide (csv coercion relies
    # on string/number keys staying distinct)...
    assert _encode(87) != _encode("87")
    # ...while numerically equal values must collide, exactly as they do as
    # dict keys in the in-memory backend's hash buckets (2 == 2.0 == True)
    assert _encode(2) == _encode(2.0)
    assert _encode(True) == _encode(1)
    assert _encode(False) == _encode(0.0)
    assert _encode(1.5) != _encode(1)
    assert _decode(_encode(NULL)) is NULL
    assert _decode(_encode(UNKNOWN)) is UNKNOWN


def test_codec_rejects_unstorable_values():
    with pytest.raises(TypeError, match="cannot store"):
        _encode(object())


# -- shared backend contract --------------------------------------------------


def test_store_basic_reads(store, schema, rows):
    assert isinstance(store, MasterStore)
    assert store.schema.attributes == schema.attributes
    assert len(store) == 4
    assert list(store) == rows  # insertion order
    assert store.rows == rows   # Relation-compatible copy
    assert store.active_values("k") == {"a", "b", "c"}
    assert store.active_values("v") == {"x", "y", NULL}


def test_probe_and_aliases(store, rows):
    assert store.probe(("k",), ("a",)) == (rows[0], rows[2])
    assert store.probe(("k", "v"), ("b", "y")) == (rows[1],)
    assert store.probe(("k",), ("zzz",)) == ()
    # duplicate attributes in the probe list (Theorem 12-style reuse)
    assert store.probe(("k", "k"), ("a", "a")) == (rows[0], rows[2])
    assert store.probe(("k", "k"), ("a", "b")) == ()
    # Relation-compatible spellings and the index-free ablation agree
    assert store.lookup(("k",), ("a",)) == store.probe(("k",), ("a",))
    assert store.scan_probe(("k",), ("a",)) == store.probe(("k",), ("a",))
    assert store.scan_lookup(("n",), (2,)) == (rows[1],)
    assert store.contains_key(("k",), ("c",))
    assert not store.contains_key(("k",), ("nope",))


def test_probe_is_exact_typed(store):
    assert store.probe(("n",), (2,)) != ()
    assert store.probe(("n",), ("2",)) == ()


def test_version_bumps_on_mutation(store, schema):
    v0 = store.version
    extra = Row(schema, ("d", "z", 9))
    store.insert(extra)
    v1 = store.version
    assert v1 > v0
    assert len(store) == 5
    assert list(store)[-1] == extra
    assert store.probe(("k",), ("d",)) == (extra,)

    assert store.delete(extra)
    assert store.version > v1
    assert len(store) == 4
    assert store.probe(("k",), ("d",)) == ()
    # deleting a missing row mutates nothing
    v2 = store.version
    assert not store.delete(extra)
    assert store.version == v2


def test_delete_removes_one_occurrence(store, schema, rows):
    assert store.delete(Row(schema, ("a", "x", 1)))
    assert store.probe(("k",), ("a",)) == (rows[2],)
    assert len(store) == 3


def test_update_moves_row_to_iteration_end(store, schema, rows):
    old = rows[1]
    new = Row(schema, ("b", "y2", 2))
    v0 = store.version
    assert store.update(old, new)
    assert store.version > v0
    assert list(store) == [rows[0], rows[2], rows[3], new]
    assert store.probe(("k",), ("b",)) == (new,)
    assert not store.update(old, new)  # old is gone now


def test_ensure_index_then_probe(store):
    store.ensure_index(("v", "n"))
    assert store.probe(("v", "n"), ("x", 3)) == (store.rows[2],)


# -- InMemoryStore specifics --------------------------------------------------


def test_inmemory_version_tracks_direct_relation_mutation(schema, rows):
    relation = Relation(schema, rows)
    store = as_master_store(relation)
    v0 = store.version
    relation.insert(Row(schema, ("e", "w", 7)))
    assert store.version > v0
    assert store.probe(("k",), ("e",)) != ()


def test_as_master_store_caches_wrapper(schema, rows):
    relation = Relation(schema, rows)
    store = as_master_store(relation)
    assert isinstance(store, InMemoryStore)
    assert as_master_store(relation) is store
    assert as_master_store(store) is store
    with pytest.raises(TypeError, match="MasterStore or Relation"):
        as_master_store([("a", "x", 1)])


def test_relation_delete_keeps_indexes_consistent(schema, rows):
    relation = Relation(schema, rows)
    index = relation.index_on(("k",))
    assert len(index.get_ref(("a",))) == 2
    assert relation.delete(rows[0])
    assert index.get_ref(("a",)) == [rows[2]]
    assert relation.delete(rows[2])
    assert not index.contains(("a",))
    assert not relation.delete(Row(schema, ("zz", "zz", 0)))
    assert len(relation) == 2


def test_hashindex_remove(schema, rows):
    index = HashIndex(("k",), rows)
    assert index.remove(rows[0])
    assert index.get(("a",)) == [rows[2]]
    assert not index.remove(Row(schema, ("zz", "zz", 0)))
    assert index.remove(rows[2])
    assert not index.contains(("a",))


def test_relation_rows_copies_iter_rows_does_not(schema, rows):
    relation = Relation(schema, rows)
    copied = relation.rows
    copied.clear()
    assert len(relation) == 4  # the property is a defensive copy
    assert list(relation.iter_rows()) == rows
    assert relation.row_at(2) is relation.rows[2]


# -- SqliteStore specifics ----------------------------------------------------


def test_sqlite_from_relation_and_disk_path(tmp_path, schema, rows):
    relation = Relation(schema, rows)
    path = tmp_path / "master.db"
    store = SqliteStore.from_relation(relation, path=path)
    assert list(store) == rows
    store.close()
    # reopening the file sees the persisted rows (out-of-core master)
    reopened = SqliteStore(schema, path=path)
    assert len(reopened) == 4
    assert reopened.probe(("k",), ("a",)) == (rows[0], rows[2])
    reopened.close()


def test_sqlite_existing_path_keeps_rows_unless_fresh(tmp_path, schema, rows):
    path = tmp_path / "master.db"
    SqliteStore(schema, rows, path=path).close()
    # default: reopening with a row source appends (out-of-core reuse is
    # reopening WITHOUT a source; loaders re-streaming the truth must ask
    # for a rebuild)
    appended = SqliteStore(schema, rows, path=path)
    assert len(appended) == 8
    appended.close()
    rebuilt = SqliteStore(schema, rows, path=path, fresh=True)
    assert len(rebuilt) == 4
    assert list(rebuilt) == rows
    rebuilt.close()


def test_sqlite_reopen_resumes_the_persisted_version(tmp_path, schema, rows):
    """The version counter lives in the file, so a reopened store
    continues its version stream instead of restarting at 0."""
    path = tmp_path / "master.db"
    store = SqliteStore(schema, rows, path=path)
    assert store.update(rows[1], rows[1].with_values({"v": "y2"}))
    version = store.version
    assert version == 3
    store.close()
    reopened = SqliteStore(schema, path=path)
    assert reopened.version == version
    assert reopened.deltas_since(version) == ()
    reopened.insert(Row(schema, ("d", "z", 9)))
    assert [d.version for d in reopened.deltas_since(version)] \
        == [version + 1]
    reopened.close()
    # a fresh=True reload is one more bulk mutation, not a reset
    rebuilt = SqliteStore(schema, rows, path=path, fresh=True)
    assert rebuilt.version == version + 2
    assert rebuilt.deltas_since(version + 1) is None
    rebuilt.close()


def test_sqlite_delta_replay_never_writes_the_file(tmp_path, schema, rows):
    """A reattached clone that replays part of the parent's journal must
    not stamp its (older) version into the shared file."""
    path = tmp_path / "master.db"
    store = SqliteStore(schema, rows, path=path)
    clone = store.detach().reattach()
    stamp = store.version
    store.insert(Row(schema, ("d", "z", 9)))
    first = store.deltas_since(stamp)
    store.insert(Row(schema, ("e", "z", 10)))
    assert clone.adopt_deltas(first, stamp + 1)
    assert clone.version == stamp + 1
    clone.close()
    store.close()
    reopened = SqliteStore(schema, path=path)
    assert reopened.version == stamp + 2
    reopened.close()


def test_numeric_keys_probe_identically_across_backends(schema):
    """2 == 2.0 == True as dict keys in the memory backend; the sqlite
    codec must reproduce that, not exact-type them apart."""
    rows = [Row(schema, ("a", "x", 2)), Row(schema, ("b", "y", 1))]
    memory = InMemoryStore(Relation(schema, rows))
    sqlite = SqliteStore(schema, rows)
    for key in ((2,), (2.0,)):
        assert memory.probe(("n",), key) == sqlite.probe(("n",), key) \
            == (rows[0],)
    for key in ((1,), (True,), (1.0,)):
        assert memory.probe(("n",), key) == sqlite.probe(("n",), key) \
            == (rows[1],)
    for key in (("2",), (1.5,)):
        assert memory.probe(("n",), key) == sqlite.probe(("n",), key) == ()


def test_sqlite_probe_cache_hits_and_invalidation(schema, rows):
    store = SqliteStore(schema, rows)
    store.probe(("k",), ("a",))
    store.probe(("k",), ("a",))
    info = store.probe_cache_info()
    assert info["hits"] == 1 and info["misses"] == 1
    # mutation drops the cache: the next probe must re-read the table
    store.insert(Row(schema, ("a", "x", 99)))
    result = store.probe(("k",), ("a",))
    assert [tm["n"] for tm in result] == [1, 3, 99]
    assert store.probe_cache_info()["misses"] == 2


def test_sqlite_probe_cache_lru_eviction(schema, rows):
    store = SqliteStore(schema, rows, probe_cache_size=2)
    store.probe(("k",), ("a",))
    store.probe(("k",), ("b",))
    store.probe(("k",), ("c",))  # evicts ("a",)
    assert store.probe_cache_info()["size"] == 2
    store.probe(("k",), ("a",))
    assert store.probe_cache_info()["misses"] == 4


def test_sqlite_unstorable_probe_key_matches_nothing(schema, rows):
    store = SqliteStore(schema, rows)
    assert store.probe(("k",), (object(),)) == ()
    assert not store.delete(Row(schema, (object(), "x", 1)))


def test_sqlite_rejects_bad_inputs(schema, rows):
    store = SqliteStore(schema, rows)
    with pytest.raises(ValueError, match="does not match attribute list"):
        store.probe(("k", "v"), ("a",))
    other = RelationSchema("other", ["p", "q"])
    with pytest.raises(ValueError, match="does not match store"):
        store.insert(Row(other, ("1", "2")))
    with pytest.raises(ValueError, match="probe_cache_size"):
        SqliteStore(schema, probe_cache_size=-1)


def test_sqlite_iteration_windows_survive_interleaved_mutation(schema):
    many = [Row(schema, (f"k{i}", "v", i)) for i in range(2500)]
    store = SqliteStore(schema, many)
    seen = 0
    for i, row in enumerate(store):
        if i == 0:
            store.insert(Row(schema, ("late", "v", 9999)))
        seen += 1
    assert seen == 2501  # the appended row lands after the current window


# -- probe aliasing (immutable results) ---------------------------------------


def test_probe_results_are_immutable_tuples(store, rows):
    """Mutating a probe result must be impossible: both backends used to
    hand out aliases of internal state (the index bucket / the LRU cache
    line) under a doc-only contract."""
    result = store.probe(("k",), ("a",))
    assert isinstance(result, tuple)
    with pytest.raises((AttributeError, TypeError)):
        result.append("junk")  # tuples have no append
    # A caller round-tripping through list() and mangling their copy must
    # not corrupt later probes (cache-hit path) either.
    mangled = list(result)
    mangled.clear()
    again = store.probe(("k",), ("a",))
    assert again == (rows[0], rows[2])
    assert store.scan_probe(("k",), ("a",)) == again
    assert isinstance(store.lookup(("k",), ("a",)), tuple)


def test_probe_ref_is_read_only_hot_path(store, rows):
    """probe_ref mirrors HashIndex.get/get_ref: it may alias internals and
    is only ever read by the repair loops, but must agree with probe."""
    assert tuple(store.probe_ref(("k",), ("a",))) == \
        store.probe(("k",), ("a",))
    assert tuple(store.probe_ref(("k",), ("zzz",))) == ()


def test_active_values_result_is_caller_owned(store):
    values = store.active_values("k")
    values.add("corrupted")
    assert "corrupted" not in store.active_values("k")


# -- probe_many ---------------------------------------------------------------


def test_probe_many_matches_probe_loop(store, rows):
    keys = [("a",), ("b",), ("zzz",), ("a",)]  # duplicate collapses
    out = store.probe_many(("k",), keys)
    assert set(out) == {("a",), ("b",), ("zzz",)}
    for key, matches in out.items():
        assert matches == store.probe(("k",), key)
    assert out[("a",)] == (rows[0], rows[2])
    assert out[("zzz",)] == ()


def test_probe_many_multi_column_and_duplicate_attrs(store, rows):
    out = store.probe_many(("k", "v"), [("a", "x"), ("c", NULL), ("a", "y")])
    assert out == {
        ("a", "x"): (rows[0], rows[2]),
        ("c", NULL): (rows[3],),
        ("a", "y"): (),
    }
    dup = store.probe_many(("k", "k"), [("a", "a"), ("a", "b")])
    assert dup == {("a", "a"): (rows[0], rows[2]), ("a", "b"): ()}


def test_probe_many_rejects_mismatched_key(store):
    with pytest.raises(ValueError, match="does not match attribute list"):
        store.probe_many(("k", "v"), [("a",)])


def test_sqlite_probe_many_batches_and_fills_cache(schema):
    many = [Row(schema, (f"k{i}", "v", i)) for i in range(600)]
    store = SqliteStore(schema, many)
    assert store.supports_batched_probes
    keys = [(f"k{i}",) for i in range(650)]
    out = store.probe_many(("k",), keys)
    for i in range(600):
        assert out[(f"k{i}",)] == (many[i],)
    for i in range(600, 650):
        assert out[(f"k{i}",)] == ()
    # the batched plan populated the LRU: a follow-up probe is a pure hit
    hits0 = store.probe_cache_info()["hits"]
    assert store.probe(("k",), ("k7",)) == (many[7],)
    assert store.probe_cache_info()["hits"] == hits0 + 1


def test_sqlite_probe_many_unstorable_key_matches_nothing(schema, rows):
    store = SqliteStore(schema, rows)
    out = store.probe_many(("k",), [("a",), (object(),)])
    assert out[("a",)] == (rows[0], rows[2])
    assert [v for k, v in out.items() if not isinstance(k[0], str)] == [()]


def test_sqlite_multi_column_block_reads_master_through_its_index(schema):
    """A block of two multi-column keys must not scan ``master``: the
    row-value ``IN`` list form did, on every such block."""
    many = [Row(schema, (f"k{i}", f"v{i % 7}", i)) for i in range(500)]
    store = SqliteStore(schema, many)
    statements: list = []
    store._db.set_trace_callback(statements.append)
    out = store.probe_many(("k", "v"), [("k1", "v1"), ("k9", "v2")])
    store._db.set_trace_callback(None)
    assert out == {("k1", "v1"): (many[1],), ("k9", "v2"): (many[9],)}
    selects = [sql for sql in statements if sql.startswith("SELECT")]
    assert selects
    for sql in selects:
        plan = [
            record[-1]
            for record in store._db.execute("EXPLAIN QUERY PLAN " + sql)
        ]
        assert not [step for step in plan if step.split()[:2] in (
            ["SCAN", "master"], ["SCAN", "m"],
        )], plan


# -- the narrowed ABC: one abstract keyed read --------------------------------


class ListStore(MasterStore):
    """A backend whose only keyed read is ``probe_batch`` over a list."""

    def __init__(self, schema, rows):
        self._schema = schema
        self._rows = list(rows)

    @property
    def schema(self):
        return self._schema

    version = 0

    def __len__(self):
        return len(self._rows)

    def __iter__(self):
        return iter(self._rows)

    def probe_batch(self, probes):
        out = []
        for attrs, key in probes:
            attrs, key = tuple(attrs), tuple(key)
            if len(attrs) != len(key):
                raise ValueError(
                    f"probe key {key} does not match attribute list {attrs}"
                )
            out.append([tm for tm in self._rows if tm[attrs] == key])
        return out

    def ensure_index(self, attrs):
        pass

    def active_values(self, attr):
        return {tm[attr] for tm in self._rows}

    def insert(self, row):
        raise NotImplementedError

    def delete(self, row):
        raise NotImplementedError


def test_reads_derive_from_probe_batch(schema, rows):
    derived = ListStore(schema, rows)
    memory = InMemoryStore(Relation(schema, rows))
    probes = [
        (("k",), ("a",)),
        (("k",), ("zzz",)),
        (("k", "v"), ("a", "x")),
        (("k", "v"), ("c", NULL)),
        (("k", "k"), ("a", "b")),
        (("n",), (2,)),
    ]
    for attrs, key in probes:
        assert derived.probe(attrs, key) == memory.probe(attrs, key)
        assert isinstance(derived.probe(attrs, key), tuple)
        assert tuple(derived.probe_ref(attrs, key)) == \
            memory.probe(attrs, key)
        assert derived.contains_key(attrs, key) == \
            memory.contains_key(attrs, key)
        assert derived.lookup(attrs, key) == memory.lookup(attrs, key)
    keys = [("a", "x"), ("c", NULL), ("a", "x"), ("b", "x")]
    assert derived.probe_many(("k", "v"), keys) == \
        memory.probe_many(("k", "v"), keys)
    assert list(derived.probe_many(("k", "v"), keys)) == \
        [("a", "x"), ("c", NULL), ("b", "x")]
    for store in (derived, memory):
        with pytest.raises(ValueError, match="does not match attribute"):
            store.probe(("k", "v"), ("a",))
        with pytest.raises(ValueError, match="does not match attribute"):
            store.probe_many(("k", "v"), [("a", "x"), ("a",)])


# -- detach / reattach (process-boundary protocol) ----------------------------


def test_memory_detach_reattach_preserves_rows_and_version(schema, rows):
    relation = Relation(schema, rows)
    store = InMemoryStore(relation)
    store.insert(Row(schema, ("d", "z", 9)))
    handle = store.detach()
    clone = handle.reattach()
    assert list(clone) == list(store)
    assert clone.version == store.version
    # reattached copies are by value: parent mutations stay invisible
    store.insert(Row(schema, ("e", "w", 10)))
    assert len(clone) == len(store) - 1


def test_sqlite_detach_reattach_shares_file(tmp_path, schema, rows):
    path = tmp_path / "m.db"
    store = SqliteStore(schema, rows, path=path)
    handle = store.detach()
    clone = handle.reattach()
    assert list(clone) == rows
    assert clone.version == store.version
    # parent writes reach the clone through the file + adopt_deltas
    store.insert(Row(schema, ("d", "z", 9)))
    assert clone.adopt_deltas(store.deltas_since(clone.version), store.version)
    assert len(clone) == 5
    assert clone.probe(("k",), ("d",)) == (Row(schema, ("d", "z", 9)),)
    clone.close()
    store.close()


def test_sqlite_memory_detach_refused(schema, rows):
    store = SqliteStore(schema, rows)
    with pytest.raises(ValueError, match="cannot cross a fork/spawn"):
        store.detach()


def test_masterstore_default_detach_refused():
    # Plain local name: a class body would resolve a fixture argument to
    # the module-level fixture *function*, not its value.
    plain_schema = RelationSchema("opaque", ["a"])

    class Opaque(MasterStore):
        schema = plain_schema
        version = 0
        def __len__(self): return 0
        def __iter__(self): return iter(())
        def probe_batch(self, probes): return [() for _ in probes]
        def ensure_index(self, attrs): pass
        def active_values(self, attr): return set()
        def insert(self, row): pass
        def delete(self, row): return False

    with pytest.raises(ValueError, match="detach"):
        Opaque().detach()
