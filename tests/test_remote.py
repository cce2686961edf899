"""RemoteStore + MasterServer: wire protocol, failure paths, and the
end-to-end guarantee — batch repair over HTTP is bit-identical to the
in-process memory backend, including after mid-batch remote mutations.

The generic MasterStore contract is covered by the conformance kit
(``tests/test_store_conformance.py``); this module tests what is specific
to the remote backend.
"""

import threading

import pytest

from repro.cli import main as cli_main
from repro.core.rules import EditingRule
from repro.engine.csvio import relation_to_csv
from repro.engine.relation import Relation
from repro.engine.remote import (
    MasterServer,
    RemoteStore,
    schema_from_payload,
    schema_to_payload,
)
from repro.engine.schema import INT, RelationSchema, finite_domain
from repro.engine.store import (
    InMemoryStore,
    SqliteStore,
    StoreDetachedError,
    StoreError,
    StoreUnavailableError,
)
from repro.engine.tuples import Row
from repro.engine.values import NULL, UNKNOWN
from repro.io import dumps as rules_dumps
from repro.repair.batch import BatchRepairEngine
from repro.repair.oracle import SimulatedUser


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


@pytest.fixture
def served(schema, rows):
    """A running server over a memory backing plus one connected client."""
    backing = InMemoryStore(Relation(schema, rows))
    with MasterServer(backing) as server:
        client = RemoteStore(server.url)
        yield server, backing, client
        client.close()


# -- wire format ---------------------------------------------------------------


def test_schema_payload_roundtrip():
    schema = RelationSchema("m", [
        "plain",
        ("count", INT),
        ("flag", finite_domain("bool01", [0, 1])),
        ("grade", finite_domain("grades", ["a", NULL, UNKNOWN, 2.5])),
    ])
    rebuilt = schema_from_payload(schema_to_payload(schema))
    assert rebuilt == schema
    assert rebuilt.domain_of("count") == INT
    assert rebuilt.domain_of("grade").contains(NULL)


def test_remote_schema_fetched_from_server(served, schema):
    server, _, _ = served
    fetched = RemoteStore(server.url)
    assert fetched.schema == schema
    fetched.close()


def test_remote_values_survive_the_wire(served, schema):
    """NULL/UNKNOWN sentinels and exact-typed numerics cross the HTTP
    boundary with Python equality semantics intact (the sqlite codec)."""
    _, _, client = served
    assert client.probe(("v",), (NULL,)) != ()
    assert [tm["v"] for tm in client.probe(("v",), (NULL,))] == [NULL]
    assert client.probe(("n",), (2,)) == client.probe(("n",), (2.0,)) != ()
    assert client.probe(("n",), ("2",)) == ()
    assert client.probe(("k",), (object(),)) == ()  # unstorable: no request


# -- read-through cache and version piggyback ----------------------------------


def test_probe_cache_hits_and_lru_accounting(served):
    _, _, client = served
    client.probe(("k",), ("a",))
    client.probe(("k",), ("a",))
    info = client.probe_cache_info()
    assert info["hits"] == 1 and info["misses"] == 1
    requests_before = client.connection_info()["requests"]
    client.probe(("k",), ("a",))  # pure cache hit: no round-trip
    assert client.connection_info()["requests"] == requests_before


def test_server_side_mutation_invalidates_client_caches(served, schema):
    """The per-request header piggyback: another client's mutation is
    observed on this client's next round-trip, and drops its caches
    exactly like a local mutation would."""
    server, _, client = served
    assert len(client.probe(("k",), ("a",))) == 2  # warm the cache
    assert client.active_values("k") == {"a", "b", "c"}
    v0 = client.version

    other = RemoteStore(server.url, schema=schema)
    other.insert(Row(schema, ("a", "x9", 9)))
    foreign_version = other.version
    other.close()

    # a *cache miss* carries the new version back and invalidates every
    # warm line, so the follow-up probe re-reads the server
    client.probe(("k",), ("zzz",))
    assert client.version == foreign_version > v0
    assert client.probe_cache_info()["size"] <= 1  # warm lines dropped
    assert len(client.probe(("k",), ("a",))) == 3
    assert "x9" in client.active_values("v")


def test_version_polling_observes_foreign_mutations(served, schema):
    """poll_interval=0: every version read re-polls, so a foreign mutation
    is observed even when this client's caches are fully warm."""
    server, _, _ = served
    polling = RemoteStore(server.url, schema=schema, poll_interval=0.0)
    assert len(polling.probe(("k",), ("a",))) == 2
    v0 = polling.version

    other = RemoteStore(server.url, schema=schema)
    other.insert(Row(schema, ("a", "x9", 9)))
    other.close()

    assert polling.version > v0  # the poll observed the foreign insert
    assert len(polling.probe(("k",), ("a",))) == 3  # cache was dropped
    polling.close()


def test_probe_many_batches_misses_into_one_request(served, rows):
    _, _, client = served
    requests_before = client.connection_info()["requests"]
    out = client.probe_many(("k",), [("a",), ("b",), ("zzz",), ("a",)])
    assert client.connection_info()["requests"] == requests_before + 1
    assert out[("a",)] == (rows[0], rows[2])
    assert out[("zzz",)] == ()
    # the batched fetch filled the LRU: probes are now pure hits
    requests_before = client.connection_info()["requests"]
    assert client.probe(("k",), ("b",)) == (rows[1],)
    assert client.connection_info()["requests"] == requests_before


def test_client_reconnects_after_connection_drop(served, rows):
    """A severed keep-alive is re-opened transparently for reads."""
    _, _, client = served
    client.probe(("k",), ("a",))
    client._drop_connection()
    assert client.probe(("k",), ("b",)) == (rows[1],)
    assert client.connection_info()["reconnects"] >= 1


def test_stalled_client_does_not_block_other_clients(served, rows):
    """A client that sends headers but never the body must not wedge the
    server: body reads happen outside the store lock, so other clients'
    probes keep flowing (the stalled socket is reaped by the handler
    timeout eventually)."""
    import socket
    import time

    server, _, client = served
    stalled = socket.create_connection(server.address)
    try:
        stalled.sendall(
            b"POST /probe_many HTTP/1.1\r\nHost: x\r\n"
            b"Content-Type: application/json\r\nContent-Length: 999\r\n\r\n"
        )  # ... and the 999-byte body never arrives
        time.sleep(0.1)  # let the handler thread block in its body read
        started = time.monotonic()
        assert client.probe(("k",), ("b",)) == (rows[1],)  # cache miss
        assert time.monotonic() - started < 5
    finally:
        stalled.close()


def test_server_error_message_propagates_as_valueerror(served):
    _, _, client = served
    with pytest.raises(ValueError, match="does not match attribute list"):
        client.probe(("k", "v"), ("a",))


# -- typed failure paths -------------------------------------------------------


def test_unreachable_server_raises_store_unavailable(served, schema):
    server, _, client = served
    url = server.url
    server.close()
    with pytest.raises(StoreUnavailableError, match="serve-master"):
        RemoteStore(url)
    with pytest.raises(StoreUnavailableError, match="unreachable"):
        client.probe(("k",), ("nope",))  # cache miss → dead round-trip


def test_lying_backing_store_is_refused_server_side(served, rows,
                                                   monkeypatch):
    """A backing store whose ``probe_batch`` drops a result makes the
    server refuse the exchange (HTTP 500); the client reports the server's
    own message — not "unreachable" — and caches nothing from it."""
    _, backing, client = served
    real = backing.probe_batch

    def lying(probes):
        return real(probes)[1:]

    monkeypatch.setattr(backing, "probe_batch", lying)
    keys = [("a",), ("b",), ("zz",)]
    with pytest.raises(StoreError, match="refusing to serve a truncated "
                                         "/probe_many response") as info:
        client.probe_many(("k",), keys)
    assert not isinstance(info.value, StoreUnavailableError)
    assert "HTTP 500" in str(info.value)
    assert client.probe_cache_info()["size"] == 0
    monkeypatch.undo()
    assert client.probe_many(("k",), keys) == {
        ("a",): (rows[0], rows[2]),
        ("b",): (rows[1],),
        ("zz",): (),
    }


def test_closed_client_raises_store_detached(served):
    _, _, client = served
    client.close()
    with pytest.raises(StoreDetachedError, match="closed"):
        client.probe(("k",), ("a",))
    with pytest.raises(StoreDetachedError, match="closed"):
        client.detach()
    assert "closed" in repr(client)


def test_remote_handle_reattach_dead_server_raises_unavailable(served):
    server, _, client = served
    handle = client.detach()
    server.close()
    with pytest.raises(StoreUnavailableError, match="serve-master"):
        handle.reattach()


def test_sqlite_handle_reattach_missing_file_raises_unavailable(
    tmp_path, schema, rows
):
    """Reattaching a handle whose database file vanished used to silently
    open an EMPTY master — every probe missing, every fix degraded to a
    user question.  Now it is a typed error with a remedy."""
    path = tmp_path / "m.db"
    store = SqliteStore(schema, rows, path=path)
    handle = store.detach()
    store.close()
    path.unlink()
    with pytest.raises(StoreUnavailableError, match="no longer exists"):
        handle.reattach()


def test_client_follows_a_restarted_sqlite_server(tmp_path, schema, rows):
    """A sqlite-backed server closed at version 7, reopened and updated
    once: the client must see the update, not keep its cached old row
    because the reopened store's version looked older than its own."""
    path = tmp_path / "m.db"
    store = SqliteStore(schema, rows, path=path)
    old = rows[1]
    for _ in range(3):
        assert store.update(old, old)
    assert store.version == 7
    server = MasterServer(store).start()
    host, port = server.address
    client = RemoteStore(server.url)
    try:
        assert client.version == 7
        assert client.probe(("k",), ("b",)) == (old,)
        server.close()
        store.close()

        store = SqliteStore(schema, path=path)
        new = old.with_values({"v": "new"})
        assert store.update(old, new)
        server = MasterServer(store, host=host, port=port).start()
        client.probe(("k",), ("zz",))  # any miss carries the new version
        assert client.probe(("k",), ("b",)) == (new,)
        assert client.version == store.version
    finally:
        client.close()
        server.close()
        store.close()


def test_sqlite_store_raises_detached_after_close(tmp_path, schema, rows):
    store = SqliteStore(schema, rows, path=tmp_path / "m.db")
    store.close()
    for operation in (
        lambda: store.probe(("k",), ("a",)),
        lambda: store.probe_many(("k",), [("a",)]),
        lambda: list(store),
        lambda: store.active_values("k"),
        lambda: store.insert(Row(schema, ("z", "z", 0))),
        lambda: store.delete(rows[0]),
        lambda: store.detach(),
    ):
        with pytest.raises(StoreDetachedError, match="closed"):
            operation()


def test_batch_run_surfaces_store_error_in_report(schema):
    """A mid-run infrastructure death raises the typed error with the
    partial BatchReport attached (BatchReport.store_errors)."""
    rules = [EditingRule(("k",), ("k",), "v", "v", name="k->v")]
    rows = [Row(schema, ("k1", "v1", 1))]
    server = MasterServer(InMemoryStore(Relation(schema, rows))).start()
    store = RemoteStore(server.url, poll_interval=0.0)
    engine = BatchRepairEngine(rules, store, schema, use_bdd=False,
                               chunk_size=1)
    dirty = Row(schema, ("k1", "wrong", 1))
    clean = Row(schema, ("k1", "v1", 1))
    ok = engine.run([(dirty, SimulatedUser(clean))])
    assert ok.report.store_errors == []
    server.close()
    with pytest.raises(StoreUnavailableError) as excinfo:
        engine.run([(dirty, SimulatedUser(clean))] * 3)
    report = excinfo.value.report
    assert report.store_errors and "unreachable" in report.store_errors[0]
    assert "STORE FAILURE" in report.describe()
    assert report.to_dict()["store_errors"] == report.store_errors


# -- end-to-end: batch repair over HTTP ----------------------------------------


def _pairs(data):
    return [(dt.dirty, SimulatedUser(dt.clean)) for dt in data]


def _assert_sessions_identical(left, right):
    assert len(left) == len(right)
    for a, b in zip(left, right):
        assert a.final == b.final
        assert a.validated == b.validated
        assert a.round_count == b.round_count
        assert a.completed == b.completed


def _fresh_master_row(bundle):
    donor = bundle.master.row_at(0)
    first = bundle.schema.attributes[0]
    return donor.with_values({first: "ZZ-REMOTE-FRESH"})


@pytest.mark.parametrize("executor,workers", [("thread", 1), ("thread", 2),
                                              ("process", 2)])
def test_remote_batch_identical_to_memory(hosp, hosp_dirty, executor,
                                          workers):
    """serve-master in a thread; batch-repair against it (thread and
    2-worker process executors) must be bit-identical to the memory
    backend — including after a mid-batch remote mutation."""
    data = list(hosp_dirty)
    half = len(data) // 2
    fresh = _fresh_master_row(hosp)

    memory = InMemoryStore(Relation(hosp.schema, hosp.master.iter_rows()))
    mem_engine = BatchRepairEngine(hosp.rules, memory, hosp.schema,
                                   use_bdd=False)
    mem_first = mem_engine.run(_pairs(data[:half]))
    memory.insert(fresh)
    mem_second = mem_engine.run(_pairs(data[half:]))

    backing = InMemoryStore(Relation(hosp.schema, hosp.master.iter_rows()))
    with MasterServer(backing) as server:
        remote = RemoteStore(server.url)
        engine = BatchRepairEngine(
            hosp.rules, remote, hosp.schema, use_bdd=False,
            executor=executor, concurrency=workers, chunk_size=4,
        )
        with engine:
            first = engine.run(_pairs(data[:half]))
            # the mid-batch mutation arrives over HTTP, through the
            # engine's own client
            engine.store.insert(fresh)
            second = engine.run(_pairs(data[half:]))
        remote.close()

    _assert_sessions_identical(first.sessions + second.sessions,
                               mem_first.sessions + mem_second.sessions)
    assert second.report.cache_invalidations >= 1
    assert second.report.master_version == memory.version


def test_remote_mutation_by_foreign_client_with_polling(hosp, hosp_dirty):
    """The harder invalidation story: the mutation comes from ANOTHER
    process/client entirely; version polling makes this engine notice."""
    data = list(hosp_dirty)
    half = len(data) // 2
    fresh = _fresh_master_row(hosp)

    memory = InMemoryStore(Relation(hosp.schema, hosp.master.iter_rows()))
    mem_engine = BatchRepairEngine(hosp.rules, memory, hosp.schema,
                                   use_bdd=False)
    mem_sessions = mem_engine.run(_pairs(data[:half])).sessions
    memory.insert(fresh)
    mem_sessions += mem_engine.run(_pairs(data[half:])).sessions

    backing = InMemoryStore(Relation(hosp.schema, hosp.master.iter_rows()))
    with MasterServer(backing) as server:
        engine = BatchRepairEngine(
            hosp.rules, RemoteStore(server.url, poll_interval=0.0),
            hosp.schema, use_bdd=False,
        )
        sessions = engine.run(_pairs(data[:half])).sessions
        foreign = RemoteStore(server.url, schema=hosp.schema)
        foreign.insert(fresh)
        foreign.close()
        second = engine.run(_pairs(data[half:]))
        sessions += second.sessions
        engine.store.close()

    _assert_sessions_identical(sessions, mem_sessions)
    assert second.report.cache_invalidations == 1


def test_remote_cli_batch_repair(tmp_path, hosp, hosp_dirty):
    """The CLI surface: --master-backend remote --master-url against a
    live server, repaired CSV identical to the memory-backend CLI run."""
    relation_to_csv(hosp.master, tmp_path / "master.csv")
    (tmp_path / "rules.json").write_text(rules_dumps(hosp.rules) + "\n")
    data = list(hosp_dirty)[:10]
    relation_to_csv(Relation(hosp.schema, (d.dirty for d in data)),
                    tmp_path / "dirty.csv")
    relation_to_csv(Relation(hosp.schema, (d.clean for d in data)),
                    tmp_path / "clean.csv")

    common = [
        "batch-repair", "--rules", str(tmp_path / "rules.json"),
        "--input", str(tmp_path / "dirty.csv"),
        "--clean", str(tmp_path / "clean.csv"),
    ]
    assert cli_main(common + [
        "--master", str(tmp_path / "master.csv"),
        "--output", str(tmp_path / "fixed_memory.csv"),
    ]) == 0

    backing = InMemoryStore(Relation(hosp.schema, hosp.master.iter_rows()))
    with MasterServer(backing) as server:
        assert cli_main(common + [
            "--master-backend", "remote", "--master-url", server.url,
            "--output", str(tmp_path / "fixed_remote.csv"),
        ]) == 0

    assert (tmp_path / "fixed_remote.csv").read_text() == \
        (tmp_path / "fixed_memory.csv").read_text()


def test_remote_cli_argument_validation(tmp_path, capsys):
    (tmp_path / "rules.json").write_text("[]\n")
    base = ["batch-repair", "--rules", str(tmp_path / "rules.json"),
            "--input", "x.csv", "--clean", "y.csv"]
    assert cli_main(base + ["--master-backend", "remote"]) == 2
    assert "--master-url" in capsys.readouterr().err
    assert cli_main(base) == 2  # memory backend without --master
    assert "--master is required" in capsys.readouterr().err


def test_remote_store_is_thread_safe_under_concurrent_probes(served, rows):
    """The batch engine's thread fan-out probes one client concurrently;
    the shared connection must serialize without corruption."""
    _, _, client = served
    errors = []

    def worker(key, expected):
        try:
            for _ in range(30):
                assert client.probe(("k",), (key,)) == expected
        except Exception as exc:  # pragma: no cover — diagnostic only
            errors.append(exc)

    threads = [
        threading.Thread(target=worker, args=("a", (rows[0], rows[2]))),
        threading.Thread(target=worker, args=("b", (rows[1],))),
        threading.Thread(target=worker, args=("zzz", ())),
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []


# -- /metrics exposition (PR 7) ------------------------------------------------


def _scrape(server, suffix: str = "") -> bytes:
    import urllib.request

    with urllib.request.urlopen(f"{server.url}/metrics{suffix}") as resp:
        return resp.read()


def test_metrics_endpoint_serves_valid_prometheus(served):
    from repro.obs import parse_prometheus_text

    server, backing, client = served
    client.probe(("k",), ("a",))
    client.probe_many(("k",), [("a",), ("b",)])
    parsed = parse_prometheus_text(_scrape(server).decode("utf-8"))
    assert parsed[("repro_server_store_rows", ())] == len(backing)
    assert parsed[("repro_server_store_version", ())] == backing.version
    probed = sum(
        value for (name, labels), value in parsed.items()
        if name == "repro_server_requests_total"
        and "probe" in dict(labels)["endpoint"]
        and dict(labels)["status"] == "200"
    )
    assert probed >= 2
    assert any(
        name == "repro_server_request_seconds"
        and dict(labels).get("quantile") == "0.99"
        for name, labels in parsed
    )


def test_metrics_endpoint_counts_error_responses(served):
    import urllib.error
    import urllib.request

    from repro.obs import parse_prometheus_text

    server, _, _ = served
    with pytest.raises(urllib.error.HTTPError):
        urllib.request.urlopen(f"{server.url}/no-such-route")
    parsed = parse_prometheus_text(_scrape(server).decode("utf-8"))
    assert parsed[(
        "repro_server_requests_total",
        (("endpoint", "/no-such-route"), ("status", "404")),
    )] == 1


def test_metrics_endpoint_json_roundtrip(served):
    import json

    from repro.obs import snapshot_from_dict

    server, backing, client = served
    client.probe(("k",), ("b",))
    payload = json.loads(_scrape(server, "?format=json").decode("utf-8"))
    snapshot = snapshot_from_dict(payload["metrics"])
    assert snapshot.gauge_value("repro_server_store_rows") == len(backing)
    # The scrape itself is traffic too — counted on the next scrape, not
    # this one, so only the probe traffic is asserted here.
    assert snapshot.counter_value(
        "repro_server_requests_total", endpoint="/probe_many", status="200"
    ) >= 1


def test_server_metrics_registry_is_always_on(served):
    from repro import obs
    from repro.obs import MetricsRegistry

    server, _, _ = served
    # Server-side series never depend on the client-side obs gate.
    assert not obs.enabled()
    assert isinstance(server.metrics, MetricsRegistry)
    _scrape(server)
    assert server.metrics.snapshot().counter_value(
        "repro_server_requests_total", endpoint="/metrics", status="200"
    ) >= 1


def test_client_spans_recorded_when_obs_enabled(served):
    from repro import obs

    _, _, client = served
    obs.enable()
    try:
        client.probe(("k",), ("c",))
        client.probe_many(("k",), [("a",)])
        snap = obs.snapshot()
    finally:
        obs.disable()
    # One span per call: both reads are one probe_batch each.
    assert snap.histogram_value(
        "repro_store_probe_seconds", backend="remote"
    ).count == 2
    assert snap.counter_value(
        "repro_remote_requests_total", endpoint="/probe_many", status="ok"
    ) >= 1
    assert snap.histogram_value(
        "repro_remote_request_seconds", endpoint="/probe_many"
    ).count >= 1
