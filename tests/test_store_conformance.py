"""Run the MasterStore conformance kit across every backend.

One subclass per backend; the contract itself lives in
``tests/store_conformance.py``.  A fourth backend earns its suite by
adding a subclass with a ``store`` fixture — nothing else.
"""

import contextlib

import pytest

from repro.engine.relation import Relation
from repro.engine.remote import MasterServer, RemoteStore
from repro.engine.store import InMemoryStore, SqliteStore

from store_conformance import StoreConformance, conformance_rows


class TestInMemoryStoreConformance(StoreConformance):
    """The paper's setting: Relation + hash indexes in RAM."""

    @pytest.fixture
    def store(self):
        schema = self.schema()
        return InMemoryStore(Relation(schema, conformance_rows(schema)))


class TestSqliteStoreConformance(StoreConformance):
    """Out-of-core file-backed sqlite (shares storage across processes)."""

    @pytest.fixture
    def store(self, tmp_path):
        schema = self.schema()
        backend = SqliteStore(
            schema, conformance_rows(schema), path=tmp_path / "m.db"
        )
        yield backend
        backend.close()


class TestSqliteMemoryStoreConformance(StoreConformance):
    """A private ``:memory:`` sqlite database — everything but detach."""

    supports_detach = False

    @pytest.fixture
    def store(self):
        schema = self.schema()
        backend = SqliteStore(schema, conformance_rows(schema))
        yield backend
        backend.close()


class TestRemoteStoreConformance(StoreConformance):
    """The HTTP read-through client over a memory-backed MasterServer."""

    @pytest.fixture
    def store(self):
        schema = self.schema()
        backing = InMemoryStore(Relation(schema, conformance_rows(schema)))
        with MasterServer(backing) as server:
            client = RemoteStore(server.url)
            yield client
            client.close()

    def lie_probe_many(self, store, skew):
        # Tamper with the wire payload below the client's accounting:
        # the server answered, the transport delivered, the body lies.
        @contextlib.contextmanager
        def lie():
            real = store._request

            def lying(method, path, payload=None, idempotent=True):
                body, version = real(method, path, payload, idempotent)
                if path.startswith("/probe_many"):
                    results = list(body["results"])
                    if skew < 0:
                        results.pop()
                    else:
                        results.append([])
                    body = dict(body, results=results)
                return body, version

            store._request = lying
            try:
                yield
            finally:
                del store._request

        return lie()

