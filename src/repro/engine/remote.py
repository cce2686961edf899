"""Remote master data: an HTTP/JSON master server and a read-through client.

The paper's certain-fix guarantee assumes cheap hash probes into the master
relation ``Dm`` (Sect. 5.1), but production masters rarely live in the
repairing process: reference data is a shared service consulted by many
cleaning sessions at once (Guided Data Repair and Parker both model trusted
sources this way — see PAPERS.md).  This module makes that deployment real
over the :class:`~repro.engine.store.MasterStore` seam, pure stdlib:

* :class:`MasterServer` exposes *any* existing store (memory or sqlite)
  over HTTP/JSON — ``/probe_many``, ``/keys``, ``/active_values``,
  ``/rows``, ``/version`` plus versioned ``/insert`` / ``/delete`` /
  ``/update`` — via ``python -m repro serve-master``;
* :class:`RemoteStore` implements the full ``MasterStore`` ABC as a
  read-through client: a key directory and an LRU probe cache, both
  stamped with the server's version, one keyed read ``probe_batch``
  (every cache miss of one call in a single ``/probe_many`` request;
  ``probe``, ``probe_ref`` and ``probe_many`` derive from it) to amortize
  round-trips, and
  ``detach()`` / ``reattach()`` so process-pool workers each open their
  own connection.  A worker catches up with the parent's stamp through
  ``adopt_deltas``, which runs the same ``/deltas`` reconciliation as
  any newer stamp a response carries; when the parent's own journal
  cannot bridge the gap (after a full drop), the pool is respawned.

**Invalidation** piggybacks on every request: each server response carries
an ``X-Master-Version`` header, and the moment the client observes a newer
stamp it reconciles — it fetches ``GET /deltas?since=<stamp>`` (the
server's delta journal) and purges exactly the probe/active/len cache
lines the changed rows project onto, falling back to the historical full
cache drop whenever the journal cannot prove the list complete.  A
server-side mutation therefore invalidates client caches exactly like a
local mutation does, and the client re-exports the journal through its
own ``deltas_since`` journal so the repair engines' per-key purge path
works across the network boundary too.  A client that only ever hits
its own warm cache would never observe anything, so ``poll_interval``
optionally re-polls ``/version`` on :attr:`RemoteStore.version` reads
(``0.0`` = every read; ``None`` = piggyback only, the default — right when
all mutations flow through this client or between-run staleness is
acceptable).

**Key directory**: CertainFix reads ``Dm`` only through keyed probes on
``Xm`` (Sect. 5.1's hash table), and most keys a dirty stream probes are
absent from the master — on DBLP about nine distinct probe lines in ten.
The LRU cannot help with those (each is seen once, then evicts a useful
line), so the client keeps, per probed attribute list, the set of keys the
master holds, fetched by one ``POST /keys`` the first time ``probe_batch``
meets that list.  A key the directory lacks resolves to "no match" with
no round trip.  The directory is a *superset* of the server's keys at the
client's stamp: it is installed only when the ``/keys`` reply's version
equals the stamp (the LRU's own rule for a line), each reconciled insert
adds the row's projection, deletes remove nothing (a dead key costs only a
wire trip, answered empty), and the full cache drop clears it with the
LRU, so the next probe of each list fetches it again.  Client memory is
O(distinct master keys per probed list) — bounded by ``Dm``, not by the
stream.  Because it shares the LRU's stamp, it shares the LRU's known hole
too: a server restarted at the same version number with other rows is
not noticed (ROADMAP item 1), and that fix must clear both.

**Wire format**: values cross the wire in the sqlite backend's tagged
codec (`repro.engine.store._encode`), which reproduces Python's equality
semantics exactly — ``87`` never collides with ``"87"``, ``2 == 2.0 ==
True`` collapse, and the ``NULL`` / ``UNKNOWN`` sentinels survive — so
fixes computed against a remote master stay bit-identical to the
in-process backends.

**Failure model**: an unreachable server raises
:class:`~repro.engine.store.StoreUnavailableError` with remedy text; a
server that answers 5xx (its backing store failed or lied) raises
:class:`~repro.engine.store.StoreError` carrying the server's message; a
closed client raises :class:`~repro.engine.store.StoreDetachedError`.
Reads are retried once over a fresh connection (a keep-alive the server
timed out is indistinguishable from a dead server until the second try);
mutations are retried only when the request provably never reached the
server (connect/send failures), never after a half-delivered exchange —
an ``/insert`` replay could double-insert.
"""

from __future__ import annotations

import itertools
import json
import socket
import sys
import threading
import time
from dataclasses import dataclass
from http import client as http_client
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Iterable, Iterator
from urllib.parse import parse_qs, urlsplit

from repro import obs
from repro.engine.schema import Domain, RelationSchema
from repro.engine.store import (
    MasterStore,
    StoreDelta,
    StoreDetachedError,
    StoreError,
    StoreProtocolError,
    StoreUnavailableError,
    _DeltaJournal,
    _decode,
    _encode,
    _probe_pair,
    _ProbeLRU,
)
from repro.engine.tuples import Row
from repro.obs import MetricsRegistry, render_prometheus, snapshot_to_dict

#: Every response carries the store version here, so any exchange doubles
#: as a version poll (the read-through invalidation signal).
VERSION_HEADER = "X-Master-Version"


# -- wire codec ----------------------------------------------------------------


def _encode_values(values: Iterable) -> list:
    return [_encode(v) for v in values]


def _wire_key(key: tuple):
    """Encode a probe key for the wire, or ``None`` when unstorable.

    The unstorable-key rule of the client's one probe path: a key
    holding a value the codec refuses (an engine-internal placeholder,
    say) can never equal a stored master cell, so it resolves to "no
    match" locally — and must never enter the LRU, because no server
    ever vouched for the verdict.
    """
    try:
        return _encode_values(key)
    except TypeError:
        return None


def _vouched(key: tuple) -> bool:
    """Whether the key directory may answer for *key* being absent.

    Not for a key holding NaN: it never equals a directory entry, yet a
    sqlite-backed server matches it on its encoded cell.  The server
    decides such a key, as it did before the directory.
    """
    return all(value == value for value in key)


def _decode_row(schema: RelationSchema, cells: list) -> Row:
    return Row(schema, [_decode(c) for c in cells])


def schema_to_payload(schema: RelationSchema) -> dict:
    """JSON-serializable form of a relation schema (``GET /schema``)."""
    return {
        "name": schema.name,
        "attributes": [
            {
                "name": attr.name,
                "domain": {
                    "name": attr.domain.name,
                    "finite": attr.domain.finite,
                    "values": (
                        sorted(_encode(v) for v in attr.domain.values)
                        if attr.domain.finite else None
                    ),
                },
            }
            for attr in schema.attribute_objects
        ],
    }


def schema_from_payload(payload: dict) -> RelationSchema:
    """Rebuild a schema equal (``==``) to the server's from its payload."""
    attributes = []
    for attr in payload["attributes"]:
        dom = attr["domain"]
        domain = Domain(
            dom["name"],
            finite=dom["finite"],
            values=(
                frozenset(_decode(v) for v in dom["values"])
                if dom["finite"] else None
            ),
        )
        attributes.append((attr["name"], domain))
    return RelationSchema(payload["name"], attributes)


# -- server --------------------------------------------------------------------


class _MasterHTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address, handler, store: MasterStore):
        super().__init__(address, handler)
        self.store = store
        # The server's own always-on registry (never the process-global
        # one): ``GET /metrics`` must work without any client-side
        # ``obs.enable()``, and the per-request cost is noise next to the
        # HTTP exchange it measures.
        self.metrics = MetricsRegistry()
        # One lock around every store access: the wrapped backends are not
        # all thread-safe (InMemoryStore's Relation is not), and the
        # threading server handles each client connection on its own
        # thread.  Mutations and probes serialize here; the client-side
        # LRU is what makes the hot path cheap, not server parallelism.
        self.store_lock = threading.RLock()
        # Live keep-alive sockets, so close() can sever them: shutting the
        # listener alone would leave handler threads serving established
        # connections forever (clients would never observe the shutdown).
        self._client_sockets: set = set()
        self._client_lock = threading.Lock()

    def process_request(self, request, client_address):
        with self._client_lock:
            self._client_sockets.add(request)
        super().process_request(request, client_address)

    def handle_error(self, request, client_address):
        # Routine disconnects — a client killed mid-request, or our own
        # close() severing keep-alives — are not server errors; the
        # default would dump a full traceback to stderr for each.
        exc = sys.exc_info()[1]
        if isinstance(exc, (ConnectionError, TimeoutError)):
            return
        super().handle_error(request, client_address)

    def shutdown_request(self, request):
        with self._client_lock:
            self._client_sockets.discard(request)
        super().shutdown_request(request)

    def close_client_connections(self) -> None:
        with self._client_lock:
            sockets = list(self._client_sockets)
        for sock in sockets:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass


class _MasterRequestHandler(BaseHTTPRequestHandler):
    """One route per MasterStore method; JSON bodies, codec-tagged values."""

    #: Keep-alive matters: the client holds one persistent connection and
    #: pays a TCP handshake only on reconnect, not per probe.
    protocol_version = "HTTP/1.1"
    server_version = "repro-master"
    #: Responses go out as two segments (headers, then body); with Nagle
    #: on, the second waits ~40ms for the client's delayed ACK — which
    #: turns every cold probe into a 40ms round-trip.
    disable_nagle_algorithm = True
    #: Per-socket timeout: a client that stalls mid-request (or an idle
    #: keep-alive) is disconnected instead of pinning a handler thread
    #: forever.  Clients reconnect transparently; they also preemptively
    #: re-open connections idle longer than half of this (see
    #: ``RemoteStore._IDLE_RECONNECT_S``) so a mutation never rides a
    #: connection the server is about to reap.
    timeout = 60

    def log_message(self, format, *args):  # noqa: A002 — stdlib signature
        pass  # stay quiet; the CLI prints its own serving banner

    # -- plumbing ------------------------------------------------------------

    def _reply(self, payload: dict, status: int = 200,
               version: int = None) -> None:
        self._reply_raw(
            json.dumps(payload).encode("utf-8"), "application/json",
            status=status, version=version,
        )

    def _reply_raw(self, body: bytes, content_type: str,
                   status: int = 200, version: int = None) -> None:
        # Every response funnels through here, so the per-endpoint status
        # counter covers errors and 404s as well as the happy path.
        self.server.metrics.inc(
            "repro_server_requests_total",
            endpoint=urlsplit(self.path).path, status=str(status),
        )
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if version is None:
            version = self.server.store.version
        self.send_header(VERSION_HEADER, str(version))
        self.end_headers()
        self.wfile.write(body)

    def _fail(self, status: int, message: str) -> None:
        self._reply({"error": message}, status=status)

    def _read_json(self) -> dict:
        length = int(self.headers.get("Content-Length", 0))
        if not length:
            return {}
        return json.loads(self.rfile.read(length).decode("utf-8"))

    def _dispatch(self, routes: dict) -> None:
        parts = urlsplit(self.path)
        handler = routes.get(parts.path)
        if handler is None:
            self._fail(404, f"unknown endpoint {parts.path!r}")
            return
        try:
            # Socket I/O stays OUTSIDE the store lock: a client stalling
            # mid-body (or a slow reply drain) must not wedge every other
            # client's probes behind the globally-held lock.  The store
            # work and the version stamp happen atomically inside it —
            # the piggybacked version always matches the result's read
            # point, so clients never cache a stale line under a newer
            # stamp.  The span brackets the store work, not the socket
            # drain: it measures what the server did, not the client's
            # network.
            payload = self._read_json() if self.command == "POST" else {}
            with self.server.metrics.time_block(
                "repro_server_request_seconds", endpoint=parts.path
            ):
                with self.server.store_lock:
                    result = handler(parse_qs(parts.query), payload)
                    version = self.server.store.version
        except (ValueError, TypeError, KeyError) as exc:
            # Bad request shape / probe key mismatch: the client re-raises
            # these as ValueError with the server's message.
            self._fail(400, str(exc))
            return
        except StoreError as exc:
            # The server's own backing store failed (or lied — see the
            # /probe_many strict accounting): the fault is on this side
            # of the wire, so answer 500, not 400.
            self._fail(500, str(exc))
            return
        self._reply(result, version=version)

    # -- GET routes ----------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 — stdlib naming
        parts = urlsplit(self.path)
        if parts.path == "/metrics":
            # Outside _dispatch: the body is Prometheus text, not JSON,
            # and a scrape should not contaminate its own request span.
            self._get_metrics(parse_qs(parts.query))
            return
        self._dispatch({
            "/version": self._get_version,
            "/schema": self._get_schema,
            "/len": self._get_len,
            "/rows": self._get_rows,
            "/deltas": self._get_deltas,
        })

    def _get_metrics(self, query: dict) -> None:
        """``GET /metrics``: Prometheus text (``?format=json`` for JSON).

        Store gauges (size, version, probe-cache accounting) are refreshed
        at scrape time so the scrape always reflects the live store, not
        the last mutation.
        """
        registry = self.server.metrics
        store = self.server.store
        with self.server.store_lock:
            registry.set_gauge("repro_server_store_rows", len(store))
            registry.set_gauge("repro_server_store_version", store.version)
            probe_ref_calls = getattr(store, "probe_ref_calls", None)
            if probe_ref_calls is not None:
                registry.set_gauge(
                    "repro_server_store_probe_ref_calls", probe_ref_calls
                )
            cache_info = getattr(store, "probe_cache_info", None)
            if cache_info is not None:
                info = cache_info()
                registry.set_gauge(
                    "repro_server_probe_cache_hits", info["hits"]
                )
                registry.set_gauge(
                    "repro_server_probe_cache_misses", info["misses"]
                )
                registry.set_gauge(
                    "repro_server_probe_cache_size", info["size"]
                )
                registry.set_gauge(
                    "repro_server_probe_cache_evictions", info["evictions"]
                )
                registry.set_gauge(
                    "repro_server_probe_cache_purged", info["purged"]
                )
        snapshot = registry.snapshot()
        if query.get("format", ["text"])[0] == "json":
            self._reply({"metrics": snapshot_to_dict(snapshot)})
            return
        self._reply_raw(
            render_prometheus(snapshot).encode("utf-8"),
            "text/plain; version=0.0.4; charset=utf-8",
        )

    def _get_version(self, query, payload) -> dict:
        return {"version": self.server.store.version}

    def _get_schema(self, query, payload) -> dict:
        return {"schema": schema_to_payload(self.server.store.schema)}

    def _get_len(self, query, payload) -> dict:
        return {"len": len(self.server.store)}

    def _get_deltas(self, query, payload) -> dict:
        """``GET /deltas?since=V``: the wrapped store's delta journal.

        ``null`` whenever the store cannot prove the list complete (stamp
        out of the journal window, bulk loads, no journal) — the client
        then falls back to a full cache drop, exactly like a local
        consumer.  Runs under the store lock with the piggybacked version
        stamp, so the list is always consistent with the header.
        """
        since = int(query.get("since", ["0"])[0])
        deltas = self.server.store.deltas_since(since)
        if deltas is None:
            return {"deltas": None}
        return {
            "deltas": [
                [d.version, d.op, _encode_values(d.values)] for d in deltas
            ],
        }

    def _get_rows(self, query, payload) -> dict:
        start = int(query.get("start", ["0"])[0])
        limit = int(query.get("limit", ["512"])[0])
        # iter_from keeps paged iteration O(n) overall: backends seek to
        # *start* natively (sqlite: one OFFSET query) instead of this
        # handler re-iterating and discarding `start` rows per window.
        window = itertools.islice(self.server.store.iter_from(start), limit)
        return {
            "rows": [_encode_values(row.values) for row in window],
            "start": start,
        }

    # -- POST routes ---------------------------------------------------------

    def do_POST(self) -> None:  # noqa: N802 — stdlib naming
        self._dispatch({
            "/probe_many": self._post_probe_many,
            "/keys": self._post_keys,
            "/active_values": self._post_active_values,
            "/ensure_index": self._post_ensure_index,
            "/insert": self._post_insert,
            "/delete": self._post_delete,
            "/update": self._post_update,
        })

    def _decode_key(self, cells: list) -> tuple:
        return tuple(_decode(c) for c in cells)

    def _row_from(self, cells: list) -> Row:
        return _decode_row(self.server.store.schema, cells)

    def _post_probe_many(self, query, payload) -> dict:
        """``POST /probe_many``: ``{"probes": [[attrs, key], ...]}``.

        Attribute lists may differ per pair; the backing store answers
        them with one ``probe_batch``, and the reply lists one result per
        pair in request order.
        """
        probes = [
            (tuple(attrs), self._decode_key(key))
            for attrs, key in payload["probes"]
        ]
        store = self.server.store
        results = store.probe_batch(probes)
        # Strict accounting before anything goes on the wire: a lying
        # backing store fails the exchange loudly (HTTP 500) instead of
        # shipping a response the client would have to zip-truncate.
        if len(results) != len(probes):
            raise StoreProtocolError(
                f"backing {type(store).__name__}.probe_batch answered "
                f"{len(results)} results for {len(probes)} probes; "
                f"refusing to serve a truncated /probe_many response"
            )
        # The count echo lets clients cross-check the pairing even when a
        # middlebox rewrites the results array length.
        return {
            "count": len(probes),
            "results": [
                [_encode_values(r.values) for r in rows] for rows in results
            ],
        }

    def _post_keys(self, query, payload) -> dict:
        """``POST /keys``: ``{"attrs": [...]}`` -> ``{"keys": [key, ...]}``.

        Every distinct key the master holds on that attribute list, in
        the wire codec: the client's key directory.  Runs under the store
        lock like every route, so the piggybacked version is the read
        point of the list.  A key holding a value the codec refuses is
        left out; the client resolves such probe keys locally anyway.
        """
        store = self.server.store
        positions = [store.schema.index_of(attr) for attr in payload["attrs"]]
        keys = {tuple(row.values[i] for i in positions) for row in store}
        encoded = (_wire_key(key) for key in keys)
        return {"keys": [key for key in encoded if key is not None]}

    def _post_active_values(self, query, payload) -> dict:
        values = self.server.store.active_values(payload["attr"])
        return {"values": sorted(_encode(v) for v in values)}

    def _post_ensure_index(self, query, payload) -> dict:
        self.server.store.ensure_index(tuple(payload["attrs"]))
        return {}

    def _post_insert(self, query, payload) -> dict:
        self.server.store.insert(self._row_from(payload["row"]))
        return {}

    def _post_delete(self, query, payload) -> dict:
        deleted = self.server.store.delete(self._row_from(payload["row"]))
        return {"deleted": deleted}

    def _post_update(self, query, payload) -> dict:
        # One round-trip, atomic under the server's store lock (the
        # default client-side delete-then-insert would let another client
        # observe the gap between the two).
        updated = self.server.store.update(
            self._row_from(payload["old"]), self._row_from(payload["new"])
        )
        return {"updated": updated}


class MasterServer:
    """Serve a :class:`MasterStore` over HTTP (``serve-master`` CLI).

    Wraps the stdlib threading HTTP server with a background-thread
    lifecycle for tests and embedded use::

        with MasterServer(store) as server:      # port=0 → ephemeral
            remote = RemoteStore(server.url)

    or ``serve_forever()`` in the foreground for the CLI.
    """

    def __init__(self, store: MasterStore, host: str = "127.0.0.1",
                 port: int = 0):
        self._http = _MasterHTTPServer((host, port), _MasterRequestHandler,
                                       store)
        self._thread = None

    @property
    def store(self) -> MasterStore:
        return self._http.store

    @property
    def metrics(self) -> MetricsRegistry:
        """The server's always-on registry (what ``GET /metrics`` renders)."""
        return self._http.metrics

    @property
    def address(self) -> tuple:
        """The bound ``(host, port)`` — the real port even for ``port=0``."""
        return self._http.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "MasterServer":
        """Serve on a daemon thread; returns self for chaining."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._http.serve_forever, name="repro-master-server",
                daemon=True,
            )
            self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread (the CLI foreground path)."""
        self._http.serve_forever()

    def close(self) -> None:
        """Stop serving and sever live keep-alive connections.

        Clients observe the shutdown immediately (their next request
        raises ``StoreUnavailableError``) instead of riding an
        established connection into a half-dead server.
        """
        self._http.shutdown()
        self._http.close_client_connections()
        self._http.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    def __enter__(self) -> "MasterServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"MasterServer({self.store!r} at {self.url})"


# -- client --------------------------------------------------------------------


#: Transport failures the client maps to StoreUnavailableError; whether a
#: retry is safe depends on when they struck (see ``_request``).
_TRANSPORT_ERRORS = (http_client.HTTPException, OSError)


def _error_text(data: bytes) -> str:
    """The ``error`` field of a failure reply, else its raw body text."""
    text = data.decode("utf-8", "replace")
    try:
        return json.loads(text)["error"]
    except (ValueError, KeyError, TypeError):
        return text.strip() or "(empty body)"


class RemoteStore(MasterStore):
    """Read-through :class:`MasterStore` client for a :class:`MasterServer`.

    Probes are served from a bounded LRU keyed on ``(attrs, key)`` and
    stamped with the server version; every response's ``X-Master-Version``
    header is compared against the stamp and a newer value drops the
    probe / active-value / length caches before anything is returned — a
    server-side mutation invalidates this client exactly like a local
    mutation invalidates the in-process backends.

    Every keyed read goes through ``probe_batch`` (the chase's one read
    per step; a single ``probe`` is a one-pair batch), so there is one
    miss path.  First the key directory: the first time a call meets an
    attribute list, one ``POST /keys`` fetches every key the master
    holds on it, and a key absent from that set is answered ``()``
    locally (counted as ``absent``, neither an LRU hit nor a miss).  Then
    the LRU: hits are answered locally and every miss of the call, over
    any mix of attribute lists, crosses in one ``POST /probe_many`` with
    body ``{"probes": [[attrs, key], ...]}`` (keys in the wire codec;
    unstorable keys resolve to "no match" locally and never travel or
    cache).  The reply is ``{"count": n, "results": [rows, ...]}`` in
    request order; a count or length that disagrees with the request
    raises :class:`~repro.engine.store.StoreProtocolError` and caches
    nothing.

    The directory must never lack a key the server holds at this
    client's stamp, or a probe would miss a master row.  So it is
    installed only when the ``/keys`` reply's version equals the stamp,
    every reconciled insert adds the row's projection to each list,
    deletes remove nothing (the superset keeps the dead key, whose probe
    then crosses the wire and caches ``()``), and a full cache drop
    clears it together with the LRU, to be fetched again on the next
    probe of each list.  It holds O(distinct keys per probed list),
    bounded by the master rather than by the stream.  It shares the
    LRU's stamp and so its blind spot: a server restarted at the same
    version with other rows goes unnoticed by both (ROADMAP item 1).

    The single keep-alive connection is serialized behind a lock
    (callers sharing one client may call it from several threads);
    workers of a process pool each reattach their own connection from a
    :class:`RemoteStoreHandle`.

    Parameters
    ----------
    url:
        The server's base URL (``http://host:port``).
    schema:
        The master schema; fetched from ``GET /schema`` when omitted.
    probe_cache_size:
        LRU bound (0 disables client-side probe caching).
    timeout:
        Socket timeout per request, seconds.
    poll_interval:
        ``None`` (default): observe the server version only through
        response headers.  A float: additionally re-poll ``GET /version``
        on :attr:`version` reads at most every that-many seconds (``0.0``
        = every read) — needed when *other* clients mutate the master and
        this one must notice between its own requests.
    """

    supports_batched_probes = True

    _ITER_BATCH = 512
    #: Preemptively re-open a connection idle longer than this before the
    #: next request: the server reaps sockets idle past its handler
    #: timeout (60s), and a mutation riding a half-dead keep-alive would
    #: fail non-retriably.  Kept below half the server's reap window.
    _IDLE_RECONNECT_S = 25.0

    def __init__(
        self,
        url: str,
        schema: RelationSchema = None,
        probe_cache_size: int = 4096,
        timeout: float = 10.0,
        poll_interval: float = None,
    ):
        self._probe_cache = _ProbeLRU(probe_cache_size)
        parts = urlsplit(url)
        if parts.scheme != "http" or not parts.hostname:
            raise ValueError(
                f"RemoteStore needs an http://host:port URL, got {url!r}"
            )
        self._url = url.rstrip("/")
        self._host = parts.hostname
        self._port = parts.port or 80
        self._timeout = timeout
        self._poll_interval = poll_interval
        self._closed = False
        self._conn = None
        self._last_request = 0.0
        self._conn_lock = threading.RLock()
        self._cache_lock = threading.RLock()
        self._version = -1  # before the first observation
        self._last_poll = 0.0
        self._active_cache: dict = {}
        self._len_cache = None
        # Key directory: attrs -> every key the master holds on them at
        # ``_version`` (a superset once deletes land).  Cleared in place,
        # never rebound: probe_batch holds one reference across its
        # ``/keys`` fetches.
        self._directory: dict = {}
        self._absent = 0
        self._requests = 0
        self._reconnects = 0
        self._invalidations = 0
        # Delta reconciliation state: a local journal of the reconciled
        # server deltas (so engines stacked on this client can read
        # ``deltas_since`` without a round-trip), and the re-entrancy flag
        # that keeps the nested ``/deltas`` fetch from re-triggering
        # itself off its own response header.
        self._journal = _DeltaJournal()
        self._delta_fetch_active = False
        self.delta_purges = 0
        self.full_drops = 0
        self.probe_ref_calls = 0
        if schema is None:
            payload, _ = self._request("GET", "/schema")
            schema = schema_from_payload(payload["schema"])
        else:
            # Validate reachability eagerly (and observe the version) so a
            # bad --master-url fails at construction with a remedy, not on
            # the first mid-batch probe.
            self._request("GET", "/version")
        self._schema = schema

    # -- transport -----------------------------------------------------------

    def _connect(self) -> http_client.HTTPConnection:
        conn = http_client.HTTPConnection(
            self._host, self._port, timeout=self._timeout
        )
        conn.connect()
        # Requests are written as separate header/body segments; without
        # TCP_NODELAY the body segment can sit behind the server's delayed
        # ACK (~40ms), dwarfing the actual probe cost.
        conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return conn

    def _drop_connection(self) -> None:
        if self._conn is not None:
            try:
                self._conn.close()
            except OSError:
                pass
            self._conn = None
            self._reconnects += 1
            obs.inc("repro_remote_reconnects_total")

    def _unavailable(self, exc: Exception) -> StoreUnavailableError:
        return StoreUnavailableError(
            f"master server at {self._url} is unreachable ({exc}); start "
            f"one with `python -m repro serve-master --master ... --port "
            f"...` or fix --master-url"
        )

    def _request(self, method: str, path: str, payload: dict = None,
                 idempotent: bool = True) -> tuple:
        """One JSON exchange; returns ``(body_dict, observed_version)``.

        Retries once over a fresh connection when the failure happened
        before the request could have been processed — always for
        idempotent reads, only on connect/send errors for mutations.
        """
        endpoint = path.split("?", 1)[0]
        with obs.time_block("repro_remote_request_seconds",
                            endpoint=endpoint):
            try:
                result = self._request_impl(method, path, payload, idempotent)
            except Exception:
                # Transport failures AND server-rejected requests: any
                # exchange that produced no usable result counts as error.
                obs.inc("repro_remote_requests_total",
                        endpoint=endpoint, status="error")
                raise
        obs.inc("repro_remote_requests_total",
                endpoint=endpoint, status="ok")
        return result

    def _request_impl(self, method: str, path: str, payload: dict,
                      idempotent: bool) -> tuple:
        if self._closed:
            raise StoreDetachedError(
                f"this RemoteStore ({self._url}) has been closed; build a "
                f"new RemoteStore(url) or reattach() a detached handle"
            )
        body = None if payload is None else json.dumps(payload).encode("utf-8")
        headers = {"Content-Type": "application/json"} if body else {}
        with self._conn_lock:
            if (
                self._conn is not None
                and time.monotonic() - self._last_request
                >= self._IDLE_RECONNECT_S
            ):
                self._drop_connection()
            for attempt in (0, 1):
                sent = False
                try:
                    if self._conn is None:
                        self._conn = self._connect()
                    self._conn.request(method, path, body=body,
                                       headers=headers)
                    sent = True
                    response = self._conn.getresponse()
                    data = response.read()
                    break
                except _TRANSPORT_ERRORS as exc:
                    self._drop_connection()
                    # A failure during connect/send means the server never
                    # saw a complete request — safe to replay even for
                    # mutations.  After the request went out, only
                    # idempotent exchanges may retry (an /insert replay
                    # could double-insert).
                    retriable = (not sent) or idempotent
                    if attempt or not retriable:
                        raise self._unavailable(exc) from exc
            self._requests += 1
            self._last_request = time.monotonic()
        version = response.getheader(VERSION_HEADER)
        observed = int(version) if version is not None else self._version
        self._observe_version(observed)
        if response.status == 400:
            raise ValueError(json.loads(data.decode("utf-8"))["error"])
        if response.status >= 500:
            # The server is up and answered: its own backing store failed
            # (or lied).  Report what it said, not "unreachable".
            raise StoreError(
                f"master server at {self._url} failed on {method} "
                f"{path.split('?', 1)[0]} (HTTP {response.status}): "
                f"{_error_text(data)}"
            )
        if response.status != 200:
            raise self._unavailable(
                Exception(f"HTTP {response.status} on {path}")
            )
        return json.loads(data.decode("utf-8")), observed

    def _observe_version(self, version: int) -> None:
        """Adopt a piggybacked server version, surgically when possible.

        The first observation adopts silently (nothing is cached yet).
        Later bumps fetch ``GET /deltas?since=<stamp>`` and purge exactly
        the cache lines the changed rows project onto; a ``null`` journal
        answer, a transport failure, or a gapped list falls back to the
        historical full cache drop.  Either way the client lands on the
        server's stamp before the triggering caller returns.
        """
        with self._cache_lock:
            self._last_poll = time.monotonic()
            if version <= self._version:
                return
            if self._delta_fetch_active:
                # The nested /deltas fetch observing its own response
                # header (or a concurrent request racing it): version
                # adoption happens when the fetch completes.
                return
            if self._version < 0:
                self._version = version
                self._journal.reset(version)
                return
            since = self._version
            self._delta_fetch_active = True
        fetched = None
        try:
            fetched = self._fetch_deltas(since)
        finally:
            with self._cache_lock:
                self._delta_fetch_active = False
                self._reconcile(version, since, fetched)

    def _fetch_deltas(self, since: int):
        """``(records, version_at_fetch)`` from the server, or ``None``."""
        try:
            payload, observed = self._request("GET", f"/deltas?since={since}")
        except (StoreError, ValueError):
            return None
        wire = payload.get("deltas")
        if wire is None:
            return None
        records = tuple(
            StoreDelta(v, op, tuple(_decode(c) for c in cells))
            for v, op, cells in wire
        )
        return records, observed

    def _reconcile(self, version: int, since: int, fetched) -> None:
        """Apply a fetched delta list, or fall back to the full drop.

        Runs under the cache lock with ``_version == since`` (the fetch
        flag blocks every other adoption path meanwhile).
        """
        self._invalidations += 1
        if fetched is not None:
            records, observed = fetched
            # One record per version bump; anything else means a gap.
            if len(records) == observed - since:
                for delta in records:
                    self._apply_delta(delta)
                self._version = observed
                self.delta_purges += 1
                return
        self.full_drops += 1
        self._probe_cache.clear()
        self._directory.clear()
        self._active_cache.clear()
        self._len_cache = None
        self._version = max(version, since)
        self._journal.reset(self._version)

    def _apply_delta(self, delta: StoreDelta) -> None:
        """Patch the read-through caches for one journaled mutation."""
        self._probe_cache.purge_row(self._schema, delta.values)
        row = Row(self._schema, delta.values)
        if delta.op == "insert":
            for attr, values in self._active_cache.items():
                values.add(row[attr])
            for attrs, keys in self._directory.items():
                keys.add(tuple(row[a] for a in attrs))
            if self._len_cache is not None:
                self._len_cache += 1
        else:
            # A deleted value may or may not survive in other rows; drop
            # just the affected attribute entries (recomputed lazily).
            for attr in list(self._active_cache):
                if row[attr] in self._active_cache[attr]:
                    del self._active_cache[attr]
            if self._len_cache is not None:
                self._len_cache -= 1
        self._journal.record(delta.version, delta.op, delta.values)

    # -- introspection -------------------------------------------------------

    @property
    def url(self) -> str:
        return self._url

    @property
    def schema(self) -> RelationSchema:
        return self._schema

    @property
    def version(self) -> int:
        if self._poll_interval is not None and not self._closed:
            if time.monotonic() - self._last_poll >= self._poll_interval:
                self.poll_version()
        return self._version

    def poll_version(self) -> int:
        """Force one ``GET /version`` round-trip; returns the fresh stamp."""
        self._request("GET", "/version")
        return self._version

    def deltas_since(self, version: int):
        """Mutations strictly after *version*, from the local journal.

        Served without a round-trip: every observed bump is recorded as it
        is reconciled (full drops reset the journal), so engines stacked
        on this client get the same delta contract as the in-process
        backends.  Reads the raw stamp — no poll: callers ask about
        versions they already observed.
        """
        with self._cache_lock:
            return self._journal.since(version, self._version)

    def adopt_deltas(self, deltas, version: int) -> bool:
        """Resync to the parent's *version*; the row data is server-side.

        The shipped list is advisory here: the client runs its usual
        fetch-or-drop reconciliation against the server's own journal,
        which is the source of truth it mirrors, exactly as when a
        response header carries a newer stamp.
        """
        self._observe_version(version)
        return self._version >= version

    def __len__(self) -> int:
        with self._cache_lock:
            if self._len_cache is not None:
                return self._len_cache
        payload, observed = self._request("GET", "/len")
        count = payload["len"]
        with self._cache_lock:
            if self._version == observed:
                self._len_cache = count
        return count

    def __iter__(self) -> Iterator[Row]:
        return self.iter_from(0)

    def iter_from(self, start: int) -> Iterator[Row]:
        # Windowed like SqliteStore.__iter__; offsets (not rids) are the
        # cursor, so rows inserted/deleted behind the current offset can
        # shift the window — iterate-under-mutation sees a best-effort
        # snapshot, as documented for every out-of-core backend.
        start = max(start, 0)
        while True:
            payload, _ = self._request(
                "GET", f"/rows?start={start}&limit={self._ITER_BATCH}"
            )
            rows = payload["rows"]
            if not rows:
                return
            for cells in rows:
                yield _decode_row(self._schema, cells)
            start += len(rows)

    # -- probes --------------------------------------------------------------

    def ensure_index(self, attrs: Iterable) -> None:
        self._request("POST", "/ensure_index",
                      {"attrs": list(tuple(attrs))})

    def probe_batch(self, probes: Iterable) -> list:
        """Keys absent from the directory and LRU hits served locally;
        every other miss in one ``/probe_many``."""
        # Cache hits and round-trips share one span: the latency
        # distribution is supposed to show the hit/miss mix.
        with obs.time_block("repro_store_probe_seconds", backend="remote"):
            lines = [_probe_pair(attrs, key) for attrs, key in probes]
            directory = self._directory
            for attrs in {attrs for attrs, _ in lines
                          if attrs not in directory}:
                self._fetch_keys(attrs)
            results: list = []
            pending: dict = {}  # (attrs, key) -> (encoded key, result slots)
            with self._cache_lock:
                absent = 0
                for line in lines:
                    keys = directory.get(line[0])
                    if (keys is not None and line[1] not in keys
                            and _vouched(line[1])):
                        absent += 1
                        results.append(())
                        continue
                    cached = self._probe_cache.get(line)
                    if cached is None:
                        # A miss is filled in from the reply; an
                        # unstorable key matches nothing and is never
                        # cached.
                        waiting = pending.get(line)
                        if waiting is not None:
                            waiting[1].append(len(results))
                        else:
                            encoded = _wire_key(line[1])
                            if encoded is not None:
                                pending[line] = (encoded, [len(results)])
                        cached = ()
                    results.append(cached)
                self._absent += absent
                self.probe_ref_calls += len(results)
            if pending:
                self._fetch(pending, results)
            return results

    def _fetch_keys(self, attrs: tuple) -> None:
        """Install the master's keys on *attrs* if read at this stamp.

        A reply read at another version is dropped, not patched: the
        list's probes then take the LRU path, and the next call asks
        again.  A reply from an older version may lack keys whose insert
        deltas were reconciled before it arrived; one from a newer
        version may lack a deleted key the LRU, still at this stamp,
        answers rows for.
        """
        payload, observed = self._request(
            "POST", "/keys", {"attrs": list(attrs)}
        )
        keys = {tuple(_decode(c) for c in key) for key in payload["keys"]}
        with self._cache_lock:
            if self._version == observed:
                self._directory[attrs] = keys

    def _fetch(self, pending: dict, results: list) -> None:
        """Read the ``(attrs, key) -> (encoded key, slots)`` misses in one
        ``/probe_many`` into their result slots and the LRU."""
        payload, observed = self._request(
            "POST", "/probe_many",
            {"probes": [
                [list(attrs), encoded]
                for (attrs, _), (encoded, _) in pending.items()
            ]},
        )
        answers = payload["results"]
        echoed = payload.get("count", len(answers))
        if len(answers) != len(pending) or echoed != len(pending):
            # NEVER zip-truncate: a short (or padded) reply silently
            # resolved — and LRU-cached — the unpaired keys as "no
            # match", corrupting fixes.  Nothing from this response may
            # be returned or cached.
            raise StoreProtocolError(
                f"{self._url}/probe_many answered {len(answers)} result "
                f"lists (count echo {echoed}) for {len(pending)} probe "
                f"keys; refusing to pair them up — no result was cached "
                f"or resolved.  The server and client disagree about the "
                f"request: check for a proxy mangling request bodies or "
                f"a server/client version skew"
            )
        resolved = []
        for (line, (_, slots)), cells_list in zip(pending.items(), answers):
            rows = tuple(
                _decode_row(self._schema, cells) for cells in cells_list
            )
            resolved.append((line, rows))
            for slot in slots:
                results[slot] = rows
        # Cache only under the stamp the rows were read at: a concurrent
        # observation of a newer version means they may be stale and must
        # not outlive the invalidation that just happened.
        with self._cache_lock:
            if self._version == observed:
                for line, rows in resolved:
                    self._probe_cache.put(line, rows)

    def active_values(self, attr: str) -> set:
        self._schema.index_of(attr)  # KeyError for foreign attrs, as local
        with self._cache_lock:
            cached = self._active_cache.get(attr)
            if cached is not None:
                return set(cached)
        payload, observed = self._request(
            "POST", "/active_values", {"attr": attr}
        )
        values = {_decode(v) for v in payload["values"]}
        with self._cache_lock:
            if self._version == observed:
                self._active_cache[attr] = values
        return set(values)

    def probe_cache_info(self) -> dict:
        """LRU accounting for the benchmark layer (sqlite-compatible),
        plus the key directory's: ``absent`` probes it answered and the
        ``directory_keys`` it holds."""
        with self._cache_lock:
            info = self._probe_cache.info()
            info["probe_ref_calls"] = self.probe_ref_calls
            info["absent"] = self._absent
            info["directory_keys"] = sum(
                len(keys) for keys in self._directory.values()
            )
            return info

    def connection_info(self) -> dict:
        """Transport accounting: requests, reconnects, observed version."""
        with self._cache_lock:
            return {
                "url": self._url,
                "requests": self._requests,
                "reconnects": self._reconnects,
                "invalidations_observed": self._invalidations,
                "delta_purges": self.delta_purges,
                "full_drops": self.full_drops,
                "version": self._version,
            }

    # -- mutation ------------------------------------------------------------

    def insert(self, row) -> None:
        row = self._coerce(row)
        self._request("POST", "/insert",
                      {"row": _encode_values(row.values)}, idempotent=False)

    def delete(self, row) -> bool:
        row = self._coerce(row)
        try:
            encoded = _encode_values(row.values)
        except TypeError:
            return False  # unstorable values match nothing
        payload, _ = self._request("POST", "/delete", {"row": encoded},
                                   idempotent=False)
        return payload["deleted"]

    def update(self, old, new) -> bool:
        """Server-side delete-then-insert: one round-trip, atomic under
        the server's store lock (no other client can observe the gap)."""
        old, new = self._coerce(old), self._coerce(new)
        try:
            encoded_old = _encode_values(old.values)
        except TypeError:
            return False
        payload, _ = self._request(
            "POST", "/update",
            {"old": encoded_old, "new": _encode_values(new.values)},
            idempotent=False,
        )
        return payload["updated"]

    def _coerce(self, row) -> Row:
        if not isinstance(row, Row):
            return Row(self._schema, row)
        if row.schema.attributes != self._schema.attributes:
            raise ValueError(
                f"row schema {row.schema.name!r} does not match store "
                f"schema {self._schema.name!r}"
            )
        return row

    # -- process-boundary protocol -------------------------------------------

    def detach(self) -> "RemoteStoreHandle":
        """A picklable handle reconnecting to the same server elsewhere.

        Carries the URL (the server is the shared storage), the schema by
        value (workers skip the ``/schema`` fetch) and this client's
        version stamp.
        """
        if self._closed:
            raise StoreDetachedError(
                f"this RemoteStore ({self._url}) has been closed; build a "
                f"new RemoteStore(url) or reattach() a detached handle"
            )
        return RemoteStoreHandle(
            url=self._url,
            schema=self._schema,
            probe_cache_size=self._probe_cache.maxsize,
            timeout=self._timeout,
            poll_interval=self._poll_interval,
            version=self._version,
        )

    def close(self) -> None:
        """Drop the connection; later operations raise
        :class:`StoreDetachedError` with a remedy."""
        with self._conn_lock:
            self._closed = True
            if self._conn is not None:
                try:
                    self._conn.close()
                except OSError:
                    pass
                self._conn = None

    def __repr__(self) -> str:
        if self._closed:
            return f"RemoteStore({self._url}, closed)"
        return (
            f"RemoteStore({self._url}, schema={self._schema.name!r}, "
            f"version={self._version})"
        )


@dataclass(frozen=True)
class RemoteStoreHandle:
    """Connection-free reference to a :class:`RemoteStore` (process hops)."""

    url: str
    schema: RelationSchema
    probe_cache_size: int
    timeout: float
    poll_interval: float
    version: int

    def reattach(self) -> RemoteStore:
        """Open a fresh connection in this process.

        Raises :class:`StoreUnavailableError` (with the serve-master
        remedy) when the server has gone away.  The reattached client
        starts at the *newest* of the handle's stamp and the server's
        current version — the server is the single source of truth, so a
        mutation that happened after detach is adopted immediately rather
        than discovered one probe late.
        """
        store = RemoteStore(
            self.url,
            schema=self.schema,
            probe_cache_size=self.probe_cache_size,
            timeout=self.timeout,
            poll_interval=self.poll_interval,
        )
        store._observe_version(self.version)
        return store
