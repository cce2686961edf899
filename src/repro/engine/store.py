"""MasterStore: pluggable backends for master-data access.

Every certain-fix guarantee in the paper flows from probes against the
master relation ``Dm``: Sect. 5.1 argues TransFix's complexity by noting
"it takes constant time to check whether there exists a master tuple that
is applicable to t with an eR, by using a hash table that stores tm[Xm] as
a key".  :meth:`MasterStore.probe_batch` is that hash-table lookup lifted
to an interface (many keys per call), so the repair layer no longer assumes
masters are in-memory :class:`~repro.engine.relation.Relation` objects:

* :class:`InMemoryStore` wraps the existing ``Relation`` + cached
  :class:`~repro.engine.index.HashIndex` machinery (the paper's setting);
* :class:`SqliteStore` serves out-of-core masters from indexed sqlite
  tables with an LRU probe cache in front, so ``Dm`` no longer has to fit
  in RAM.

Both expose a monotonic :attr:`MasterStore.version` counter bumped by every
``insert`` / ``delete`` / ``update`` of a master tuple.  The repair engines
stamp their shared caches (certain regions, Suggest⁺ BDD, validated-pattern
memos) with the version they were built against and rebuild lazily when it
moves — incremental master updates therefore invalidate exactly the state
the paper says is reusable only "as long as Σ and Dm are unchanged".

Mutation contract: route every master mutation through the store (or, for
:class:`InMemoryStore`, through the wrapped relation's ``insert`` /
``delete``, which feed the same counter).  ``update`` is delete-then-insert
in every backend, so a replaced tuple moves to iteration end identically
everywhere — keeping fix output bit-identical per backend.

Process boundaries: sqlite connections (and, for that matter, a worker's
private copy of an in-memory master) cannot cross a ``fork``/``spawn``
boundary, so stores that can be rehydrated in another process implement
:meth:`MasterStore.detach`, returning a picklable handle whose
``reattach()`` re-opens the backend there — carrying the parent's version
stamp so the worker's derived caches line up with the parent's version
stream.  The batch engine's process pool ships one handle per worker via
the pool initializer; a live worker then catches up only through
:meth:`MasterStore.adopt_deltas`, and the pool is respawned whenever the
parent's journal cannot bridge the gap.

Delta protocol: dropping *every* derived cache per mutation is correct
but costs 0.6–1.7s per master update at bench scale, so each local
backend keeps a bounded **delta journal** — the last
``DEFAULT_DELTA_WINDOW`` mutations as :class:`StoreDelta` records
``(version, op, values)``, where ``op`` is ``"insert"`` or ``"delete"``
and an ``update`` appears as its delete+insert pair over two version
bumps.  :meth:`MasterStore.deltas_since` returns the records strictly
after a consumer's stamp, or ``None`` whenever it cannot *prove* the
list is complete: the stamp fell out of the window, the journal saw a
version gap (bulk loads, ``replace_all``, mutations applied directly to
a wrapped relation, reattach stamps), or the backend keeps no journal at
all (the base class).  ``None`` means "fall back to today's full drop",
so every consumer remains correct unconditionally — the journal only
ever *narrows* invalidation, never skips it.  Window sizing trades
memory (one record per mutation) against how far a consumer may lag
before it pays a full rebuild; the default 256 covers any realistic
batch-engine lag (consumers resync on the next fix, i.e. within a
chunk).  :meth:`MasterStore.adopt_deltas` is the worker-side converse:
apply a parent's delta list and land on its stamp, returning False when
the list cannot be applied cleanly (the batch engine then fails the
chunk with a typed :class:`StoreError` rather than monitor against a
diverged master).

:class:`SqliteStore` persists its version in the database file, so a
reopened file resumes its version stream instead of restarting at 0.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import sqlite3
import threading
from abc import ABC, abstractmethod
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Iterable, Iterator

from repro import obs
from repro.engine.relation import Relation
from repro.engine.schema import RelationSchema
from repro.engine.tuples import Row
from repro.engine.values import NULL, UNKNOWN


class StoreError(RuntimeError):
    """A master-store *infrastructure* failure (not a data error).

    Data-shape problems (mismatched probe keys, foreign schemas) stay
    ``ValueError``/``TypeError``; :class:`StoreError` subclasses mean the
    backend itself is gone — a closed connection, a vanished database
    file, an unreachable master server.  Every instance carries remedy
    text, and the batch engine surfaces them in
    :class:`~repro.repair.batch.BatchReport` (``store_errors``) so a
    failed run names the infrastructure cause instead of a bare
    ``RuntimeError``.
    """


class StoreDetachedError(StoreError):
    """An operation hit a store whose backend connection was closed.

    Raised by backends after :meth:`MasterStore` consumers call ``close()``
    (or use a handle whose owner went away); the message names how to
    re-open.
    """


class StoreUnavailableError(StoreError):
    """The store's backing service or file cannot be reached.

    Raised by :meth:`SqliteStoreHandle.reattach` when the shared database
    file no longer exists, and by the remote backend when the master
    server is unreachable; the message names the missing resource and the
    remedy.
    """


class StoreProtocolError(StoreError):
    """A backend answered, but the answer violates the store protocol.

    Raised when a response cannot be reconciled with the request that
    produced it — e.g. a ``/probe_many`` reply (or a backing store's
    ``probe_batch``) carrying fewer or more result lists than probe keys
    sent.  A short reply used to be silently ``zip``-truncated
    and the missing keys resolved (and cached!) as "no match", corrupting
    fixes; the typed error makes the lying backend loud instead, and
    nothing from such a response may land in any cache.  The message
    names both counts and the offending endpoint/backend.
    """


#: Default journal window: how many of the latest mutations a backend
#: keeps as deltas before a lagging consumer must pay a full cache drop.
DEFAULT_DELTA_WINDOW = 256


@dataclass(frozen=True)
class StoreDelta:
    """One journaled master mutation.

    ``op`` is ``"insert"`` or ``"delete"`` (an ``update`` journals as a
    delete+insert pair over two consecutive versions); ``values`` is the
    full tuple of the affected row — the row *is* its own key, matching
    the store write API, and carries everything a consumer needs to
    project the delta onto any probe key or rule pattern.
    """

    version: int
    op: str
    values: tuple


class _DeltaJournal:
    """Bounded, gap-aware log of the latest mutations of one store.

    Records cover the contiguous version range ``(_floor, last]``.  Any
    version bump the journal did not witness (bulk loads, direct
    relation mutations, reattach stamps) shows up as a gap; the journal
    then discards its history so :meth:`since` degrades to ``None`` —
    the unconditional full-drop fallback — rather than ever returning an
    incomplete delta list.  Not thread-safe; callers hold the store
    lock, exactly as for the surrounding version bookkeeping.
    """

    __slots__ = ("_records", "_floor")

    def __init__(self):
        self._records: deque = deque()
        self._floor = 0

    def record(self, version: int, op: str, values: tuple) -> None:
        """Append one mutation; a non-consecutive *version* clears history."""
        expected = (
            self._records[-1].version if self._records else self._floor
        ) + 1
        if version != expected:
            self._records.clear()
            self._floor = version - 1
        self._records.append(StoreDelta(version, op, tuple(values)))
        while len(self._records) > DEFAULT_DELTA_WINDOW:
            dropped = self._records.popleft()
            self._floor = dropped.version

    def reset(self, version: int) -> None:
        """Drop history and restart the contiguous range at *version*.

        Called after any bulk mutation (loads, ``replace_all``,
        full-path resyncs): consumers stamped before *version* fall back
        to a full drop, consumers stamped at it see an empty delta list.
        """
        self._records.clear()
        self._floor = version

    def since(self, start: int, current: int):
        """Deltas strictly after *start* up to *current*, or ``None``.

        ``None`` whenever completeness cannot be proven: *start* is out
        of the window, the journal's head does not reach *current* (a
        bump bypassed the journal), or *start* is from the future.
        """
        if start > current:
            return None
        if start == current:
            return ()
        if not self._records:
            return None
        if self._records[-1].version != current:
            return None
        if start < self._floor:
            return None
        return tuple(r for r in self._records if r.version > start)


def _pending_deltas(deltas, current: int, version: int):
    """The part of a parent's delta list this store still has to apply.

    *deltas* covers some contiguous version range ending at *version*; a
    prefix at or below the store's own stamp *current* was applied
    already (a worker that saw an earlier mutation is handed the whole
    gap since the slowest worker's stamp) and is skipped.  Returns the
    remaining records, exactly ``current + 1 .. version`` with known ops,
    or ``None`` when the list cannot bridge that range.
    """
    if deltas is None:
        return None
    deltas = tuple(deltas)
    for before, after in zip(deltas, deltas[1:]):
        if after.version != before.version + 1:
            return None
    pending = tuple(d for d in deltas if d.version > current)
    if len(pending) != version - current:
        return None
    if pending and pending[0].version != current + 1:
        return None
    if any(d.op not in ("insert", "delete") for d in pending):
        return None
    return pending


def _probe_pair(attrs: Iterable, key) -> tuple:
    """``(attrs, key)`` as tuples; ``ValueError`` when their lengths differ.

    The probe-key arity check of every backend's keyed read.
    """
    attrs = tuple(attrs)
    key = tuple(key)
    if len(attrs) != len(key):
        raise ValueError(
            f"probe key {key} does not match attribute list {attrs}"
        )
    return attrs, key


class MasterStore(ABC):
    """Abstract master-data backend.

    The read API mirrors how the repair layer touches ``Dm``: keyed probes
    through the one abstract :meth:`probe_batch` (with :meth:`probe_ref`,
    :meth:`probe`, :meth:`probe_many` and :meth:`contains_key` derived from
    it), full iteration (region search and witness sweeps), size, and
    per-column active values.  The write API (:meth:`insert` /
    :meth:`delete` / :meth:`update`) bumps :attr:`version`.  A few
    ``Relation``-compatible aliases (``lookup``, ``scan_lookup``, ``rows``)
    keep older call sites and external code working unchanged when handed
    a store.
    """

    # -- read API ------------------------------------------------------------

    @property
    @abstractmethod
    def schema(self) -> RelationSchema:
        """The master schema ``Rm``."""

    @property
    @abstractmethod
    def version(self) -> int:
        """Monotonic counter; moves iff the master data changed."""

    def poll_version(self) -> int:
        """:attr:`version` as the backing data holds it now.

        In-process backends are always current.  A client-side store
        (:class:`~repro.engine.remote.RemoteStore`) answers from caches
        that are only as fresh as its last response, so it overrides this
        with one round-trip that reconciles them first.
        """
        return self.version

    @abstractmethod
    def __len__(self) -> int:
        """Number of master tuples."""

    @abstractmethod
    def __iter__(self) -> Iterator[Row]:
        """Iterate master tuples in insertion order."""

    def iter_from(self, start: int) -> Iterator[Row]:
        """Insertion-order iteration beginning at position *start*.

        The paging primitive behind the remote ``/rows`` endpoint: a
        server answering windowed row requests calls this per window, so
        backends that can *seek* (sqlite, via one ``OFFSET`` query)
        override it to keep paged iteration O(n) overall instead of
        re-iterating and discarding ``start`` rows per window.  The
        default iterates and discards.
        """
        return itertools.islice(iter(self), start, None)

    @abstractmethod
    def probe_batch(self, probes: Iterable) -> list:
        """Keyed probes ``tm[attrs] == key`` (Sect. 5.1), many at once.

        The one keyed read every backend implements; :meth:`probe_ref`,
        :meth:`probe` and :meth:`probe_many` derive from it.  *probes* is
        a sequence of ``(attrs, key)`` pairs over any mix of attribute
        lists; the result lists the matching master tuples of each pair,
        in input order.  Results may alias internal state (a hash bucket,
        a cache line) and MUST NOT be mutated.  A key whose length differs
        from its attribute list raises ``ValueError``.  The chase reads
        every rule key of one step through a single call, so backends
        with per-probe round-trip cost (sqlite, remote) answer a batch
        with one plan.
        """

    def probe_ref(self, attrs: Iterable, key):
        """No-copy single probe for read-only hot paths.

        Mirrors the ``HashIndex.get`` / ``get_ref`` split: the result may
        alias internal state and MUST NOT be mutated.
        """
        return self.probe_batch([(attrs, key)])[0]

    def probe(self, attrs: Iterable, key) -> tuple:
        """Master tuples ``tm`` with ``tm[attrs] == key``, as a tuple.

        The immutable copy of :meth:`probe_ref`: no caller can corrupt an
        internal bucket or cache line by mutating the result.
        """
        return tuple(self.probe_ref(attrs, key))

    def probe_many(self, attrs: Iterable, keys: Iterable) -> dict:
        """``{tuple(key): self.probe(attrs, key)}`` per key, in one read.

        Duplicate keys collapse onto one entry; the distinct keys go to
        :meth:`probe_batch` in a single call.
        """
        attrs = tuple(attrs)
        keys = list(dict.fromkeys(tuple(key) for key in keys))
        found = self.probe_batch([(attrs, key) for key in keys])
        return {key: tuple(rows) for key, rows in zip(keys, found)}

    @abstractmethod
    def ensure_index(self, attrs: Iterable) -> None:
        """Force the probe index over *attrs* so later probes are O(1)."""

    @abstractmethod
    def active_values(self, attr: str) -> set:
        """The set of values appearing in master column *attr*."""

    def contains_key(self, attrs: Iterable, key) -> bool:
        """Whether any master tuple matches ``tm[attrs] == key``."""
        return bool(self.probe_ref(attrs, key))

    def scan_probe(self, attrs: Iterable, key) -> tuple:
        """Index-free probe (the ablation A2 baseline)."""
        attrs = tuple(attrs)
        key = tuple(key)
        return tuple(tm for tm in self if tm[attrs] == key)

    # -- process-boundary protocol -------------------------------------------

    #: Whether :meth:`probe_batch` is cheaper than a probe loop here (drives
    #: the batch engine's chunk warm-up; pure-RAM backends gain nothing).
    supports_batched_probes = False

    def detach(self):
        """A picklable handle that rehydrates this store in another process.

        Returns an object with a ``reattach() -> MasterStore`` method and a
        ``version`` attribute equal to this store's version at detach time
        (the reattached store starts at that stamp, so version-stamped
        caches built against it compare correctly with the parent's
        version stream).  Backends that cannot cross a process boundary
        raise ``ValueError`` with a remedy.
        """
        raise ValueError(
            f"{type(self).__name__} does not support crossing a "
            f"fork/spawn boundary (no detach() implementation)"
        )

    # -- delta protocol ------------------------------------------------------

    def deltas_since(self, version: int):
        """Mutations strictly after *version*, or ``None`` if unknowable.

        Returns a tuple of :class:`StoreDelta` records covering every
        version bump in ``(version, self.version]`` — possibly empty
        when the stamps already match — or ``None`` when the backend
        cannot prove the list is complete (stamp out of the journal
        window, version bumps that bypassed the journal, or no journal
        at all).  ``None`` instructs consumers to fall back to a full
        cache drop, so correctness never depends on the journal.
        """
        return None

    def adopt_deltas(self, deltas, version: int) -> bool:
        """Apply a parent's delta list and land on its *version* stamp.

        The one way a reattached worker store catches up with its parent:
        returns True iff the store's contents now equal the parent's at
        *version*.  False (the default) means the deltas could not be
        applied cleanly here; the store must then be re-created from a
        fresh :meth:`detach` handle.
        """
        return False

    # -- write API -----------------------------------------------------------

    @abstractmethod
    def insert(self, row) -> None:
        """Append a master tuple; bumps :attr:`version`."""

    @abstractmethod
    def delete(self, row) -> bool:
        """Remove one master tuple equal to *row*; True iff removed.

        A successful delete bumps :attr:`version`; a miss does not.
        """

    def update(self, old, new) -> bool:
        """Replace *old* with *new* (delete-then-insert in every backend).

        Returns False (and mutates nothing) when *old* is absent.  The
        replacement lands at iteration end in all backends, which keeps
        backend outputs bit-identical after updates.
        """
        if not self.delete(old):
            return False
        self.insert(new)
        return True

    # -- Relation-compatible aliases -----------------------------------------

    def lookup(self, attrs: Iterable, key) -> tuple:
        """Alias of :meth:`probe` (``Relation``-compatible spelling)."""
        return self.probe(attrs, key)

    def scan_lookup(self, attrs: Iterable, key) -> tuple:
        """Alias of :meth:`scan_probe` (``Relation``-compatible spelling)."""
        return self.scan_probe(attrs, key)

    @property
    def rows(self) -> list:
        """A materialized copy of all master tuples (external callers only)."""
        return list(self)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}({self.schema.name!r}, {len(self)} rows, "
            f"version={self.version})"
        )


class InMemoryStore(MasterStore):
    """The paper's setting: ``Dm`` in RAM behind cached hash indexes.

    A thin adapter over :class:`~repro.engine.relation.Relation`; probes
    reuse the relation's per-attribute-list :class:`HashIndex` cache, and
    ``version`` is the relation's mutation counter, so mutations made
    directly on the wrapped relation are noticed too.
    """

    def __init__(self, relation: Relation):
        self._relation = relation
        self._journal = _DeltaJournal()
        self._journal.reset(relation.mutation_count)
        self.probe_ref_calls = 0

    @classmethod
    def from_rows(
        cls, schema: RelationSchema, rows: Iterable = ()
    ) -> "InMemoryStore":
        return cls(Relation(schema, rows))

    @property
    def relation(self) -> Relation:
        """The wrapped relation (escape hatch for algebra operations)."""
        return self._relation

    @property
    def schema(self) -> RelationSchema:
        return self._relation.schema

    @property
    def version(self) -> int:
        return self._relation.mutation_count

    def __len__(self) -> int:
        return len(self._relation)

    def __iter__(self) -> Iterator[Row]:
        return self._relation.iter_rows()

    def iter_from(self, start: int) -> Iterator[Row]:
        # O(1) seek into the backing list (the default would re-iterate
        # and discard `start` rows per /rows window when this store backs
        # a MasterServer, turning paged iteration quadratic).
        relation = self._relation
        index = max(start, 0)
        while index < len(relation):
            yield relation.row_at(index)
            index += 1

    def probe_ref(self, attrs: Iterable, key):
        # The hot path: the relation's lookup aliases the live index
        # bucket (it shrinks under deletes and grows under inserts).  A
        # plain-int counter is the only telemetry it can afford.
        self.probe_ref_calls += 1
        attrs, key = _probe_pair(attrs, key)
        return self._relation.lookup(attrs, key)

    def probe_batch(self, probes: Iterable) -> list:
        # Looked up on the instance, so a wrapper rebinding probe_ref on
        # this store (a tracer counting reads) sees every read.
        probe_ref = self.probe_ref
        return [probe_ref(attrs, key) for attrs, key in probes]

    def ensure_index(self, attrs: Iterable) -> None:
        self._relation.index_on(attrs)

    def active_values(self, attr: str) -> set:
        return self._relation.active_values(attr)

    def scan_probe(self, attrs: Iterable, key) -> tuple:
        return tuple(self._relation.scan_lookup(attrs, key))

    def insert(self, row) -> None:
        self._relation.insert(row)
        # The journal's gap detection handles mutations made directly on
        # the wrapped relation (they bump the counter without a record):
        # the next deltas_since over such a gap degrades to None.
        row = self._relation.row_at(len(self._relation) - 1)
        self._journal.record(
            self._relation.mutation_count, "insert", tuple(row.values)
        )

    def delete(self, row) -> bool:
        values = tuple(
            row.values if isinstance(row, Row) else Row(self.schema, row).values
        )
        if not self._relation.delete(row):
            return False
        self._journal.record(
            self._relation.mutation_count, "delete", values
        )
        return True

    # -- delta protocol ------------------------------------------------------

    def deltas_since(self, version: int):
        return self._journal.since(version, self._relation.mutation_count)

    def adopt_deltas(self, deltas, version: int) -> bool:
        """Replay a parent's delta list onto this snapshot copy.

        Validates (via :func:`_pending_deltas`) that the list bridges this
        store's stamp to *version* before touching anything, skipping a
        prefix this copy already applied; a delete that misses mid-replay
        returns False (contents diverged — the copy must be discarded and
        reattached from a fresh handle).
        """
        pending = _pending_deltas(
            deltas, self._relation.mutation_count, version
        )
        if pending is None:
            return False
        for delta in pending:
            row = Row(self.schema, delta.values)
            if delta.op == "insert":
                self.insert(row)
            elif not self.delete(row):
                return False
        return self._relation.mutation_count == version

    # -- process-boundary protocol -------------------------------------------

    def detach(self) -> "MemoryStoreHandle":
        """Snapshot (schema, rows, version) into a picklable handle.

        The snapshot is by value: a worker's reattached copy does NOT see
        later parent mutations — it replays them through
        :meth:`adopt_deltas` (see ``BatchRepairEngine._task_for``).
        """
        return MemoryStoreHandle(
            schema=self.schema,
            rows=tuple(self._relation.iter_rows()),
            version=self.version,
        )


class _ProbeLRU:
    """Bounded LRU of ``(attrs, key) -> immutable probe tuple`` lines.

    Shared by every backend fronting a slow medium (sqlite, HTTP): one
    implementation of the hit/miss accounting, recency bumping and
    eviction, so cache fixes cannot silently diverge per backend.  Not
    itself thread-safe — callers hold their own lock around ``get``/
    ``put``, exactly as they must around the surrounding bookkeeping.
    """

    __slots__ = ("_data", "maxsize", "hits", "misses", "evictions", "purged")

    def __init__(self, maxsize: int):
        if maxsize < 0:
            raise ValueError(f"probe_cache_size must be >= 0, got {maxsize}")
        self._data: OrderedDict = OrderedDict()
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self.evictions = 0  # capacity evictions (LRU tail dropped)
        self.purged = 0     # delta-targeted removals (purge_row)

    def get(self, key):
        """The cached line (bumped most-recent) or None; counts hit/miss."""
        entry = self._data.get(key)
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        self._data.move_to_end(key)
        return entry

    def put(self, key, value) -> None:
        if not self.maxsize:
            return
        self._data[key] = value
        while len(self._data) > self.maxsize:
            self._data.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        self._data.clear()

    def pop(self, key) -> None:
        """Drop one line without touching the hit/miss accounting."""
        if self._data.pop(key, None) is not None:
            self.purged += 1

    def purge_row(self, schema, values) -> int:
        """Evict exactly the lines a mutated master row can affect.

        A probe ``(attrs, key)`` changes iff the row projects onto the
        key: ``row[attrs] == key``.  Lines keyed on attribute lists the
        row cannot project onto (unstorable values never enter the
        cache, so projection always succeeds) stay valid — this is the
        per-key purge that replaces a full ``clear()`` on the delta
        path.  Returns the number of lines dropped.
        """
        positions: dict = {}
        doomed = []
        for attrs, key in self._data:
            pos = positions.get(attrs)
            if pos is None:
                pos = positions[attrs] = [schema.index_of(a) for a in attrs]
            if tuple(values[p] for p in pos) == key:
                doomed.append((attrs, key))
        for line in doomed:
            del self._data[line]
        self.purged += len(doomed)
        return len(doomed)

    def __len__(self) -> int:
        return len(self._data)

    def info(self) -> dict:
        """Accounting snapshot (the benchmark layer's shape)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "size": len(self._data),
            "maxsize": self.maxsize,
            "evictions": self.evictions,
            "purged": self.purged,
        }


# -- sqlite value codec --------------------------------------------------------
#
# The codec must reproduce Python's equality semantics, because that is what
# the in-memory backend's dict-keyed hash buckets match by:
#
# * cross-type string/number matches must FAIL (the csv loaders deliberately
#   coerce int-domain cells so 87 != "87") — hence tagged TEXT cells rather
#   than sqlite's own affinity rules;
# * cross-type numeric matches must SUCCEED (2 == 2.0 == True in every dict
#   lookup) — hence bools and integral floats collapse onto the integer
#   encoding.  Decoding such a value yields the int, which is ``==`` (and
#   hashes identically) to whatever numeric spelling was stored, keeping
#   probe/chase/suggest behaviour bit-identical across backends.

_TAG_NULL = "\x00N"
_TAG_UNKNOWN = "\x00U"


def _encode(value) -> str:
    if value is NULL:
        return _TAG_NULL
    if value is UNKNOWN:
        return _TAG_UNKNOWN
    if isinstance(value, (bool, int)):
        return f"i{int(value)}"
    if isinstance(value, float):
        if value.is_integer():
            return f"i{int(value)}"
        return f"f{value!r}"
    if isinstance(value, str):
        return "s" + value
    raise TypeError(
        f"SqliteStore cannot store a {type(value).__name__} value "
        f"({value!r}); supported: str, int, float, bool, NULL, UNKNOWN"
    )


def _decode(cell: str):
    if cell == _TAG_NULL:
        return NULL
    if cell == _TAG_UNKNOWN:
        return UNKNOWN
    tag, body = cell[0], cell[1:]
    if tag == "s":
        return body
    if tag == "i":
        return int(body)
    if tag == "f":
        return float(body)
    raise ValueError(f"corrupt SqliteStore cell {cell!r}")


class SqliteStore(MasterStore):
    """Out-of-core master data behind indexed sqlite tables.

    Rows live in one table (``rid`` preserving insertion order, one tagged
    TEXT column per attribute).  :meth:`probe_batch` creates the matching
    sqlite index on first use and fronts it with a bounded LRU cache keyed
    on ``(attrs, key)``; every mutation bumps :attr:`version` and drops the
    probe / active-value caches, so a stale hit can never survive a master
    update.  The connection is shared across threads behind a lock
    (``serve-master`` handler threads, and callers sharing one store,
    reach it concurrently).
    """

    _ITER_BATCH = 1024

    def __init__(
        self,
        schema: RelationSchema,
        rows: Iterable = (),
        path=None,
        probe_cache_size: int = 4096,
        fresh: bool = False,
    ):
        """Open (or create) the store and append *rows*.

        An existing database at *path* keeps its rows and its version —
        reopening a previously-loaded master is the out-of-core workflow —
        so loaders that treat their row source as the full truth (e.g. the
        CLI re-streaming a master CSV into the same file) must pass
        ``fresh=True`` to replace the table instead of appending to it.
        """
        self._probe_cache = _ProbeLRU(probe_cache_size)
        self._schema = schema
        self._path = None if path is None else str(path)
        self._columns = [f"c{i}" for i in range(len(schema))]
        self._closed = False
        self._lock = threading.RLock()
        # Autocommit: every mutation is durable immediately (a closed
        # on-disk store reopens with its rows), matching the one-statement
        # granularity of the write API.
        self._db = sqlite3.connect(
            ":memory:" if path is None else str(path),
            check_same_thread=False,
            isolation_level=None,
        )
        column_defs = ", ".join(f"{c} TEXT NOT NULL" for c in self._columns)
        self._db.execute(
            f"CREATE TABLE IF NOT EXISTS master "
            f"(rid INTEGER PRIMARY KEY AUTOINCREMENT, {column_defs})"
        )
        # Row count and version from one read snapshot of the file.
        with self._transaction():
            self._count = self._db.execute(
                "SELECT COUNT(*) FROM master"
            ).fetchone()[0]
            self._version = self._db.execute(
                "PRAGMA user_version"
            ).fetchone()[0]
        self._indexed: set = set()
        self._probe_sql: dict = {}  # (attrs, key count) -> SELECT text
        self._active_cache: dict = {}
        self._journal = _DeltaJournal()
        self._journal.reset(self._version)
        self.probe_ref_calls = 0
        self._insert_many(rows, replace=fresh)

    @classmethod
    def from_relation(cls, relation: Relation, path=None, **kwargs) -> "SqliteStore":
        """Load an in-memory relation into a (possibly on-disk) sqlite store."""
        return cls(relation.schema, relation.iter_rows(), path=path, **kwargs)

    # -- introspection -------------------------------------------------------

    def _guard(self) -> None:
        """Typed failure for use-after-close (sqlite's own is a bare
        ``ProgrammingError`` with no remedy)."""
        if self._closed:
            raise StoreDetachedError(
                f"this SqliteStore ({self._path or ':memory:'}) has been "
                f"closed; re-open it with SqliteStore(schema, path=...) "
                f"or reattach() a handle detached from a live store"
            )

    @property
    def schema(self) -> RelationSchema:
        return self._schema

    @property
    def version(self) -> int:
        return self._version

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[Row]:
        # Window over rid rather than holding one cursor open: robust to
        # interleaved mutations and never materializes the whole table.
        self._guard()
        return self._iter_after_rid(-1)

    def iter_from(self, start: int) -> Iterator[Row]:
        """Seek with one ``OFFSET`` query, then window by rid as usual —
        the remote ``/rows`` pager stays O(n) over a full iteration."""
        self._guard()
        if start <= 0:
            return self._iter_after_rid(-1)
        with self._lock:
            record = self._db.execute(
                "SELECT rid FROM master ORDER BY rid LIMIT 1 OFFSET ?",
                (start,),
            ).fetchone()
        if record is None:
            return iter(())
        return self._iter_after_rid(record[0] - 1)

    def _iter_after_rid(self, last: int) -> Iterator[Row]:
        schema = self._schema
        select = f"SELECT rid, {', '.join(self._columns)} FROM master"
        while True:
            with self._lock:
                batch = self._db.execute(
                    f"{select} WHERE rid > ? ORDER BY rid LIMIT ?",
                    (last, self._ITER_BATCH),
                ).fetchall()
            if not batch:
                return
            last = batch[-1][0]
            for record in batch:
                yield Row(schema, [_decode(cell) for cell in record[1:]])

    # -- probes --------------------------------------------------------------

    def _column_of(self, attr: str) -> str:
        return self._columns[self._schema.index_of(attr)]

    def ensure_index(self, attrs: Iterable) -> None:
        # Deduplicate (rule match lists may repeat one master column); the
        # WHERE clause still constrains every position of the probe key.
        self._guard()
        columns = list(dict.fromkeys(self._column_of(a) for a in attrs))
        name = "idx_" + "_".join(columns)
        if name in self._indexed:
            return
        with self._lock:
            self._db.execute(
                f"CREATE INDEX IF NOT EXISTS {name} ON master "
                f"({', '.join(columns)})"
            )
            self._indexed.add(name)

    #: How many probe keys one batched statement may carry; bounded so
    #: ``len(attrs) * _PROBE_BATCH`` stays far below sqlite's
    #: host-parameter limit (999 in older builds).
    _PROBE_BATCH = 200

    def probe_batch(self, probes: Iterable) -> list:
        """LRU hits answered in place; misses read per attribute list.

        Distinct cache misses are fetched in blocks of up to
        ``_PROBE_BATCH`` keys, one statement per block (see
        :meth:`_probe_statement`), and every fetched line lands in the
        LRU.  The span covers hits and misses alike: the hit/miss mix is
        exactly what the latency distribution is supposed to show.
        """
        with obs.time_block("repro_store_probe_seconds", backend="sqlite"):
            self._guard()
            results: list = []
            misses: dict = {}  # (attrs, key) -> result slots
            with self._lock:
                for attrs, key in probes:
                    line = _probe_pair(attrs, key)
                    # Cache lines are tuples: handing out the line itself
                    # cannot let a caller corrupt the cache.
                    cached = self._probe_cache.get(line)
                    if cached is None:
                        # Filled in by _fetch below.
                        misses.setdefault(line, []).append(len(results))
                        cached = ()
                    results.append(cached)
                self.probe_ref_calls += len(results)
                if misses:
                    self._fetch(misses, results)
            return results

    def _fetch(self, misses: dict, results: list) -> None:
        """Read the ``(attrs, key) -> slots`` misses into their result
        slots and the LRU (caller holds the lock)."""
        schema = self._schema
        by_attrs: dict = {}  # attrs -> [(key, encoded key, slots)]
        for (attrs, key), slots in misses.items():
            try:
                encoded = tuple(map(_encode, key))
            except TypeError:
                continue  # unstorable value matches nothing; not cached
            by_attrs.setdefault(attrs, []).append((key, encoded, slots))
        for attrs, keys in by_attrs.items():
            for start in range(0, len(keys), self._PROBE_BATCH):
                block = keys[start:start + self._PROBE_BATCH]
                records = self._db.execute(
                    self._probe_statement(attrs, len(block)),
                    [cell for _, encoded, _ in block for cell in encoded],
                ).fetchall()
                if len(block) == 1:
                    # Every record of a one-key block matches that key.
                    grouped = {block[0][1]: records}
                else:
                    # Group by the records' encoded key cells; a key that
                    # repeats one column with two different values never
                    # comes back (the join constrains every position), so
                    # this is exact even for repeated attrs.
                    positions = [schema.index_of(a) for a in attrs]
                    grouped = {}
                    for record in records:
                        grouped.setdefault(
                            tuple(record[p] for p in positions), []
                        ).append(record)
                for key, encoded, slots in block:
                    rows = tuple(
                        Row(schema, [_decode(cell) for cell in record])
                        for record in grouped.get(encoded, ())
                    )
                    self._probe_cache.put((attrs, key), rows)
                    for slot in slots:
                        results[slot] = rows

    def _probe_statement(self, attrs: tuple, count: int) -> str:
        """The SELECT reading *count* keys over *attrs*, cached per shape.

        The keys form a ``VALUES`` table joined to ``master``: the
        row-value form ``WHERE (c1, ..., ck) IN ((?, ...), ...)`` makes
        sqlite (3.40) scan all of ``master`` once a block holds two or
        more multi-column keys, while the join reads it through the
        index.  A one-key block is the join's one-row case written as
        plain equality, which spares the sort of the joined rows.
        """
        select = self._probe_sql.get((attrs, count))
        if select is None:
            self.ensure_index(attrs)
            columns = [self._column_of(a) for a in attrs]
            if count == 1:
                where = " AND ".join(f"{c} = ?" for c in columns)
                select = (
                    f"SELECT {', '.join(self._columns)} FROM master "
                    f"WHERE {where} ORDER BY rid"
                )
            else:
                row = "(" + ", ".join("?" for _ in columns) + ")"
                on = " AND ".join(
                    f"m.{c} = k.column{i}" for i, c in enumerate(columns, 1)
                )
                select = (
                    f"SELECT {', '.join('m.' + c for c in self._columns)} "
                    f"FROM (VALUES {', '.join([row] * count)}) AS k "
                    f"JOIN master AS m ON {on} ORDER BY m.rid"
                )
            self._probe_sql[(attrs, count)] = select
        return select

    def active_values(self, attr: str) -> set:
        self._guard()
        with self._lock:
            cached = self._active_cache.get(attr)
            if cached is None:
                records = self._db.execute(
                    f"SELECT DISTINCT {self._column_of(attr)} FROM master"
                ).fetchall()
                cached = {_decode(record[0]) for record in records}
                self._active_cache[attr] = cached
        # Copy: the in-memory backend hands out a fresh set per call, and a
        # caller mutating the cached set must not poison later calls.
        return set(cached)

    def probe_cache_info(self) -> dict:
        """LRU accounting for the benchmark layer."""
        with self._lock:
            info = self._probe_cache.info()
            info["probe_ref_calls"] = self.probe_ref_calls
            return info

    # -- process-boundary protocol -------------------------------------------

    supports_batched_probes = True

    def detach(self) -> "SqliteStoreHandle":
        """A picklable handle re-opening this database in another process.

        Only file-backed stores can cross the boundary: a private
        ``:memory:`` database exists in exactly one connection, so there is
        nothing a worker could re-open.
        """
        self._guard()
        if self._path is None:
            raise ValueError(
                "an in-memory SqliteStore cannot cross a fork/spawn "
                "boundary: give the store a database file (path=... / "
                "--sqlite-path) so workers can re-open it"
            )
        return SqliteStoreHandle(
            schema=self._schema,
            path=self._path,
            probe_cache_size=self._probe_cache.maxsize,
            version=self._version,
        )

    # -- delta protocol ------------------------------------------------------

    def deltas_since(self, version: int):
        with self._lock:
            return self._journal.since(version, self._version)

    def adopt_deltas(self, deltas, version: int) -> bool:
        """Land a reattached store on the parent's *version* stamp.

        The rows arrive through the shared database file (the parent's
        mutations are committed before it ships the deltas), so replaying
        a delta only refreshes this connection's caches: per-row
        probe-cache purges and active-set patches.  Replay never writes
        the file.  False when the list does not bridge the gap.
        """
        self._guard()
        with self._lock:
            pending = _pending_deltas(deltas, self._version, version)
            if pending is None:
                return False
            for delta in pending:
                self._count += 1 if delta.op == "insert" else -1
                self._bump_delta(delta.op, delta.values)
            return True

    # -- mutation ------------------------------------------------------------

    def _bump_bulk(self) -> None:
        """Version bump for a bulk mutation: no per-row deltas exist, so
        every connection-local cache drops and the journal restarts."""
        self._version += 1
        self._probe_cache.clear()
        self._active_cache.clear()
        self._journal.reset(self._version)

    def _bump_delta(self, op: str, values: tuple) -> None:
        """Per-key version bump: journal the delta and purge exactly the
        probe-cache lines the mutated row projects onto, keeping the rest
        of the LRU warm across the mutation."""
        self._version += 1
        self._journal.record(self._version, op, values)
        self._probe_cache.purge_row(self._schema, values)
        if op == "insert":
            # An insert can only *add* to a column's active set; patch the
            # cached sets in place (active_values hands out copies, so no
            # caller aliases them).
            for attr, cached in self._active_cache.items():
                cached.add(values[self._schema.index_of(attr)])
        else:
            # Whether a deleted value survives in other rows needs a
            # recount; recompute lazily.
            self._active_cache.clear()

    def _coerce(self, row) -> Row:
        if not isinstance(row, Row):
            return Row(self._schema, row)
        if row.schema.attributes != self._schema.attributes:
            raise ValueError(
                f"row schema {row.schema.name!r} does not match store "
                f"schema {self._schema.name!r}"
            )
        return row

    def _insert_sql(self) -> str:
        placeholders = ", ".join("?" for _ in self._columns)
        return (
            f"INSERT INTO master ({', '.join(self._columns)}) "
            f"VALUES ({placeholders})"
        )

    @contextlib.contextmanager
    def _transaction(self):
        """One transaction (the caller holds the lock, or owns the store)."""
        self._db.execute("BEGIN")
        try:
            yield
            self._db.execute("COMMIT")
        except BaseException:
            self._db.execute("ROLLBACK")
            raise

    def _persist_version(self) -> None:
        """Stamp the version this write bumps to into the file
        (``PRAGMA user_version``), inside the write's transaction so rows
        and version commit together.  Worker replay never calls it."""
        self._db.execute(f"PRAGMA user_version = {self._version + 1}")

    def _insert_many(
        self, rows: Iterable, replace: bool = False, chunk: int = 10_000
    ) -> None:
        """Bulk load (after clearing the table when *replace*) in one
        transaction.

        Autocommit pays one journal sync per row, which would turn a large
        on-disk load into minutes; one commit keeps the streaming CSV path
        (the whole point of the out-of-core backend) fast.  One version
        bump at the end — the load is a single logical mutation.
        """
        sql = self._insert_sql()
        rows = iter(rows)
        with self._lock:
            removed = self._count if replace else 0
            inserted = 0
            with self._transaction():
                if replace:
                    self._db.execute("DELETE FROM master")
                while True:
                    batch = [
                        [_encode(v) for v in self._coerce(row).values]
                        for row in itertools.islice(rows, chunk)
                    ]
                    if not batch:
                        break
                    self._db.executemany(sql, batch)
                    inserted += len(batch)
                if removed or inserted:
                    self._persist_version()
            if removed or inserted:
                self._count += inserted - removed
                self._bump_bulk()

    def insert(self, row) -> None:
        self._guard()
        row = self._coerce(row)
        encoded = [_encode(v) for v in row.values]
        with self._lock:
            with self._transaction():
                self._db.execute(self._insert_sql(), encoded)
                self._persist_version()
            self._count += 1
            # Journal the codec-canonical values (what probes/iteration
            # decode back), not the caller's spelling of them.
            self._bump_delta("insert", tuple(_decode(c) for c in encoded))

    def delete(self, row) -> bool:
        self._guard()
        row = self._coerce(row)
        try:
            encoded = [_encode(v) for v in row.values]
        except TypeError:
            return False
        where = " AND ".join(f"{c} = ?" for c in self._columns)
        with self._lock:
            record = self._db.execute(
                f"SELECT rid FROM master WHERE {where} ORDER BY rid LIMIT 1",
                encoded,
            ).fetchone()
            if record is None:
                return False
            with self._transaction():
                self._db.execute("DELETE FROM master WHERE rid = ?", record)
                self._persist_version()
            self._count -= 1
            self._bump_delta("delete", tuple(_decode(c) for c in encoded))
        return True

    def close(self) -> None:
        """Release the connection; later operations raise
        :class:`StoreDetachedError` (with a remedy) instead of sqlite's
        bare ``ProgrammingError``."""
        with self._lock:
            self._closed = True
            self._db.close()


# -- picklable store handles ---------------------------------------------------


@dataclass(frozen=True)
class MemoryStoreHandle:
    """By-value snapshot of an :class:`InMemoryStore` for worker rehydration."""

    schema: RelationSchema
    rows: tuple
    version: int

    def reattach(self) -> InMemoryStore:
        """Rebuild the store in this process, stamped at the parent version.

        ``replace_all`` (rather than per-row inserts) so the relation's
        mutation counter lands exactly on the parent's stamp and
        version-stamped caches compare against the parent's version
        stream, not the reload's; the journal starts at that stamp.
        """
        relation = Relation(self.schema)
        relation.replace_all(self.rows, mutation_count=self.version)
        return InMemoryStore(relation)


@dataclass(frozen=True)
class SqliteStoreHandle:
    """Connection-free reference to a file-backed :class:`SqliteStore`."""

    schema: RelationSchema
    path: str
    probe_cache_size: int
    version: int

    def reattach(self) -> SqliteStore:
        """Open a fresh connection to the shared database file.

        The reattached store starts at the version persisted in the file
        (newer than the handle's when the parent mutated the file after
        detaching); :meth:`SqliteStore.adopt_deltas` moves it when the
        parent mutates the file mid-batch.  A handle whose database file
        has vanished raises :class:`StoreUnavailableError` — opening the
        path anyway would silently hand the worker an *empty* master and
        turn every certain fix into a user question.
        """
        if not os.path.exists(self.path):
            raise StoreUnavailableError(
                f"cannot reattach SqliteStore: database file {self.path!r} "
                f"no longer exists (deleted after detach?); re-create the "
                f"master with SqliteStore(schema, rows, path=...) and "
                f"detach() a fresh handle"
            )
        return SqliteStore(
            self.schema, path=self.path,
            probe_cache_size=self.probe_cache_size,
        )


def as_master_store(master) -> MasterStore:
    """Adapt *master* to the :class:`MasterStore` interface.

    Stores pass through unchanged.  A :class:`Relation` is wrapped in an
    ``InMemoryStore`` that is cached on the relation, so repeated
    adaptation is O(1) and every consumer shares one version stream.
    """
    if isinstance(master, MasterStore):
        return master
    if isinstance(master, Relation):
        wrapper = master._store_wrapper
        if wrapper is None:
            wrapper = InMemoryStore(master)
            master._store_wrapper = wrapper
        return wrapper
    raise TypeError(
        f"expected a MasterStore or Relation, got {type(master).__name__}"
    )
