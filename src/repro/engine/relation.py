"""Relation instances: a schema plus a bag of rows, with cached hash indexes.

The master relation ``Dm`` of the paper is a :class:`Relation`; so are the
base tables the HOSP dataset is joined from.  Algebraic operations return
new relations, which keeps the semantics of the analyses (which treat ``Dm``
as fixed for the duration of one computation) honest.  In-place mutation is
limited to ``insert`` / ``delete``, both of which keep the cached hash
indexes consistent and bump :attr:`mutation_count` — the signal
:class:`repro.engine.store.InMemoryStore` exposes as its ``version`` so the
repair layer's shared caches can notice incremental master updates.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator

from repro.engine.index import HashIndex
from repro.engine.schema import RelationSchema
from repro.engine.tuples import Row


class Relation:
    """A named instance of a :class:`RelationSchema`."""

    def __init__(self, schema: RelationSchema, rows: Iterable = ()):
        self.schema = schema
        self._rows: list = []
        self._indexes: dict = {}
        self._mutations = 0
        self._store_wrapper = None  # cached InMemoryStore (engine.store)
        for row in rows:
            self.insert(row)

    # -- construction --------------------------------------------------------

    @classmethod
    def from_dicts(cls, schema: RelationSchema, dicts: Iterable) -> "Relation":
        return cls(schema, (Row(schema, d) for d in dicts))

    def insert(self, row) -> None:
        """Append a row (a :class:`Row`, mapping, or value sequence)."""
        if not isinstance(row, Row):
            row = Row(self.schema, row)
        elif row.schema.attributes != self.schema.attributes:
            raise ValueError(
                f"row schema {row.schema.name!r} does not match relation "
                f"schema {self.schema.name!r}"
            )
        self._rows.append(row)
        self._mutations += 1
        for index in self._indexes.values():
            index.add(row)

    def delete(self, row) -> bool:
        """Remove the first row equal to *row*; True iff one was removed.

        Cached hash indexes are updated in place, so existing probe paths
        stay consistent without a rebuild.
        """
        if not isinstance(row, Row):
            row = Row(self.schema, row)
        try:
            self._rows.remove(row)
        except ValueError:
            return False
        self._mutations += 1
        for index in self._indexes.values():
            index.remove(row)
        return True

    def replace_all(self, rows: Iterable, mutation_count: int = None) -> None:
        """Swap in a whole new row list (and optionally the mutation counter).

        The bulk counterpart of ``insert``/``delete`` used when a process
        worker reattaches an in-memory master: cached hash indexes are dropped
        (rebuilt lazily on the next lookup) and the mutation counter either
        advances by one (the default — a replace is one logical mutation)
        or jumps to *mutation_count* verbatim, which is how a worker's
        rebuilt master adopts the parent process's version stamp.
        """
        new_rows = []
        for row in rows:
            if not isinstance(row, Row):
                row = Row(self.schema, row)
            elif row.schema.attributes != self.schema.attributes:
                raise ValueError(
                    f"row schema {row.schema.name!r} does not match relation "
                    f"schema {self.schema.name!r}"
                )
            new_rows.append(row)
        self._rows = new_rows
        self._indexes = {}
        if mutation_count is None:
            self._mutations += 1
        else:
            self._mutations = mutation_count

    # -- access ----------------------------------------------------------------

    @property
    def rows(self) -> list:
        """A defensive copy of the row list.

        External callers may mutate the result freely; hot paths (repair
        loops, index builds, batch chunking) must use :meth:`iter_rows` /
        ``__iter__`` / :meth:`row_at` instead, which never copy.
        """
        return list(self._rows)

    @property
    def mutation_count(self) -> int:
        """Monotonic counter bumped by every ``insert`` / ``delete``."""
        return self._mutations

    def iter_rows(self) -> Iterator[Row]:
        """No-copy iteration over the stored rows (read-only hot path)."""
        return iter(self._rows)

    def row_at(self, index: int) -> Row:
        """The row at *index* without copying the row list."""
        return self._rows[index]

    def __iter__(self) -> Iterator[Row]:
        return iter(self._rows)

    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, row: Row) -> bool:
        return row in self._rows

    def first(self) -> Row:
        if not self._rows:
            raise LookupError(f"relation {self.schema.name!r} is empty")
        return self._rows[0]

    # -- indexing ----------------------------------------------------------------

    def index_on(self, attrs: Iterable) -> HashIndex:
        """The (cached) hash index over *attrs*.

        The attribute list may repeat columns: keys are positional, and rule
        match lists may reuse one master column (see Theorem 12's reduction).
        Attribute names are validated when the index is built; a cached
        index proves they are valid.
        """
        key = tuple(attrs)
        index = self._indexes.get(key)
        if index is None:
            for a in key:
                self.schema.index_of(a)
            index = HashIndex(key, self._rows)
            self._indexes[key] = index
        return index

    def lookup(self, attrs: Iterable, key_values) -> list:
        """Rows with ``row[attrs] == key_values`` via the hash index.

        Hot path for every master probe of the repair engines: the result
        aliases the index bucket and must be treated as read-only.  Use
        ``index_on(attrs).get(key)`` for a mutable copy.
        """
        return self.index_on(attrs).get_ref(tuple(key_values))

    def scan_lookup(self, attrs: Iterable, key_values) -> list:
        """Index-free variant of :meth:`lookup` (the ablation A2 baseline)."""
        attrs = tuple(attrs)
        key = tuple(key_values)
        return [row for row in self._rows if row[attrs] == key]

    # -- algebra (thin wrappers; the operators live in engine.query) -----------

    def select(self, predicate: Callable) -> "Relation":
        out = Relation(self.schema)
        for row in self._rows:
            if predicate(row):
                out.insert(row)
        return out

    def project(self, attrs: Iterable, distinct: bool = False) -> "Relation":
        attrs = tuple(attrs)
        sub = self.schema.project(attrs)
        out = Relation(sub)
        seen = set()
        for row in self._rows:
            values = row[attrs]
            if distinct:
                if values in seen:
                    continue
                seen.add(values)
            out.insert(Row(sub, values))
        return out

    def distinct(self) -> "Relation":
        out = Relation(self.schema)
        seen = set()
        for row in self._rows:
            if row.values not in seen:
                seen.add(row.values)
                out.insert(row)
        return out

    def active_values(self, attr: str) -> set:
        """The set of values appearing in column *attr*."""
        position = self.schema.index_of(attr)
        return {row.values[position] for row in self._rows}

    def sample(self, count: int, rng) -> list:
        """*count* rows drawn without replacement using the caller's RNG."""
        if count >= len(self._rows):
            return list(self._rows)
        return rng.sample(self._rows, count)

    def __repr__(self) -> str:
        return f"Relation({self.schema.name!r}, {len(self._rows)} rows)"
