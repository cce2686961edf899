"""Immutable rows bound to a relation schema.

A :class:`Row` is the library's tuple representation (the paper's ``t``,
``tm``, ``s1``...).  Rows are immutable; the editing-rule semantics
``t -> t'`` produces *new* rows via :meth:`Row.with_values`, which keeps fix
sequences (Sect. 3) easy to reason about and cheap to trace.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

from repro.engine.schema import RelationSchema


class Row:
    """An immutable tuple over a :class:`RelationSchema`.

    Values are stored positionally in the tuple :attr:`values`; attribute
    access is by name.  ``t[A]`` returns a single value; ``t[list_of_attrs]``
    returns a tuple of values, mirroring the paper's ``t[X]`` notation for
    attribute lists.  ``schema`` and ``values`` are plain slots, read on
    every hot path and never reassigned after construction.
    """

    __slots__ = ("schema", "values", "_hash")

    def __init__(self, schema: RelationSchema, values):
        if type(values) is tuple:
            if len(values) != len(schema):
                raise ValueError(
                    f"schema {schema.name!r} has {len(schema)} attributes, "
                    f"got {len(values)} values"
                )
        elif isinstance(values, Mapping):
            try:
                values = tuple(values[a] for a in schema.attributes)
            except KeyError as exc:
                raise KeyError(
                    f"missing value for attribute {exc.args[0]!r} of schema "
                    f"{schema.name!r}"
                ) from None
        else:
            values = tuple(values)
            if len(values) != len(schema):
                raise ValueError(
                    f"schema {schema.name!r} has {len(schema)} attributes, "
                    f"got {len(values)} values"
                )
        self.schema = schema
        self.values = values
        self._hash = None

    # -- access ------------------------------------------------------------

    def __getitem__(self, attrs):
        """``t[A]`` for one attribute; ``t[[A, B]]`` for a list (the paper's t[X])."""
        if isinstance(attrs, str):
            return self.values[self.schema.index_of(attrs)]
        return tuple(self.values[self.schema.index_of(a)] for a in attrs)

    def get(self, attr: str, default=None):
        if attr in self.schema:
            return self.values[self.schema.index_of(attr)]
        return default

    def to_dict(self) -> dict:
        return dict(zip(self.schema.attributes, self.values))

    def __iter__(self) -> Iterator:
        return iter(self.values)

    def __len__(self) -> int:
        return len(self.values)

    # -- derivation ----------------------------------------------------------

    def with_values(self, updates: Mapping) -> "Row":
        """A new row with the attributes in *updates* replaced.

        This is the update primitive behind rule application:
        ``t' = t.with_values({B: tm[Bm]})`` realizes ``t[B] := tm[Bm]``.
        """
        values = list(self.values)
        index_of = self.schema.index_of
        for attr, value in updates.items():
            values[index_of(attr)] = value
        return Row(self.schema, tuple(values))

    def project(self, attrs: Iterable) -> "Row":
        """The sub-row over *attrs*, bound to the projected schema."""
        attrs = tuple(attrs)
        return Row(self.schema.project(attrs), self[attrs])

    def rebind(self, schema: RelationSchema) -> "Row":
        """The same values bound to an equally-long *schema* (for renames)."""
        if len(schema) != len(self.values):
            raise ValueError(
                f"cannot rebind {len(self.values)} values to schema "
                f"{schema.name!r} with {len(schema)} attributes"
            )
        return Row(schema, self.values)

    # -- comparison ----------------------------------------------------------

    def agrees_with(self, other: "Row", attrs: Iterable, other_attrs=None) -> bool:
        """True iff ``self[attrs] == other[other_attrs or attrs]``.

        Implements the paper's ``t[X] = tm[Xm]`` comparison between an input
        tuple and a master tuple over corresponding attribute lists.
        """
        attrs = tuple(attrs)
        other_attrs = attrs if other_attrs is None else tuple(other_attrs)
        return self[attrs] == other[other_attrs]

    def diff(self, other: "Row") -> tuple:
        """Attribute names on which the two rows (same schema) disagree."""
        if other.schema.attributes != self.schema.attributes:
            raise ValueError("diff requires rows over the same attributes")
        return tuple(
            a
            for a, v, w in zip(self.schema.attributes, self.values, other.values)
            if v != w
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, Row):
            return NotImplemented
        # Schemas are immutable, so a shared schema object (every row of one
        # relation) skips the name-tuple comparison.
        return (
            self.schema is other.schema
            or self.schema.attributes == other.schema.attributes
        ) and self.values == other.values

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.schema.attributes, self.values))
        return self._hash

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{a}={v!r}" for a, v in zip(self.schema.attributes, self.values)
        )
        return f"Row({inner})"
