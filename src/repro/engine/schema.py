"""Relation schemas and attribute domains.

The paper's complexity results hinge on whether attribute domains are finite
or infinite (Theorem 1 holds "even when data and master relations have
infinite-domain attributes only"), so domains carry an explicit finiteness
flag and, for finite domains, their value set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator


@dataclass(frozen=True)
class Domain:
    """An attribute domain.

    Parameters
    ----------
    name:
        Human-readable name (``"int"``, ``"string"``, ``"bool01"``...).
    finite:
        Whether the domain has finitely many values.
    values:
        The value set for finite domains; ``None`` for infinite ones.
    """

    name: str
    finite: bool = False
    values: frozenset = field(default=None)

    def __post_init__(self):
        if self.finite and self.values is None:
            raise ValueError(f"finite domain {self.name!r} needs a value set")
        if not self.finite and self.values is not None:
            raise ValueError(f"infinite domain {self.name!r} must not enumerate values")

    def contains(self, value) -> bool:
        """Membership test; infinite domains accept everything non-sentinel."""
        if not self.finite:
            return True
        return value in self.values

    def __repr__(self) -> str:
        if self.finite:
            return f"Domain({self.name!r}, |{len(self.values)}| values)"
        return f"Domain({self.name!r})"


#: The two stock infinite domains used by the paper's schemas.
INT = Domain("int")
STRING = Domain("string")


def finite_domain(name: str, values: Iterable) -> Domain:
    """Build a finite domain from an iterable of values."""
    return Domain(name, finite=True, values=frozenset(values))


@dataclass(frozen=True)
class Attribute:
    """A named, typed attribute of a relation schema."""

    name: str
    domain: Domain = STRING

    def __repr__(self) -> str:
        return f"Attribute({self.name!r}, {self.domain.name})"


class RelationSchema:
    """An ordered list of distinct attributes, with O(1) name lookup.

    Instances are immutable; derived schemas (projections, renames) return
    new objects.  The schema of input tuples is the paper's ``R`` and the
    master schema is ``Rm``; both are plain :class:`RelationSchema` values.
    """

    __slots__ = ("name", "_attributes", "_names", "_positions")

    def __init__(self, name: str, attributes: Iterable):
        attrs = []
        for a in attributes:
            if isinstance(a, Attribute):
                attrs.append(a)
            elif isinstance(a, str):
                attrs.append(Attribute(a))
            else:
                attr_name, domain = a
                attrs.append(Attribute(attr_name, domain))
        self.name = name
        self._attributes = tuple(attrs)
        self._names = tuple(a.name for a in self._attributes)
        self._positions = {n: i for i, n in enumerate(self._names)}
        if len(self._positions) != len(self._attributes):
            raise ValueError(f"schema {name!r} has duplicate attribute names")

    # -- introspection ----------------------------------------------------

    @property
    def attributes(self) -> tuple:
        """Attribute names, in schema order."""
        return self._names

    @property
    def attribute_objects(self) -> tuple:
        return self._attributes

    def __len__(self) -> int:
        return len(self._attributes)

    def __iter__(self) -> Iterator[str]:
        return iter(self._names)

    def __contains__(self, attr_name: str) -> bool:
        return attr_name in self._positions

    def index_of(self, attr_name: str) -> int:
        """Position of *attr_name* in the schema; raises KeyError if absent."""
        try:
            return self._positions[attr_name]
        except KeyError:
            raise KeyError(
                f"schema {self.name!r} has no attribute {attr_name!r}; "
                f"attributes are {self.attributes}"
            ) from None

    def domain_of(self, attr_name: str) -> Domain:
        return self._attributes[self.index_of(attr_name)].domain

    def check_attrs(self, attrs: Iterable) -> tuple:
        """Validate that *attrs* are distinct schema attributes; return tuple."""
        attrs = tuple(attrs)
        seen = set()
        for a in attrs:
            self.index_of(a)
            if a in seen:
                raise ValueError(f"duplicate attribute {a!r} in list {attrs}")
            seen.add(a)
        return attrs

    # -- derivation --------------------------------------------------------

    def project(self, attrs: Iterable) -> "RelationSchema":
        """A sub-schema with only *attrs*, in the given order."""
        attrs = self.check_attrs(attrs)
        return RelationSchema(
            f"{self.name}[{','.join(attrs)}]",
            [self._attributes[self.index_of(a)] for a in attrs],
        )

    def rename(self, mapping: dict) -> "RelationSchema":
        """A schema with attributes renamed per *mapping* (old -> new)."""
        return RelationSchema(
            self.name,
            [
                Attribute(mapping.get(a.name, a.name), a.domain)
                for a in self._attributes
            ],
        )

    # -- equality ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, RelationSchema):
            return NotImplemented
        return self.name == other.name and self._attributes == other._attributes

    def __hash__(self) -> int:
        return hash((self.name, self._attributes))

    def __repr__(self) -> str:
        return f"RelationSchema({self.name!r}, {list(self.attributes)})"
