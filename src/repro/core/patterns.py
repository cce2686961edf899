"""Pattern values, pattern tuples and pattern tableaux (Sect. 2 of the paper).

A pattern tuple ``tp`` over attributes ``Xp`` assigns to each attribute one of

* a constant ``a``      — the Boolean condition ``x = a``,
* a negated constant ``ā`` — the condition ``x != a``,
* the wildcard ``_``     — no condition.

A tuple ``t`` *matches* ``tp`` (written ``t[Xp] ≈ tp[Xp]``) iff every
per-attribute condition holds.  Pattern tableaux (sets of pattern tuples over
the same attributes) appear in regions ``(Z, Tc)``; a tuple is *marked* by a
region iff it matches some pattern tuple of the tableau.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

from repro.engine.schema import Domain
from repro.engine.values import UNKNOWN


class PatternValue:
    """Abstract per-attribute pattern condition."""

    __slots__ = ()

    def matches(self, value) -> bool:
        raise NotImplementedError

    @property
    def is_wildcard(self) -> bool:
        return False

    @property
    def is_constant(self) -> bool:
        return False

    @property
    def is_negation(self) -> bool:
        return False

    def satisfiable(self, domain: Domain) -> bool:
        """Whether some domain value matches this condition."""
        raise NotImplementedError


class Wildcard(PatternValue):
    """The unnamed variable ``_``: matches any value."""

    __slots__ = ()
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def matches(self, value) -> bool:
        return True

    @property
    def is_wildcard(self) -> bool:
        return True

    def satisfiable(self, domain: Domain) -> bool:
        return not (domain.finite and not domain.values)

    def __repr__(self) -> str:
        return "_"

    def __eq__(self, other) -> bool:
        return isinstance(other, Wildcard)

    def __hash__(self) -> int:
        return hash("Wildcard")


class Const(PatternValue):
    """A constant ``a``: the condition ``x = a``."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def matches(self, value) -> bool:
        return value == self.value

    @property
    def is_constant(self) -> bool:
        return True

    def satisfiable(self, domain: Domain) -> bool:
        return domain.contains(self.value)

    def __repr__(self) -> str:
        return repr(self.value)

    def __eq__(self, other) -> bool:
        return isinstance(other, Const) and other.value == self.value

    def __hash__(self) -> int:
        return hash(("Const", self.value))


class NotConst(PatternValue):
    """A negated constant ``ā``: the condition ``x != a``."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def matches(self, value) -> bool:
        return value != self.value

    @property
    def is_negation(self) -> bool:
        return True

    def satisfiable(self, domain: Domain) -> bool:
        if not domain.finite:
            return True
        return any(v != self.value for v in domain.values)

    def __repr__(self) -> str:
        return f"!{self.value!r}"

    def __eq__(self, other) -> bool:
        return isinstance(other, NotConst) and other.value == self.value

    def __hash__(self) -> int:
        return hash(("NotConst", self.value))


#: Module-level wildcard singleton (the paper's ``_``).
ANY = Wildcard()


def wildcard() -> Wildcard:
    """The wildcard pattern value ``_``."""
    return ANY


def const(value) -> Const:
    """The constant pattern value ``a`` (condition ``x = a``)."""
    return Const(value)


def neq(value) -> NotConst:
    """The negated pattern value ``ā`` (condition ``x != a``)."""
    return NotConst(value)


def as_pattern_value(value) -> PatternValue:
    """Coerce *value*: PatternValues pass through, raw values become Const."""
    if isinstance(value, PatternValue):
        return value
    return Const(value)


class PatternTuple:
    """A pattern tuple over an ordered list of distinct attributes.

    Construction accepts a mapping ``{attr: pattern_value_or_constant}`` or
    parallel ``attrs``/``values`` sequences.  The empty pattern tuple
    ``PatternTuple({})`` poses no condition (the paper's ``tp = ()``).
    """

    __slots__ = ("_attrs", "_conditions", "_hash")

    def __init__(self, conditions: Mapping = None, attrs=None, values=None):
        if conditions is not None:
            items = [(a, as_pattern_value(v)) for a, v in conditions.items()]
        else:
            attrs = tuple(attrs or ())
            values = tuple(values or ())
            if len(attrs) != len(values):
                raise ValueError("attrs and values must have the same length")
            items = [(a, as_pattern_value(v)) for a, v in zip(attrs, values)]
        self._attrs = tuple(a for a, _ in items)
        if len(set(self._attrs)) != len(self._attrs):
            raise ValueError(f"duplicate attributes in pattern tuple: {self._attrs}")
        self._conditions = {a: v for a, v in items}
        self._hash = None

    # -- access ----------------------------------------------------------------

    @property
    def attrs(self) -> tuple:
        """The attribute list ``Xp``, in order."""
        return self._attrs

    def __getitem__(self, attr: str) -> PatternValue:
        return self._conditions[attr]

    def get(self, attr: str, default=None):
        return self._conditions.get(attr, default)

    def __contains__(self, attr: str) -> bool:
        return attr in self._conditions

    def __len__(self) -> int:
        return len(self._attrs)

    def items(self) -> Iterator:
        return ((a, self._conditions[a]) for a in self._attrs)

    # -- matching ----------------------------------------------------------------

    def matches(self, row) -> bool:
        """The paper's ``t ≈ tp``: every per-attribute condition holds.

        *row* may be a :class:`repro.engine.tuples.Row` or any mapping-like
        object supporting ``row[attr]``.  An ``UNKNOWN`` value fails every
        non-wildcard condition: the analyses must not assume anything about
        attributes that have not been validated.
        """
        for attr in self._attrs:
            condition = self._conditions[attr]
            if condition.is_wildcard:
                continue
            value = row[attr]
            if value is UNKNOWN or not condition.matches(value):
                return False
        return True

    def matches_values(self, values: Mapping) -> bool:
        """Like :meth:`matches` for a plain ``{attr: value}`` dict."""
        for attr in self._attrs:
            condition = self._conditions[attr]
            if condition.is_wildcard:
                continue
            value = values[attr]
            if value is UNKNOWN or not condition.matches(value):
                return False
        return True

    # -- structure ----------------------------------------------------------------

    @property
    def is_concrete(self) -> bool:
        """No wildcards and no negations — constants only (Sect. 4 case (4))."""
        return all(c.is_constant for c in self._conditions.values())

    @property
    def is_positive(self) -> bool:
        """No negations (Sect. 4 case (3)); wildcards allowed."""
        return not any(c.is_negation for c in self._conditions.values())

    def constant_attrs(self) -> tuple:
        return tuple(a for a in self._attrs if self._conditions[a].is_constant)

    def normalized(self) -> "PatternTuple":
        """Drop wildcard attributes (the paper's normal form, Sect. 2)."""
        return PatternTuple(
            {a: c for a, c in self.items() if not c.is_wildcard}
        )

    def restrict(self, attrs: Iterable) -> "PatternTuple":
        """The sub-pattern over ``attrs ∩ Xp``, in the given order."""
        return PatternTuple(
            {a: self._conditions[a] for a in attrs if a in self._conditions}
        )

    def extend(self, updates: Mapping) -> "PatternTuple":
        """A pattern with extra/overridden attributes (used by ext(Z,Tc,φ))."""
        merged = dict(self.items())
        for a, v in updates.items():
            merged[a] = as_pattern_value(v)
        return PatternTuple(merged)

    def satisfiable(self, schema) -> bool:
        """Whether some tuple over *schema* matches (finite domains matter)."""
        return all(
            self._conditions[a].satisfiable(schema.domain_of(a))
            for a in self._attrs
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, PatternTuple):
            return NotImplemented
        return self._attrs == other._attrs and self._conditions == other._conditions

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(
                (self._attrs, tuple(self._conditions[a] for a in self._attrs))
            )
        return self._hash

    def __reduce__(self):
        # Rebuild through the constructor: string hashes are salted per
        # process, so a cached hash must not travel to a spawned worker.
        return (PatternTuple, (self._conditions,))

    def __repr__(self) -> str:
        inner = ", ".join(f"{a}={self._conditions[a]!r}" for a in self._attrs)
        return f"PatternTuple({inner})"


class PatternTableau:
    """A set of pattern tuples over a common attribute list (the paper's Tc)."""

    __slots__ = ("attrs", "_patterns")

    def __init__(self, attrs: Iterable, patterns: Iterable = ()):
        self.attrs = tuple(attrs)
        self._patterns: list = []
        for p in patterns:
            self.add(p)

    def add(self, pattern: PatternTuple) -> None:
        missing = [a for a in self.attrs if a not in pattern]
        extra = [a for a in pattern.attrs if a not in self.attrs]
        if missing or extra:
            raise ValueError(
                f"pattern over {pattern.attrs} does not fit tableau over "
                f"{self.attrs} (missing {missing}, extra {extra})"
            )
        if pattern not in self._patterns:
            self._patterns.append(pattern)

    @property
    def patterns(self) -> list:
        return list(self._patterns)

    def __iter__(self) -> Iterator[PatternTuple]:
        return iter(self._patterns)

    def __len__(self) -> int:
        return len(self._patterns)

    def marks(self, row) -> bool:
        """Whether some pattern tuple matches *row* (the marking test)."""
        return any(p.matches(row) for p in self._patterns)

    def marking_patterns(self, row) -> list:
        return [p for p in self._patterns if p.matches(row)]

    @property
    def is_concrete(self) -> bool:
        return all(p.is_concrete for p in self._patterns)

    @property
    def is_positive(self) -> bool:
        return all(p.is_positive for p in self._patterns)

    def extend_all(self, updates: Mapping) -> "PatternTableau":
        """Every pattern extended with *updates*; tableau attrs grow too."""
        new_attrs = list(self.attrs) + [a for a in updates if a not in self.attrs]
        return PatternTableau(
            new_attrs, (p.extend(updates) for p in self._patterns)
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, PatternTableau):
            return NotImplemented
        return self.attrs == other.attrs and set(self._patterns) == set(
            other._patterns
        )

    def __repr__(self) -> str:
        return f"PatternTableau(attrs={list(self.attrs)}, {len(self._patterns)} patterns)"
