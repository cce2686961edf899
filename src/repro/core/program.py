"""Σ compiled once against ``(R, Rm)``: one positional plan per rule.

The chase (:func:`repro.core.fixes.chase`) and the Suggest⁺ reuse check
(:func:`repro.repair.suggest.rule_survives`) test the same rules many times
per tuple.  Testing a rule by attribute name costs a schema lookup per
attribute per test; a :class:`RuleProgram` pays those lookups once, when Σ
is compiled, and hands every hot path a :class:`RulePlan` per rule that
reads tuples by position:

* the positions of ``X`` and ``B`` in R and a getter for the key ``t[X]``;
* the non-wildcard pattern checks as ``(position, condition)`` pairs;
* the probe attributes ``Xm`` and the position of ``Bm`` in Rm;
* the master guard, or ``None`` when it poses no condition.

Σ is compiled against a master schema: a rule reading an attribute Rm
lacks is refused here, once, rather than on the first master row read.

The program itself is a read-only sequence of the rules of Σ, so it can be
passed wherever a rule list is expected; :func:`compile_rules` returns an
already-compiled program unchanged, the way
:func:`~repro.engine.store.as_master_store` passes a store through.
Callers that chase in a loop compile once, outside it.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from operator import itemgetter
from typing import Callable, Iterator

from repro.engine.tuples import Row
from repro.engine.values import UNKNOWN


def positional_getter(positions: Sequence) -> Callable:
    """A callable mapping a value sequence to the tuple at *positions*."""
    positions = tuple(positions)
    if len(positions) > 1:
        return itemgetter(*positions)
    if positions:
        (only,) = positions
        return lambda values: (values[only],)
    return lambda values: ()


class RulePlan:
    """One rule of a :class:`RuleProgram`, resolved to positions.

    ``rhs`` and ``premise_attrs`` mirror the rule's, so a plan stands in
    for its rule in :func:`~repro.analysis.closure.attribute_closure`.
    Positions index the program's attribute list (R first); master
    positions index Rm.
    """

    __slots__ = (
        "rule", "index", "rhs", "premise_attrs", "premise_pos", "lhs_pos",
        "key_of", "rhs_pos", "checks", "pattern_slots", "lhs_slots",
        "master_checks", "lhs_m", "bm_pos", "guard",
    )

    def __init__(self, rule, index: int, slot: Callable, master_pos: Callable):
        self.rule = rule
        self.index = index
        self.rhs = rule.rhs
        self.premise_attrs = rule.premise_attrs
        self.lhs_pos = tuple(slot(a) for a in rule.lhs)
        self.key_of = positional_getter(self.lhs_pos)
        pattern = rule.pattern
        #: Every pattern attribute as ``(attr, position, condition)``, the
        #: condition ``None`` for a wildcard (survival rejects UNKNOWN
        #: there too); ``checks`` keeps only the real conditions.
        self.pattern_slots = tuple(
            (a, slot(a), None if c.is_wildcard else c)
            for a, c in pattern.items()
        )
        self.rhs_pos = slot(rule.rhs)
        self.premise_pos = tuple(sorted(
            set(self.lhs_pos).union(pos for _, pos, _ in self.pattern_slots)
        ))
        self.checks = tuple(
            (pos, c) for _, pos, c in self.pattern_slots if c is not None
        )
        self.lhs_m = rule.lhs_m
        #: ``(attr, position, Xm attr)`` per key attribute.
        self.lhs_slots = tuple(
            (a, slot(a), am) for a, am in zip(rule.lhs, rule.lhs_m)
        )
        #: Non-wildcard pattern conditions on X, read off the matched
        #: master row through the rule's correspondence: ``(attr, Rm
        #: position, condition)``.
        self.master_checks = tuple(
            (a, master_pos(am), pattern[a])
            for a, am in zip(rule.lhs, rule.lhs_m)
            if a in pattern and not pattern[a].is_wildcard
        )
        self.bm_pos = master_pos(rule.rhs_m)
        self.guard = rule.master_guard if len(rule.master_guard) else None

    def __repr__(self) -> str:
        return f"RulePlan[{self.index}: {self.rule.name}]"


class RuleProgram(Sequence):
    """Σ compiled against the input schema R and the master schema Rm.

    Iterating, indexing and ``len`` see the rules of Σ in order.  The
    attribute list :attr:`attrs` is R's attributes followed by any rule
    attribute R lacks; with no R (analyses chase partial assignments) it
    is the rule attributes in order of first mention.  :attr:`readers`
    lists, per attribute position, the plans whose premise holds it —
    what the chase's ready counts decrement when the attribute is
    validated.
    """

    def __init__(self, rules, schema, master_schema):
        self.rules = tuple(rules)
        self.schema = schema
        self.master_schema = master_schema
        self.schema_attrs = schema.attributes if schema is not None else None
        self.master_attrs = master_schema.attributes
        attrs: list = list(self.schema_attrs or ())
        positions = {a: i for i, a in enumerate(attrs)}
        rule_attrs: dict = {}

        def slot(attr: str) -> int:
            rule_attrs.setdefault(attr, None)
            position = positions.get(attr)
            if position is None:
                position = positions[attr] = len(attrs)
                attrs.append(attr)
            return position

        self.plans = tuple(
            RulePlan(rule, i, slot, master_schema.index_of)
            for i, rule in enumerate(self.rules)
        )
        self.attrs = tuple(attrs)
        self.positions = positions
        self._extras = (UNKNOWN,) * (len(attrs) - len(self.schema_attrs or ()))
        #: ``(attr, position)`` of every attribute some rule mentions.
        self.rule_slots = tuple((a, positions[a]) for a in rule_attrs)
        readers: list = [[] for _ in attrs]
        for plan in self.plans:
            for position in plan.premise_pos:
                readers[position].append(plan.index)
        self.readers = tuple(tuple(r) for r in readers)

    def __reduce__(self):
        # Plans hold closures; rebuild them on the other side.
        return (RuleProgram, (self.rules, self.schema, self.master_schema))

    # -- the rule sequence -------------------------------------------------------

    def __len__(self) -> int:
        return len(self.rules)

    def __getitem__(self, index):
        return self.rules[index]

    def __iter__(self) -> Iterator:
        return iter(self.rules)

    def __repr__(self) -> str:
        return f"RuleProgram({len(self.rules)} rules over {len(self.attrs)} attrs)"

    # -- tuples as positional values -------------------------------------------

    def values_of(self, row: Row) -> Sequence:
        """Read-only values of *row* aligned with :attr:`attrs`.

        A row over R costs nothing (its own value tuple, padded with
        ``UNKNOWN`` for rule attributes R lacks); any other row is read
        by name, ``UNKNOWN`` where it has no such attribute.
        """
        if row.schema.attributes == self.schema_attrs:
            values = row.values
            return values + self._extras if self._extras else values
        return self.load(row)[0]

    def load(self, t) -> tuple:
        """``(values, aligned)``: a fresh mutable value list for *t* (a
        :class:`Row` or a mapping), and whether *t* is a row over R.

        Only rule attributes are read from a tuple not over R: no other
        position is ever read or written.
        """
        if isinstance(t, Row):
            if t.schema.attributes == self.schema_attrs:
                values = list(t.values)
                if self._extras:
                    values.extend(self._extras)
                return values, True
        elif not isinstance(t, Mapping):
            raise TypeError(f"cannot interpret {type(t).__name__} as a tuple")
        get = t.get
        values = [UNKNOWN] * len(self.attrs)
        for attr, position in self.rule_slots:
            values[position] = get(attr, UNKNOWN)
        return values, False

    def assignment(self, t, values: list, aligned: bool, zb) -> dict:
        """The ``attr -> value`` dict of a chased tuple.

        It holds *t*'s own attributes, every rule attribute and every
        attribute of *zb*, ``UNKNOWN`` where nothing gave a value.
        """
        if aligned:
            out = dict(zip(self.attrs, values))
        else:
            out = t.to_dict() if isinstance(t, Row) else dict(t)
            for attr, position in self.rule_slots:
                out[attr] = values[position]
        for attr in zb:
            if attr not in out:
                out[attr] = UNKNOWN
        return out


def compile_rules(rules, schema, master) -> RuleProgram:
    """Compile Σ against R (*schema*, or ``None`` for partial assignments)
    and Rm (*master*'s schema).

    A :class:`RuleProgram` compiled against the same Rm is returned as it
    is, whatever R it was compiled for: a row over another schema is read
    by name.  *master* is anything with a ``schema`` (a store or a
    relation).  Raises :class:`KeyError` when Rm lacks an attribute a
    plan reads by position: a rule's ``Bm``, or an ``Xm`` attribute whose
    ``X`` attribute the rule's pattern constrains.
    """
    master_schema = master.schema
    if isinstance(rules, RuleProgram):
        if rules.master_attrs == master_schema.attributes:
            return rules
        return RuleProgram(
            rules.rules, schema if schema is not None else rules.schema,
            master_schema,
        )
    return RuleProgram(rules, schema, master_schema)
