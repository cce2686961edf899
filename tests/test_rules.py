"""Editing rules: structure, normal form, and the application semantics."""

import pickle

import pytest

from repro.core.patterns import ANY, PatternTuple, neq
from repro.core.rules import (
    EditingRule,
    expand_rule_family,
    rules_attrs,
    rules_lhs,
    rules_rhs,
)
from repro.engine.relation import Relation
from repro.engine.schema import RelationSchema
from repro.engine.tuples import Row


@pytest.fixture()
def schemas():
    r = RelationSchema("R", ["a", "b", "c"])
    rm = RelationSchema("Rm", ["x", "y", "z"])
    return r, rm


def test_rule_structure_validation():
    with pytest.raises(ValueError, match="same length"):
        EditingRule(("a", "b"), ("x",), "c", "z")
    with pytest.raises(ValueError, match="duplicate"):
        EditingRule(("a", "a"), ("x", "y"), "c", "z")
    with pytest.raises(ValueError, match="must not occur"):
        EditingRule(("a",), ("x",), "a", "z")


def test_repeated_master_attrs_allowed():
    # The Theorem 12 construction matches many R attributes against B1.
    rule = EditingRule(("a", "b"), ("x", "x"), "c", "z")
    assert rule.lhs_m == ("x", "x")


def test_notation_accessors():
    rule = EditingRule(("a", "b"), ("x", "y"), "c", "z",
                       PatternTuple({"a": 1}))
    assert rule.lhs == ("a", "b")
    assert rule.lhs_m == ("x", "y")
    assert rule.rhs == "c"
    assert rule.rhs_m == "z"
    assert rule.lhs_p == ("a",)
    assert rule.premise_attrs == {"a", "b"}
    assert rule.master_attr_of("b") == "y"
    assert rule.master_attrs_of(("b", "a")) == ("y", "x")


def test_master_attr_of_unknown_raises():
    rule = EditingRule(("a",), ("x",), "c", "z")
    with pytest.raises(KeyError):
        rule.master_attr_of("b")


def test_normal_form(schemas):
    rule = EditingRule(("a",), ("x",), "c", "z",
                       PatternTuple({"a": 1, "b": ANY}))
    assert not rule.is_normal_form
    normalized = rule.normalized()
    assert normalized.is_normal_form
    assert normalized.pattern.attrs == ("a",)


def test_normalization_preserves_semantics(schemas):
    """The Sect. 2 remark: φ and its normal form are equivalent."""
    r, rm = schemas
    rule = EditingRule(("a",), ("x",), "c", "z",
                       PatternTuple({"a": 1, "b": ANY}))
    normalized = rule.normalized()
    tm = Row(rm, [1, 2, 3])
    for values in ([1, 5, 9], [1, 7, 0], [2, 5, 9]):
        t = Row(r, values)
        assert rule.applies_to(t, tm) == normalized.applies_to(t, tm)
        if rule.applies_to(t, tm):
            assert rule.apply(t, tm) == normalized.apply(t, tm)


def test_application_semantics(schemas):
    r, rm = schemas
    rule = EditingRule(("a",), ("x",), "c", "z", PatternTuple({"b": neq(0)}))
    tm = Row(rm, [1, 2, 30])
    t = Row(r, [1, 5, 9])
    assert rule.applies_to(t, tm)
    fixed = rule.apply(t, tm)
    assert fixed["c"] == 30
    assert fixed["a"] == 1 and fixed["b"] == 5  # only B changes


def test_application_requires_pattern_and_key(schemas):
    r, rm = schemas
    rule = EditingRule(("a",), ("x",), "c", "z", PatternTuple({"b": neq(0)}))
    tm = Row(rm, [1, 2, 30])
    assert not rule.applies_to(Row(r, [1, 0, 9]), tm)  # pattern fails
    assert not rule.applies_to(Row(r, [2, 5, 9]), tm)  # key mismatch
    with pytest.raises(ValueError):
        rule.apply(Row(r, [2, 5, 9]), tm)


def test_matching_master_rows_uses_index(schemas):
    r, rm = schemas
    master = Relation(rm)
    master.insert([1, 2, 30])
    master.insert([1, 9, 40])
    master.insert([2, 2, 50])
    rule = EditingRule(("a",), ("x",), "c", "z")
    t = Row(r, [1, 5, 9])
    assert len(rule.matching_master_rows(t, master)) == 2


def test_is_direct():
    assert EditingRule(("a",), ("x",), "c", "z", PatternTuple({"a": 1})).is_direct
    assert not EditingRule(
        ("a",), ("x",), "c", "z", PatternTuple({"b": 1})
    ).is_direct


def test_expand_rule_family():
    family = expand_rule_family(
        ("k",), ("km",), ["p", "q"], PatternTuple({"k": neq(None)}),
        name_prefix="f",
    )
    assert [r.rhs for r in family] == ["p", "q"]
    assert [r.rhs_m for r in family] == ["p", "q"]
    assert family[0].name == "f[p]"


def test_rule_set_notation_helpers():
    rules = [
        EditingRule(("a",), ("x",), "c", "z", PatternTuple({"b": 1})),
        EditingRule(("b",), ("y",), "a", "x"),
    ]
    assert rules_lhs(rules) == {"a", "b"}
    assert rules_rhs(rules) == {"c", "a"}
    assert rules_attrs(rules) == {"a", "b", "c"}


def test_rule_equality_ignores_name():
    r1 = EditingRule(("a",), ("x",), "c", "z", name="one")
    r2 = EditingRule(("a",), ("x",), "c", "z", name="two")
    assert r1 == r2 and hash(r1) == hash(r2)


def test_equal_rules_hash_equal_with_the_hash_cached():
    pattern = PatternTuple({"b": neq(1)})
    r1 = EditingRule(("a", "b"), ("x", "y"), "c", "z", pattern, name="one")
    r2 = EditingRule(["a", "b"], ["x", "y"], "c", "z",
                     PatternTuple({"b": neq(1)}), name="two")
    assert r1 == r2 and hash(r1) == hash(r2)
    assert r1 != r1.with_pattern(PatternTuple({}))
    assert {r1: 1}[r2] == 1
    # String hashes are salted per process, so a cached hash must not
    # travel through pickle to a spawned worker: rule and pattern rebuild.
    clone = pickle.loads(pickle.dumps(r1))
    assert clone._hash is None and clone.pattern._hash is None
    assert clone == r1 and hash(clone) == hash(r1) and clone.name == "one"


def test_with_pattern_keeps_everything_else():
    rule = EditingRule(("a",), ("x",), "c", "z", PatternTuple({"b": 1}))
    refined = rule.with_pattern(PatternTuple({"b": 1, "a": 2}))
    assert refined.lhs == rule.lhs and refined.rhs == rule.rhs
    assert refined.lhs_p == ("b", "a")
