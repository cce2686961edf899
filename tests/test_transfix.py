"""Procedure TransFix (Fig. 5) and its ablation variants."""

import random

import pytest

from repro.analysis.dependency_graph import DependencyGraph
from repro.core.patterns import PatternTuple, neq
from repro.core.rules import EditingRule
from repro.engine.relation import Relation
from repro.engine.schema import INT, RelationSchema
from repro.engine.tuples import Row
from repro.engine.values import NULL, UNKNOWN
from repro.repair.transfix import MasterConflict, transfix, transfix_naive


def _setup(master_rows, rules_spec):
    r = RelationSchema("R", [(a, INT) for a in "abcd"])
    rm = RelationSchema("Rm", [(a, INT) for a in "wxyz"])
    master = Relation(rm)
    for row in master_rows:
        master.insert(row)
    rules = [
        EditingRule(lhs, lhs_m, rhs, rhs_m, PatternTuple(pattern or {}),
                    name=f"r{i}")
        for i, (lhs, lhs_m, rhs, rhs_m, pattern) in enumerate(rules_spec)
    ]
    return r, master, rules


CHAIN = [
    (("a",), ("w",), "b", "x", None),
    (("b",), ("x",), "c", "y", None),
    (("c",), ("y",), "d", "z", None),
]


def test_transfix_chains_through_dependency_graph():
    r, master, rules = _setup([(1, 2, 3, 4)], CHAIN)
    t = Row(r, [1, 0, 0, 0])
    result = transfix(t, {"a"}, rules, master)
    assert result.row.values == (1, 2, 3, 4)
    assert result.validated == {"a", "b", "c", "d"}
    assert result.fixed_attrs == ("b", "c", "d")


def test_transfix_validated_attrs_protected():
    r, master, rules = _setup([(1, 2, 3, 4)], CHAIN)
    t = Row(r, [1, 99, 0, 0])
    result = transfix(t, {"a", "b"}, rules, master)
    assert result.row["b"] == 99          # user-validated, untouched
    assert result.row["c"] == 0           # b = 99 matches no master key
    assert result.validated == {"a", "b"}


def test_transfix_stops_at_missing_master_match():
    r, master, rules = _setup([(9, 2, 3, 4)], CHAIN)
    t = Row(r, [1, 0, 0, 0])
    result = transfix(t, {"a"}, rules, master)
    assert result.row == t
    assert result.applied == []


def test_transfix_pattern_gate():
    r, master, rules = _setup(
        [(1, 2, 3, 4)],
        [(("a",), ("w",), "b", "x", {"a": 7})],
    )
    result = transfix(Row(r, [1, 0, 0, 0]), {"a"}, rules, master)
    assert result.applied == []


def test_transfix_nil_guard_blocks_null_keys():
    r, master, rules = _setup(
        [(1, 2, 3, 4)],
        [(("a",), ("w",), "b", "x", {"a": __import__("repro.core.patterns", fromlist=["neq"]).neq(NULL)})],
    )
    result = transfix(Row(r, [NULL, 0, 0, 0]), {"a"}, rules, master)
    assert result.applied == []


def test_transfix_detects_master_disagreement():
    r, master, rules = _setup(
        [(1, 2, 3, 4), (1, 9, 3, 4)],
        [(("a",), ("w",), "b", "x", None)],
    )
    with pytest.raises(MasterConflict):
        transfix(Row(r, [1, 0, 0, 0]), {"a"}, rules, master)


def test_transfix_agreeing_duplicates_are_fine():
    r, master, rules = _setup(
        [(1, 2, 3, 4), (1, 2, 9, 9)],
        [(("a",), ("w",), "b", "x", None)],
    )
    result = transfix(Row(r, [1, 0, 0, 0]), {"a"}, rules, master)
    assert result.row["b"] == 2


def test_transfix_reuses_prebuilt_graph():
    r, master, rules = _setup([(1, 2, 3, 4)], CHAIN)
    graph = DependencyGraph(rules)
    t = Row(r, [1, 0, 0, 0])
    r1 = transfix(t, {"a"}, rules, master, graph)
    r2 = transfix(t, {"a"}, rules, master, graph)
    assert r1.row == r2.row


def test_transfix_equals_naive_fixpoint():
    """Ablation A1: dependency-graph order and naive rescanning agree."""
    r, master, rules = _setup([(1, 2, 3, 4)], CHAIN)
    t = Row(r, [1, 0, 0, 0])
    fast = transfix(t, {"a"}, rules, master)
    naive = transfix_naive(t, {"a"}, rules, master)
    assert fast.row == naive.row
    assert fast.validated == naive.validated


def test_transfix_scan_equals_index():
    """Ablation A2: lookups via scan produce identical fixes."""
    r, master, rules = _setup([(1, 2, 3, 4)], CHAIN)
    t = Row(r, [1, 0, 0, 0])
    indexed = transfix(t, {"a"}, rules, master, use_index=True)
    scanned = transfix(t, {"a"}, rules, master, use_index=False)
    assert indexed.row == scanned.row


def _assert_equivalent(t, validated, rules, master):
    """transfix and transfix_naive agree on outcome or on the conflict."""
    outcomes = []
    for fn in (transfix, transfix_naive):
        try:
            outcomes.append(("ok", fn(t, validated, rules, master)))
        except MasterConflict:
            outcomes.append(("conflict", None))
    (k1, r1), (k2, r2) = outcomes
    assert k1 == k2
    if k1 == "ok":
        assert r1.row == r2.row
        assert r1.validated == r2.validated
        assert set(r1.fixed_attrs) == set(r2.fixed_attrs)


def test_transfix_equals_naive_under_master_guard():
    """Guards filter master matches identically on both paths: the
    disagreeing master tuple is invisible, so no conflict and the guarded
    value is used."""
    r, master, _ = _setup([(1, 2, 3, 4), (1, 9, 0, 4)], [])  # both w=1

    def guarded(guard):
        return [EditingRule(("a",), ("w",), "b", "x", PatternTuple({}),
                            name="r0", master_guard=PatternTuple(guard))]

    rules = guarded({"y": neq(0)})
    _assert_equivalent(Row(r, [1, 0, 0, 0]), {"a"}, rules, master)
    result = transfix(Row(r, [1, 0, 0, 0]), {"a"}, rules, master)
    assert result.row["b"] == 2             # the y=0 tuple was filtered

    # A guard nothing satisfies: the rule never fires on either path.
    rules = guarded({"z": 99})
    _assert_equivalent(Row(r, [1, 0, 0, 0]), {"a"}, rules, master)
    assert transfix(Row(r, [1, 0, 0, 0]), {"a"}, rules, master).applied == []


def test_transfix_equals_naive_with_unknown_keys():
    """UNKNOWN key values block master probes on both paths, including
    mid-chain (a fixed attribute un-blocks its dependents identically)."""
    r, master, rules = _setup([(1, 2, 3, 4)], CHAIN)
    for values, validated in [
        ([UNKNOWN, 0, 0, 0], {"a"}),
        ([1, UNKNOWN, 0, 0], {"a", "b"}),     # b validated but UNKNOWN
        ([UNKNOWN, 2, UNKNOWN, 0], {"b"}),    # chain resumes from b
    ]:
        _assert_equivalent(Row(r, values), validated, rules, master)
    blocked = transfix(Row(r, [UNKNOWN, 0, 0, 0]), {"a"}, rules, master)
    assert blocked.applied == []
    resumed = transfix(Row(r, [UNKNOWN, 2, UNKNOWN, 0]), {"b"}, rules, master)
    assert resumed.row["c"] == 3 and resumed.row["d"] == 4


def test_transfix_equals_naive_randomized(hosp):
    """Fuzzed equivalence on HOSP: corrupted tuples with NULL/UNKNOWN
    injections and random validated sets (guards model ``≠ NULL``)."""
    rng = random.Random(20100713)
    attrs = hosp.schema.attributes
    rows = hosp.master.rows
    for _ in range(25):
        base = rows[rng.randrange(len(rows))]
        values = {a: base[a] for a in attrs}
        for a in attrs:
            roll = rng.random()
            if roll < 0.12:
                values[a] = NULL
            elif roll < 0.2:
                values[a] = UNKNOWN
            elif roll < 0.3:
                donor = rows[rng.randrange(len(rows))]
                values[a] = donor[a]
        validated = {a for a in attrs if rng.random() < 0.4}
        _assert_equivalent(
            Row(hosp.schema, values), validated, hosp.rules, hosp.master
        )


def test_transfix_example12_trace(example):
    """Example 12: fixing t1 from Z = {zip} walks φ1, φ2, φ3."""
    t1 = example.inputs["t1"]
    result = transfix(t1, {"zip"}, example.rules, example.master)
    assert result.row["AC"] == "131"
    assert result.row["str"] == "51 Elm Row"
    assert result.row["city"] == "Edi"
    assert result.validated >= {"zip", "AC", "str", "city"}
    applied_names = {rule.name for rule, _ in result.applied}
    assert {"phi1", "phi2", "phi3"} <= applied_names
    # φ4/φ5 need phn/type validated - not reachable from zip alone.
    assert result.row["FN"] == "Bob"


def test_transfix_on_hosp_master_row(hosp):
    """From {id, mCode} every other attribute of a master tuple is fixed."""
    source = hosp.master.first()
    blank = Row(hosp.schema, {
        a: (source[a] if a in ("id", "mCode") else NULL)
        for a in hosp.schema.attributes
    })
    result = transfix(blank, {"id", "mCode"}, hosp.rules, hosp.master)
    assert result.validated == set(hosp.schema.attributes)
    assert result.row == Row(hosp.schema, {a: source[a] for a in hosp.schema.attributes})
