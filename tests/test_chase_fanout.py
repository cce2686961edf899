"""The value-level chase on master keys that fan out to many rows.

The Theorem 4 chase walks each read's guard-passing master rows once and
decides both conflict tests (steps (e) and (g)) on their distinct ``Bm``
values.  These tests hold it to the exhaustive order-exploring chase and to
a brute-force enumeration of rows on masters with 1–8 rows per key, equal
and differing ``Bm`` values and rules whose master guard some rows fail —
a shape :func:`tests.test_property_based.instances` never draws.  Run alone
with ``make differential``.
"""

import pytest

from repro.analysis.chase import explore_fixes
from repro.core.fixes import chase
from repro.core.patterns import PatternTuple
from repro.core.rules import EditingRule
from repro.engine.relation import Relation
from repro.engine.schema import INT, RelationSchema
from repro.engine.store import InMemoryStore
from repro.engine.tuples import Row
from repro.engine.values import UNKNOWN
from repro.repair.transfix import TransFixResult

R = RelationSchema("R", [(a, INT) for a in "abcd"])
RM = RelationSchema("Rm", [(a, INT) for a in "wxyzg"])
GUARD = PatternTuple({"g": 1})


class TupleStore(InMemoryStore):
    """The memory store with tuple-valued probes, as ``RemoteStore`` returns."""

    def probe_ref(self, attrs, key):
        return tuple(super().probe_ref(attrs, key))


def guard_rows(rule, master, assignment) -> list:
    """Brute force: every master row the rule applies with, in row order."""
    key = tuple(assignment[a] for a in rule.lhs)
    return [
        tm for tm in master
        if tm[rule.lhs_m] == key and rule.master_guard.matches(tm)
    ]


def check_outcome(master, rules, z, t):
    outcome = chase(t, z, rules, InMemoryStore(master))

    # Same outcome whether probes come back as lists or tuples.
    assert outcome == chase(t, z, rules, TupleStore(master))

    explored = explore_fixes(t, z, rules, master, max_states=20_000)
    assert outcome.unique == explored.unique
    if outcome.unique:
        (final,) = explored.final_assignments
        for attr in outcome.covered:
            if outcome.assignment[attr] is not UNKNOWN:
                assert final[attr] == outcome.assignment[attr]
        derived = TransFixResult.from_chase(t, z, outcome.first_fired())
        assert derived == TransFixResult.from_chase(t, z, outcome.fired)
        assert derived.validated == outcome.covered

    # ``fired`` is one entry per guard-passing row of each applied rule,
    # rules in Σ order within a batch, rows in master order.
    expected = [
        (rule, tm, batch)
        for rule, _rows, batch, _ in outcome.applications
        for tm in guard_rows(rule, master, outcome.assignment)
    ]
    assert outcome.fired == expected
    batches = [batch for _, _, batch, _ in outcome.applications]
    assert batches == sorted(batches)
    assert set(batches) == set(range(1, outcome.batches + 1))
    for rule, _, _, index in outcome.applications:
        assert rules[index] is rule
    for batch in set(batches):
        order = [i for _, _, b, i in outcome.applications if b == batch]
        assert order == sorted(set(order))

    conflict = outcome.conflict
    if conflict is not None and conflict.kind == "same-batch":
        first, second = conflict.values
        earlier, later = conflict.rules
        if earlier is not later:
            assert all(
                tm[earlier.rhs_m] == first
                for tm in guard_rows(earlier, master, outcome.assignment)
            )
        values = [tm[later.rhs_m]
                  for tm in guard_rows(later, master, outcome.assignment)]
        k = next(i for i, v in enumerate(values) if v != first)
        assert all(v == first for v in values[:k])
        assert second == values[k]


def test_value_level_chase_matches_exploration_and_brute_force():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    small = st.integers(min_value=0, max_value=2)

    @st.composite
    def instances(draw):
        """``(master, rules, z, t)`` with 1–8 master rows per ``w`` key."""
        rows = []
        for key in draw(st.lists(small, min_size=1, max_size=3, unique=True)):
            base = draw(st.tuples(small, small, small))
            for _ in range(draw(st.integers(min_value=1, max_value=8))):
                # Mostly the group's values, so equal and differing Bm mix.
                values = tuple(
                    v if draw(st.sampled_from((True, True, False)))
                    else draw(small)
                    for v in base
                )
                rows.append((key, *values, draw(st.integers(0, 1))))
        master = Relation(RM, draw(st.permutations(rows)))
        rules = []
        for i in range(draw(st.integers(min_value=1, max_value=5))):
            lhs = tuple(draw(st.permutations("abcd"))[:draw(st.integers(1, 2))])
            rules.append(EditingRule(
                lhs,
                tuple(draw(st.sampled_from("wwwxyz")) for _ in lhs),
                draw(st.sampled_from([a for a in "abcd" if a not in lhs])),
                draw(st.sampled_from("xyz")),
                name=f"r{i}",
                master_guard=GUARD if draw(st.booleans()) else None,
            ))
        z = tuple(draw(st.permutations("abcd"))[:draw(st.integers(1, 3))])
        t = Row(R, [draw(small) if a in z else UNKNOWN for a in R.attributes])
        return master, rules, z, t

    @hypothesis.settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[hypothesis.HealthCheck.too_slow],
    )
    @hypothesis.given(instances())
    def check(instance):
        check_outcome(*instance)

    check()


def _one_rule_master(values, guards=None):
    """Master rows ``(w=1, x=v, g)`` and the rule ``a -> b`` keyed on w."""
    guards = guards or [1] * len(values)
    master = Relation(RM, [(1, v, 0, 0, g) for v, g in zip(values, guards)])
    return master, EditingRule(("a",), ("w",), "b", "x", name="a->b")


def test_equal_values_of_different_types_do_not_conflict():
    for values, shown in (([1, 1.0], "1"), ([1.0, 1], "1.0")):
        master, rule = _one_rule_master(values)
        t = Row(R, (1, UNKNOWN, UNKNOWN, UNKNOWN))
        outcome = chase(t, {"a"}, [rule], master)
        assert outcome.unique and outcome.conflict is None
        assert len(outcome.fired) == 2
        # The first row's value is assigned, as the derived fix reads it.
        assert repr(outcome.assignment["b"]) == shown
        derived = TransFixResult.from_chase(t, {"a"}, outcome.first_fired())
        assert repr(derived.row["b"]) == shown
        assert derived.row.values == outcome.final_row(R).values


def test_same_batch_conflict_reports_first_two_distinct_values():
    master, rule = _one_rule_master([5, 5, 7, 9])
    t = Row(R, (1, UNKNOWN, UNKNOWN, UNKNOWN))
    outcome = chase(t, {"a"}, [rule], master)
    assert not outcome.unique
    assert outcome.conflict.kind == "same-batch"
    assert outcome.conflict.values == (5, 7)
    assert outcome.conflict.rules == (rule, rule)


def test_guard_failing_rows_neither_fire_nor_conflict():
    master, rule = _one_rule_master([5, 7, 7], guards=[0, 1, 1])
    guarded = EditingRule(("a",), ("w",), "b", "x", name="a->b",
                          master_guard=GUARD)
    t = Row(R, (1, UNKNOWN, UNKNOWN, UNKNOWN))
    assert not chase(t, {"a"}, [rule], master).unique
    outcome = chase(t, {"a"}, [guarded], master)
    assert outcome.unique
    assert outcome.assignment["b"] == 7
    assert [tm["x"] for _, tm, _ in outcome.fired] == [7, 7]
    ((_, rows, batch, index),) = outcome.applications
    assert isinstance(rows, tuple) and batch == 1 and index == 0


def test_order_dependent_conflict_on_a_later_distinct_value():
    """``c -> b`` is read after b is fixed: its first row agrees with b,
    its second does not, and c is derivable without b (via ``a -> c``), so
    applying ``c -> b`` first gives another fix."""
    master = Relation(RM, [(1, 5, 2, 0, 1), (3, 7, 2, 0, 1)])
    rules = [
        EditingRule(("a",), ("w",), "b", "x", name="a->b"),
        EditingRule(("a",), ("w",), "c", "y", name="a->c"),
        EditingRule(("c",), ("y",), "b", "x", name="c->b"),
    ]
    t = Row(R, (1, UNKNOWN, UNKNOWN, UNKNOWN))
    outcome = chase(t, {"a"}, rules, master)
    assert not outcome.unique
    assert outcome.conflict.kind == "order-dependent"
    assert outcome.conflict.values == (5, 7)
    assert outcome.conflict.rules == (rules[2],)
    assert not explore_fixes(t, {"a"}, rules, master).unique
