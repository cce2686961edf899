"""Differential test: the fix read off a unique chase equals TransFix.

CertainFix validates every round with the Theorem 4 chase and, when it is
unique, reads the round's fix off it (:meth:`TransFixResult.from_chase`)
instead of running TransFix (Sect. 5.1) over the same ``(t, Z')``.  A
unique chase means every maximal fix sequence ends in one tuple, so
TransFix's sequence must end there too; these tests hold the derived
result to the reference procedure on random HOSP and DBLP rows and random
validated sets.  Run alone with ``make differential``.
"""

import pytest

from repro.analysis.dependency_graph import DependencyGraph
from repro.core.fixes import chase
from repro.core.rules import EditingRule
from repro.datasets import make_dirty_dataset
from repro.engine.relation import Relation
from repro.engine.schema import RelationSchema
from repro.engine.store import as_master_store
from repro.engine.tuples import Row
from repro.repair.transfix import TransFixResult, transfix


@pytest.mark.parametrize("bundle_name", ["hosp", "dblp"])
def test_fix_read_off_unique_chase_equals_transfix(bundle_name, request):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    bundle = request.getfixturevalue(bundle_name)
    store = as_master_store(bundle.master)
    graph = DependencyGraph(bundle.rules)
    attrs = bundle.schema.attributes
    pool = list(make_dirty_dataset(bundle, size=60, duplicate_rate=0.5,
                                   noise_rate=0.3, seed=29))
    unique = []

    @hypothesis.settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[hypothesis.HealthCheck.too_slow],
    )
    @hypothesis.given(
        index=st.integers(min_value=0, max_value=len(pool) - 1),
        validated=st.frozensets(st.sampled_from(attrs)),
        clean_attrs=st.frozensets(st.sampled_from(attrs)),
    )
    def check(index, validated, clean_attrs):
        dt = pool[index]
        # Validated cells are a mix of clean and dirty values, so unique,
        # conflicting and fix-free chases all occur.
        row = dt.dirty.with_values({a: dt.clean[a] for a in clean_attrs})
        outcome = chase(row, validated, bundle.rules, store)
        if not outcome.unique:
            return
        unique.append(index)
        derived = TransFixResult.from_chase(row, validated, outcome.fired)
        reference = transfix(row, validated, bundle.rules, store, graph)
        assert derived.row == reference.row
        assert derived.validated == reference.validated == outcome.covered
        assert set(derived.fixed_attrs) == set(reference.fixed_attrs)
        assert len(derived.fixed_attrs) == len(set(derived.fixed_attrs))
        assert derived.lookups == 0

    check()
    assert unique


def test_applied_follows_chase_order():
    """``applied`` keeps the first application per attribute in chase
    ``fired`` order (Σ order within a batch), not TransFix's worklist
    order; only the order differs, never a value."""
    schema = RelationSchema("R", ["a", "b", "c"])
    master = Relation(
        RelationSchema("Rm", ["x", "y", "z", "w"]),
        [Row(RelationSchema("Rm", ["x", "y", "z", "w"]), (1, 10, 20, w))
         for w in (0, 1)],
    )
    rules = [
        EditingRule(("a",), ("x",), "b", "y", name="a->b"),
        EditingRule(("a",), ("x",), "c", "z", name="a->c"),
        EditingRule(("a",), ("x",), "b", "y", name="a->b again"),
    ]
    row = Row(schema, (1, 0, 0))
    outcome = chase(row, {"a"}, rules, master)
    assert outcome.unique
    # Two master rows per rule: six applications in one batch.
    assert [(r.name, tm["w"]) for r, tm, _ in outcome.fired] == [
        ("a->b", 0), ("a->b", 1), ("a->c", 0), ("a->c", 1),
        ("a->b again", 0), ("a->b again", 1),
    ]
    derived = TransFixResult.from_chase(row, {"a"}, outcome.fired)
    assert [(r.name, tm["w"]) for r, tm in derived.applied] == [
        ("a->b", 0), ("a->c", 0),
    ]
    reference = transfix(row, {"a"}, rules, master)
    assert [r.name for r, _ in reference.applied] == ["a->b again", "a->c"]
    assert derived.row == reference.row == Row(schema, (1, 10, 20))
    assert derived.validated == reference.validated == {"a", "b", "c"}
    # The batch memo stores ``applied`` and rebuilds through the same
    # helper; the rebuild is the identity on an already-reduced sequence.
    assert TransFixResult.from_chase(row, {"a"}, derived.applied) == derived
