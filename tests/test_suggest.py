"""Procedure Suggest: applicable rules Σt[Z], refinement φ⁺, suggestions."""

from repro.core.patterns import Const, PatternTuple
from repro.core.rules import EditingRule
from repro.engine.relation import Relation
from repro.engine.schema import RelationSchema
from repro.engine.tuples import Row
from repro.engine.values import NULL
from repro.repair.suggest import Suggestion, applicable_rules, suggest
from repro.repair.transfix import transfix


def _fixed_t1(example):
    """t1 after Example 12: zip validated, AC/str/city fixed."""
    result = transfix(
        example.inputs["t1"], {"zip"}, example.rules, example.master
    )
    return result.row, result.validated


def test_applicable_rules_drop_validated_targets(example):
    row, z = _fixed_t1(example)
    names = {r.name for r in applicable_rules(example.rules, example.master, row, z)}
    # φ1-φ3 target zip-derived attrs already validated: condition (a).
    assert not ({"phi1", "phi2", "phi3"} & names)


def test_applicable_rules_example14(example):
    """Example 14: Σt[zip,AC,str,city] contains φ4 and φ5.

    (The paper's Example 14 also lists φ6⁺-φ8⁺, whose targets str/city/zip
    are in the validated Z there — that contradicts the section's own
    condition (a) "B ∉ Z", so we follow the formal condition and exclude
    them; their refinement mechanics are tested below.)
    """
    row, z = _fixed_t1(example)
    applicable = {r.name: r for r in applicable_rules(
        example.rules, example.master, row, z
    )}
    assert {"phi4", "phi5"} <= set(applicable)
    assert not ({"phi6", "phi7", "phi8"} & set(applicable))


def test_refinement_absorbs_validated_key_values(example):
    """Example 14's φ6⁺: the validated AC = 131 replaces the 0800̄ guard
    context (the pattern gains the concrete constant)."""
    row, _ = _fixed_t1(example)
    applicable = {r.name: r for r in applicable_rules(
        example.rules, example.master, row, frozenset({"AC"})
    )}
    phi6 = applicable["phi6"]
    assert phi6.pattern.get("AC") == Const("131")
    assert "type" in phi6.pattern  # original guard kept


def test_applicable_rules_condition_b(example):
    """A rule whose pattern contradicts validated values is dropped."""
    row, _ = _fixed_t1(example)
    # Validate type = 1 (and AC): φ4/φ5 (type = 2 pattern) must drop out
    # while the home-phone rules φ6-φ8 stay applicable.
    row2 = row.with_values({"type": 1})
    names = {r.name for r in applicable_rules(
        example.rules, example.master, row2, frozenset({"AC", "type"})
    )}
    assert "phi4" not in names and "phi5" not in names
    assert {"phi6", "phi7", "phi8"} <= names


def test_applicable_rules_condition_c_master_probe(example):
    """A rule whose validated key matches no master tuple is dropped."""
    row, _ = _fixed_t1(example)
    row2 = row.with_values({"phn": "0000000", "type": 1})
    names = {r.name for r in applicable_rules(
        example.rules, example.master, row2,
        frozenset({"AC", "type", "phn"}),
    )}
    assert "phi4" not in names  # Mphn probe fails
    assert "phi6" not in names  # (AC, Hphn) probe fails


def test_suggest_returns_item_for_running_example(example):
    """Example 13: S = {phn, type, item} given t1[zip, AC, str, city]."""
    row, z = _fixed_t1(example)
    suggestion = suggest(
        example.rules, example.master, example.schema, row, z
    )
    assert set(suggestion.attrs) == {"phn", "type", "item"}
    assert suggestion.certain  # master-backed witness exists
    assert suggestion.source == "certain-region"


def test_suggest_structural_fallback_without_master_support(example):
    """A tuple matching nothing gets the remainder as suggestion."""
    t4 = example.inputs["t4"]
    suggestion = suggest(
        example.rules, example.master, example.schema, t4,
        frozenset({"zip", "AC", "phn", "type"}),
    )
    assert suggestion.attrs  # something is suggested
    assert not suggestion.certain


def test_suggest_empty_s_suggests_remainder(example):
    """When rules could cover everything left, suggest the leftovers."""
    row, z = _fixed_t1(example)
    nearly_all = frozenset(example.schema.attributes) - {"item"}
    suggestion = suggest(
        example.rules, example.master, example.schema,
        row.with_values({"item": NULL}), nearly_all,
    )
    assert suggestion.attrs == ("item",)


def test_suggest_pattern_cache_reused(example):
    row, z = _fixed_t1(example)
    cache = {}
    suggest(example.rules, example.master, example.schema, row, z,
            pattern_cache=cache)
    assert isinstance(cache, dict)
    # Second call hits the cache (same object, no error).
    suggest(example.rules, example.master, example.schema, row, z,
            pattern_cache=cache)


def test_pattern_cache_separates_rules_sharing_a_name():
    # Two unnamed rules with one lhs and rhs are both named "(zip)->city";
    # only the src=2 guard has a master witness.  A cache keyed by name
    # let the src=1 rule reuse the src=2 verdict.
    schema = RelationSchema("r", ["zip", "city"])
    master = Relation(
        RelationSchema("m", ["zip", "city", "src"]), [("z1", "c1", 2)]
    )
    rules = [
        EditingRule(("zip",), ("zip",), "city", "city",
                    master_guard=PatternTuple({"src": Const(src)}))
        for src in (1, 2)
    ]
    assert rules[0].name == rules[1].name
    row = Row(schema, ("z1", "cX"))
    uncached = suggest(rules, master, schema, row, frozenset())
    cached = suggest(rules, master, schema, row, frozenset(),
                     pattern_cache={})
    assert cached.attrs == uncached.attrs == ("zip",)


def test_suggestion_truthiness():
    assert not Suggestion(attrs=(), certain=False)
    assert Suggestion(attrs=("a",), certain=False)


def test_s_minimum_matches_example13(example):
    """Example 13: the minimum suggestion for t1 given t1[zip,AC,str,city]
    is exactly {phn, type, item}."""
    from repro.repair.suggest import s_minimum_exact

    row, z = _fixed_t1(example)
    result = s_minimum_exact(
        example.rules, example.master, example.schema, row, z
    )
    assert result is not None
    s, witness = result
    assert set(s) == {"phn", "type", "item"}
    assert witness is not None


def test_s_minimum_with_empty_z_is_z_minimum(example):
    """Sect. 5.2: the Z-minimum problem is the S-minimum special case with
    no attribute fixed initially."""
    from repro.analysis.zproblems import z_minimum_exact
    from repro.repair.suggest import s_minimum_exact
    from repro.engine.tuples import Row
    from repro.engine.values import UNKNOWN

    blank = Row(example.schema,
                [UNKNOWN] * len(example.schema))
    s_result = s_minimum_exact(
        example.rules, example.master, example.schema, blank, frozenset(),
        max_subsets=100_000,
    )
    z_result = z_minimum_exact(
        example.rules, example.master, example.schema, max_subsets=100_000
    )
    assert (s_result is None) == (z_result is None)
    if s_result is not None:
        assert len(s_result[0]) == len(z_result[0])


def test_s_minimum_subset_budget(example):
    import pytest as _pytest
    from repro.repair.suggest import s_minimum_exact

    row, z = _fixed_t1(example)
    with _pytest.raises(RuntimeError, match="NP-complete"):
        s_minimum_exact(
            example.rules, example.master, example.schema, row, frozenset(),
            max_subsets=1,
        )
