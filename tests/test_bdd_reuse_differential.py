"""Differential test: the lazy Suggest⁺ reuse check equals the eager one.

:meth:`SuggestionCache._valid_for` grows the closure of ``Z ∪ S`` and
tests a rule's conditions (b)+(c) — its master probe included — only once
the rule's premise is in the closure and its target is not.  The reference
below is the eager check it replaced: derive every refined applicable rule
of ``Σt[Z]``, require the attributes none of them can fix to lie in ``S``,
then close ``Z ∪ S`` under the survivors.  Both must agree on random HOSP
and DBLP rows (some cells ``UNKNOWN``), validated sets ``Z`` and candidate
sets ``S`` (empty, overlapping ``Z``, or a fresh structural suggestion
plus extras), while the master is mutated between checks and the lazy
side keeps its pattern cache patched per delta as an engine does.  Run
alone with ``make differential``.
"""

import pytest

from repro.core.patterns import Const
from repro.engine.relation import Relation
from repro.engine.store import InMemoryStore
from repro.engine.tuples import Row
from repro.engine.values import UNKNOWN
from repro.datasets import make_dirty_dataset
from repro.repair.bdd import SuggestionCache
from repro.repair.invalidation import patch_pattern_cache
from repro.repair.suggest import Suggestion, _pattern_holds_on_master, suggest


def _eager_applicable_rules(rules, master, row, z):
    """``Σt[Z]`` as the reuse check derived it before it became lazy."""
    out = []
    for rule in rules:
        if rule.rhs in z:  # (a)
            continue
        z_pattern_attrs = [a for a in rule.pattern.attrs if a in z]
        if not all(  # (b)
            rule.pattern[a].matches(row[a]) for a in z_pattern_attrs
        ):
            continue
        if any(row[a] is UNKNOWN for a in z_pattern_attrs):
            continue
        key_attrs = tuple(a for a in rule.lhs if a in z)
        if key_attrs:  # (c), keyed probe
            key = tuple(row[a] for a in key_attrs)
            if any(v is UNKNOWN for v in key):
                continue
            matches = master.probe_ref(rule.master_attrs_of(key_attrs), key)
            pattern_checks = [
                (rule.master_attr_of(a), rule.pattern[a])
                for a in rule.pattern.attrs
                if a in rule.lhs and a not in z
                and not rule.pattern[a].is_wildcard
            ]
            if not any(
                rule.master_guard.matches(tm)
                and all(c.matches(tm[col]) for col, c in pattern_checks)
                for tm in matches
            ):
                continue
        elif not _pattern_holds_on_master(rule, master):  # (c), pattern-only
            continue
        refined = rule.pattern.extend({a: Const(row[a]) for a in key_attrs})
        out.append(rule.with_pattern(refined))
    return out


def _eager_closure(attrs, rules):
    closure = set(attrs)
    changed = True
    while changed:
        changed = False
        for rule in rules:
            if rule.rhs not in closure and rule.premise_attrs <= closure:
                closure.add(rule.rhs)
                changed = True
    return closure


def _eager_valid_for(rules, master, schema, s, row, z):
    s = set(s)
    if not s or s & z:
        return False
    applicable = _eager_applicable_rules(rules, master, row, z)
    fixable = {rule.rhs for rule in applicable}
    uncoverable = set(schema.attributes) - z - fixable
    if not uncoverable <= s:
        return False
    return _eager_closure(z | s, applicable) >= set(schema.attributes)


def _mutate(store, base_rows, deleted, kind, i, j, column):
    """Delete a master row, or insert a master row with one cell taken
    from another (a new key combination the probes can now find)."""
    if kind == "delete":
        row = base_rows[i % len(base_rows)]
        if row.values not in deleted and store.delete(row):
            deleted.add(row.values)
    elif kind == "insert":
        row = base_rows[i % len(base_rows)]
        donor = base_rows[j % len(base_rows)]
        store.insert(row.with_values({column: donor[column]}))


@pytest.mark.parametrize("bundle_name", ["hosp", "dblp"])
def test_lazy_reuse_check_equals_eager_reference(bundle_name, request):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    bundle = request.getfixturevalue(bundle_name)
    schema = bundle.schema
    attrs = schema.attributes
    master_attrs = bundle.master.schema.attributes
    base_rows = list(bundle.master.iter_rows())
    pool = list(make_dirty_dataset(bundle, size=60, duplicate_rate=0.5,
                                   noise_rate=0.3, seed=31))
    verdicts = []

    step = st.tuples(
        st.integers(min_value=0, max_value=len(pool) - 1),  # pool row
        st.frozensets(st.sampled_from(attrs)),  # clean cells
        st.frozensets(st.sampled_from(attrs)),  # UNKNOWN cells
        st.frozensets(st.sampled_from(attrs)),  # Z
        st.sampled_from(["random", "suggested", "empty"]),
        st.frozensets(st.sampled_from(attrs)),  # S (or extras)
        st.sampled_from(["none", "delete", "insert"]),
        st.integers(min_value=0),
        st.integers(min_value=0),
        st.sampled_from(master_attrs),
    )

    @hypothesis.settings(
        max_examples=120,
        deadline=None,
        suppress_health_check=[hypothesis.HealthCheck.too_slow],
    )
    @hypothesis.given(steps=st.lists(step, min_size=1, max_size=4))
    def check(steps):
        store = InMemoryStore(Relation(bundle.master.schema, base_rows))
        cache = SuggestionCache(bundle.rules, store, schema)
        deleted = set()
        for (index, clean_attrs, unknown, z, s_mode, s_attrs,
             kind, i, j, column) in steps:
            version = store.version
            _mutate(store, base_rows, deleted, kind, i, j, column)
            deltas = store.deltas_since(version)
            patch_pattern_cache(
                cache.pattern_cache, bundle.rules, deltas,
                [Row(store.schema, d.values) for d in deltas],
            )
            dt = pool[index]
            row = dt.dirty.with_values(
                {a: dt.clean[a] for a in clean_attrs}
            ).with_values({a: UNKNOWN for a in unknown})
            if s_mode == "empty":
                s = ()
            elif s_mode == "suggested":
                fresh = suggest(bundle.rules, store, schema, row, z,
                                validate_patterns=0)
                s = tuple(a for a in attrs
                          if a in fresh.attrs or a in s_attrs)
            else:
                s = tuple(a for a in attrs if a in s_attrs)
            lazy = cache._valid_for(
                Suggestion(attrs=s, certain=False), row, z
            )
            eager = _eager_valid_for(bundle.rules, store, schema, s, row, z)
            assert lazy == eager
            verdicts.append(lazy)

    check()
    assert True in verdicts and False in verdicts
