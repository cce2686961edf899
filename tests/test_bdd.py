"""The Suggest⁺ BDD cache (Figs. 7-8)."""

from repro.repair.bdd import SuggestionCache
from repro.repair.transfix import transfix


def _state(example, name="t1"):
    result = transfix(
        example.inputs[name], {"zip"}, example.rules, example.master
    )
    return result.row, result.validated


def test_first_tuple_misses_then_reuses(example):
    cache = SuggestionCache(example.rules, example.master, example.schema)
    row, z = _state(example)

    cursor1 = cache.start()
    suggestion1 = cursor1.next_suggestion(row, z)
    assert cache.stats.misses == 1
    assert cache.stats.hits == 0

    cursor2 = cache.start()
    suggestion2 = cursor2.next_suggestion(row, z)
    assert cache.stats.hits == 1
    assert suggestion2.attrs == suggestion1.attrs


def test_cache_falls_through_on_invalid_suggestion(example):
    cache = SuggestionCache(example.rules, example.master, example.schema)
    row, z = _state(example)
    cache.start().next_suggestion(row, z)

    # A different validated set makes the cached S invalid (overlap).
    z2 = z | {"phn", "type"}
    cursor = cache.start()
    suggestion = cursor.next_suggestion(row, z2)
    assert cache.stats.misses == 2
    assert not (set(suggestion.attrs) & z2)


def test_cached_chain_grows_per_round(example):
    cache = SuggestionCache(example.rules, example.master, example.schema)
    row, z = _state(example)
    cursor = cache.start()
    first = cursor.next_suggestion(row, z)
    # Simulate the user asserting the suggestion; next round state:
    clean = example.masters["s1"]
    updates = {}
    for attr in first.attrs:
        updates[attr] = clean[attr] if attr in clean.schema else row[attr]
    row2 = row.with_values(updates)
    z2 = frozenset(z) | set(first.attrs)
    second = cursor.next_suggestion(row2, z2)
    assert not (set(second.attrs) & z2)


def test_hit_rate_accounting(example):
    cache = SuggestionCache(example.rules, example.master, example.schema)
    row, z = _state(example)
    for _ in range(5):
        cache.start().next_suggestion(row, z)
    assert cache.stats.hits == 4
    assert cache.stats.misses == 1
    assert 0.79 < cache.stats.hit_rate < 0.81


def test_cache_stats_zero_division():
    from repro.repair.bdd import CacheStats

    assert CacheStats().hit_rate == 0.0


#: Keyed probes the reuse check makes over the 300-tuple HOSP prefix
#: below (476 checks), as measured; a change that cuts them lowers it.
REUSE_CHECK_PROBES = 669


def test_reuse_check_work_on_a_fixed_hosp_prefix(monkeypatch):
    """The lazy check builds no refined rule and probes only the rules
    its closure reaches: a deterministic work count, not a timing."""
    from repro.core.rules import EditingRule
    from repro.datasets import make_dirty_dataset, make_hosp
    from repro.engine.relation import Relation
    from repro.engine.store import InMemoryStore
    from repro.repair.batch import BatchRepairEngine
    from repro.repair.oracle import SimulatedUser

    bundle = make_hosp(num_hospitals=50, num_measures=10, seed=7)
    data = make_dirty_dataset(bundle, size=300, duplicate_rate=0.3,
                              noise_rate=0.2, seed=2)
    store = InMemoryStore(Relation(bundle.schema, bundle.master.iter_rows()))
    engine = BatchRepairEngine(bundle.rules, store, bundle.schema)
    counts = {"checks": 0, "refinements": 0, "probes": 0}
    inside = [False]
    valid_for = SuggestionCache._valid_for
    with_pattern = EditingRule.with_pattern
    probe_ref = store.probe_ref

    def counting_valid_for(self, *args):
        counts["checks"] += 1
        inside[0] = True
        try:
            return valid_for(self, *args)
        finally:
            inside[0] = False

    def counting_with_pattern(self, *args, **kwargs):
        counts["refinements"] += inside[0]
        return with_pattern(self, *args, **kwargs)

    def counting_probe_ref(*args):
        counts["probes"] += inside[0]
        return probe_ref(*args)

    monkeypatch.setattr(SuggestionCache, "_valid_for", counting_valid_for)
    monkeypatch.setattr(EditingRule, "with_pattern", counting_with_pattern)
    monkeypatch.setattr(store, "probe_ref", counting_probe_ref)
    result = engine.run(
        [(t.dirty, SimulatedUser(t.clean)) for t in data.tuples]
    )

    assert [s.final for s in result.sessions] == [t.clean for t in data.tuples]
    assert counts["checks"] > 0
    assert counts["refinements"] == 0
    assert counts["probes"] <= REUSE_CHECK_PROBES
