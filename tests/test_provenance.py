"""Fix provenance: every record names its rule and its master evidence.

A round keeps its rule applications by reference (each rule's position in
Σ and the master row it matched); :class:`~repro.obs.FixProvenance`
records are built from those references when read.  The standing check
below, run over both datasets and two store backends, holds every record
to the rule set and the master it claims to come from: its index names
its rule in Σ, and re-probing its master key on that rule's ``Xm`` finds
guard-passing rows whose ``Bm`` is the value written.
"""

import pytest

from repro.core.rules import EditingRule
from repro.engine.store import InMemoryStore, SqliteStore
from repro.repair.batch import BatchRepairEngine
from repro.repair.certainfix import CertainFix
from repro.repair.oracle import SimulatedUser


def _pairs(data):
    return [(dt.dirty, SimulatedUser(dt.clean)) for dt in data]


def _store(backend, bundle):
    if backend == "memory":
        return InMemoryStore(bundle.master)
    return SqliteStore.from_relation(bundle.master)


def _records(session):
    return [round_log.provenance for round_log in session.rounds]


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
@pytest.mark.parametrize("dataset", ["hosp", "dblp"])
def test_every_record_names_its_rule_and_master_evidence(
    request, dataset, backend
):
    bundle = request.getfixturevalue(dataset)
    data = request.getfixturevalue(f"{dataset}_dirty")
    rules = bundle.rules
    store = _store(backend, bundle)
    result = BatchRepairEngine(rules, store, bundle.schema).run_dirty(data)
    bare = CertainFix(rules, store, bundle.schema, use_bdd=True)
    counts: dict = {}
    for session, dt in zip(result.sessions, data):
        for round_log in session.rounds:
            records = round_log.provenance
            assert [r.attr for r in records] == list(round_log.fixed_by_rules)
            for record in records:
                counts[record.rule_name] = counts.get(record.rule_name, 0) + 1
                rule = rules[record.rule_index]
                assert rule.name == record.rule_name
                assert rule.rhs == record.attr
                assert record.round_index == round_log.index
                rows = [
                    tm for tm in store.probe(rule.lhs_m, record.master_key)
                    if rule.master_guard.matches(tm)
                ]
                assert rows, record.describe()
                assert {tm[rule.rhs_m] for tm in rows} == {record.value}
        # A bare engine answers "why was this cell changed" the same way.
        alone = bare.fix(dt.dirty, SimulatedUser(dt.clean))
        assert _records(alone) == _records(session)
    # The report counts the same applications without building records.
    assert counts and result.report.fixes_by_rule == counts


@pytest.mark.parametrize("dataset", ["hosp", "dblp"])
def test_process_pool_carries_the_same_provenance(request, dataset):
    bundle = request.getfixturevalue(dataset)
    data = request.getfixturevalue(f"{dataset}_dirty")
    results = {}
    for workers in (1, 2):
        with BatchRepairEngine(bundle.rules, bundle.master, bundle.schema,
                               concurrency=workers, chunk_size=5) as batch:
            results[workers] = batch.run_dirty(data)
    inline, pooled = results[1], results[2]
    assert pooled.report.worker_stats  # the pool really ran
    assert inline.provenance == pooled.provenance
    assert inline.report.fixes_by_rule == pooled.report.fixes_by_rule
    assert inline.report.fixes_by_rule


def _duplicate(rule, name):
    """An equal but distinct copy of *rule* under another name."""
    return EditingRule(rule.lhs, rule.lhs_m, rule.rhs, rule.rhs_m,
                       rule.pattern, name=name,
                       master_guard=rule.master_guard)


def test_equal_rules_keep_their_own_positions(hosp, hosp_dirty):
    """Two equal rule objects fire together; the one earlier in Σ is
    recorded, under its own position and name.  A lookup by equality
    would hand both the same position."""
    counts = BatchRepairEngine(hosp.rules, hosp.master, hosp.schema) \
        .run_dirty(hosp_dirty).report.fixes_by_rule
    busiest = max(hosp.rules, key=lambda rule: counts.get(rule.name, 0))
    first = _duplicate(busiest, "dup-first")
    last = _duplicate(busiest, "dup-last")
    assert first == last and first is not last
    rules = [first] + [r for r in hosp.rules if r is not busiest] + [last]
    engine = CertainFix(rules, hosp.master, hosp.schema, use_bdd=True)
    names = []
    for session in engine.fix_stream(_pairs(hosp_dirty)):
        for records in _records(session):
            for record in records:
                assert rules[record.rule_index].name == record.rule_name
                names.append(record.rule_name)
    assert names.count(first.name) == counts[busiest.name] > 0
    assert last.name not in names
