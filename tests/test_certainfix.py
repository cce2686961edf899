"""Algorithm CertainFix / CertainFix⁺ end-to-end (Fig. 3)."""

import pytest

from repro.datasets import make_dirty_dataset
from repro.engine.values import NULL
from repro.repair.certainfix import CertainFix, ValidationFailed
from repro.repair.oracle import LyingUser, SimulatedUser


@pytest.fixture(scope="module")
def hosp_engine(hosp):
    return CertainFix(hosp.rules, hosp.master, hosp.schema)


def test_master_tuple_fixed_in_one_round(hosp, hosp_engine):
    data = make_dirty_dataset(hosp, size=30, duplicate_rate=1.0,
                              noise_rate=0.25, seed=1)
    for dirty_tuple in data:
        oracle = SimulatedUser(dirty_tuple.clean)
        session = hosp_engine.fix(dirty_tuple.dirty, oracle)
        assert session.completed
        assert session.round_count == 1
        assert session.final == dirty_tuple.clean


def test_every_fix_is_the_ground_truth(hosp, hosp_engine):
    """The core guarantee: 100% precision with a truthful oracle."""
    data = make_dirty_dataset(hosp, size=40, duplicate_rate=0.3,
                              noise_rate=0.3, seed=2)
    for dirty_tuple in data:
        oracle = SimulatedUser(dirty_tuple.clean)
        session = hosp_engine.fix(dirty_tuple.dirty, oracle)
        assert session.completed
        assert session.final == dirty_tuple.clean


def test_round_counts_stay_small(hosp, hosp_engine):
    data = make_dirty_dataset(hosp, size=40, duplicate_rate=0.3,
                              noise_rate=0.2, seed=3)
    for dirty_tuple in data:
        session = hosp_engine.fix(
            dirty_tuple.dirty, SimulatedUser(dirty_tuple.clean)
        )
        assert session.round_count <= 5


def test_initial_suggestion_is_best_region(hosp, hosp_engine):
    data = make_dirty_dataset(hosp, size=1, duplicate_rate=1.0,
                              noise_rate=0.2, seed=4)
    session = hosp_engine.fix(data.tuples[0].dirty,
                              SimulatedUser(data.tuples[0].clean))
    assert set(session.rounds[0].suggested) == {"id", "mCode"}
    assert session.rounds[0].suggestion_source == "initial-region"


def test_user_corrections_not_credited_to_rules(hosp, hosp_engine):
    data = make_dirty_dataset(hosp, size=20, duplicate_rate=0.0,
                              noise_rate=0.4, seed=5)
    for dirty_tuple in data:
        oracle = SimulatedUser(dirty_tuple.clean)
        session = hosp_engine.fix(dirty_tuple.dirty, oracle)
        fixed = set(session.attrs_fixed_by_rules)
        asserted = set(session.attrs_asserted_by_user)
        assert not (fixed & asserted)


def test_state_after_round_monotone(hosp, hosp_engine):
    data = make_dirty_dataset(hosp, size=10, duplicate_rate=0.2,
                              noise_rate=0.3, seed=6)
    for dirty_tuple in data:
        session = hosp_engine.fix(
            dirty_tuple.dirty, SimulatedUser(dirty_tuple.clean)
        )
        sizes = []
        for k in range(1, session.round_count + 1):
            _, asserted = session.state_after_round(k)
            sizes.append(len(asserted))
        assert sizes == sorted(sizes)
        final_row, _ = session.state_after_round(session.round_count + 5)
        assert final_row == session.final


def test_bdd_engine_produces_identical_fixes(hosp):
    plain = CertainFix(hosp.rules, hosp.master, hosp.schema, use_bdd=False)
    cached = CertainFix(hosp.rules, hosp.master, hosp.schema, use_bdd=True)
    data = make_dirty_dataset(hosp, size=25, duplicate_rate=0.3,
                              noise_rate=0.25, seed=7)
    for dirty_tuple in data:
        s1 = plain.fix(dirty_tuple.dirty, SimulatedUser(dirty_tuple.clean))
        s2 = cached.fix(dirty_tuple.dirty, SimulatedUser(dirty_tuple.clean))
        assert s1.final == s2.final == dirty_tuple.clean
    stats = cached.cache_stats
    assert stats is not None and stats.hits > 0


def test_lying_user_triggers_revision(hosp):
    """Assertions conflicting with master data are caught by the unique-fix
    validation and sent back for revision."""
    engine = CertainFix(hosp.rules, hosp.master, hosp.schema)
    source = hosp.master.first()
    clean = source.rebind(hosp.schema) if source.schema is not hosp.schema else source
    # Dirty tuple: the id of one hospital with the phone of another -
    # asserting both as "correct" cannot lead to a unique fix.
    other = hosp.master.rows[-1]
    dirty = clean.with_values({"phn": other["phn"]})
    # Extend round-1 assertions to include phn so the lie is visible.
    regions = engine.regions
    oracle = LyingUser(clean, lie_rounds=1)
    session = engine.fix(dirty, oracle)
    assert session.final == clean
    # The lie may or may not conflict depending on the suggested attrs;
    # the engine must still converge to the truth either way.
    assert session.completed


def test_corrections_during_revision_are_counted():
    """Regression: values changed inside the revision loop (oracle.revise)
    must land in RoundLog.corrected_by_user — they used to be computed from
    the first assert_correct call only, so a lie that was later revised
    looked like the rules had done the correcting."""
    from repro.core.regions import Region
    from repro.core.rules import EditingRule
    from repro.engine.relation import Relation
    from repro.engine.schema import INT, RelationSchema
    from repro.engine.tuples import Row
    from repro.repair.region_search import CertainRegionCandidate

    schema = RelationSchema("R", [(a, INT) for a in "abc"])
    master = Relation(RelationSchema("Rm", [(a, INT) for a in "wxy"]),
                      [(1, 5, 7), (2, 5, 8)])
    rules = [
        EditingRule(("a",), ("w",), "c", "y", name="r1"),
        EditingRule(("b",), ("x",), "c", "y", name="r2"),
    ]
    region = CertainRegionCandidate(
        region=Region(("a", "b")), quality=1.0,
        patterns_checked=1, patterns_valid=1,
    )
    engine = CertainFix(rules, master, schema, regions=[region])

    clean = Row(schema, [1, 6, 7])
    dirty = Row(schema, [1, 5, 0])
    # Round 1 asserts the dirty (a, b) as-is; b = 5 reaches master tuples
    # that disagree on y (7 vs 8), the unique-fix check rejects it, and the
    # truthful revision changes b to 6.
    oracle = LyingUser(clean, lie_rounds=1)
    session = engine.fix(dirty, oracle)

    assert session.completed
    assert session.final == clean
    assert session.rounds[0].revisions == 1
    assert session.rounds[0].corrected_by_user == ("b",)
    assert session.attrs_corrected_by_user == {"b"}
    # The rules only fixed c; they must not be credited with b.
    assert session.attrs_fixed_by_rules == {"c"}


def test_corrected_by_user_without_revisions(hosp, hosp_engine):
    """The non-revision path still reports exactly the changed assertions."""
    data = make_dirty_dataset(hosp, size=15, duplicate_rate=0.5,
                              noise_rate=0.4, seed=9)
    for dirty_tuple in data:
        oracle = SimulatedUser(dirty_tuple.clean)
        session = hosp_engine.fix(dirty_tuple.dirty, oracle)
        assert session.attrs_corrected_by_user == oracle.corrected


def test_validation_failed_after_persistent_lies(example):
    """Example 5's conflict, insisted on: asserting t3's AC, phn, type AND
    zip as all-correct contradicts master data (Edi vs Lnd for city), the
    unique-fix validation rejects it, and a stubborn user exhausts the
    revision budget."""
    from repro.repair.region_search import CertainRegionCandidate

    class StubbornLiar:
        def __init__(self, row):
            self.row = row

        def assert_correct(self, current, suggestion):
            return {a: self.row[a] for a in suggestion}

        def revise(self, current, suggestion, reason):
            return {a: self.row[a] for a in suggestion}

    bad_region = CertainRegionCandidate(
        region=example.regions["ZAHZ"],  # (AC, phn, type, zip)
        quality=1.0,
        patterns_checked=1,
        patterns_valid=1,
    )
    engine = CertainFix(
        example.rules, example.master, example.schema,
        regions=[bad_region], max_revisions=2,
    )
    t3 = example.inputs["t3"]
    with pytest.raises(ValidationFailed):
        engine.fix(t3, StubbornLiar(t3))


def test_engine_requires_certain_region():
    from repro.core.rules import EditingRule
    from repro.engine.relation import Relation
    from repro.engine.schema import RelationSchema

    schema = RelationSchema("R", ["a", "b"])
    master = Relation(RelationSchema("Rm", ["x", "y"]))
    engine = CertainFix(
        [EditingRule(("a",), ("x",), "b", "y")], master, schema
    )
    with pytest.raises(ValueError, match="no certain region"):
        engine.regions


@pytest.mark.parametrize("validate_uniqueness", [True, False])
def test_transfix_runs_only_without_uniqueness_validation(
    hosp, monkeypatch, validate_uniqueness
):
    """One fixpoint per round: with uniqueness validation on, the round's
    fix is read off the unique chase and TransFix never runs; with it off,
    TransFix is the only fixpoint and runs once per round."""
    import repro.repair.certainfix as certainfix_module

    calls = []
    original = certainfix_module.transfix

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(certainfix_module, "transfix", counting)
    engine = CertainFix(hosp.rules, hosp.master, hosp.schema,
                        validate_uniqueness=validate_uniqueness)
    data = make_dirty_dataset(hosp, size=10, duplicate_rate=0.3,
                              noise_rate=0.3, seed=4)
    rounds = 0
    for dirty_tuple in data:
        session = engine.fix(dirty_tuple.dirty,
                             SimulatedUser(dirty_tuple.clean))
        assert session.final == dirty_tuple.clean
        rounds += session.round_count
    assert len(calls) == (0 if validate_uniqueness else rounds)
