"""CertainFix configuration paths: region ranks, validation toggles,
round budgets, streams."""

import pytest

from repro.datasets import make_dirty_dataset
from repro.repair.certainfix import CertainFix
from repro.repair.oracle import SimulatedUser


def test_crmq_rank_uses_larger_region(hosp):
    crhq = CertainFix(hosp.rules, hosp.master, hosp.schema,
                      initial_region_rank=0)
    regions = crhq.regions
    if len(regions) < 2:
        pytest.skip("need several regions for rank comparison")
    crmq = CertainFix(hosp.rules, hosp.master, hosp.schema,
                      regions=regions,
                      initial_region_rank=len(regions) // 2)
    assert len(crmq.initial_region.region.attrs) >= len(
        crhq.initial_region.region.attrs
    )


def test_rank_clamped_to_available_regions(hosp):
    engine = CertainFix(hosp.rules, hosp.master, hosp.schema,
                        initial_region_rank=999)
    assert engine.initial_region is engine.regions[-1]


def test_crmq_asks_more_asserts_fewer_rule_fixes(hosp):
    data = make_dirty_dataset(hosp, size=25, duplicate_rate=1.0,
                              noise_rate=0.25, seed=31)
    regions = CertainFix(hosp.rules, hosp.master, hosp.schema).regions
    if len(regions) < 2:
        pytest.skip("need several regions")

    def user_burden(rank):
        engine = CertainFix(hosp.rules, hosp.master, hosp.schema,
                            regions=regions, initial_region_rank=rank)
        total = 0
        for dt in data:
            session = engine.fix(dt.dirty, SimulatedUser(dt.clean))
            assert session.final == dt.clean
            total += len(session.attrs_asserted_by_user)
        return total

    assert user_burden(len(regions) // 2) >= user_burden(0)


def test_max_rounds_budget_reports_incomplete(hosp):
    class SilentUser:
        """Answers nothing, ever."""

        def assert_correct(self, current, suggestion):
            return {}

        def revise(self, current, suggestion, reason):
            return {}

    data = make_dirty_dataset(hosp, size=1, duplicate_rate=0.0,
                              noise_rate=0.2, seed=33)
    engine = CertainFix(hosp.rules, hosp.master, hosp.schema, max_rounds=2)
    session = engine.fix(data.tuples[0].dirty, SilentUser())
    assert not session.completed
    assert session.round_count == 2


def test_fix_stream_helper(hosp):
    data = make_dirty_dataset(hosp, size=5, duplicate_rate=1.0,
                              noise_rate=0.2, seed=34)
    engine = CertainFix(hosp.rules, hosp.master, hosp.schema)
    sessions = engine.fix_stream(
        (dt.dirty, SimulatedUser(dt.clean)) for dt in data
    )
    assert len(sessions) == 5
    assert all(s.completed for s in sessions)


def test_regions_are_shared_between_engines(hosp):
    """Precomputed regions can seed many engines (the paper: computed once,
    reused while Σ and Dm are unchanged)."""
    base = CertainFix(hosp.rules, hosp.master, hosp.schema)
    regions = base.regions
    reuser = CertainFix(hosp.rules, hosp.master, hosp.schema,
                        regions=regions)
    assert reuser.regions is regions


def test_round_logs_carry_sources(hosp):
    data = make_dirty_dataset(hosp, size=6, duplicate_rate=0.0,
                              noise_rate=0.2, seed=35)
    engine = CertainFix(hosp.rules, hosp.master, hosp.schema)
    for dt in data:
        session = engine.fix(dt.dirty, SimulatedUser(dt.clean))
        assert session.rounds[0].suggestion_source == "initial-region"
        for r in session.rounds[1:]:
            assert r.suggestion_source in (
                "certain-region", "structural", "remainder",
            )
