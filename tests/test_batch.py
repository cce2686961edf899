"""Batch repair engine: shared caches, determinism, reporting."""

import io
import re

import pytest

from repro.engine.csvio import relation_to_csv
from repro.engine.relation import Relation
from repro.engine.tuples import Row
from repro.repair.batch import BatchRepairEngine, BatchReport, MemoStats
from repro.obs import ProgressReporter
from repro.repair.certainfix import CertainFix, IncompleteFix
from repro.repair.oracle import SimulatedUser


def _pairs(data):
    return [(dt.dirty, SimulatedUser(dt.clean)) for dt in data]


def _assert_sessions_identical(batch_sessions, stream_sessions):
    assert len(batch_sessions) == len(stream_sessions)
    for b, s in zip(batch_sessions, stream_sessions):
        assert b.final == s.final
        assert b.validated == s.validated
        assert b.round_count == s.round_count
        assert b.completed == s.completed
        assert [r.asserted for r in b.rounds] == [r.asserted for r in s.rounds]


# -- determinism: batch == sequential fix_stream ------------------------------


@pytest.mark.parametrize("use_bdd", [False, True])
def test_batch_matches_fix_stream_hosp(hosp, hosp_dirty, use_bdd):
    sequential = CertainFix(hosp.rules, hosp.master, hosp.schema,
                            use_bdd=use_bdd)
    stream_sessions = sequential.fix_stream(_pairs(hosp_dirty))
    batch = BatchRepairEngine(hosp.rules, hosp.master, hosp.schema,
                              use_bdd=use_bdd, chunk_size=7)
    result = batch.run(_pairs(hosp_dirty))
    _assert_sessions_identical(result.sessions, stream_sessions)


@pytest.mark.parametrize("use_bdd", [False, True])
def test_batch_matches_fix_stream_dblp(dblp, dblp_dirty, use_bdd):
    sequential = CertainFix(dblp.rules, dblp.master, dblp.schema,
                            use_bdd=use_bdd)
    stream_sessions = sequential.fix_stream(_pairs(dblp_dirty))
    batch = BatchRepairEngine(dblp.rules, dblp.master, dblp.schema,
                              use_bdd=use_bdd, chunk_size=16)
    result = batch.run(_pairs(dblp_dirty))
    _assert_sessions_identical(result.sessions, stream_sessions)


def _example_workload(example):
    """Dirty tuples for the running example, built from its master rows
    (R and Rm have different schemas, so project the master by hand)."""
    workload = []
    for key, item in (("s1", "CD"), ("s2", "BOOK")):
        s = example.masters[key]
        clean = Row(example.schema, {
            "FN": s["FN"], "LN": s["LN"], "AC": s["AC"], "phn": s["Mphn"],
            "type": 2, "str": s["str"], "city": s["city"], "zip": s["zip"],
            "item": item,
        })
        workload.append((clean.with_values({"FN": "Bobby", "city": "???"}),
                         clean))
        workload.append((clean, clean))  # already-clean duplicate shape
    return workload


def test_batch_matches_fix_stream_running_example(example):
    workload = _example_workload(example)
    sequential = CertainFix(example.rules, example.master, example.schema)
    stream_sessions = sequential.fix_stream(
        (dirty, SimulatedUser(clean)) for dirty, clean in workload
    )
    batch = BatchRepairEngine(example.rules, example.master, example.schema,
                              use_bdd=False)
    result = batch.run(
        (dirty, SimulatedUser(clean)) for dirty, clean in workload
    )
    _assert_sessions_identical(result.sessions, stream_sessions)
    for session, (_, clean) in zip(result.sessions, workload):
        assert session.final == clean


# -- chunked / streaming execution -------------------------------------------


def test_chunked_generator_input_preserves_order(hosp, hosp_dirty):
    batch = BatchRepairEngine(hosp.rules, hosp.master, hosp.schema,
                              use_bdd=False, chunk_size=6)
    from_list = batch.run(_pairs(hosp_dirty))
    generator = ((dt.dirty, SimulatedUser(dt.clean)) for dt in hosp_dirty)
    from_generator = batch.run(generator)
    _assert_sessions_identical(from_generator.sessions, from_list.sessions)
    expected_chunks = -(-len(hosp_dirty) // 6)
    assert from_generator.report.chunks == expected_chunks


def test_run_csv_streaming(tmp_path, dblp, dblp_dirty):
    dirty_csv = tmp_path / "dirty.csv"
    clean_csv = tmp_path / "clean.csv"
    relation_to_csv(
        Relation(dblp.schema, (dt.dirty for dt in dblp_dirty)), dirty_csv
    )
    relation_to_csv(
        Relation(dblp.schema, (dt.clean for dt in dblp_dirty)), clean_csv
    )
    batch = BatchRepairEngine(dblp.rules, dblp.master, dblp.schema)
    result = batch.run_csv(dirty_csv, clean_path=clean_csv)
    assert result.report.tuples == len(dblp_dirty)
    # CSV round-trips NULLs and strings faithfully for the all-string DBLP
    # schema, so the streamed run repairs to the same ground truth.
    for session, dt in zip(result.sessions, dblp_dirty):
        assert session.final == dt.clean


def test_run_csv_requires_exactly_one_feedback_source(tmp_path, dblp):
    batch = BatchRepairEngine(dblp.rules, dblp.master, dblp.schema)
    with pytest.raises(ValueError, match="exactly one"):
        batch.run_csv(tmp_path / "x.csv")


def test_run_csv_misaligned_clean_file_fails(tmp_path, dblp, dblp_dirty):
    """A short clean file must not silently truncate the stream (zip
    semantics); the error names both paths and both row counts."""
    dirty_csv = tmp_path / "dirty.csv"
    clean_csv = tmp_path / "clean.csv"
    relation_to_csv(
        Relation(dblp.schema, (dt.dirty for dt in dblp_dirty)), dirty_csv
    )
    relation_to_csv(
        Relation(dblp.schema, (dt.clean for dt in list(dblp_dirty)[:-3])),
        clean_csv,
    )
    batch = BatchRepairEngine(dblp.rules, dblp.master, dblp.schema)
    with pytest.raises(ValueError) as excinfo:
        batch.run_csv(dirty_csv, clean_path=clean_csv)
    message = str(excinfo.value)
    total = len(dblp_dirty)
    assert str(dirty_csv) in message and str(clean_csv) in message
    assert f"{total} data rows" in message and str(total - 3) in message


def test_run_csv_misaligned_dirty_file_fails(tmp_path, dblp, dblp_dirty):
    """The symmetric case: a short dirty file means ground truth would be
    silently ignored — also an error, with exact counts."""
    dirty_csv = tmp_path / "dirty.csv"
    clean_csv = tmp_path / "clean.csv"
    relation_to_csv(
        Relation(dblp.schema, (dt.dirty for dt in list(dblp_dirty)[:-5])),
        dirty_csv,
    )
    relation_to_csv(
        Relation(dblp.schema, (dt.clean for dt in dblp_dirty)), clean_csv
    )
    batch = BatchRepairEngine(dblp.rules, dblp.master, dblp.schema)
    with pytest.raises(ValueError) as excinfo:
        batch.run_csv(dirty_csv, clean_path=clean_csv)
    message = str(excinfo.value)
    total = len(dblp_dirty)
    assert f"{total - 5} data rows" in message and str(total) in message


# -- incomplete sessions ------------------------------------------------------


def _needs_multiple_rounds(hosp, hosp_dirty):
    engine = CertainFix(hosp.rules, hosp.master, hosp.schema)
    for dt in hosp_dirty:
        session = engine.fix(dt.dirty, SimulatedUser(dt.clean))
        if session.round_count >= 2:
            return dt
    pytest.skip("workload produced no multi-round session")


def test_on_incomplete_raise_in_fix_stream(hosp, hosp_dirty):
    dt = _needs_multiple_rounds(hosp, hosp_dirty)
    truncated = CertainFix(hosp.rules, hosp.master, hosp.schema, max_rounds=1)
    with pytest.raises(IncompleteFix) as excinfo:
        truncated.fix_stream([(dt.dirty, SimulatedUser(dt.clean))],
                             on_incomplete="raise")
    assert excinfo.value.index == 0
    assert not excinfo.value.session.completed


def test_on_incomplete_keep_in_fix_stream(hosp, hosp_dirty):
    dt = _needs_multiple_rounds(hosp, hosp_dirty)
    truncated = CertainFix(hosp.rules, hosp.master, hosp.schema, max_rounds=1)
    sessions = truncated.fix_stream([(dt.dirty, SimulatedUser(dt.clean))])
    assert len(sessions) == 1 and not sessions[0].completed


def test_on_incomplete_policies_in_batch(hosp, hosp_dirty):
    dt = _needs_multiple_rounds(hosp, hosp_dirty)
    keep = BatchRepairEngine(hosp.rules, hosp.master, hosp.schema,
                             use_bdd=False, max_rounds=1)
    report = keep.run([(dt.dirty, SimulatedUser(dt.clean))]).report
    assert report.incomplete == 1 and report.completed == 0
    strict = BatchRepairEngine(hosp.rules, hosp.master, hosp.schema,
                               use_bdd=False, max_rounds=1,
                               on_incomplete="raise")
    with pytest.raises(IncompleteFix):
        strict.run([(dt.dirty, SimulatedUser(dt.clean))])


def test_invalid_policies_rejected(hosp):
    engine = CertainFix(hosp.rules, hosp.master, hosp.schema)
    with pytest.raises(ValueError, match="on_incomplete"):
        engine.fix_stream([], on_incomplete="ignore")
    with pytest.raises(ValueError, match="on_incomplete"):
        BatchRepairEngine(hosp.rules, hosp.master, hosp.schema,
                          on_incomplete="drop")
    with pytest.raises(ValueError, match="chunk_size"):
        BatchRepairEngine(hosp.rules, hosp.master, hosp.schema, chunk_size=0)
    with pytest.raises(ValueError, match="concurrency"):
        BatchRepairEngine(hosp.rules, hosp.master, hosp.schema, concurrency=0)


# -- reporting ----------------------------------------------------------------


def test_batch_report_contents(hosp, hosp_dirty):
    batch = BatchRepairEngine(hosp.rules, hosp.master, hosp.schema,
                              chunk_size=10)
    report = batch.run_dirty(hosp_dirty).report
    assert isinstance(report, BatchReport)
    assert report.tuples == len(hosp_dirty)
    assert report.completed == len(hosp_dirty)
    assert report.elapsed > 0
    assert report.throughput > 0
    assert report.mean_rounds >= 1.0
    assert report.regions_precomputed >= 1
    assert report.suggestion_hits + report.suggestion_misses > 0
    payload = report.to_dict()
    assert payload["tuples"] == len(hosp_dirty)
    assert 0.0 <= payload["suggestion_cache"]["hit_rate"] <= 1.0
    assert "tuples/s" in report.describe()


def test_reports_are_per_run_deltas(hosp, hosp_dirty):
    batch = BatchRepairEngine(hosp.rules, hosp.master, hosp.schema)
    first = batch.run_dirty(hosp_dirty).report
    second = batch.run_dirty(hosp_dirty).report
    assert second.tuples == first.tuples
    # The second run reuses the BDD the first one grew but reports only
    # its own lookups: as many as the first run made, and all hits.
    first_lookups = first.suggestion_hits + first.suggestion_misses
    assert first.suggestion_misses > 0
    assert second.suggestion_hits + second.suggestion_misses == first_lookups
    assert second.suggestion_misses == 0


def test_memo_stats_arithmetic():
    stats = MemoStats(hits=3, misses=1)
    assert stats.lookups == 4
    assert stats.hit_rate == 0.75
    assert MemoStats().hit_rate == 0.0


def test_result_to_relation(hosp, hosp_dirty):
    batch = BatchRepairEngine(hosp.rules, hosp.master, hosp.schema)
    result = batch.run_dirty(hosp_dirty)
    relation = result.to_relation(hosp.schema)
    assert len(relation) == len(hosp_dirty)
    assert relation.rows == result.final_rows


# -- telemetry: worker stats, timings, provenance (PR 7) -----------------------


def test_sequential_run_reports_no_worker_stats(hosp, hosp_dirty):
    report = BatchRepairEngine(hosp.rules, hosp.master, hosp.schema) \
        .run_dirty(hosp_dirty).report
    assert report.worker_stats == {}


def test_first_heartbeat_rate_counts_the_first_chunk(hosp, hosp_dirty):
    # A fake clock that ticks one second per tuple pulled from the stream:
    # every heartbeat, the first included, must read 1.0 tuples/s, and the
    # final line must cover the whole stream.
    now = [0.0]

    def stream():
        for dt in list(hosp_dirty)[:20]:
            now[0] += 1.0
            yield dt.dirty, SimulatedUser(dt.clean)

    sink = io.StringIO()
    progress = ProgressReporter(label="batch", interval=0, stream=sink,
                                clock=lambda: now[0])
    batch = BatchRepairEngine(hosp.rules, hosp.master, hosp.schema,
                              chunk_size=5)
    batch.run(stream(), progress=progress)
    heartbeats = sink.getvalue().splitlines()
    assert len(heartbeats) == 5
    assert all(re.search(r"\| 1\.0 tuples/s", line) for line in heartbeats)
    assert "done in 20.00s" in heartbeats[-1]


def test_report_timings_in_dict_and_describe(hosp, hosp_dirty):
    batch = BatchRepairEngine(hosp.rules, hosp.master, hosp.schema)
    report = batch.run_dirty(hosp_dirty).report
    assert report.timings["region_precompute_s"] > 0.0
    assert report.timings["probe_warmup_s"] == 0.0  # threads never warm
    payload = report.to_dict()
    assert set(payload["timings"]) \
        == {"region_precompute_s", "probe_warmup_s"}
    assert "precompute" in report.describe()


def test_provenance_attributes_every_rule_fix(hosp, hosp_dirty):
    batch = BatchRepairEngine(hosp.rules, hosp.master, hosp.schema)
    result = batch.run_dirty(hosp_dirty)
    provenance = result.provenance
    assert len(provenance) == len(result.sessions)
    attributed = 0
    for session, records in zip(result.sessions, provenance):
        assert set(records) == set(session.attrs_fixed_by_rules)
        for attr, record in records.items():
            assert record.attr == attr
            assert 0 <= record.rule_index < len(hosp.rules)
            assert hosp.rules[record.rule_index].name == record.rule_name
            # Last write wins: the surviving cell carries this value.
            assert session.final[attr] == record.value
            assert record.master_key  # the matched master probe key
            assert attr in record.describe()
            attributed += 1
    assert attributed > 0
    by_rule = result.report.fixes_by_rule
    assert sum(by_rule.values()) >= attributed
    assert by_rule == result.report.to_dict()["fixes_by_rule"]
