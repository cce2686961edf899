"""repro.obs: registry semantics, exposition formats, progress, global gate."""

import ast
import io
import json
import pickle
from pathlib import Path

import pytest

from repro import obs
from repro.obs import (
    NULL_REGISTRY,
    HistogramSnapshot,
    MetricsRegistry,
    MetricsSnapshot,
    ProgressReporter,
    parse_prometheus_text,
    render_prometheus,
    snapshot_from_dict,
    snapshot_from_json,
    snapshot_to_dict,
    snapshot_to_json,
)


@pytest.fixture(autouse=True)
def _reset_global_registry():
    """Tests must not leak an enabled registry into the rest of the suite."""
    yield
    obs.disable()


def _sample_registry() -> MetricsRegistry:
    reg = MetricsRegistry()
    reg.inc("repro_rounds_total", 3)
    reg.inc("repro_chase_memo_total", result="hit")
    reg.inc("repro_chase_memo_total", 2, result="miss")
    reg.set_gauge("repro_server_store_rows", 42)
    for value in (0.01, 0.02, 0.03, 0.5):
        reg.observe("repro_fix_seconds", value)
    reg.observe("repro_store_probe_seconds", 0.004, backend="sqlite",
                op="probe")
    return reg


# -- registry ------------------------------------------------------------------


def test_counters_gauges_histograms():
    snap = _sample_registry().snapshot()
    assert snap.counter_value("repro_rounds_total") == 3
    assert snap.counter_value("repro_chase_memo_total", result="miss") == 2
    assert snap.counter_value("repro_chase_memo_total", result="hit") == 1
    assert snap.gauge_value("repro_server_store_rows") == 42
    hist = snap.histogram_value("repro_fix_seconds")
    assert hist.count == 4
    assert hist.min == pytest.approx(0.01)
    assert hist.max == pytest.approx(0.5)
    assert hist.mean == pytest.approx(0.14)
    assert hist.quantile(0.5) == pytest.approx(0.03)
    assert hist.quantile(1.0) == pytest.approx(0.5)


def test_time_block_records_a_sample():
    reg = MetricsRegistry()
    with reg.time_block("repro_bdd_build_seconds"):
        pass
    hist = reg.snapshot().histogram_value("repro_bdd_build_seconds")
    assert hist.count == 1
    assert hist.total >= 0.0


def test_histogram_reservoir_is_bounded_but_count_exact():
    reg = MetricsRegistry(reservoir=8)
    for i in range(100):
        reg.observe("repro_fix_seconds", float(i))
    hist = reg.snapshot().histogram_value("repro_fix_seconds")
    assert hist.count == 100
    assert hist.total == pytest.approx(sum(range(100)))
    assert len(hist.samples) == 8
    assert hist.max == 99.0


def test_label_order_is_irrelevant():
    reg = MetricsRegistry()
    reg.inc("repro_remote_requests_total", endpoint="/probe", status="ok")
    reg.inc("repro_remote_requests_total", status="ok", endpoint="/probe")
    snap = reg.snapshot()
    assert snap.counter_value("repro_remote_requests_total",
                              status="ok", endpoint="/probe") == 2


def test_clear_resets_series():
    reg = _sample_registry()
    reg.clear()
    assert reg.snapshot().empty


# -- global gate ---------------------------------------------------------------


def test_disabled_by_default_and_noop():
    assert not obs.enabled()
    assert obs.get_registry() is NULL_REGISTRY
    obs.inc("repro_rounds_total", 5)
    obs.observe("repro_fix_seconds", 1.0)
    obs.set_gauge("repro_server_store_rows", 7)
    with obs.time_block("repro_fix_seconds"):
        pass
    assert obs.snapshot().empty


def test_enable_disable_roundtrip():
    obs.enable()
    assert obs.enabled()
    obs.inc("repro_rounds_total", 2)
    first = obs.get_registry()
    obs.enable()  # idempotent: keeps the installed registry and its data
    assert obs.get_registry() is first
    assert obs.snapshot().counter_value("repro_rounds_total") == 2
    obs.disable()
    assert not obs.enabled()
    assert obs.snapshot().empty


# -- Prometheus exposition -----------------------------------------------------


def test_render_parses_cleanly_no_duplicate_series():
    text = render_prometheus(_sample_registry().snapshot())
    parsed = parse_prometheus_text(text)  # raises on dup TYPE / dup series
    assert parsed[("repro_rounds_total", ())] == 3
    assert parsed[("repro_chase_memo_total", (("result", "miss"),))] == 2
    assert parsed[("repro_server_store_rows", ())] == 42
    # Histograms render as summaries: quantiles plus _sum/_count.
    assert parsed[("repro_fix_seconds_count", ())] == 4
    assert parsed[("repro_fix_seconds_sum", ())] == pytest.approx(0.56)
    assert ("repro_fix_seconds", (("quantile", "0.95"),)) in parsed


def test_label_escaping_roundtrip():
    reg = MetricsRegistry()
    tricky = 'quo"te back\\slash new\nline'
    reg.inc("repro_server_requests_total", endpoint=tricky, status="400")
    parsed = parse_prometheus_text(render_prometheus(reg.snapshot()))
    [(name, labels)] = [key for key in parsed if key[0].endswith("_total")]
    assert dict(labels)["endpoint"] == tricky


@pytest.mark.parametrize("bad", [
    "# TYPE a counter\n# TYPE a counter\na 1",
    'x{l="v"} 1\nx{l="v"} 2',
    "just some words",
    "# TYPE a wibble\na 1",
])
def test_parser_rejects_malformed_text(bad):
    with pytest.raises(ValueError):
        parse_prometheus_text(bad)


# -- JSON snapshot -------------------------------------------------------------


def test_json_snapshot_roundtrip_lossless():
    snap = _sample_registry().snapshot()
    assert snapshot_from_dict(snapshot_to_dict(snap)) == snap
    text = snapshot_to_json(snap)
    json.loads(text)  # valid JSON document
    assert snapshot_from_json(text) == snap


def test_json_snapshot_of_empty_registry():
    snap = MetricsRegistry().snapshot()
    assert snapshot_from_json(snapshot_to_json(snap)) == snap
    assert snap.empty


# -- merge discipline ----------------------------------------------------------


def _worker_snapshot(seed: int) -> MetricsSnapshot:
    reg = MetricsRegistry()
    reg.inc("repro_rounds_total", seed)
    reg.inc("repro_chase_memo_total", seed + 1, result="hit")
    reg.set_gauge("repro_server_store_version", seed)
    for i in range(seed + 2):
        reg.observe("repro_fix_seconds", 0.1 * seed + 0.01 * i)
    return reg.snapshot()


def test_merge_associative_across_pickled_snapshots():
    # The process-pool discipline: workers pickle their snapshots back to
    # the parent, which may fold them in any grouping.
    a, b, c = (
        pickle.loads(pickle.dumps(_worker_snapshot(seed)))
        for seed in (1, 2, 3)
    )
    left = a.merge(b).merge(c)
    right = a.merge(b.merge(c))
    # Associative up to float summation order in histogram totals.
    assert left.counters == right.counters
    assert left.gauges == right.gauges
    assert left.histograms.keys() == right.histograms.keys()
    for key, mine in left.histograms.items():
        theirs = right.histograms[key]
        assert (mine.count, mine.min, mine.max, mine.samples) == \
            (theirs.count, theirs.min, theirs.max, theirs.samples)
        assert mine.total == pytest.approx(theirs.total)
    assert left.counter_value("repro_rounds_total") == 6
    assert left.counter_value("repro_chase_memo_total", result="hit") == 9
    # Gauges are last-write-wins in merge order.
    assert left.gauge_value("repro_server_store_version") == 3
    hist = left.histogram_value("repro_fix_seconds")
    assert hist.count == 3 + 4 + 5
    assert hist.samples == (
        a.histogram_value("repro_fix_seconds").samples
        + b.histogram_value("repro_fix_seconds").samples
        + c.histogram_value("repro_fix_seconds").samples
    )


def test_histogram_merge_handles_empty_sides():
    full = HistogramSnapshot(count=2, total=3.0, min=1.0, max=2.0,
                             samples=(1.0, 2.0))
    empty = HistogramSnapshot()
    assert empty.merge(full) == full
    assert full.merge(empty) == full


# -- progress reporter ---------------------------------------------------------


class _FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


def test_progress_heartbeats_throttled_and_final():
    clock = _FakeClock()
    sink = io.StringIO()
    reporter = ProgressReporter(label="batch-repair", total=100,
                                interval=1.0, stream=sink, clock=clock)
    reporter.start()
    clock.now += 0.5
    reporter.advance(10)  # first advance always emits
    reporter.advance(10)  # throttled (no time passed)
    clock.now += 1.0
    reporter.advance(30, rates={"chase": 0.9})
    clock.now += 0.1
    reporter.finish(rates={"chase": 0.92},
                    workers={"thread-1": 30, "thread-2": 20})
    lines = sink.getvalue().splitlines()
    assert len(lines) == 3  # two heartbeats + final; one advance throttled
    assert lines[0].startswith("[batch-repair] 10/100 tuples")
    assert "ETA" in lines[1] and "chase 90%" in lines[1]
    assert "done in" in lines[2]
    assert "thread-1" in lines[2] and "tuples/s" in lines[2]


def test_progress_unknown_total_streams_counts():
    clock = _FakeClock()
    sink = io.StringIO()
    reporter = ProgressReporter(total=None, interval=0, stream=sink,
                                clock=clock)
    clock.now += 1.0
    reporter.advance(7)
    line = sink.getvalue()
    assert "7 tuples" in line
    assert "ETA" not in line


def test_progress_rejects_negative_interval():
    with pytest.raises(ValueError):
        ProgressReporter(interval=-1)


def test_documented_metrics_are_emitted_somewhere():
    """Every ``repro_*`` row of the package docstring's metric table names
    a series some other ``repro`` module records: its name must appear
    there as a string literal, so deleting an emitter without its row
    fails here."""
    documented = [
        line.split()[0] for line in obs.__doc__.splitlines()
        if line.startswith("repro_")
    ]
    assert documented
    package = Path(obs.__file__).resolve().parents[1]
    literals = set()
    for module in package.rglob("*.py"):
        if module == Path(obs.__file__).resolve():
            continue
        for node in ast.walk(ast.parse(module.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                literals.add(node.value)
    assert [name for name in documented if name not in literals] == []
