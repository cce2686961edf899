"""CSV round-trips and the command-line interface."""

import json

import pytest

from repro.cli import main
from repro.engine.csvio import (
    relation_from_csv,
    relation_to_csv,
    stream_rows_from_csv,
)
from repro.engine.relation import Relation
from repro.engine.schema import RelationSchema
from repro.engine.values import NULL
from repro import io as rule_io


@pytest.fixture()
def small_relation():
    schema = RelationSchema("people", ["code", "city", "zip"])
    r = Relation(schema)
    r.insert(["A1", "Edinburgh", "EH7"])
    r.insert(["B2", "London", NULL])
    return r


def test_csv_roundtrip(tmp_path, small_relation):
    path = tmp_path / "people.csv"
    relation_to_csv(small_relation, path)
    back = relation_from_csv(path)
    assert back.schema.attributes == small_relation.schema.attributes
    assert [row.values for row in back] == [
        row.values for row in small_relation
    ]
    assert back.rows[1]["zip"] is NULL  # empty cell -> NULL


def test_csv_schema_validation(tmp_path, small_relation):
    path = tmp_path / "people.csv"
    relation_to_csv(small_relation, path)
    other = RelationSchema("other", ["a", "b"])
    with pytest.raises(ValueError, match="does not match"):
        relation_from_csv(path, schema=other)


def test_csv_ragged_row_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1\n", encoding="utf-8")
    with pytest.raises(ValueError, match="expected 2 cells"):
        relation_from_csv(path)


def test_csv_empty_file_rejected(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("", encoding="utf-8")
    with pytest.raises(ValueError, match="no header"):
        relation_from_csv(path)


def test_csv_typed_schema_roundtrips_ints(tmp_path, hosp):
    """With a typed schema, int-domain cells load back as ints, so a CSV
    round trip composes with in-memory masters (87, not \"87\")."""
    path = tmp_path / "master.csv"
    relation_to_csv(hosp.master, path)
    back = relation_from_csv(path, schema=hosp.schema)
    assert [row.values for row in back] == [row.values for row in hosp.master]
    assert isinstance(back.first()["Score"], int)
    streamed = list(stream_rows_from_csv(path, schema=hosp.schema))
    assert [row.values for row in streamed] == [
        row.values for row in hosp.master
    ]


def test_csv_unparseable_int_cell_stays_string(tmp_path):
    from repro.engine.schema import INT, STRING

    schema = RelationSchema("t", [("a", STRING), ("n", INT)])
    path = tmp_path / "t.csv"
    path.write_text("a,n\nx,12\ny,oops\nz,\n", encoding="utf-8")
    rows = relation_from_csv(path, schema=schema).rows
    assert rows[0]["n"] == 12
    assert rows[1]["n"] == "oops"
    assert rows[2]["n"] is NULL


def test_csv_row_stream(tmp_path, small_relation):
    path = tmp_path / "people.csv"
    relation_to_csv(small_relation, path)
    stream = stream_rows_from_csv(path)
    assert stream.schema.attributes == small_relation.schema.attributes
    assert [row.values for row in stream] == [
        row.values for row in small_relation
    ]
    # Re-iterable: a second pass reopens the file.
    assert len(list(stream)) == len(small_relation)
    assert list(stream)[1]["zip"] is NULL


def test_csv_row_stream_validates_eagerly(tmp_path, small_relation):
    path = tmp_path / "people.csv"
    relation_to_csv(small_relation, path)
    other = RelationSchema("other", ["a", "b"])
    with pytest.raises(ValueError, match="does not match"):
        stream_rows_from_csv(path, schema=other)
    empty = tmp_path / "empty.csv"
    empty.write_text("", encoding="utf-8")
    with pytest.raises(ValueError, match="no header"):
        stream_rows_from_csv(empty)
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("a,b\n1\n", encoding="utf-8")
    with pytest.raises(ValueError, match="expected 2 cells"):
        list(stream_rows_from_csv(ragged))


def test_cli_batch_repair(tmp_path, capsys, hosp):
    from repro.datasets import make_dirty_dataset

    master_csv = tmp_path / "master.csv"
    relation_to_csv(hosp.master, master_csv)
    rules_json = tmp_path / "rules.json"
    rules_json.write_text(rule_io.dumps(hosp.rules) + "\n")

    data = make_dirty_dataset(hosp, size=12, duplicate_rate=0.4,
                              noise_rate=0.2, seed=5)
    dirty_csv = tmp_path / "dirty.csv"
    clean_csv = tmp_path / "clean.csv"
    relation_to_csv(Relation(hosp.schema, (dt.dirty for dt in data)),
                    dirty_csv)
    relation_to_csv(Relation(hosp.schema, (dt.clean for dt in data)),
                    clean_csv)

    fixed_csv = tmp_path / "fixed.csv"
    report_json = tmp_path / "report.json"
    assert main([
        "batch-repair",
        "--rules", str(rules_json), "--master", str(master_csv),
        "--input", str(dirty_csv), "--clean", str(clean_csv),
        "--output", str(fixed_csv), "--report", str(report_json),
        "--chunk-size", "4",
    ]) == 0
    out = capsys.readouterr().out
    assert "tuples/s" in out

    report = json.loads(report_json.read_text())
    assert report["tuples"] == 12
    assert report["incomplete"] == 0
    assert report["throughput_tps"] > 0

    fixed = relation_from_csv(fixed_csv)
    clean = relation_from_csv(clean_csv)
    assert [row.values for row in fixed] == [row.values for row in clean]


def test_cli_batch_repair_incomplete_raise_is_clean(tmp_path, capsys, hosp):
    """--on-incomplete raise reports a readable error + exit 2, never a
    traceback."""
    from repro.datasets import make_dirty_dataset

    master_csv = tmp_path / "master.csv"
    relation_to_csv(hosp.master, master_csv)
    rules_json = tmp_path / "rules.json"
    rules_json.write_text(rule_io.dumps(hosp.rules) + "\n")
    data = make_dirty_dataset(hosp, size=6, duplicate_rate=0.0,
                              noise_rate=0.3, seed=5)
    dirty_csv = tmp_path / "dirty.csv"
    clean_csv = tmp_path / "clean.csv"
    relation_to_csv(Relation(hosp.schema, (dt.dirty for dt in data)),
                    dirty_csv)
    relation_to_csv(Relation(hosp.schema, (dt.clean for dt in data)),
                    clean_csv)

    code = main([
        "batch-repair",
        "--rules", str(rules_json), "--master", str(master_csv),
        "--input", str(dirty_csv), "--clean", str(clean_csv),
        "--max-rounds", "1", "--on-incomplete", "raise",
    ])
    captured = capsys.readouterr()
    assert code == 2
    assert "monitoring stopped after 1 rounds" in captured.err
    assert "hint:" in captured.err


def test_csv_row_stream_detects_rewritten_file(tmp_path, small_relation):
    """The stream reopens the file per iteration; a rewrite with a
    different header must fail loudly, not bind rows to a stale schema."""
    path = tmp_path / "people.csv"
    relation_to_csv(small_relation, path)
    stream = stream_rows_from_csv(path)
    assert len(list(stream)) == 2
    path.write_text("other,columns\n1,2\n", encoding="utf-8")
    with pytest.raises(ValueError, match="does not match"):
        list(stream)
    path.write_text("", encoding="utf-8")
    with pytest.raises(ValueError, match="no header"):
        list(stream)


def test_cli_batch_repair_bad_inputs_are_clean_errors(tmp_path, capsys, hosp):
    """Malformed or missing --master/--rules/--clean all yield
    `error: ...` + exit 2, never a traceback."""
    master_csv = tmp_path / "master.csv"
    relation_to_csv(hosp.master, master_csv)
    rules_json = tmp_path / "rules.json"
    rules_json.write_text(rule_io.dumps(hosp.rules) + "\n")
    dirty_csv = tmp_path / "dirty.csv"
    relation_to_csv(Relation(hosp.schema, [hosp.master.first()]), dirty_csv)

    ragged = tmp_path / "ragged.csv"
    ragged.write_text("a,b\n1\n", encoding="utf-8")
    bad_rules = tmp_path / "bad.json"
    bad_rules.write_text("not json", encoding="utf-8")
    missing = tmp_path / "missing.csv"

    for argv in (
        ["batch-repair", "--rules", str(rules_json), "--master", str(ragged),
         "--input", str(dirty_csv), "--clean", str(dirty_csv)],
        ["batch-repair", "--rules", str(bad_rules),
         "--master", str(master_csv),
         "--input", str(dirty_csv), "--clean", str(dirty_csv)],
        ["batch-repair", "--rules", str(rules_json),
         "--master", str(master_csv),
         "--input", str(dirty_csv), "--clean", str(ragged)],
        ["batch-repair", "--rules", str(rules_json), "--master", str(missing),
         "--input", str(dirty_csv), "--clean", str(dirty_csv)],
        ["batch-repair", "--rules", str(missing), "--master", str(master_csv),
         "--input", str(dirty_csv), "--clean", str(dirty_csv)],
        ["serve-master", "--master", str(missing), "--port", "0"],
    ):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")


def test_cli_demo(capsys):
    assert main(["demo"]) == 0
    out = capsys.readouterr().out
    assert "FN := 'Robert'" in out


def test_cli_mine_then_analyze(tmp_path, capsys, hosp):
    master_csv = tmp_path / "master.csv"
    relation_to_csv(hosp.master, master_csv)

    rules_json = tmp_path / "rules.json"
    assert main([
        "mine", "--master", str(master_csv),
        "--output", str(rules_json), "--max-key", "1",
    ]) == 0
    mined = rule_io.loads(rules_json.read_text())
    assert mined
    json.loads(rules_json.read_text())  # valid JSON on disk

    assert main([
        "analyze", "--rules", str(rules_json),
        "--master", str(master_csv), "--validate-patterns", "4",
    ]) == 0
    out = capsys.readouterr().out
    assert "certain regions" in out
    assert "editing rules" in out


def test_cli_analyze_reports_missing_region(tmp_path, capsys):
    schema = RelationSchema("r", ["a", "b", "c"])
    master = Relation(schema)
    master.insert(["1", "2", "3"])
    master_csv = tmp_path / "m.csv"
    relation_to_csv(master, master_csv)
    # One rule cannot cover c from anything: no certain region over a alone.
    from repro.core.rules import EditingRule

    rules_json = tmp_path / "r.json"
    rules_json.write_text(rule_io.dumps(
        [EditingRule("a", "a", "b", "b")]
    ))
    # a -> b exists, c unfixable but CAN be user-validated: Z = {a, c} works,
    # so a region exists; force failure with an empty master instead.
    empty_csv = tmp_path / "empty_master.csv"
    relation_to_csv(Relation(schema), empty_csv)
    code = main([
        "analyze", "--rules", str(rules_json), "--master", str(empty_csv),
    ])
    out = capsys.readouterr().out
    assert code == 1
    assert "NO certain region" in out


# -- telemetry CLI (PR 7) ------------------------------------------------------


def test_cli_batch_repair_progress_heartbeats(tmp_path, capsys, hosp):
    from repro.datasets import make_dirty_dataset

    master_csv = tmp_path / "master.csv"
    relation_to_csv(hosp.master, master_csv)
    rules_json = tmp_path / "rules.json"
    rules_json.write_text(rule_io.dumps(hosp.rules) + "\n")
    data = make_dirty_dataset(hosp, size=12, duplicate_rate=0.4,
                              noise_rate=0.2, seed=5)
    dirty_csv = tmp_path / "dirty.csv"
    clean_csv = tmp_path / "clean.csv"
    relation_to_csv(Relation(hosp.schema, (dt.dirty for dt in data)),
                    dirty_csv)
    relation_to_csv(Relation(hosp.schema, (dt.clean for dt in data)),
                    clean_csv)

    assert main([
        "batch-repair",
        "--rules", str(rules_json), "--master", str(master_csv),
        "--input", str(dirty_csv), "--clean", str(clean_csv),
        "--progress", "--progress-interval", "0",
    ]) == 0
    err = capsys.readouterr().err
    heartbeats = [line for line in err.splitlines()
                  if line.startswith("[batch-repair]")]
    assert len(heartbeats) >= 2
    # Known input size → percentage prefix; final line has the summary.
    assert f"/{len(data.tuples)} tuples" in heartbeats[0]
    assert "tuples/s" in heartbeats[0]
    assert "done in" in heartbeats[-1]
    assert any("suggest" in line for line in heartbeats)


def test_cli_metrics_scrapes_live_server(capsys, small_relation):
    from repro.engine.remote import MasterServer
    from repro.engine.store import InMemoryStore
    from repro.obs import parse_prometheus_text

    with MasterServer(InMemoryStore(small_relation)) as server:
        assert main(["metrics", "--master-url", server.url]) == 0
        text = capsys.readouterr().out
        parsed = parse_prometheus_text(text)
        assert parsed[("repro_server_store_rows", ())] == len(small_relation)

        assert main(["metrics", "--master-url", server.url,
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert any(entry["series"][0] == "repro_server_requests_total"
                   for entry in payload["counters"])


def test_cli_metrics_unreachable_server_exits_2(capsys):
    assert main(["metrics", "--master-url", "http://127.0.0.1:9",
                 "--timeout", "0.5"]) == 2
    err = capsys.readouterr().err
    assert "cannot scrape" in err
    assert "serve-master" in err
