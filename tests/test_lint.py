"""The repro.lint static analyzer: passes, reports, preflight, live master."""

import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.patterns import ANY, Const, NotConst, PatternTableau, PatternTuple
from repro.core.regions import Region
from repro.core.rules import EditingRule
from repro.engine.relation import Relation
from repro.engine.remote import MasterServer, RemoteStore
from repro.engine.schema import RelationSchema, finite_domain
from repro.engine.store import InMemoryStore
from repro.engine.values import NULL
from repro.lint import (
    Diagnostic,
    LintError,
    LintReport,
    Severity,
    preflight,
    registered_passes,
    run_lint,
    sarif_rule_metadata,
)


SCHEMA = RelationSchema("r", ["a", "b", "c", "d"])


def _rule(lhs, rhs, pattern=None, name=None, guard=None, lhs_m=None,
          rhs_m=None):
    lhs = (lhs,) if isinstance(lhs, str) else tuple(lhs)
    return EditingRule(
        lhs, lhs_m if lhs_m is not None else lhs, rhs,
        rhs_m if rhs_m is not None else rhs,
        PatternTuple(pattern or {}), name=name,
        master_guard=PatternTuple(guard) if guard else None,
    )


def _master(rows, schema=SCHEMA):
    relation = Relation(schema)
    for row in rows:
        relation.insert(list(row))
    return relation


# -- structural passes: one rule set per code ---------------------------------


def test_e101_unknown_attribute_all_roles():
    report = run_lint(
        [
            _rule("a", "oops", name="bad-rhs"),
            _rule("nope", "b", name="bad-lhs"),
            _rule("a", "b", pattern={"zzz": 1}, name="bad-pattern"),
            _rule("a", "b", lhs_m=("am",), name="bad-lhs-m"),
            _rule("a", "b", rhs_m="bm", name="bad-rhs-m"),
        ],
        SCHEMA,
    )
    findings = [d for d in report if d.code == "E101"]
    # bad-rhs/bad-lhs default their master side to the same bad attr, so
    # both schema sides flag: 7 findings across all five roles.
    assert len(findings) == 7
    assert all(d.severity is Severity.ERROR for d in findings)
    assert {d.rule for d in findings} == {
        "bad-rhs", "bad-lhs", "bad-pattern", "bad-lhs-m", "bad-rhs-m",
    }
    assert {d.data["role"] for d in findings} == {
        "match-key (X)", "master match-key (Xm)", "target (B)",
        "master source (Bm)", "pattern (Xp)",
    }


def test_e101_suggests_close_match():
    schema = RelationSchema("r", ["name", "city", "zip"])
    report = run_lint([_rule("zip", "ciyt", name="typo")], schema)
    findings = [d for d in report if d.code == "E101"]
    assert findings and all(
        "did you mean 'city'" in d.remedy for d in findings
    )


def test_e102_unsatisfiable_pattern_and_guard():
    bit = finite_domain("bit", {0, 1})
    schema = RelationSchema("r", [("a", bit), ("b", bit)])
    report = run_lint(
        [
            _rule("a", "b", pattern={"a": Const(7)}, name="bad-const"),
            _rule("a", "b", guard={"a": Const(9)}, name="bad-guard"),
        ],
        schema,
    )
    findings = [d for d in report if d.code == "E102"]
    assert {(d.rule, d.data["side"]) for d in findings} == {
        ("bad-const", "pattern"), ("bad-guard", "master_guard"),
    }


def test_w103_duplicate_rule_has_fixit():
    report = run_lint(
        [_rule("a", "b", name="first"), _rule("a", "b", name="copy")],
        SCHEMA,
    )
    (finding,) = [d for d in report if d.code == "W103"]
    assert finding.rule == "copy" and finding.rule_index == 1
    assert finding.fixit == {"action": "remove_rule", "rule_index": 1}
    assert finding.data["duplicate_of"] == 0


def test_w104_subsumed_by_wildcard_and_by_negation():
    report = run_lint(
        [
            _rule("a", "b", name="general"),  # no pattern: always applies
            _rule("a", "b", pattern={"c": Const(1)}, name="narrow"),
            _rule("a", "c", pattern={"d": NotConst(0)}, name="neg-general"),
            _rule("a", "c", pattern={"d": Const(1)}, name="neg-narrow"),
        ],
        SCHEMA,
    )
    findings = {d.rule: d for d in report if d.code == "W104"}
    assert findings["narrow"].data["subsumed_by"] == 0
    # x = 1 implies x != 0, so neg-narrow is contained in neg-general.
    assert findings["neg-narrow"].data["subsumed_by"] == 2


def test_w104_not_fired_for_disjoint_or_exact_duplicates():
    report = run_lint(
        [
            _rule("a", "b", pattern={"c": Const(1)}, name="one"),
            _rule("a", "b", pattern={"c": Const(2)}, name="two"),
            _rule("a", "c", name="dup1"),
            _rule("a", "c", name="dup2"),  # W103's case, not W104's
        ],
        SCHEMA,
    )
    assert "W104" not in report.codes()
    assert "W103" in report.codes()


def test_w105_dependency_cycle_witness():
    report = run_lint(
        [
            _rule("a", "b", name="ab"),
            _rule("b", "c", name="bc"),
            _rule("c", "b", name="cb"),
        ],
        SCHEMA,
    )
    (finding,) = [d for d in report if d.code == "W105"]
    assert set(finding.data["cycle"]) == {"bc", "cb"}
    assert "->" in finding.message


def test_w106_self_referential_premise():
    report = run_lint(
        [_rule("a", "b", pattern={"b": NotConst(NULL)}, name="selfie")],
        SCHEMA,
    )
    (finding,) = [d for d in report if d.code == "W106"]
    assert finding.rule == "selfie"
    assert finding.data["attr"] == "b"
    # A wildcard on the target poses no condition: not self-referential.
    clean = run_lint(
        [_rule("a", "b", pattern={"b": ANY}, name="ok")], SCHEMA
    )
    assert "W106" not in clean.codes()


def test_i107_unfixable_attributes():
    report = run_lint([_rule("a", "b"), _rule("b", "c")], SCHEMA)
    (finding,) = [d for d in report if d.code == "I107"]
    assert finding.severity is Severity.INFO
    assert finding.data["attrs"] == ["a", "d"]


def test_w108_dead_rules_unreachable_from_mandatory_start():
    # rhs = {b, c}; mandatory = {a, d}; neither b nor c is derivable from
    # {a, d}, so both rules can never fire.
    report = run_lint(
        [_rule("b", "c", name="bc"), _rule("c", "b", name="cb")],
        SCHEMA,
    )
    dead = {d.rule for d in report if d.code == "W108"}
    assert dead == {"bc", "cb"}
    # A proper chain from a mandatory attribute is alive.
    alive = run_lint(
        [_rule("a", "b", name="ab"), _rule("b", "c", name="bc")], SCHEMA
    )
    assert "W108" not in alive.codes()


# -- master-aware passes ------------------------------------------------------


def test_w201_zero_support_empty_master():
    report = run_lint([_rule("a", "b")], SCHEMA, _master([]))
    (finding,) = [d for d in report if d.code == "W201"]
    assert finding.rule is None
    assert "empty" in finding.message


def test_w201_zero_support_guarded_rule():
    master = _master([(1, 2, 3, 4), (5, 6, 7, 8)])
    report = run_lint(
        [
            _rule("a", "b", guard={"d": Const(999)}, name="starved"),
            _rule("a", "c", name="fed"),
        ],
        SCHEMA,
        master,
    )
    findings = [d for d in report if d.code == "W201"]
    assert [d.rule for d in findings] == ["starved"]


def test_w202_non_confluent_pair_witness():
    # t = (k1=1, k2=2): rule r1 probes k1 -> v=10, rule r2 probes k2 -> v=20.
    # The all-ANY declared region needs 4 instantiations, so
    # max_instantiations=1 degrades the exact E205 certification — which is
    # what re-arms the sampled W202 fallback (E205 subsumes it otherwise).
    schema = RelationSchema("r", ["k1", "k2", "v"])
    master = _master([(1, 9, 10), (8, 2, 20)], schema)
    report = run_lint(
        [_rule("k1", "v", name="r1"), _rule("k2", "v", name="r2")],
        schema,
        master,
        region=Region(("k1", "k2"), PatternTableau(
            ("k1", "k2"), [PatternTuple({"k1": ANY, "k2": ANY})]
        )),
        max_instantiations=1,
    )
    (finding,) = [d for d in report if d.code == "W202"]
    assert finding.rule == "r2" and finding.data["other_rule"] == "r1"
    assert finding.data["attr"] == "v"
    assert sorted(finding.data["values"]) == ["10", "20"]


def test_w202_silent_when_values_agree():
    schema = RelationSchema("r", ["k1", "k2", "v"])
    master = _master([(1, 9, 10), (8, 2, 10)], schema)
    report = run_lint(
        [_rule("k1", "v", name="r1"), _rule("k2", "v", name="r2")],
        schema,
        master,
    )
    assert "W202" not in report.codes()


def test_e203_ambiguous_master_key():
    schema = RelationSchema("r", ["k", "x", "v"])
    master = _master([(1, "p", 10), (1, "q", 20)], schema)
    report = run_lint([_rule("k", "v", name="probe")], schema, master)
    (finding,) = [d for d in report if d.code == "E203"]
    assert finding.severity is Severity.ERROR
    assert finding.data["key_attrs"] == ["k"]
    assert finding.data["values"] == ["10", "20"]
    assert report.fails("error")


def test_e203_respects_guard_filtering():
    # The duplicate key lives outside the rule's guard: no ambiguity.
    schema = RelationSchema("r", ["k", "x", "v"])
    master = _master([(1, "p", 10), (1, "q", 20)], schema)
    report = run_lint(
        [_rule("k", "v", guard={"x": Const("p")}, name="guarded")],
        schema,
        master,
    )
    assert "E203" not in report.codes()


def test_w204_null_master_values_lists_readers():
    schema = RelationSchema("r", ["k", "v", "w"])
    master = _master([(1, NULL, "x"), (2, 5, "y")], schema)
    report = run_lint(
        [_rule("k", "v", name="reader"), _rule("k", "w", name="other")],
        schema,
        master,
    )
    findings = [d for d in report if d.code == "W204"]
    assert len(findings) == 1
    assert findings[0].data["attr"] == "v"
    assert findings[0].data["rules"] == ["reader"]


# -- report rendering ---------------------------------------------------------


def test_report_orders_by_severity_then_code():
    report = LintReport(diagnostics=[
        Diagnostic(code="I107", severity=Severity.INFO, message="i"),
        Diagnostic(code="E101", severity=Severity.ERROR, message="e"),
        Diagnostic(code="W103", severity=Severity.WARNING, message="w"),
    ])
    assert report.codes() == ["E101", "W103", "I107"]
    assert report.fails("error") and report.fails("warning")
    assert not LintReport().fails("info")


def test_report_json_shape():
    report = run_lint([_rule("a", "oops")], SCHEMA, _master([(1, 2, 3, 4)]))
    doc = json.loads(report.to_json())
    assert doc["version"] == 1
    assert doc["summary"]["errors"] >= 1
    assert doc["summary"]["master_version"] == 1
    assert all({"code", "severity", "message"} <= set(d)
               for d in doc["diagnostics"])


def test_report_sarif_shape():
    report = run_lint(
        [_rule("a", "oops"), _rule("a", "b")], SCHEMA,
        _master([(1, 2, 3, 4)]),
    )
    sarif = report.to_sarif(
        artifact_uri="rules.json",
        rule_metadata=sarif_rule_metadata(report.passes_run),
    )
    assert sarif["version"] == "2.1.0"
    (run,) = sarif["runs"]
    rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
    assert {"E101", "I107"} <= rule_ids
    levels = {r["ruleId"]: r["level"] for r in run["results"]}
    assert levels["E101"] == "error"
    assert levels["I107"] == "note"  # SARIF spells info 'note'
    e101 = next(r for r in run["results"] if r["ruleId"] == "E101")
    (location,) = e101["locations"]
    assert location["physicalLocation"]["artifactLocation"]["uri"] == \
        "rules.json"
    assert location["logicalLocations"][0]["fullyQualifiedName"] == "rules[0]"


def test_at_least_eight_passes_each_with_stable_codes():
    codes = {p.code for p in registered_passes()}
    assert len(codes) >= 8
    assert {"E101", "E102", "W103", "W104", "W105", "W106", "I107", "W108",
            "W201", "W202", "E203", "W204", "E205", "W206", "I208"} == codes


# -- golden outputs for the shipped rule sets ---------------------------------


def test_golden_hosp_lint(hosp):
    # The exact certification completes (computed region [id, mCode] is
    # certain + consistent), so the two sampled W202 witnesses the seed
    # pinned here are now known to be spurious and stay silent.
    report = run_lint(hosp.rules, hosp.schema, hosp.master)
    assert json.loads(report.to_json())["summary"] == {
        "errors": 0,
        "warnings": 0,
        "infos": 1,
        "rules_linted": 21,
        "passes_run": ["E101", "E102", "W103", "W104", "W105", "W106",
                       "I107", "W108", "W201", "E203", "W204", "W202",
                       "E205", "W206", "I208"],
        "master_version": hosp.master.mutation_count,
    }
    assert [
        (d.code, d.rule, d.rule_index) for d in report
    ] == [
        ("I107", None, None),
    ]
    (info,) = report.infos
    assert info.data["attrs"] == ["id", "mCode"]
    assert not report.fails("error")  # the CI gate on the shipped set


def test_golden_hosp_lint_degraded_restores_sampled_w202(hosp):
    # Starving the exact pass of instantiations reports the degradation
    # (info-level E205) and re-arms the sampled W202 fallback findings.
    # The all-wildcard declared region needs |dom(id)| * |dom(mCode)|
    # instantiations; the computed concrete-tableau region would fit in
    # any budget, hence the explicit declaration.
    region = Region(("id", "mCode"), PatternTableau(
        ("id", "mCode"), [PatternTuple({"id": ANY, "mCode": ANY})]
    ))
    report = run_lint(hosp.rules, hosp.schema, hosp.master,
                      region=region, max_instantiations=1)
    assert [(d.code, d.rule, d.rule_index) for d in report] == [
        ("W202", "h19:phn,zip->hName", 18),
        ("W202", "h21:id,zip->addr1", 20),
        ("E205", None, None),
        ("I107", None, None),
    ]
    (degraded,) = [d for d in report if d.code == "E205"]
    assert degraded.severity is Severity.INFO
    assert degraded.data["degraded"] is True


def test_golden_dblp_lint(dblp):
    # All nine seed-era sampled W202 witnesses are subsumed by the exact
    # certification (computed region is certain + consistent).
    report = run_lint(dblp.rules, dblp.schema, dblp.master)
    summary = json.loads(report.to_json())["summary"]
    assert summary["errors"] == 0
    assert summary["warnings"] == 1
    assert summary["infos"] == 1
    assert summary["rules_linted"] == 16
    assert [(d.code, d.rule) for d in report] == [
        ("W105", None),
        ("I107", None),
    ]
    (cycle,) = [d for d in report if d.code == "W105"]
    assert set(cycle.data["cycle"]) == {"phi5[crossref]", "phi6[btitle]"}
    (info,) = report.infos
    assert info.data["attrs"] == ["a1", "a2", "pages", "ptitle", "type"]
    assert not report.fails("error")


# -- every run reads the live master ------------------------------------------


def _null_master(schema):
    # A NULL master value keeps a W204 finding alive (hosp/dblp lint clean,
    # so they cannot show a finding disappear).
    return _master([(1, NULL, "x"), (2, 5, "y")], schema)


def test_lint_rereads_master_after_mutation():
    schema = RelationSchema("r", ["k", "v", "w"])
    relation = _null_master(schema)
    store = InMemoryStore(relation)
    rules = [_rule("k", "v", name="reader")]
    assert "W204" in run_lint(rules, schema, store).codes()
    store.delete(relation.first())
    after = run_lint(rules, schema, store)
    assert "W204" not in after.codes()
    assert after.master_version == store.version


def _lint_around_foreign_mutation(relation, rules, mutate):
    """Client A lints, client B mutates the shared master, client A lints
    again; returns A's two reports and a fresh client's report."""
    with MasterServer(InMemoryStore(relation)) as server:
        client_a = RemoteStore(server.url)
        client_b = RemoteStore(server.url)
        fresh = None
        try:
            first = run_lint(rules, relation.schema, client_a)
            mutate(client_b)
            again = run_lint(rules, relation.schema, client_a)
            fresh = RemoteStore(server.url)
            return first, again, run_lint(rules, relation.schema, fresh)
        finally:
            for client in (client_a, client_b, fresh):
                if client is not None:
                    client.close()


def test_remote_lint_sees_another_clients_mutation():
    # A finding client A reported must not outlive the row client B deleted.
    schema = RelationSchema("r", ["k", "v", "w"])

    def delete_null_row(client):
        (null_row,) = [row for row in client if row["v"] is NULL]
        assert client.delete(null_row)

    first, again, expected = _lint_around_foreign_mutation(
        _null_master(schema), [_rule("k", "v", name="reader")],
        delete_null_row,
    )
    assert "W204" in first.codes()
    assert "W204" not in expected.codes()
    assert expected.master_version == 3
    assert (again.codes(), again.master_version) == (
        expected.codes(), expected.master_version,
    )


def test_remote_lint_reads_length_after_another_client_empties_master():
    # W201 asks len() before any pass makes a request: a client answering
    # from its cached length reported "zero support: none of the 0 master
    # tuples" instead of the empty-master finding.
    schema = RelationSchema("r", ["k", "v", "w"])

    def delete_all(client):
        for row in list(client):
            assert client.delete(row)

    first, again, expected = _lint_around_foreign_mutation(
        _master([(1, 4, "x"), (2, 5, "y")], schema),
        [_rule("k", "v", name="reader")], delete_all,
    )
    assert "W201" not in first.codes()
    assert "master data is empty" in expected.describe()
    assert again.describe() == expected.describe()
    assert again.master_version == expected.master_version


# -- preflight gates ----------------------------------------------------------


def test_preflight_error_raises_with_report():
    with pytest.raises(LintError) as excinfo:
        preflight([_rule("a", "oops")], SCHEMA, context="unit test")
    assert "unit test" in str(excinfo.value)
    assert "E101" in str(excinfo.value)
    assert excinfo.value.report.errors


def test_preflight_error_passes_warnings_through():
    report = preflight(
        [_rule("a", "b", name="one"), _rule("a", "b", name="two")], SCHEMA
    )
    assert "W103" in report.codes()  # warning present, but no raise


def test_preflight_warn_prints_and_continues(capsys):
    report = preflight([_rule("a", "oops")], SCHEMA, mode="warn")
    assert report.errors
    err = capsys.readouterr().err
    assert "E101" in err


def test_preflight_off_and_bad_mode():
    assert preflight([_rule("a", "oops")], SCHEMA, mode="off") is None
    with pytest.raises(ValueError, match="preflight must be one of"):
        preflight([], SCHEMA, mode="loud")


def test_batch_engine_preflight_refuses_bad_rules(hosp):
    from repro.repair.batch import BatchRepairEngine

    bad = list(hosp.rules) + [_rule(("id",), "bogus", name="broken")]
    with pytest.raises(LintError) as excinfo:
        BatchRepairEngine(bad, hosp.master, hosp.schema)
    assert "E101" in str(excinfo.value)


def test_batch_engine_preflight_warn_and_off(capsys):
    from repro.repair.batch import BatchRepairEngine

    bit = finite_domain("bit", {1, 2})
    schema = RelationSchema("r", [("a", bit), ("b", bit)])
    master = _master([(1, 1), (2, 2)], schema)
    good = _rule("a", "b", name="good")
    # Error-level (E102) but harmless to precompute: the rule never fires.
    bad = _rule("a", "b", pattern={"a": Const(7)}, name="unsat")

    with pytest.raises(LintError, match="E102"):
        BatchRepairEngine([good, bad], master, schema)
    engine = BatchRepairEngine([good, bad], master, schema,
                               preflight="warn")
    assert engine.engine.regions
    assert "E102" in capsys.readouterr().err
    BatchRepairEngine([good, bad], master, schema, preflight="off")
    assert capsys.readouterr().err == ""
    with pytest.raises(ValueError, match="preflight"):
        BatchRepairEngine([good], master, schema, preflight="always")


def test_batch_engine_clean_rules_pass_preflight(hosp):
    from repro.repair.batch import BatchRepairEngine

    engine = BatchRepairEngine(hosp.rules, hosp.master, hosp.schema)
    assert engine.engine.regions  # precompute went through the gate


# -- structural passes are total (never raise) --------------------------------


R_ATTRS = ("a", "b", "c", "d")
_values = st.integers(min_value=0, max_value=2)
_pattern_values = st.one_of(
    st.builds(Const, _values), st.builds(NotConst, _values), st.just(ANY),
)


@st.composite
def well_typed_rules(draw):
    """Arbitrary rule sets whose attributes all come from the schema."""
    num_rules = draw(st.integers(min_value=0, max_value=8))
    rules = []
    for index in range(num_rules):
        lhs_size = draw(st.integers(min_value=1, max_value=2))
        lhs = tuple(draw(st.permutations(R_ATTRS))[:lhs_size])
        rhs = draw(st.sampled_from([a for a in R_ATTRS if a not in lhs]))
        pattern = draw(st.dictionaries(
            st.sampled_from(R_ATTRS), _pattern_values, max_size=3,
        ))
        guard = draw(st.dictionaries(
            st.sampled_from(R_ATTRS), _pattern_values, max_size=2,
        ))
        rules.append(EditingRule(
            lhs, lhs, rhs, draw(st.sampled_from(R_ATTRS)),
            PatternTuple(pattern), name=f"g{index}",
            master_guard=PatternTuple(guard),
        ))
    return rules


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(well_typed_rules())
def test_structural_passes_never_raise(rules):
    report = run_lint(rules, SCHEMA)
    # Invariants: deterministic order, well-typed rules yield no E101, and
    # rendering never raises either.
    assert report.codes() == [d.code for d in sorted(
        report, key=lambda d: (d.severity.rank, d.code,
                               d.rule_index if d.rule_index is not None
                               else 1 << 30, d.message),
    )]
    assert "E101" not in report.codes()
    report.describe()
    json.loads(report.to_json())
    report.to_sarif()
