"""Exact certification passes: the paper's Sect. 4 analyses as lint checks.

The master-aware passes of :mod:`repro.lint.master_aware` *sample* for
trouble (bounded witness searches); the passes here *decide* the paper's
fundamental static problems — consistency of ``(Σ, Dm)`` and whether
``(Z, Tc)`` is a certain region (Theorems 1–4) — by running the exact
active-domain instantiation of :mod:`repro.analysis.consistency` through
the :class:`~repro.engine.store.MasterStore` seam, so certification works
identically against memory, sqlite, and remote backends.

Three registered passes share one certification per lint run:

* **E205** — the program is *provably* inconsistent relative to the
  certified region: some marked input tuple admits two distinct fixes.
  The finding carries a minimized concrete witness (values irrelevant to
  the conflict are chased away with fresh values and dropped).
* **W206** — the region is not certain: attributes outside the attribute
  closure of ``Z`` are *uncoverable* by any tableau (exact, PTIME), and
  attributes uncovered on a concrete witness are reported instance-level.
* **I208** — the minimal assured-attribute extension of ``Z`` that makes
  the region certain, found by a size-ordered exact search (closure-pruned,
  budgeted by ``max_extension_checks``); ships an ``extend_region`` fix-it.

**Region resolution.**  The region certified against is, in order: the
region declared in the rule file (``LintContext.region``), the best
region :func:`~repro.repair.region_search.comp_c_region` derives (what a
deployment would actually run with), else the canonical wildcard region
over the mandatory attributes.

**Budget discipline and degradation.**  The underlying problems are
coNP-complete, so every exact step runs under ``max_instantiations`` and
degrades gracefully past it: consistency falls back to the sampled
non-confluence search (W202 — which is demoted to exactly this fallback
role and stays silent whenever the exact check completed), coverage falls
back to closure level, and the extension search to a closure-only
suggestion.  Every degradation is *reported* (an info-level E205
diagnostic plus the ``repro_lint_budget_exhausted_total`` counter), never
silent.  Certification is skipped — without a degradation note — only
when another pass already owns the finding (empty master: W201; rules
naming unknown attributes: E101).

**Caching.**  The certification is computed once per lint run
(``LintContext.scratch``), so E205, W206, I208 and W202 share one object;
across runs, the version-keyed master cache of :mod:`repro.lint.runner`
answers every repeat at the same store version.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, product
from typing import Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.analysis.active_domain import ActiveDomainCache, FreshValue
from repro.analysis.closure import attribute_closure, mandatory_attrs
from repro.analysis.consistency import (
    AnalysisExplosion,
    RegionReport,
    _instantiation_space,
    check_region,
)
from repro.core.fixes import chase
from repro.core.patterns import ANY, PatternTableau, PatternTuple
from repro.core.regions import Region
from repro.io import region_to_dict
from repro.lint.diagnostics import Diagnostic, Severity
from repro.lint.registry import MASTER, LintContext, lint_pass
from repro.repair.region_search import comp_c_region

#: The certification pass codes, in registration order.
CERT_CODES = ("E205", "W206", "I208")


@dataclass
class Certification:
    """One shared certification of ``(rules, region, master)``.

    Built once per lint run (``LintContext.scratch``); the E205/W206/I208
    passes (and the demoted W202) all read it.  ``findings`` holds the
    prebuilt diagnostics per pass code.
    """

    region: Optional[Region] = None
    region_source: Optional[str] = None  # "declared"|"computed"|"canonical"
    report: Optional[RegionReport] = None
    degraded: bool = False
    degraded_reason: Optional[str] = None
    skipped_reason: Optional[str] = None
    extension: Optional[tuple] = None
    extension_exact: bool = True
    extension_checks: int = 0
    domain_stats: Dict[str, int] = field(default_factory=dict)
    findings: Dict[str, Tuple[Diagnostic, ...]] = field(default_factory=dict)

    @property
    def exact_complete(self) -> bool:
        """Whether the exact analyses ran to completion (W202's demotion
        gate: a completed exact check subsumes the sampled pair search)."""
        return (
            self.report is not None
            and not self.degraded
            and self.skipped_reason is None
        )


# -- the certification computation -------------------------------------------


def _all_rules_typed(ctx: LintContext) -> bool:
    """Certification needs every named attribute to exist — unknown attrs
    are E101 findings, and the exact analyses would crash on them."""
    for rule in ctx.rules:
        input_attrs = set(rule.lhs) | {rule.rhs} | set(rule.pattern.attrs)
        if not all(a in ctx.schema for a in input_attrs):
            return False
        master_attrs = (
            set(rule.lhs_m) | {rule.rhs_m} | set(rule.master_guard.attrs)
        )
        if not all(a in ctx.master_schema for a in master_attrs):
            return False
    return True


def _canonical_region(schema, rules: Sequence) -> Region:
    """The canonical fallback region: mandatory attrs, one wildcard row.

    Mandatory attributes (no rule can fix them) belong to every certain
    region's Z; the single all-wildcard pattern marks every tuple, the
    strongest certification demand."""
    base = tuple(
        a for a in schema.attributes if a in mandatory_attrs(schema, rules)
    )
    tableau = PatternTableau(base, [PatternTuple({a: ANY for a in base})])
    return Region(base, tableau)


def _minimize_witness(
    rules: Sequence, master, region: Region, witness: dict
) -> set:
    """Attrs of *witness* the conflict actually needs (greedy core).

    Replace each attribute's value with a fresh witness in turn; when the
    chase still diverges the attribute is irrelevant to the conflict and
    is dropped from the reported witness.  Costs at most ``|Z|`` extra
    chases over an already-budgeted space.
    """
    kept = set(witness)
    current = dict(witness)
    for attr in list(region.attrs):
        if attr not in current:
            continue
        trial = dict(current)
        trial[attr] = FreshValue(f"{attr}#min")
        outcome = chase(trial, region.attrs, rules, master)
        if not outcome.unique:
            current = trial
            kept.discard(attr)
    return kept


def _search_extension(
    ctx: LintContext,
    rules: Sequence,
    master,
    region: Region,
    schema,
    domains: ActiveDomainCache,
):
    """Exact minimal-extension search for I208.

    Candidate extensions are enumerated by size then schema order, pruned
    by attribute closure (PTIME, free), and verified with the exact region
    check under the shared domain cache.  Returns ``(extension, checks
    spent, why_incomplete)`` where ``why_incomplete`` is ``None`` on a
    definitive answer, else ``"budget"`` / ``"explosion"``.
    """
    all_attrs = set(schema.attributes)
    candidates = [a for a in schema.attributes if a not in region.attr_set]
    checks = 0
    exploded = False
    for size in range(1, ctx.max_extension_size + 1):
        for extra in combinations(candidates, size):
            if attribute_closure(region.attrs + extra, rules) < all_attrs:
                continue
            if checks >= ctx.max_extension_checks:
                return None, checks, "budget"
            checks += 1
            try:
                extended_report = check_region(
                    rules, master, region.extend_attrs(extra), schema,
                    ctx.max_instantiations, domains,
                )
            except AnalysisExplosion:
                exploded = True
                continue
            if extended_report.certain:
                return extra, checks, None
    return None, checks, "explosion" if exploded else None


def _closure_extension(
    region: Region, rules: Sequence, schema, max_size: int
) -> Optional[tuple]:
    """Closure-level fallback extension: the smallest ``E`` with
    ``closure(Z ∪ E) ⊇ R`` — necessary for certainty, not sufficient."""
    all_attrs = set(schema.attributes)
    if attribute_closure(region.attrs, rules) >= all_attrs:
        return None
    candidates = [a for a in schema.attributes if a not in region.attr_set]
    for size in range(1, max_size + 1):
        for extra in combinations(candidates, size):
            if attribute_closure(region.attrs + extra, rules) >= all_attrs:
                return extra
    return None


def _conflict_scan(rules, master, region, pattern, schema):
    """Find the diverging assignment of an inconsistent pattern.

    ``check_pattern`` returns early on its first *coverage* failure, with
    consistency decided by a witness-less tail scan; replaying the (already
    budget-checked) instantiations recovers the concrete conflict."""
    rules = list(rules)
    choices = _instantiation_space(
        pattern, region.attrs, rules, master, schema
    )
    if any(not values for _, values in choices):
        return None, None
    attrs = [a for a, _ in choices]
    for combo in product(*(values for _, values in choices)):
        assignment = dict(zip(attrs, combo))
        outcome = chase(assignment, region.attrs, rules, master)
        if not outcome.unique:
            return assignment, outcome.conflict
    return None, None


def _e205_findings(
    ctx: LintContext,
    rules: Sequence,
    master,
    region: Optional[Region],
    source: Optional[str],
    report: Optional[RegionReport],
    degraded_reason: Optional[str],
) -> Tuple[Diagnostic, ...]:
    if degraded_reason is not None:
        region_attrs = list(region.attrs) if region is not None else None
        return (Diagnostic(
            code="E205",
            severity=Severity.INFO,
            message=(
                f"exact certification degraded: {degraded_reason}; "
                f"consistency falls back to the sampled non-confluence "
                f"search (W202) and coverage to attribute-closure level"
            ),
            remedy=(
                "raise max_instantiations, declare a concrete region "
                "tableau, or accept the sampled verdicts"
            ),
            data={
                "degraded": True,
                "reason": degraded_reason,
                "region": region_attrs,
                "max_instantiations": ctx.max_instantiations,
            },
        ),)
    if report is None or report.consistent:
        return ()
    for check in report.checks:
        if check.consistent:
            continue
        witness, conflict = check.witness_values, check.conflict
        if conflict is None:
            # The coverage-failure path of check_pattern records the
            # *coverage* witness; replay the instantiations to recover
            # the diverging assignment (the space already fit the budget).
            witness, conflict = _conflict_scan(
                rules, master, region, check.pattern, ctx.schema
            )
        if witness is None:
            continue
        witness = dict(witness)
        kept = _minimize_witness(rules, master, region, witness)
        shown = {
            a: repr(witness[a]) for a in region.attrs if a in kept
        }
        rendered = ", ".join(f"{a}={v}" for a, v in shown.items())
        conflict_note = (
            conflict.describe() if conflict is not None
            else "distinct fixes depending on rule application order"
        )
        return (Diagnostic(
            code="E205",
            severity=Severity.ERROR,
            message=(
                f"rule program is provably inconsistent relative to "
                f"region Z={list(region.attrs)} ({source}): witness "
                f"input {{{rendered}}} admits no unique fix "
                f"[{conflict_note}]"
            ),
            remedy=(
                "remove or reconcile the conflicting rules, align the "
                "master data, or assure the conflicting attribute by "
                "extending the region"
            ),
            data={
                "region": list(region.attrs),
                "region_source": source,
                "witness": shown,
                "witness_full": {
                    a: repr(v) for a, v in sorted(witness.items())
                },
                "conflict": conflict_note,
                "instantiations": report.total_instantiations,
            },
        ),)
    return ()


def _w206_findings(
    rules: Sequence,
    region: Optional[Region],
    source: Optional[str],
    report: Optional[RegionReport],
    schema,
) -> Tuple[Diagnostic, ...]:
    if region is None:
        return ()
    closure = attribute_closure(region.attrs, rules)
    closure_missing = tuple(
        a for a in schema.attributes if a not in closure
    )
    out: List[Diagnostic] = []
    if closure_missing:
        out.append(Diagnostic(
            code="W206",
            severity=Severity.WARNING,
            message=(
                f"region not certain: attributes {list(closure_missing)} "
                f"are uncoverable — outside the attribute closure of "
                f"Z={list(region.attrs)} ({source}), so no pattern "
                f"tableau over Z can validate them"
            ),
            remedy=(
                "extend the assured region (see I208) or add rules "
                "fixing these attributes"
            ),
            data={
                "region": list(region.attrs),
                "region_source": source,
                "uncoverable": list(closure_missing),
                "closure": sorted(closure),
            },
        ))
    if report is not None and not report.certain:
        for check in report.checks:
            if check.certain:
                continue
            residual = tuple(
                a for a in check.uncovered if a not in closure_missing
            )
            if not residual:
                continue
            shown = {
                a: repr(v)
                for a, v in sorted((check.witness_values or {}).items())
            }
            out.append(Diagnostic(
                code="W206",
                severity=Severity.WARNING,
                message=(
                    f"region not certain: attributes {list(residual)} "
                    f"stay uncovered on witness input {shown} — the "
                    f"closure reaches them but this master data cannot "
                    f"chase them to validated values"
                ),
                remedy=(
                    "add master tuples supporting the covering rules, "
                    "or extend the assured region (see I208)"
                ),
                data={
                    "region": list(region.attrs),
                    "region_source": source,
                    "uncovered": list(residual),
                    "witness": shown,
                },
            ))
            break  # one instance-level witness is enough
    return tuple(out)


def _i208_findings(
    region: Optional[Region],
    source: Optional[str],
    extension: Optional[tuple],
    exact: bool,
    checks_spent: int,
) -> Tuple[Diagnostic, ...]:
    if region is None or extension is None:
        return ()
    extended = region.extend_attrs(extension)
    qualifier = (
        "" if exact
        else " (closure-level only: exact certification over budget)"
    )
    return (Diagnostic(
        code="I208",
        severity=Severity.INFO,
        message=(
            f"minimal assured-attribute extension: adding "
            f"{list(extension)} to Z={list(region.attrs)} makes the "
            f"region certain{qualifier}"
        ),
        remedy=(
            "validate these attributes upstream (assured input) and "
            "declare the extended region in the rule file"
        ),
        fixit={
            "action": "extend_region",
            "attrs": list(extension),
            "region": region_to_dict(extended),
        },
        data={
            "region": list(region.attrs),
            "region_source": source,
            "extension": list(extension),
            "exact": exact,
            "exact_checks": checks_spent,
        },
    ),)


def _compute(ctx: LintContext) -> Certification:
    store = ctx.store
    rules = list(ctx.rules)
    schema = ctx.schema
    cert = Certification()
    cert.findings = {code: () for code in CERT_CODES}
    if not rules:
        cert.skipped_reason = "no rules to certify"
        return cert
    if len(store) == 0:
        cert.skipped_reason = "empty master (W201 owns this finding)"
        return cert
    if not _all_rules_typed(ctx):
        cert.skipped_reason = (
            "rules reference unknown attributes (E101 owns this finding)"
        )
        return cert
    if ctx.region is not None and not all(
        a in schema for a in ctx.region.attrs
    ):
        cert.skipped_reason = (
            "declared region references unknown attributes"
        )
        return cert
    if len(store) > ctx.max_master_rows:
        cert.degraded = True
        cert.degraded_reason = (
            f"master has {len(store)} rows "
            f"(> max_master_rows={ctx.max_master_rows})"
        )
        obs.inc("repro_lint_budget_exhausted_total", code="E205")
        cert.findings["E205"] = _e205_findings(
            ctx, rules, store, None, None, None, cert.degraded_reason
        )
        return cert

    # Region resolution: declared > computed (deployment's view) > canonical.
    region = ctx.region
    source = "declared" if region is not None else None
    if region is None:
        try:
            candidates = comp_c_region(
                rules, store, schema,
                max_instantiations=ctx.max_instantiations,
            )
        except AnalysisExplosion:
            candidates = []
        if candidates:
            region, source = candidates[0].region, "computed"
        else:
            region, source = _canonical_region(schema, rules), "canonical"
    cert.region, cert.region_source = region, source

    domains = ActiveDomainCache(rules, store)
    report: Optional[RegionReport] = None
    try:
        report = check_region(
            rules, store, region, schema, ctx.max_instantiations,
            domains,
        )
    except AnalysisExplosion as exc:
        cert.degraded = True
        cert.degraded_reason = str(exc)
        obs.inc("repro_lint_budget_exhausted_total", code="E205")
    cert.report = report

    # I208: exact search when the exact check ran, closure fallback else.
    if report is not None and not report.certain:
        extension, checks_spent, incomplete = _search_extension(
            ctx, rules, store, region, schema, domains
        )
        cert.extension_checks = checks_spent
        if extension is not None:
            cert.extension = extension
        elif incomplete is not None:
            cert.extension_exact = False
            obs.inc("repro_lint_budget_exhausted_total", code="I208")
            cert.extension = _closure_extension(
                region, rules, schema, ctx.max_extension_size
            )
    elif cert.degraded:
        cert.extension_exact = False
        cert.extension = _closure_extension(
            region, rules, schema, ctx.max_extension_size
        )

    cert.findings["E205"] = _e205_findings(
        ctx, rules, store, region, source, report, cert.degraded_reason
    )
    cert.findings["W206"] = _w206_findings(
        rules, region, source, report, schema
    )
    cert.findings["I208"] = _i208_findings(
        region, source, cert.extension, cert.extension_exact,
        cert.extension_checks,
    )
    cert.domain_stats = (
        dict(report.domain_stats) if report is not None else domains.stats()
    )
    return cert


def certification_for(ctx: LintContext) -> Optional[Certification]:
    """The shared certification for this lint run (``None`` sans store).

    Computed once per :class:`LintContext` (``scratch``); E205/W206/I208
    and the demoted W202 all consult the same object.
    """
    if ctx.store is None:
        return None
    cert = ctx.scratch.get("certification")
    if cert is None:
        cert = _compute(ctx)
        ctx.scratch["certification"] = cert
    return cert


# -- the registered passes ----------------------------------------------------


@lint_pass(
    "E205", "provably-inconsistent", MASTER,
    "The rule program provably violates the unique-fix guarantee on the "
    "certified region (exact Sect. 4 consistency check; degrades to the "
    "sampled W202 search past max_instantiations).",
)
def check_certified_consistency(ctx: LintContext) -> List[Diagnostic]:
    cert = certification_for(ctx)
    if cert is None:
        return []
    return list(cert.findings.get("E205", ()))


@lint_pass(
    "W206", "region-not-certain", MASTER,
    "The certified region is not certain: attributes are uncoverable "
    "(outside the closure of Z) or stay uncovered on a concrete witness.",
)
def check_certified_coverage(ctx: LintContext) -> List[Diagnostic]:
    cert = certification_for(ctx)
    if cert is None:
        return []
    return list(cert.findings.get("W206", ()))


@lint_pass(
    "I208", "region-extension", MASTER,
    "Minimal assured-attribute extension that makes the certified region "
    "certain (exact search; closure-level suggestion when over budget).",
)
def check_region_extension(ctx: LintContext) -> List[Diagnostic]:
    cert = certification_for(ctx)
    if cert is None:
        return []
    return list(cert.findings.get("I208", ()))
