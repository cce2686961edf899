"""Running lint passes: the entry point and the preflight gate.

:func:`run_lint` runs every structural pass, plus the master-aware passes
when master data is given; :func:`preflight` is the shared gate the batch
engine and the CLI call — it raises
:class:`~repro.lint.diagnostics.LintError` (``"error"``), prints to a
stream (``"warn"``), or does nothing (``"off"``).

Every run reads the store as it is now: findings are not cached across
runs, and a run starts with :meth:`~repro.engine.store.MasterStore.\
poll_version`, so a master mutated by another client (a shared
``serve-master``) is never answered with findings about an older
version.  Within one run the certification is computed once and shared
between passes (``LintContext.scratch``).
"""

from __future__ import annotations

import sys
from typing import Iterable, List, Optional, Sequence, TextIO

from repro import obs
from repro.engine.schema import RelationSchema
from repro.engine.store import MasterStore, as_master_store
from repro.lint.diagnostics import Diagnostic, LintError, LintReport
from repro.lint.registry import (
    MASTER,
    STRUCTURAL,
    LintContext,
    LintPass,
    registered_passes,
)


def _run_family(
    passes: Sequence[LintPass], ctx: LintContext
) -> List[Diagnostic]:
    out: List[Diagnostic] = []
    for lint in passes:
        with obs.time_block("repro_lint_pass_seconds", code=lint.code):
            out.extend(lint.run(ctx))
    return out


def run_lint(
    rules: Sequence,
    schema: RelationSchema,
    master=None,
    master_schema: Optional[RelationSchema] = None,
    **budgets,
) -> LintReport:
    """Run lint passes over ``(rules, schema, master)`` → :class:`LintReport`.

    *master* may be a :class:`MasterStore`, a ``Relation``, or ``None``
    (structural passes only).  *master_schema* defaults to the store's
    schema when a master is given, else to *schema* (the paper's
    same-schema setting).  *budgets* override :class:`LintContext` analysis
    budgets (``max_master_rows``, ``max_witness_pairs``,
    ``max_instantiations``, ...) or pin the certification ``region``.
    """
    store: Optional[MasterStore] = None
    if master is not None:
        store = as_master_store(master)
        # Another client may have mutated a shared master since this
        # client's last response; without the poll a pass could read a
        # cached length or probe from before that mutation.
        store.poll_version()
    if master_schema is None:
        master_schema = store.schema if store is not None else schema
    ctx = LintContext(
        rules=tuple(rules),
        schema=schema,
        master_schema=master_schema,
        store=store,
        **budgets,
    )
    # NB: `if store` would be wrong here — an *empty* store has len() == 0
    # and is falsy, but empty master data is exactly what W201 must flag.
    passes = registered_passes(STRUCTURAL)
    if store is not None:
        passes += registered_passes(MASTER)
    return LintReport(
        diagnostics=_run_family(passes, ctx),
        rules_linted=len(ctx.rules),
        passes_run=tuple(p.code for p in passes),
        master_version=store.version if store is not None else None,
    )


#: Accepted preflight modes (the BatchRepairEngine / CLI knob).
PREFLIGHT_MODES = ("error", "warn", "off", "certify")


def preflight(
    rules: Sequence,
    schema: RelationSchema,
    master_schema: Optional[RelationSchema] = None,
    mode: str = "error",
    context: str = "rule program",
    stream: Optional[TextIO] = None,
    master=None,
) -> Optional[LintReport]:
    """Gate a rule program on its lint findings.

    ``mode="error"`` raises :class:`LintError` when error-level
    *structural* findings exist (warnings pass silently);
    ``mode="warn"`` never raises but prints every finding to *stream*
    (default ``sys.stderr``); ``mode="off"`` skips linting entirely and
    returns ``None``.  ``mode="certify"`` runs the full analyzer —
    structural plus the master-aware and exact certification passes
    (E205/W206/I208) against *master* — and raises on any error-level
    finding: the admission gate for rule programs that must carry the
    certain-fix guarantee.
    """
    if mode not in PREFLIGHT_MODES:
        raise ValueError(
            f"preflight must be one of {list(PREFLIGHT_MODES)}, got {mode!r}"
        )
    if mode == "off":
        return None
    if mode == "certify":
        if master is None:
            raise ValueError(
                'preflight mode "certify" needs master data '
                "(pass master=... through the caller)"
            )
        report = run_lint(rules, schema, master, master_schema=master_schema)
        if report.errors:
            raise LintError(report, context=context)
        return report
    report = run_lint(rules, schema, master_schema=master_schema)
    if mode == "error":
        if report.errors:
            raise LintError(report, context=context)
        return report
    if report.diagnostics:
        print(
            f"lint preflight ({context}): {report.summary()}",
            file=stream or sys.stderr,
        )
        for diagnostic in report.diagnostics:
            print(diagnostic.describe(), file=stream or sys.stderr)
    return report


def sarif_rule_metadata(codes: Iterable[str]) -> List[dict]:
    """SARIF driver rule entries for the given pass codes, in order."""
    by_code = {p.code: p for p in registered_passes()}
    return [by_code[c].sarif_rule() for c in codes if c in by_code]
