"""repro.lint — static analysis for editing-rule programs.

Section 4 of the paper decides *before any repair runs* whether a rule
program can guarantee certain fixes; this package turns that machinery
(plus cheaper structural checks) into an operable analyzer with stable
diagnostic codes, machine-readable reports (JSON / SARIF 2.1.0), and
preflight gates in front of every expensive precompute path
(``repro analyze``, ``repro mine``, :class:`~repro.repair.batch.\
BatchRepairEngine`).

Diagnostic code reference
=========================

Structural passes (``rules`` + ``schema`` only; cheap, total, preflight):

======  ========================  =========================================
Code    Name                      Meaning / remedy
======  ========================  =========================================
E100    unparsable-rules          The rule file is not valid rule JSON
                                  (emitted by the CLI loader, not a pass).
                                  Fix the JSON; see ``repro.io``.
E101    unknown-attribute         A rule names an attribute absent from the
                                  input or master schema.  Rename it or
                                  extend the schema (close matches are
                                  suggested).
E102    unsatisfiable-pattern     A pattern/guard condition no domain value
                                  can satisfy.  Fix the constant or widen
                                  the domain.
W103    duplicate-rule            Two rules identical up to the name.
                                  Delete one (fix-it provided).
W104    subsumed-rule             A rule's applicability is contained in a
                                  more general rule with the same keys and
                                  target.  Delete or differentiate it.
W105    dependency-cycle          The rule dependency graph is cyclic (a
                                  witness cycle is printed).  Legal but
                                  often unintended.
W106    self-referential-premise  A rule's pattern reads its own target, so
                                  it only fires once the target is already
                                  validated.  Drop the condition.
I107    unfixable-attributes      Attributes no rule fixes; they must be
                                  user-validated in every region.  Expected
                                  for entity keys.
W108    dead-rule                 The rule's premise is unreachable from
                                  the mandatory start through any rule
                                  chain; it never fires.  Add rules fixing
                                  the missing premise attributes.
======  ========================  =========================================

Master-aware passes (additionally read ``Dm`` through the ``MasterStore``
seam; bounded — a finding is a concrete witness, silence is not a proof):

======  ========================  =========================================
W201    zero-support              No master tuple can ever fire the rule
                                  (or the master is empty).  Check guard
                                  constants against the data.
W202    non-confluent-pair        Two rules fixing one attribute diverge on
                                  a concrete witness input (bounded chase).
                                  Make patterns exclusive or exclude such
                                  inputs via the region tableau.
E203    ambiguous-master-key      The rule's master key columns are not a
                                  key of the eligible master tuples, so
                                  probes return conflicting values.
                                  Deduplicate or widen the key.
W204    null-master-values        A master column rules read contains
                                  NULL/UNKNOWN.  Complete the data or guard
                                  against it.
======  ========================  =========================================

Certification passes (exact Sect. 4 analyses over the certified region —
declared in the rule file, else the best computed region, else the
canonical mandatory-attribute region; see :mod:`repro.lint.certify`).
All three run under the ``max_instantiations`` budget: past it the run
*degrades* — consistency falls back to the sampled W202 search, coverage
to attribute-closure level — and the degradation is always reported as an
info-level E205 diagnostic (plus the
``repro_lint_budget_exhausted_total`` counter), never silent.  When the
exact check completes, W202 stays silent (E205 subsumes it):

======  ========================  =========================================
E205    provably-inconsistent     Some region-marked input provably admits
                                  two distinct fixes (minimized concrete
                                  witness attached).  Remove/reconcile the
                                  rules or assure the conflicting
                                  attribute.  Info severity = the exact
                                  check degraded to the sampled fallback.
W206    region-not-certain        Attributes are uncoverable (outside the
                                  closure of Z — exact, PTIME) or stay
                                  uncovered on a concrete witness.  Extend
                                  the region or add covering rules.
I208    region-extension          Minimal assured-attribute extension that
                                  makes the region certain; carries an
                                  ``extend_region`` fix-it.  Marked
                                  closure-level when over budget.
======  ========================  =========================================

Master-aware results are cached per store keyed on ``(rule fingerprint,
store version, budgets, region)``; see :mod:`repro.lint.runner`.  Fix-its
(``remove_rule`` from W103/W104/W108, ``extend_region`` from I208) are
applied by ``repro lint --fix`` via :mod:`repro.lint.fixit`.
"""

from repro.lint.diagnostics import (
    Diagnostic,
    LintError,
    LintReport,
    Severity,
)
from repro.lint.registry import (
    MASTER,
    STRUCTURAL,
    LintContext,
    LintPass,
    registered_passes,
)

# Importing the pass modules registers every pass with the registry.
# Order matters for the report: master_aware registers W201/W202/E203/W204
# before certify registers E205/W206/I208.
from repro.lint import master_aware, structural  # noqa: F401  (registration)
from repro.lint import certify  # noqa: F401  (registration)
from repro.lint.certify import Certification, certification_for
from repro.lint.fixit import FixitResult, apply_fixits
from repro.lint.runner import (
    PREFLIGHT_MODES,
    preflight,
    rules_fingerprint,
    run_lint,
    sarif_rule_metadata,
    structural_report,
)

__all__ = [
    "Diagnostic",
    "LintError",
    "LintReport",
    "Severity",
    "LintContext",
    "LintPass",
    "STRUCTURAL",
    "MASTER",
    "registered_passes",
    "Certification",
    "certification_for",
    "FixitResult",
    "apply_fixits",
    "PREFLIGHT_MODES",
    "preflight",
    "rules_fingerprint",
    "run_lint",
    "sarif_rule_metadata",
    "structural_report",
]
