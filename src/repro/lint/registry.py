"""The lint pass registry and the context passes run against.

A pass is a pure function ``(LintContext) -> list[Diagnostic]`` registered
under a stable diagnostic code.  Passes come in two families:

* ``structural`` passes need only ``(rules, schema)`` — they are cheap,
  total (never raise on well-typed rule sets), and safe to run as a
  preflight before any expensive precompute;
* ``master`` passes additionally read master data through the
  :class:`~repro.engine.store.MasterStore` seam and are budgeted (bounded
  scans, bounded chase state) because the underlying problems are
  coNP-complete (Theorems 1–2 of the paper).

The registry is the single source of truth for the code table rendered in
the package docstring, the SARIF rule metadata, and the passes the runner
runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.engine.schema import RelationSchema
from repro.lint.diagnostics import Diagnostic

#: Pass family names.
STRUCTURAL = "structural"
MASTER = "master"


@dataclass
class LintContext:
    """Everything a pass may read, plus the analysis budgets.

    ``schema`` is the input schema ``R``; ``master_schema`` is ``Rm``
    (identical in the same-schema deployments of Sect. 6, but passes must
    not assume so).  ``store`` is ``None`` for structural-only runs.
    """

    rules: Tuple
    schema: RelationSchema
    master_schema: RelationSchema
    store: Optional[object] = None
    #: Master-aware passes scan at most this many master rows; masters
    #: beyond the budget skip the scan-based passes rather than stall.
    max_master_rows: int = 50_000
    #: Candidate master tuples examined per rule when hunting witnesses.
    max_witness_masters: int = 8
    #: Constructed inputs chased per rule pair in the confluence search.
    max_witness_pairs: int = 16
    #: State budget handed to the exhaustive chase per witness.
    max_chase_states: int = 20_000
    #: Instantiation budget for the exact Sect. 4 certification passes
    #: (E205/W206/I208); past it they degrade to the sampled fallback.
    max_instantiations: int = 50_000
    #: Largest assured-attribute extension I208 searches for.
    max_extension_size: int = 3
    #: Exact region checks I208 spends on candidate extensions.
    max_extension_checks: int = 32
    #: Declared certain region to certify against; ``None`` resolves to the
    #: best computed region, then the canonical mandatory-attr region.
    region: Optional[object] = None
    #: Scratch shared between passes within one run (never cached).
    scratch: Dict = field(default_factory=dict)


@dataclass(frozen=True)
class LintPass:
    """One registered pass: metadata plus the callable that runs it."""

    code: str
    slug: str
    family: str
    description: str
    run: Callable[[LintContext], List[Diagnostic]]

    def sarif_rule(self) -> Dict:
        """This pass's entry in the SARIF tool rule table."""
        return {
            "id": self.code,
            "name": self.slug,
            "shortDescription": {"text": self.description},
        }


_REGISTRY: Dict[str, LintPass] = {}


def lint_pass(code: str, slug: str, family: str, description: str):
    """Register the decorated function as the pass behind *code*."""
    if family not in (STRUCTURAL, MASTER):
        raise ValueError(f"unknown pass family {family!r}")

    def decorate(fn: Callable[[LintContext], List[Diagnostic]]):
        if code in _REGISTRY:
            raise ValueError(f"duplicate lint pass code {code!r}")
        _REGISTRY[code] = LintPass(
            code=code, slug=slug, family=family, description=description,
            run=fn,
        )
        return fn

    return decorate


def registered_passes(family: Optional[str] = None) -> Tuple[LintPass, ...]:
    """All passes (registration order), optionally one family only."""
    passes = _REGISTRY.values()
    if family is not None:
        passes = (p for p in passes if p.family == family)
    return tuple(passes)

