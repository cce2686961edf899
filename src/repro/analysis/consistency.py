"""The consistency problem (Sect. 4.1, Theorems 1 and 4).

``(Σ, Dm)`` is *consistent relative to* ``(Z, Tc)`` iff every tuple marked by
the region has a unique fix.  For a concrete tableau this is PTIME: chase
each pattern tuple with the batched confluence checker.  For tableaux with
wildcards or negations the problem is coNP-complete; following the proof of
Theorem 4 we instantiate the non-constant pattern positions over
(per-attribute) active domains plus fresh witnesses and check each concrete
instance — exponential in the number of instantiated positions, so a guard
(`max_instantiations`) protects callers, in line with the paper's hardness
results.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Sequence

from repro.analysis.active_domain import (
    ActiveDomainCache,
    instantiate_condition,
    read_attrs,
)
from repro.core.fixes import ChaseOutcome, Conflict, chase
from repro.core.program import compile_rules
from repro.core.patterns import PatternTuple
from repro.core.regions import Region
from repro.engine.relation import Relation
from repro.engine.schema import RelationSchema
from repro.engine.values import UNKNOWN


class AnalysisExplosion(RuntimeError):
    """The instantiation space exceeds the caller's budget.

    Expected for adversarial inputs: the underlying problems are
    coNP-complete (Theorems 1 and 2).  Use a concrete tableau, the
    direct-fix analyses, or raise the budget.
    """


@dataclass
class PatternCheck:
    """Verdict for one pattern tuple of a region's tableau."""

    pattern: PatternTuple
    consistent: bool
    certain: bool
    instantiations: int
    conflict: Conflict = None
    witness_values: dict = None
    uncovered: tuple = ()
    #: The union of every chase's ``reads``: each ``(Xm, key)`` the check
    #: probed, coverage-failure consistency chases included.
    reads: frozenset = field(default=frozenset(), compare=False, repr=False)

    def describe(self) -> str:
        status = "certain" if self.certain else (
            "consistent" if self.consistent else "inconsistent"
        )
        extra = ""
        if self.conflict is not None:
            extra = f" [{self.conflict.describe()}]"
        elif self.uncovered:
            extra = f" [uncovered: {list(self.uncovered)}]"
        return f"{self.pattern!r}: {status}{extra}"


@dataclass
class RegionReport:
    """Aggregated verdict for a whole region."""

    region: Region
    checks: list = field(default_factory=list)
    #: active-domain cache counters: {"computed": n, "reused": m}.  Reuse
    #: across pattern tuples (and across analyses sharing one cache) is the
    #: saved work; ``computed`` is bounded by the number of distinct attrs.
    domain_stats: dict = field(default_factory=dict)

    @property
    def consistent(self) -> bool:
        return all(c.consistent for c in self.checks)

    @property
    def certain(self) -> bool:
        return all(c.certain for c in self.checks)

    @property
    def total_instantiations(self) -> int:
        return sum(c.instantiations for c in self.checks)

    def first_conflict(self) -> Conflict:
        for c in self.checks:
            if c.conflict is not None:
                return c.conflict
        return None

    def describe(self) -> str:
        lines = [f"Region Z={list(self.region.attrs)}:"]
        lines.extend("  " + c.describe() for c in self.checks)
        return "\n".join(lines)


def _instantiation_space(
    pattern: PatternTuple,
    region_attrs: Sequence,
    rules: Sequence,
    master: Relation,
    schema: RelationSchema,
    domains: ActiveDomainCache = None,
):
    """Per-attribute concrete value choices for one pattern tuple.

    Only attributes the rules can read need instantiation; the rest are
    validated with an irrelevant value (``UNKNOWN``).  Active domains come
    from *domains* when given, so repeated pattern tuples share one scan of
    the master per attribute.
    """
    if domains is None:
        domains = ActiveDomainCache(rules, master)
    readable = read_attrs(rules)
    choices = []
    for attr in region_attrs:
        condition = pattern[attr]
        if attr not in readable:
            if condition.is_constant:
                choices.append((attr, [condition.value]))
            else:
                choices.append((attr, [UNKNOWN]))
            continue
        values = instantiate_condition(
            condition, domains.domain(attr), schema.domain_of(attr), attr
        )
        choices.append((attr, values))
    return choices


def check_pattern(
    rules: Sequence,
    master: Relation,
    region: Region,
    pattern: PatternTuple,
    schema: RelationSchema,
    max_instantiations: int = 200_000,
    domains: ActiveDomainCache = None,
) -> PatternCheck:
    """Check one pattern tuple: consistency and coverage of its instances.

    Σ is compiled once (a :class:`~repro.core.program.RuleProgram` passes
    through) and every instance is chased on that program.
    """
    rules = compile_rules(rules, schema, master)
    choices = _instantiation_space(
        pattern, region.attrs, rules, master, schema, domains
    )

    space = 1
    for _, values in choices:
        space *= max(len(values), 1)
    if space > max_instantiations:
        raise AnalysisExplosion(
            f"pattern {pattern!r} instantiates to {space} concrete tuples "
            f"(> {max_instantiations}); the consistency/coverage problems "
            f"are coNP-complete for non-concrete tableaux (Theorems 1-2)"
        )

    # An unsatisfiable pattern marks no tuple: vacuously consistent & certain.
    if any(not values for _, values in choices):
        return PatternCheck(
            pattern=pattern, consistent=True, certain=True, instantiations=0
        )

    all_attrs = set(schema.attributes)
    attrs = [a for a, _ in choices]
    instantiations = 0
    reads: set = set()
    for combo in itertools.product(*(values for _, values in choices)):
        instantiations += 1
        assignment = dict(zip(attrs, combo))
        outcome: ChaseOutcome = chase(assignment, region.attrs, rules, master)
        reads.update(outcome.reads)
        if not outcome.unique:
            return PatternCheck(
                pattern=pattern,
                consistent=False,
                certain=False,
                instantiations=instantiations,
                conflict=outcome.conflict,
                witness_values=assignment,
                reads=frozenset(reads),
            )
        if not outcome.covered >= all_attrs:
            uncovered = tuple(
                a for a in schema.attributes if a not in outcome.covered
            )
            consistent = _remaining_consistent(
                rules, master, region, choices, attrs, reads
            )
            return PatternCheck(
                pattern=pattern,
                consistent=consistent,
                certain=False,
                instantiations=instantiations,
                witness_values=assignment,
                uncovered=uncovered,
                reads=frozenset(reads),
            )
    return PatternCheck(
        pattern=pattern,
        consistent=True,
        certain=True,
        instantiations=instantiations,
        reads=frozenset(reads),
    )


def _remaining_consistent(
    rules, master, region, choices, attrs, reads
) -> bool:
    """Finish the consistency half of a check after coverage already failed.

    Coverage failures do not imply inconsistency, so keep chasing the
    remaining instances (starting over is simplest and the space is already
    budgeted) looking only at uniqueness.  Every chase's probes join
    *reads*: the verdict depends on them too.
    """
    for combo in itertools.product(*(values for _, values in choices)):
        assignment = dict(zip(attrs, combo))
        outcome = chase(assignment, region.attrs, rules, master)
        reads.update(outcome.reads)
        if not outcome.unique:
            return False
    return True


def check_region(
    rules: Sequence,
    master: Relation,
    region: Region,
    schema: RelationSchema,
    max_instantiations: int = 200_000,
    domains: ActiveDomainCache = None,
) -> RegionReport:
    """Check every pattern tuple of the region (Theorem 4: one by one).

    One :class:`ActiveDomainCache` is shared across all pattern tuples (and
    with the caller's other analyses when *domains* is passed in); the
    report's ``domain_stats`` records the computed/reused split.
    """
    rules = compile_rules(rules, schema, master)
    if domains is None:
        domains = ActiveDomainCache(rules, master)
    report = RegionReport(region=region)
    for pattern in region.tableau:
        report.checks.append(
            check_pattern(
                rules, master, region, pattern, schema, max_instantiations,
                domains,
            )
        )
    report.domain_stats = domains.stats()
    return report


def is_consistent(
    rules: Sequence,
    master: Relation,
    region: Region,
    schema: RelationSchema,
    max_instantiations: int = 200_000,
) -> bool:
    """Decide the consistency problem for ``(Σ, Dm)`` relative to ``(Z, Tc)``."""
    return check_region(
        rules, master, region, schema, max_instantiations
    ).consistent
