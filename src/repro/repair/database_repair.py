"""Batch certain fixes over a whole database (the paper's first future-work
item: "efficiently find certain fixes for data in a database, i.e., certain
fixes in data repairing rather than monitoring").

Without a user in the loop, something must stand in for the validated region.
The stand-in implemented here: for each precomputed certain-region attribute
set ``Z``, run the PTIME concrete check of Theorem 4 on the tuple's own
``t[Z]`` values — when the chase from ``Z`` is unique and covers all of
``R``, master data itself corroborates every step, and under the stated
assumption that corroborated key values are correct the applied fix is
certain.  Tuples failing the check are copied through unchanged, never
guessed at (in sharp contrast to the IncRep baseline); with
``certain_only=False`` unique-but-partial fixes are applied too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.analysis.dependency_graph import DependencyGraph
from repro.core.fixes import chase
from repro.core.program import compile_rules
from repro.engine.relation import Relation
from repro.engine.schema import RelationSchema
from repro.repair.region_search import comp_c_region
from repro.repair.transfix import transfix


@dataclass
class DatabaseRepairReport:
    """Outcome statistics of one batch repair."""

    total: int = 0
    corroborated: int = 0
    fully_fixed: int = 0
    partially_fixed: int = 0
    untouched: int = 0
    changed_attrs: int = 0
    skipped_conflicts: int = 0
    per_tuple: list = field(default_factory=list)

    def describe(self) -> str:
        return (
            f"{self.total} tuples: {self.fully_fixed} fully fixed, "
            f"{self.partially_fixed} partially fixed, "
            f"{self.untouched} untouched "
            f"({self.corroborated} corroborated by master data, "
            f"{self.changed_attrs} attribute updates, "
            f"{self.skipped_conflicts} conflict skips)"
        )


def repair_database(
    relation: Relation,
    rules: Sequence,
    master: Relation,
    schema: RelationSchema,
    regions: list = None,
    max_regions_tried: int = 4,
    certain_only: bool = True,
) -> tuple:
    """Apply certain fixes to every corroborated tuple of *relation*.

    Returns ``(repaired_relation, report)``.  For each tuple and each
    precomputed region ``Z`` (best quality first), the tuple's ``t[Z]`` is
    treated as a concrete pattern and chased; a certain outcome (unique and
    covering ``R``) is applied via TransFix.  Non-unique outcomes are
    skipped defensively; partial outcomes are applied only with
    ``certain_only=False``.
    """
    if regions is None:
        regions = comp_c_region(rules, master, schema)
    z_sets = [candidate.region.attrs for candidate in regions[:max_regions_tried]]
    rules = list(rules)
    graph = DependencyGraph(rules)
    program = compile_rules(rules, schema, master)
    out = Relation(relation.schema)
    report = DatabaseRepairReport()
    all_attrs = set(schema.attributes)

    for row in relation:
        report.total += 1
        certain_z = None
        partial_z = None
        partial_covered = 0
        saw_evidence = False
        saw_conflict = False
        for z in z_sets:
            outcome = chase(row, z, program, master)
            if not outcome.unique:
                saw_conflict = True
                continue
            if outcome.applications:
                saw_evidence = True
            if outcome.covered >= all_attrs:
                certain_z = z
                break
            if len(outcome.covered) > partial_covered and outcome.applications:
                partial_z = z
                partial_covered = len(outcome.covered)

        if saw_evidence:
            report.corroborated += 1

        chosen = certain_z if certain_z is not None else (
            None if certain_only else partial_z
        )
        if chosen is None:
            if saw_conflict and certain_z is None:
                report.skipped_conflicts += 1
            report.untouched += 1
            report.per_tuple.append((row, None, "uncorroborated"))
            out.insert(row)
            continue

        result = transfix(row, chosen, rules, master, graph)
        changed = sum(
            1 for a in schema.attributes if result.row[a] != row[a]
        )
        report.changed_attrs += changed
        if certain_z is not None:
            report.fully_fixed += 1
            status = "certain"
        elif changed:
            report.partially_fixed += 1
            status = "partial"
        else:
            report.untouched += 1
            status = "clean"
        report.per_tuple.append((result.row, result.validated, status))
        out.insert(result.row)

    return out, report
