"""IncRep: the CFD-based heuristic repair baseline (Cong et al., [14]).

The paper's Exp-1(7) compares CertainFix against IncRep, "a heuristic method
to make D consistent, i.e., finds a repair D' that satisfies the constraints
and 'minimally' differs from D", using a cost metric over attribute weights
and value distances.  This module reconstructs the algorithm's core for the
monitoring setting, where each input tuple is repaired on its own against
master data:

* **violation detection** — for each editing-rule-derived dependency, a
  tuple is in violation when it exactly matches a master tuple's key but
  disagrees on the target, or when a multi-attribute key *nearly* matches
  (all but one attribute) — the CFD resolution step of [14] where either
  side of the dependency may be modified.  A non-matching key is *not* a
  violation (the compiled constant CFDs simply do not apply), so no repair
  is invented for it;
* **resolution** — candidate modifications are "copy the master target" or
  "fix the mismatched key attribute"; the minimum-cost candidate
  (``weight × normalized edit distance``) is applied; repaired attributes
  are frozen so resolution terminates.

IncRep repairs the whole tuple without certainty guarantees: under noise it
picks wrong resolutions (precision < 1), which is precisely the behaviour
Fig. 11(c)/(f) contrasts with CertainFix's 100% precision.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.constraints.distance import normalized_distance
from repro.engine.relation import Relation
from repro.engine.schema import RelationSchema
from repro.engine.tuples import Row


@dataclass
class Candidate:
    """One candidate value modification.

    ``tier`` orders evidence strength (1 = full-key match, 2 = near match,
    3 = target-anchored); ``support`` counts how many attributes of the
    input tuple agree with the proposing master tuple — the confidence side
    of [14]'s cost model (a modification corroborated by most of the tuple
    beats one corroborated by a single attribute).
    """

    attr: str
    value: object
    cost: float
    via_rule: str
    tier: int = 1
    support: int = 0


@dataclass
class RepairResult:
    """Output of one IncRep run."""

    row: Row
    changed: dict = field(default_factory=dict)
    iterations: int = 0

    @property
    def changed_attrs(self) -> frozenset:
        return frozenset(self.changed)


class IncRep:
    """Cost-based per-tuple repair against master data.

    Parameters
    ----------
    rules, master, schema:
        The same inputs CertainFix consumes; dependencies are derived from
        the rules so both systems see the same signal.
    weights:
        Optional per-attribute modification weights (default 1.0).
    max_iterations:
        Safety bound on the resolve loop (each iteration freezes one
        attribute, so ``|R|`` suffices).
    """

    def __init__(
        self,
        rules: Sequence,
        master: Relation,
        schema: RelationSchema,
        weights: dict = None,
        max_iterations: int = None,
    ):
        self.rules = list(rules)
        self.master = master
        self.schema = schema
        self.weights = dict(weights or {})
        self.max_iterations = max_iterations or len(schema)
        for rule in self.rules:
            master.index_on(rule.lhs_m)

    def _weight(self, attr: str) -> float:
        return self.weights.get(attr, 1.0)

    def _support(self, row: Row, tm: Row) -> int:
        """Attributes of the input tuple agreeing with a master tuple."""
        shared = (
            row.schema.attributes
            if row.schema.attributes == tm.schema.attributes
            else tuple(a for a in row.schema.attributes if a in tm.schema)
        )
        return sum(1 for a in shared if row[a] == tm[a])

    # -- candidate generation --------------------------------------------------

    def _candidates(self, row: Row, frozen: set) -> list:
        out = []
        for rule in self.rules:
            if not rule.pattern.matches(row):
                continue
            key = row[rule.lhs]
            # Exact key match: violation iff the target disagrees (and the
            # master evidence agrees on what it should be).
            matches = self.master.lookup(rule.lhs_m, key)
            if len(rule.master_guard):
                matches = [tm for tm in matches
                           if rule.master_guard.matches(tm)]
            if matches and rule.rhs not in frozen:
                value = matches[0][rule.rhs_m]
                if (
                    row[rule.rhs] != value
                    and all(tm[rule.rhs_m] == value for tm in matches[1:])
                ):
                    out.append(
                        Candidate(
                            attr=rule.rhs,
                            value=value,
                            cost=self._weight(rule.rhs)
                            * normalized_distance(row[rule.rhs], value),
                            via_rule=rule.name,
                            tier=1,
                            support=self._support(row, matches[0]),
                        )
                    )
            # Near match (all key attributes but one): either the mismatched
            # key attribute or the target may be dirty - offer both sides.
            if len(rule.lhs) >= 2:
                out.extend(self._near_matches(rule, row, frozen))
        return out

    def _near_matches(self, rule, row: Row, frozen: set) -> list:
        """All-but-one key matches: fix the mismatched key attribute.

        Applied only when the evidence is unambiguous — every master tuple
        matching the kept key attributes must agree on the skipped one
        (otherwise any pick would be a guess, which [14]'s cost model never
        prefers over cheaper certain resolutions).
        """
        out = []
        for skip_index, skipped in enumerate(rule.lhs):
            if skipped in frozen:
                continue
            kept = tuple(
                a for i, a in enumerate(rule.lhs) if i != skip_index
            )
            kept_m = tuple(
                m for i, m in enumerate(rule.lhs_m) if i != skip_index
            )
            key = row[kept]
            matches = self.master.lookup(kept_m, key)
            if len(rule.master_guard):
                matches = [tm for tm in matches
                           if rule.master_guard.matches(tm)]
            if not matches:
                continue
            skipped_m = rule.master_attr_of(skipped)
            value = matches[0][skipped_m]
            if any(tm[skipped_m] != value for tm in matches[1:]):
                continue  # ambiguous evidence
            if row[skipped] == value:
                continue  # exact match, already handled
            out.append(
                Candidate(
                    attr=skipped,
                    value=value,
                    cost=self._weight(skipped)
                    * normalized_distance(row[skipped], value),
                    via_rule=rule.name,
                    tier=2,
                    support=self._support(row, matches[0]),
                )
            )
        return out

    # -- the resolve loop ----------------------------------------------------------

    def repair(self, t: Row) -> RepairResult:
        """Repair one tuple: apply minimum-cost resolutions to a fixpoint."""
        row = t
        frozen: set = set()
        changed: dict = {}
        iterations = 0
        while iterations < self.max_iterations:
            iterations += 1
            candidates = self._candidates(row, frozen)
            if not candidates:
                break
            best = min(
                candidates,
                key=lambda c: (c.tier, -c.support, c.cost, c.attr, repr(c.value)),
            )
            if row[best.attr] == best.value:
                frozen.add(best.attr)
                continue
            row = row.with_values({best.attr: best.value})
            changed[best.attr] = best.value
            frozen.add(best.attr)
        return RepairResult(row=row, changed=changed, iterations=iterations)
