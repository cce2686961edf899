"""Certain-region search: CompCRegion (reconstructed) and GRegion (baseline).

The paper derives its initial suggestions from certain regions computed by
the heuristic ``CompCRegion`` of the companion paper [20] (not included in
the provided text) and compares against a greedy baseline ``GRegion``
("at each stage, choose an attribute which may fix the largest number of
uncovered attributes").  The reconstruction:

* **CompCRegion**: candidate ``Z`` sets grow from the mandatory attributes
  (those no rule can fix) ordered by attribute-closure coverage; a candidate
  is kept iff its closure reaches ``R`` and master-projected patterns
  validate as certain single-pattern regions (Example 9's tableau shape).
  Candidates are ranked by a quality metric: fewer user-validated attributes
  first, higher master support second.
* **GRegion**: the myopic set-cover greedy over one-hop "may fix" sets, with
  a closure-repair phase so its output is still a valid certain region.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

from repro.analysis.active_domain import ActiveDomainCache
from repro.analysis.closure import (
    attribute_closure,
    grow_closure,
    mandatory_attrs,
    one_hop_cover,
)
from repro.analysis.consistency import check_pattern
from repro.analysis.zproblems import master_projected_patterns
from repro.core.patterns import PatternTableau
from repro.core.program import compile_rules
from repro.core.regions import Region
from repro.engine.schema import RelationSchema
from repro.engine.store import MasterStore, as_master_store


@dataclass
class CertainRegionCandidate:
    """A certain region with its ranking metadata."""

    region: Region
    quality: float
    patterns_checked: int
    patterns_valid: int

    @property
    def size(self) -> int:
        return len(self.region.attrs)

    @property
    def support(self) -> float:
        if self.patterns_checked == 0:
            return 0.0
        return self.patterns_valid / self.patterns_checked

    def describe(self) -> str:
        return (
            f"Z={list(self.region.attrs)} (|Z|={self.size}, "
            f"quality={self.quality:.3f}, support={self.support:.2f}, "
            f"|Tc|={len(self.region.tableau)})"
        )


def _validated_tableau(
    z: tuple,
    rules: Sequence,
    master: MasterStore,
    schema: RelationSchema,
    validate_patterns: int,
    max_instantiations: int,
    record: list = None,
):
    """Build and validate a master-projected tableau for Z.

    Returns ``(region_or_None, checked, valid)``; the region keeps the
    validated patterns (capped) as its tableau.  When *record* is a list,
    a dict describing this seed's examination — candidate-pattern count,
    the validation window and instantiation budget it ran under, and
    per-checked-pattern ``[pattern, verdict, probe footprint]``
    entries (verdict ``good`` / ``vacuous`` / ``failed``) — is appended,
    the raw material for delta-aware region retention
    (:class:`repro.repair.invalidation.RegionGuard`).  The footprint is
    the check's own report of what it probed (``PatternCheck.reads``);
    the build reads master data by key nowhere else — candidate
    generation and active domains only sweep.
    """
    rules = compile_rules(rules, schema, master)
    candidates = master_projected_patterns(z, rules, master)
    # The build runs at one master version: sweep each active domain once
    # per seed, not once per checked pattern.
    domains = ActiveDomainCache(rules, master)
    checked = 0
    good = []
    checks_record = [] if record is not None else None
    for pattern in candidates:
        if checked >= validate_patterns:
            break
        checked += 1
        check = check_pattern(
            rules, master, Region(z, tableau=None), pattern, schema,
            max_instantiations, domains=domains,
        )
        is_good = check.certain and check.instantiations > 0
        if is_good:
            good.append(pattern)
        if checks_record is not None:
            verdict = (
                "good" if is_good
                else "vacuous" if check.instantiations == 0
                else "failed"
            )
            checks_record.append([pattern, verdict, check.reads])
    if record is not None:
        record.append({
            "z": z,
            "candidates": len(candidates),
            "validate_patterns": validate_patterns,
            "max_instantiations": max_instantiations,
            "checks": checks_record,
        })
    if not good:
        return None, checked, 0
    region = Region(z, PatternTableau(z, good))
    return region, checked, len(good)


def _quality(schema: RelationSchema, size: int, support: float) -> float:
    """Fewer user-validated attributes first; master support as tie-break."""
    total = len(schema)
    return (total - size) / total + support / (10.0 * total)


def comp_c_region(
    rules: Sequence,
    master,
    schema: RelationSchema,
    max_regions: int = 8,
    max_extra: int = 3,
    validate_patterns: int = 64,
    max_instantiations: int = 50_000,
    record: list = None,
) -> list:
    """Derive a ranked list of certain regions from (Σ, Dm).

    All returned regions are validated certain regions; the first element is
    the highest-quality one (the CRHQ of Exp-1(2)).  *master* may be any
    :class:`~repro.engine.store.MasterStore` or a plain relation; regions
    derived here are valid only for the store version they were computed
    against (the repair engines stamp and rebuild them on master updates).
    When *record* is a list it receives one examination dict per seed
    (see :func:`_validated_tableau`) for delta-aware retention.
    """
    master = as_master_store(master)
    # Compiled once: every check_pattern of the build chases on it.
    rules = compile_rules(rules, schema, master)
    all_attrs = set(schema.attributes)
    base = tuple(a for a in schema.attributes if a in mandatory_attrs(schema, rules))
    optional = [a for a in schema.attributes if a not in base]

    # Seed Z candidates: the mandatory set padded with 0..max_extra extra
    # attributes, by schema order, pruned by attribute closure.
    seeds: list = []
    seen: set = set()

    def consider(z_tuple):
        if z_tuple in seen:
            return
        seen.add(z_tuple)
        if attribute_closure(z_tuple, rules) >= all_attrs:
            seeds.append(z_tuple)

    consider(base)
    for k in range(1, max_extra + 1):
        if len(seeds) >= max_regions * 3:
            break
        for extra in combinations(optional, k):
            z = tuple(a for a in schema.attributes if a in base or a in extra)
            consider(z)
            if len(seeds) >= max_regions * 3:
                break

    # When even closure fails from the mandatory base, grow greedily first.
    if not seeds:
        z = grow_closure(schema, rules, base)
        consider(tuple(a for a in schema.attributes if a in z))

    candidates = []
    for z in sorted(seeds, key=len):
        if len(candidates) >= max_regions:
            break
        region, checked, valid = _validated_tableau(
            z, rules, master, schema, validate_patterns, max_instantiations,
            record=record,
        )
        if region is None:
            continue
        support = valid / checked if checked else 0.0
        candidates.append(
            CertainRegionCandidate(
                region=region,
                quality=_quality(schema, len(z), support),
                patterns_checked=checked,
                patterns_valid=valid,
            )
        )
    candidates.sort(key=lambda c: c.quality, reverse=True)
    return candidates


def g_region(
    rules: Sequence,
    master,
    schema: RelationSchema,
    validate_patterns: int = 64,
    max_instantiations: int = 50_000,
):
    """The greedy baseline of Sect. 6 (Exp-1(1)).

    Score of an attribute = how many still-uncovered attributes it "may fix"
    (one-hop, ignoring whether the rest of the premises are available), plus
    itself.  Picks greedily until everything is may-covered, then repairs
    with closure growth so the result is actually a certain region.
    """
    master = as_master_store(master)
    rules = list(rules)
    all_attrs = list(schema.attributes)
    covered: set = set()
    z: list = []

    while set(all_attrs) - covered:
        remaining = [a for a in all_attrs if a not in z]
        if not remaining:
            break

        def score(attr):
            gain = ({attr} | set(one_hop_cover(attr, rules))) - covered
            return (len(gain), -schema.index_of(attr))

        best = max(remaining, key=score)
        if not (({best} | set(one_hop_cover(best, rules))) - covered):
            break
        z.append(best)
        covered |= {best} | set(one_hop_cover(best, rules))

    # Repair phase: the may-fix sets over-promise; grow until the attribute
    # closure really reaches R.
    z = grow_closure(schema, rules, z)

    z_tuple = tuple(a for a in schema.attributes if a in z)
    region, checked, valid = _validated_tableau(
        z_tuple, rules, master, schema, validate_patterns, max_instantiations
    )
    if region is None:
        return None
    support = valid / checked if checked else 0.0
    return CertainRegionCandidate(
        region=region,
        quality=_quality(schema, len(z_tuple), support),
        patterns_checked=checked,
        patterns_valid=valid,
    )
