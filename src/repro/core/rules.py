"""Editing rules (Sect. 2 of the paper).

An editing rule (eR) on schemas ``(R, Rm)`` is
``φ = ((X, Xm) → (B, Bm), tp[Xp])`` where

* ``X`` / ``Xm`` are equal-length lists of distinct attributes of ``R`` /
  ``Rm`` (the match keys),
* ``B ∈ R \\ X`` is the attribute the rule fixes, ``Bm ∈ Rm`` the master
  attribute it copies from,
* ``tp`` is a pattern tuple over ``Xp ⊆ R`` guarding applicability.

Semantics: ``(φ, tm)`` *applies to* ``t`` (written ``t →(φ,tm) t'``) iff
``t[Xp] ≈ tp[Xp]`` and ``t[X] = tm[Xm]``; the result sets
``t'[B] := tm[Bm]`` and leaves everything else unchanged.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.core.patterns import PatternTuple
from repro.engine.relation import Relation
from repro.engine.tuples import Row
from repro.engine.values import UNKNOWN


class EditingRule:
    """One editing rule ``((X, Xm) → (B, Bm), tp[Xp])``.

    Attribute-list accessors follow the paper's notation: :attr:`lhs` is
    ``X``, :attr:`lhs_m` is ``Xm``, :attr:`rhs` is ``B``, :attr:`rhs_m` is
    ``Bm``, :attr:`pattern` is ``tp`` (whose attrs are ``Xp``).  The
    fields are fixed after construction: the premise and the hash are
    derived from them once (:meth:`with_pattern` builds a new rule).
    """

    __slots__ = (
        "name", "lhs", "lhs_m", "rhs", "rhs_m", "pattern", "master_guard",
        "_premise", "_hash",
    )

    def __init__(
        self,
        lhs: Sequence,
        lhs_m: Sequence,
        rhs: str,
        rhs_m: str,
        pattern: PatternTuple = None,
        name: str = None,
        master_guard: PatternTuple = None,
    ):
        lhs = (lhs,) if isinstance(lhs, str) else tuple(lhs)
        lhs_m = (lhs_m,) if isinstance(lhs_m, str) else tuple(lhs_m)
        if len(lhs) != len(lhs_m):
            raise ValueError(
                f"|X| = {len(lhs)} but |Xm| = {len(lhs_m)}; the lists must "
                f"have the same length"
            )
        if len(set(lhs)) != len(lhs):
            raise ValueError(f"X has duplicate attributes: {lhs}")
        # Xm entries may repeat: the match is positional (t[Xi] = tm[Xmi]),
        # and the paper's own constructions reuse a master column (the
        # Theorem 12 reduction matches many R attributes against B1).
        if rhs in lhs:
            raise ValueError(f"B = {rhs!r} must not occur in X = {lhs}")
        self.lhs = lhs
        self.lhs_m = lhs_m
        self.rhs = rhs
        self.rhs_m = rhs_m
        self.pattern = pattern if pattern is not None else PatternTuple({})
        # Master-side guard: conditions a master tuple must satisfy to be
        # eligible for this rule.  This realizes Sect. 2's remark (3): with
        # several master relations encoded in one tagged schema, a rule for
        # master Dmi carries the guard "id = i" (σ_id=i(Rm)).
        self.master_guard = (
            master_guard if master_guard is not None else PatternTuple({})
        )
        self.name = name or self._default_name()
        self._premise = frozenset(self.lhs) | frozenset(self.pattern.attrs)
        # Computed on first use, then kept: rules are hashed on every
        # per-rule cache lookup, but most rules Suggest refines are never
        # hashed at all.
        self._hash = None

    def __reduce__(self):
        # Rebuild through the constructor: string hashes are salted per
        # process, so a cached hash must not travel to a spawned worker.
        return (EditingRule, (
            self.lhs, self.lhs_m, self.rhs, self.rhs_m, self.pattern,
            self.name, self.master_guard,
        ))

    def _default_name(self) -> str:
        return f"({','.join(self.lhs)})->{self.rhs}"

    # -- notation helpers (Sect. 2, "Notations") ---------------------------------

    @property
    def lhs_p(self) -> tuple:
        """The pattern attributes ``Xp``."""
        return self.pattern.attrs

    @property
    def premise_attrs(self) -> frozenset:
        """``X ∪ Xp`` — the attributes that must be validated to apply φ."""
        return self._premise

    def master_attr_of(self, attr: str) -> str:
        """``λφ(attr)``: the master attribute corresponding to ``attr ∈ X``."""
        try:
            return self.lhs_m[self.lhs.index(attr)]
        except ValueError:
            raise KeyError(
                f"attribute {attr!r} is not in lhs {self.lhs} of rule {self.name}"
            ) from None

    def master_attrs_of(self, attrs: Iterable) -> tuple:
        """``λφ(attrs)`` for a list of lhs attributes."""
        return tuple(self.master_attr_of(a) for a in attrs)

    # -- normal form (Sect. 2) ----------------------------------------------------

    @property
    def is_normal_form(self) -> bool:
        """True iff the pattern contains no wildcard ``_``."""
        return not any(c.is_wildcard for _, c in self.pattern.items())

    def normalized(self) -> "EditingRule":
        """The equivalent rule with wildcard pattern attributes removed."""
        return EditingRule(
            self.lhs,
            self.lhs_m,
            self.rhs,
            self.rhs_m,
            self.pattern.normalized(),
            name=self.name,
            master_guard=self.master_guard.normalized(),
        )

    # -- semantics (Sect. 2) ---------------------------------------------------

    def pattern_matches(self, t) -> bool:
        """``t[Xp] ≈ tp[Xp]``."""
        return self.pattern.matches(t)

    def master_matches(self, tm: Row) -> bool:
        """Whether *tm* satisfies the master-side guard."""
        return self.master_guard.matches(tm)

    def applies_to(self, t: Row, tm: Row) -> bool:
        """Whether ``(φ, tm)`` applies to ``t`` (pattern + key agreement +
        master guard)."""
        if not self.pattern.matches(t):
            return False
        if not self.master_guard.matches(tm):
            return False
        key = t[self.lhs]
        if any(v is UNKNOWN for v in key):
            return False
        return key == tm[self.lhs_m]

    def apply(self, t: Row, tm: Row) -> Row:
        """``t →(φ,tm) t'``; raises if the pair does not apply."""
        if not self.applies_to(t, tm):
            raise ValueError(
                f"rule {self.name} with master tuple {tm!r} does not apply to {t!r}"
            )
        return t.with_values({self.rhs: tm[self.rhs_m]})

    def apply_unchecked(self, t: Row, tm: Row) -> Row:
        """The update ``t[B] := tm[Bm]`` without re-checking applicability."""
        return t.with_values({self.rhs: tm[self.rhs_m]})

    def matching_master_rows(self, t, master: Relation) -> list:
        """Master tuples ``tm`` with ``tm[Xm] = t[X]`` (hash-index lookup).

        Does *not* check the pattern; callers combine this with
        :meth:`pattern_matches` so the (cheap) pattern test can be hoisted
        out of per-master loops.
        """
        key = t[self.lhs] if isinstance(t, Row) else tuple(t[a] for a in self.lhs)
        if any(v is UNKNOWN for v in key):
            return []
        matches = master.lookup(self.lhs_m, key)
        if len(self.master_guard):
            matches = [tm for tm in matches if self.master_guard.matches(tm)]
        return matches

    # -- misc -------------------------------------------------------------------

    def rename(self, name: str) -> "EditingRule":
        return EditingRule(
            self.lhs, self.lhs_m, self.rhs, self.rhs_m, self.pattern,
            name=name, master_guard=self.master_guard,
        )

    def with_pattern(self, pattern: PatternTuple) -> "EditingRule":
        """The same rule with a different guard (used by Suggest's φ⁺)."""
        return EditingRule(
            self.lhs, self.lhs_m, self.rhs, self.rhs_m, pattern,
            name=self.name, master_guard=self.master_guard,
        )

    @property
    def is_direct(self) -> bool:
        """Direct-fix form (Sect. 4 case (5)): ``Xp ⊆ X``."""
        return set(self.pattern.attrs) <= set(self.lhs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, EditingRule):
            return NotImplemented
        return (
            self.lhs == other.lhs
            and self.lhs_m == other.lhs_m
            and self.rhs == other.rhs
            and self.rhs_m == other.rhs_m
            and self.pattern == other.pattern
            and self.master_guard == other.master_guard
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.lhs, self.lhs_m, self.rhs, self.rhs_m,
                               self.pattern, self.master_guard))
        return self._hash

    def __repr__(self) -> str:
        return (
            f"EditingRule[{self.name}]: (({list(self.lhs)}, {list(self.lhs_m)}) -> "
            f"({self.rhs}, {self.rhs_m}), {self.pattern!r})"
        )


def expand_rule_family(
    lhs: Sequence,
    lhs_m: Sequence,
    rhs_attrs: Iterable,
    pattern: PatternTuple = None,
    rhs_m_attrs: Iterable = None,
    name_prefix: str = "phi",
) -> list:
    """Expand one written rule into one eR per target attribute.

    The paper writes e.g. "eR1 is expressed as three editing rules of the
    form φ1, for B1 ranging over {AC, str, city}" (Example 3).  This helper
    builds such families; by default ``Bm = B`` for each target.
    """
    rhs_attrs = list(rhs_attrs)
    rhs_m_attrs = list(rhs_m_attrs) if rhs_m_attrs is not None else rhs_attrs
    if len(rhs_attrs) != len(rhs_m_attrs):
        raise ValueError("rhs_attrs and rhs_m_attrs must align")
    return [
        EditingRule(
            lhs,
            lhs_m,
            b,
            bm,
            pattern,
            name=f"{name_prefix}[{b}]",
        )
        for b, bm in zip(rhs_attrs, rhs_m_attrs)
    ]


def rules_lhs(rules: Iterable) -> set:
    """``lhs(Σ)`` — union of X over the rule set."""
    out = set()
    for rule in rules:
        out.update(rule.lhs)
    return out


def rules_rhs(rules: Iterable) -> set:
    """``rhs(Σ)`` — the set of fixable attributes."""
    return {rule.rhs for rule in rules}


def rules_attrs(rules: Iterable) -> set:
    """``ZΣ`` — every R attribute appearing anywhere in Σ."""
    out = set()
    for rule in rules:
        out.update(rule.lhs)
        out.update(rule.pattern.attrs)
        out.add(rule.rhs)
    return out
