"""Attribute-level closure reasoning (value-free necessary conditions).

``attribute_closure(Z, Σ)`` is the set of attributes reachable from ``Z`` by
repeatedly firing rules whose premise (``X ∪ Xp``) is already covered.  It
over-approximates what any chase can validate: if the closure misses an
attribute, no tableau can make ``(Z, Tc)`` a certain region, which gives the
region-search algorithms a cheap pruning test.  ``grow_closure`` is the
closure-greedy growth Suggest and the region searches share;
``one_hop_cover`` is the myopic single-step variant the GRegion baseline
scores with (Sect. 6).
"""

from __future__ import annotations

from typing import Callable, Iterable


def attribute_closure(attrs: Iterable, rules: Iterable,
                      applies: Callable = None) -> frozenset:
    """Attributes validatable from *attrs* by chaining rules (value-free).

    *applies*, if given, is a per-rule test evaluated at the moment a rule
    could fire — its premise already in the closure, its target not yet —
    and a rule it rejects is dropped for good.  The result is the closure
    under the rules that pass, but a rule whose premise is never reached,
    or whose target another rule adds first, is never tested: the Suggest⁺
    reuse check (:meth:`repro.repair.bdd.SuggestionCache._valid_for`)
    passes its master-probing applicability test here.
    """
    closure = set(attrs)
    pending = list(rules)
    changed = True
    while changed and pending:
        changed = False
        remaining = []
        for rule in pending:
            if rule.rhs in closure:
                continue
            if rule.premise_attrs <= closure:
                if applies is None or applies(rule):
                    closure.add(rule.rhs)
                    changed = True
            else:
                remaining.append(rule)
        pending = remaining
    return frozenset(closure)


def grow_closure(schema, rules: Iterable, chosen: Iterable,
                 fixed: Iterable = ()) -> list:
    """Extend *chosen* until the closure of ``fixed ∪ chosen`` covers R.

    Each step adds the attribute (outside *fixed* and *chosen*) whose
    addition grows the attribute closure the most, ties broken by schema
    order; growth stops once the closure covers every attribute of
    *schema* or nothing is left to add.  Returns *chosen* with the added
    attributes appended in the order they were picked.
    """
    rules = list(rules)
    fixed = set(fixed)
    chosen = list(chosen)
    all_attrs = set(schema.attributes)
    while attribute_closure(fixed.union(chosen), rules) < all_attrs:
        remaining = [
            a for a in schema.attributes if a not in fixed and a not in chosen
        ]
        if not remaining:
            break
        chosen.append(max(
            remaining,
            key=lambda a: (
                len(attribute_closure(fixed.union(chosen, (a,)), rules)),
                -schema.index_of(a),
            ),
        ))
    return chosen


def one_hop_cover(attr: str, rules: Iterable) -> frozenset:
    """Attributes some rule *mentioning attr in its premise* can fix.

    This is the paper's description of GRegion's score: the attributes an
    attribute "may fix", with no chaining and no requirement that the rest
    of the premise be covered.
    """
    return frozenset(
        rule.rhs for rule in rules if attr in rule.premise_attrs
    )


def mandatory_attrs(schema, rules: Iterable) -> frozenset:
    """Attributes no rule can fix: they must belong to every certain region's Z."""
    fixable = {rule.rhs for rule in rules}
    return frozenset(a for a in schema.attributes if a not in fixable)
