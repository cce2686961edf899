"""The Z-problems: Z-validating, Z-counting, Z-minimum (Sect. 4.2).

* **Z-validating** (Thm. 6, NP-complete): does some non-empty tableau make
  ``(Z, Tc)`` a certain region?  Decided by searching for a single witness
  pattern; by the observation in the proof, a concrete witness over the
  active domain exists iff any witness exists.
* **Z-counting** (Thm. 9, #P-complete): how many pattern tuples (in the
  paper's normal form: wildcards on attributes outside Σ, ``v``/``v̄`` for
  non-active constants) yield certain single-pattern regions?
* **Z-minimum** (Thm. 12, NP-complete and not ``c log n``-approximable,
  Thm. 17): the smallest ``Z`` admitting a non-empty tableau.  Exact search
  (Prop. 15's strategy: only attributes in Σ matter) plus the greedy
  heuristic the interactive framework uses in practice.

Witness search enumerates *master-projected* candidates first: patterns read
off master tuples through the rules' attribute correspondences, exactly the
shape of the certain regions in Example 9 (``(z, p, 2, _)`` for ``z, p``
ranging over ``s[zip, Mphn]``).
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

from repro.analysis.active_domain import (
    FreshValue,
    attribute_active_domain,
    read_attrs,
)
from repro.analysis.closure import (
    attribute_closure,
    grow_closure,
    mandatory_attrs,
)
from repro.analysis.consistency import check_pattern
from repro.core.patterns import ANY, Const, NotConst, PatternTuple
from repro.core.regions import Region
from repro.engine.relation import Relation
from repro.engine.schema import RelationSchema


def attr_master_options(attr: str, rules: Iterable) -> tuple:
    """Master attributes that R attribute *attr* is matched against."""
    out = []
    for rule in rules:
        if attr in rule.lhs:
            m = rule.master_attr_of(attr)
            if m not in out:
                out.append(m)
    return tuple(out)


def attr_pattern_constants(attr: str, rules: Iterable) -> tuple:
    """Positive pattern constants guarding *attr* across the rule set."""
    out = []
    for rule in rules:
        condition = rule.pattern.get(attr)
        if condition is not None and condition.is_constant:
            if condition.value not in out:
                out.append(condition.value)
    return tuple(out)


def projection_options(z: Sequence, rules: Sequence) -> tuple:
    """Per-attribute ``(static options, master columns)`` for candidate
    patterns over ``Z``: the static options are the attribute's positive
    pattern constants (or ``[ANY]`` for an attribute Σ never reads), the
    columns are the master attributes whose per-row values join them."""
    per_attr_static: dict = {}
    per_attr_columns: dict = {}
    for attr in z:
        columns = attr_master_options(attr, rules)
        constants = attr_pattern_constants(attr, rules)
        per_attr_columns[attr] = columns
        if not columns and not constants:
            per_attr_static[attr] = [ANY]
        else:
            per_attr_static[attr] = list(constants)
    return per_attr_static, per_attr_columns


def row_projected_patterns(
    z: Sequence, options: tuple, tm, per_row_cap: int = 32
) -> list:
    """The candidate patterns master tuple *tm* contributes, in order.

    *options* comes from :func:`projection_options`.  The per-row body of
    :func:`master_projected_patterns` (before de-duplication across rows).
    """
    per_attr_static, per_attr_columns = options
    option_lists = []
    for attr in z:
        values = list(per_attr_static[attr])
        for column in per_attr_columns[attr]:
            value = tm[column]
            if value not in values:
                values.append(value)
        option_lists.append(values[:per_row_cap])
    combos = 1
    for values in option_lists:
        combos *= len(values)
    if combos > per_row_cap:
        option_lists = _trim_options(option_lists, per_row_cap)
    return [
        PatternTuple(dict(zip(z, combo)))
        for combo in itertools.product(*option_lists)
    ]


def master_projected_patterns(
    z: Sequence,
    rules: Sequence,
    master: Relation,
    max_rows: int = None,
    per_row_cap: int = 32,
) -> list:
    """Candidate witness patterns read off master tuples.

    For each master tuple and each attribute of ``Z``, the candidate values
    are the master values of the attribute's corresponding master columns
    plus any positive pattern constants guarding it; attributes not occurring
    in Σ become wildcards.  Duplicates are dropped, insertion order is kept.
    """
    options = projection_options(z, list(rules))
    seen = set()
    out = []
    # No-copy sweep: masters may be large (or out-of-core stores); never
    # materialize the row list just to walk a prefix of it.
    rows = iter(master)
    if max_rows is not None:
        rows = itertools.islice(rows, max_rows)
    for tm in rows:
        for pattern in row_projected_patterns(z, options, tm, per_row_cap):
            if pattern not in seen:
                seen.add(pattern)
                out.append(pattern)
    return out


def _trim_options(option_lists: list, cap: int) -> list:
    """Shrink a per-row option product below *cap*, preferring early options."""
    trimmed = [list(options) for options in option_lists]
    while True:
        combos = 1
        for options in trimmed:
            combos *= len(options)
        if combos <= cap:
            return trimmed
        longest = max(range(len(trimmed)), key=lambda i: len(trimmed[i]))
        if len(trimmed[longest]) <= 1:
            return trimmed
        trimmed[longest].pop()


def _product_candidates(
    z: Sequence,
    rules: Sequence,
    master: Relation,
    max_candidates: int,
) -> list:
    """Exhaustive concrete candidates over per-attribute active domains."""
    readable = read_attrs(rules)
    choices = []
    for attr in z:
        if attr not in readable:
            choices.append([ANY])
            continue
        active = sorted(
            attribute_active_domain(attr, rules, master),
            key=lambda v: (type(v).__name__, repr(v)),
        )
        active.append(FreshValue(f"{attr}#cand"))
        choices.append(active)
    space = 1
    for values in choices:
        space *= len(values)
    if space > max_candidates:
        return []
    return [
        PatternTuple(dict(zip(z, combo)))
        for combo in itertools.product(*choices)
    ]


def z_validating(
    rules: Sequence,
    master: Relation,
    z: Sequence,
    schema: RelationSchema,
    max_candidates: int = 5_000,
    max_instantiations: int = 50_000,
    exhaustive: bool = False,
):
    """Find a witness pattern making ``(Z, {tc})`` certain, or ``None``.

    Tries master-projected candidates first, then (when *exhaustive* or when
    the space is small) the full active-domain product.
    """
    rules = list(rules)
    z = tuple(z)
    if attribute_closure(z, rules) < set(schema.attributes):
        return None

    candidates = master_projected_patterns(z, rules, master)
    if exhaustive or not candidates:
        candidates = candidates + [
            c
            for c in _product_candidates(z, rules, master, max_candidates)
            if c not in set(candidates)
        ]
    for pattern in candidates[:max_candidates]:
        region = Region(z, tableau=None)
        check = check_pattern(
            rules, master, region, pattern, schema, max_instantiations
        )
        if check.certain and check.instantiations > 0:
            return pattern
    return None


def z_counting(
    rules: Sequence,
    master: Relation,
    z: Sequence,
    schema: RelationSchema,
    max_candidates: int = 200_000,
    max_instantiations: int = 50_000,
) -> int:
    """Count normal-form patterns making ``(Z, {tc})`` certain (Thm. 9).

    The candidate space follows the paper's normalization: attributes not in
    Σ are forced to ``_``; every other attribute ranges over ``c`` and ``c̄``
    for ``c`` in its active domain plus one fresh symbol ``v``.
    """
    rules = list(rules)
    z = tuple(z)
    if attribute_closure(z, rules) < set(schema.attributes):
        return 0

    sigma_attrs = set()
    for rule in rules:
        sigma_attrs.update(rule.premise_attrs)
        sigma_attrs.add(rule.rhs)

    choices = []
    for attr in z:
        if attr not in sigma_attrs:
            choices.append([ANY])
            continue
        constants = sorted(
            attribute_active_domain(attr, rules, master),
            key=lambda v: (type(v).__name__, repr(v)),
        )
        constants.append(FreshValue(f"{attr}#count"))
        options = []
        for c in constants:
            options.append(Const(c))
            options.append(NotConst(c))
        choices.append(options)

    space = 1
    for options in choices:
        space *= len(options)
    if space > max_candidates:
        raise RuntimeError(
            f"Z-counting candidate space has {space} patterns "
            f"(> {max_candidates}); the problem is #P-complete (Theorem 9)"
        )

    count = 0
    for combo in itertools.product(*choices):
        pattern = PatternTuple(dict(zip(z, combo)))
        region = Region(z, tableau=None)
        check = check_pattern(
            rules, master, region, pattern, schema, max_instantiations
        )
        if check.certain and check.instantiations > 0:
            count += 1
    return count


def z_minimum_exact(
    rules: Sequence,
    master: Relation,
    schema: RelationSchema,
    max_size: int = None,
    max_candidates: int = 5_000,
    max_instantiations: int = 50_000,
    max_subsets: int = 100_000,
):
    """Smallest ``Z`` (with a witness pattern) by exhaustive subset search.

    Returns ``(Z tuple, witness PatternTuple)`` or ``None``.  Mandatory
    attributes (not fixable by any rule) are always included; the search
    ranges over the rest, smallest sets first, pruning by attribute closure.
    NP-complete in general (Thm. 12) — the *max_subsets* guard applies.
    """
    rules = list(rules)
    mandatory = tuple(
        a for a in schema.attributes if a in mandatory_attrs(schema, rules)
    )
    optional = [a for a in schema.attributes if a not in mandatory]
    limit = max_size if max_size is not None else len(schema.attributes)
    examined = 0
    for k in range(0, max(0, limit - len(mandatory)) + 1):
        for extra in itertools.combinations(optional, k):
            examined += 1
            if examined > max_subsets:
                raise RuntimeError(
                    f"Z-minimum examined more than {max_subsets} subsets; "
                    f"the problem is NP-complete (Theorem 12) - use "
                    f"z_minimum_greedy or raise max_subsets"
                )
            z = mandatory + extra
            if attribute_closure(z, rules) < set(schema.attributes):
                continue
            witness = z_validating(
                rules, master, z, schema, max_candidates, max_instantiations
            )
            if witness is not None:
                ordered = tuple(a for a in schema.attributes if a in z)
                return ordered, witness
    return None


def z_minimum_greedy(
    rules: Sequence,
    master: Relation,
    schema: RelationSchema,
    max_candidates: int = 5_000,
    max_instantiations: int = 50_000,
):
    """Heuristic Z-minimum: closure-greedy growth plus witness validation.

    Start from the mandatory attributes and repeatedly add the attribute
    whose addition grows the attribute closure the most (ties broken by
    schema order) until the closure covers R; then search for a witness,
    adding further attributes (same score) while none is found.  Returns
    ``(Z tuple, witness)`` or ``None``.
    """
    rules = list(rules)
    all_attrs = set(schema.attributes)
    z = grow_closure(schema, rules, (
        a for a in schema.attributes if a in mandatory_attrs(schema, rules)
    ))

    def closure_size(candidate):
        return len(attribute_closure(z + [candidate], rules))

    while True:
        if attribute_closure(z, rules) >= all_attrs:
            witness = z_validating(
                rules, master, tuple(z), schema, max_candidates,
                max_instantiations,
            )
            if witness is not None:
                ordered = tuple(a for a in schema.attributes if a in z)
                return ordered, witness
        remaining = [a for a in schema.attributes if a not in z]
        if not remaining:
            return None
        best = max(remaining, key=lambda a: (closure_size(a), -schema.index_of(a)))
        z.append(best)
