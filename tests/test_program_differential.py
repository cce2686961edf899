"""Differential test: the compiled positional chase and reuse check equal
the name-based ones they replaced.

:func:`repro.core.fixes.chase` runs on Σ compiled into positional plans
(:mod:`repro.core.program`) with per-rule ready counts, and
:func:`repro.repair.suggest.rule_survives` tests a plan against the tuple's
positional values.  The references below are the dict-based chase, which
rescans Σ at every step, and the name-based survival test, as they stood
before compilation.  Both sides must give equal :class:`ChaseOutcome`\\ s
(``==``), the same set of master reads and the same survival verdicts on:

* HOSP and DBLP rows with ``UNKNOWN`` cells and random ``Z``;
* small synthetic instances with wildcard, negated and constant patterns,
  master guards and several master rows per key with distinct ``Bm``
  values, so that both kinds of conflict and protected targets occur;
* rows over a schema with a permuted attribute order, and mappings over a
  subset of R (the form the analyses chase);

with the master mutated between draws.  Run alone with ``make
differential``.
"""

import pytest

from repro.core.fixes import ChaseOutcome, Conflict, chase
from repro.core.patterns import ANY, Const, NotConst, PatternTuple
from repro.core.program import compile_rules
from repro.core.rules import EditingRule
from repro.datasets import make_dirty_dataset
from repro.engine.relation import Relation
from repro.engine.schema import INT, RelationSchema
from repro.engine.store import InMemoryStore, as_master_store
from repro.engine.tuples import Row
from repro.engine.values import UNKNOWN
from repro.repair.suggest import _pattern_holds_on_master, rule_survives

# -- the references --------------------------------------------------------


def _reference_assignment(t, schema_attrs):
    if isinstance(t, Row):
        return dict(zip(t.schema.attributes, t.values))
    out = dict(t)
    for a in schema_attrs:
        out.setdefault(a, UNKNOWN)
    return out


def _reference_distinct_values(rule, rows):
    if not rows:
        return (), {}
    pos = rows[0].schema.index_of(rule.rhs_m)
    if len(rule.master_guard):
        matches = rule.master_guard.matches
        rows = tuple(tm for tm in rows if matches(tm))
    elif type(rows) is not tuple:
        rows = tuple(rows)
    first = {}
    for tm in rows:
        value = tm.values[pos]
        if value not in first:
            first[value] = tm
    return rows, first


def _reference_derivable_without(target, premises_needed, edges, zb):
    derivable = set(zb)
    derivable.discard(target)
    if premises_needed <= derivable:
        return True
    pending = [e for e in edges if e[1] != target]
    changed = True
    while changed:
        changed = False
        remaining = []
        for premise, rhs in pending:
            if rhs in derivable:
                continue
            if premise <= derivable:
                derivable.add(rhs)
                changed = True
                if premises_needed <= derivable:
                    return True
            else:
                remaining.append((premise, rhs))
        pending = remaining
    return premises_needed <= derivable


def reference_chase(t, z0, rules, master):
    """The dict-based chase: rescans Σ at every step."""
    master = as_master_store(master)
    rules = list(rules)
    zb = frozenset(z0)
    all_attrs = set(zb)
    for rule in rules:
        all_attrs.update(rule.premise_attrs)
        all_attrs.add(rule.rhs)
    assignment = _reference_assignment(t, tuple(all_attrs))
    for a in all_attrs:
        assignment.setdefault(a, UNKNOWN)
    validated = set(zb)
    applications = []
    batches = 0
    examined = [False] * len(rules)
    kept = [None] * len(rules)
    read = {}
    while True:
        step = []
        wanted = {}
        for i, rule in enumerate(rules):
            if examined[i] or not rule.premise_attrs <= validated:
                continue
            examined[i] = True
            if not rule.pattern.matches_values(assignment):
                continue
            key = tuple(assignment[a] for a in rule.lhs)
            if any(v is UNKNOWN for v in key):
                continue
            line = (rule.lhs_m, key)
            step.append((i, line))
            if line not in read:
                wanted[line] = None
        if wanted:
            lines = list(wanted)
            read.update(zip(lines, master.probe_batch(lines)))
        batch = []
        new_values = {}
        culprit = {}
        for i, line in step:
            rule = rules[i]
            rows, first = kept[i] = _reference_distinct_values(rule, read[line])
            if not rows or rule.rhs in validated:
                continue
            attr = rule.rhs
            for value in first:
                if attr in new_values and new_values[attr] != value:
                    return ChaseOutcome(
                        unique=False, assignment=assignment,
                        covered=frozenset(validated), zb=zb,
                        conflict=Conflict(
                            kind="same-batch", attr=attr,
                            values=(new_values[attr], value),
                            rules=(culprit[attr], rule),
                        ),
                        applications=applications, batches=batches,
                        reads=read.keys(),
                    )
                new_values.setdefault(attr, value)
                culprit[attr] = rule
            batch.append((rule, rows, i))
        if not batch:
            break
        batches += 1
        for rule, rows, i in batch:
            applications.append((rule, rows, batches, i))
        for attr, value in new_values.items():
            assignment[attr] = value
            validated.add(attr)
    edges = []
    candidates = []
    covered = frozenset(validated)
    for rule, entry in zip(rules, kept):
        if entry is None:
            continue
        current = assignment[rule.rhs]
        for value in entry[1]:
            if value == current:
                edges.append((rule.premise_attrs, rule.rhs))
            elif rule.rhs not in zb:
                candidates.append((rule, value))
    for rule, value in candidates:
        if _reference_derivable_without(
            rule.rhs, rule.premise_attrs, edges, zb
        ):
            return ChaseOutcome(
                unique=False, assignment=assignment, covered=covered, zb=zb,
                conflict=Conflict(
                    kind="order-dependent", attr=rule.rhs,
                    values=(assignment[rule.rhs], value), rules=(rule,),
                ),
                applications=applications, batches=batches,
                reads=read.keys(),
            )
    return ChaseOutcome(
        unique=True, assignment=assignment, covered=covered, zb=zb,
        applications=applications, batches=batches, reads=read.keys(),
    )


def reference_rule_survives(rule, master, row, z, pattern_cache=None):
    """The name-based conditions (b) and (c) of ``Σt[Z]``."""
    z_pattern_attrs = [a for a in rule.pattern.attrs if a in z]
    if not all(rule.pattern[a].matches(row[a]) for a in z_pattern_attrs):
        return False
    if any(row[a] is UNKNOWN for a in z_pattern_attrs):
        return False
    key_attrs = tuple(a for a in rule.lhs if a in z)
    if key_attrs:
        key = tuple(row[a] for a in key_attrs)
        if any(v is UNKNOWN for v in key):
            return False
        columns = rule.master_attrs_of(key_attrs)
        matches = master.probe_ref(columns, key)
        pattern_checks = [
            (rule.master_attr_of(a), rule.pattern[a])
            for a in rule.pattern.attrs
            if a in rule.lhs and a not in z
            and not rule.pattern[a].is_wildcard
        ]
        for tm in matches:
            if not rule.master_guard.matches(tm):
                continue
            if all(c.matches(tm[col]) for col, c in pattern_checks):
                return True
        return False
    holds = pattern_cache.get(rule) if pattern_cache is not None else None
    if holds is None:
        holds = _pattern_holds_on_master(rule, master)
        if pattern_cache is not None:
            pattern_cache[rule] = holds
    return holds


# -- the comparison ---------------------------------------------------------


def compare(t, z, rules, program, store, seen):
    """Chase and survival verdicts on both sides; record what occurred."""
    expected = reference_chase(t, z, rules, store)
    for sigma in (program, rules):
        outcome = chase(t, z, sigma, store)
        assert outcome == expected
        assert set(outcome.reads) == set(expected.reads)
    if expected.conflict is not None:
        seen.add(expected.conflict.kind)
    if any(
        rule.rhs in z and rule.premise_attrs <= expected.covered
        for rule in rules
    ):
        seen.add("protected")
    if isinstance(t, Row):
        z = frozenset(z)
        values = program.values_of(t)
        ours, theirs = {}, {}
        for plan, rule in zip(program.plans, rules):
            verdict = reference_rule_survives(rule, store, t, z, theirs)
            assert rule_survives(plan, store, values, z, ours) == verdict
            seen.add(f"survives={verdict}")


def _permuted(row, order):
    schema = RelationSchema(
        "R-permuted", [row.schema.attribute_objects[i] for i in order]
    )
    return Row(schema, tuple(row.values[i] for i in order))


def _mutate(store, base_rows, deleted, kind, i, j, column):
    """Delete a master row, or insert one with a cell from another."""
    if kind == "delete":
        row = base_rows[i % len(base_rows)]
        if row.values not in deleted and store.delete(row):
            deleted.add(row.values)
    elif kind == "insert":
        row = base_rows[i % len(base_rows)]
        donor = base_rows[j % len(base_rows)]
        store.insert(row.with_values({column: donor[column]}))


@pytest.mark.parametrize("bundle_name", ["hosp", "dblp"])
def test_compiled_chase_and_survival_equal_the_references(
    bundle_name, request
):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    bundle = request.getfixturevalue(bundle_name)
    schema = bundle.schema
    attrs = schema.attributes
    master_attrs = bundle.master.schema.attributes
    base_rows = list(bundle.master.iter_rows())
    pool = list(make_dirty_dataset(bundle, size=60, duplicate_rate=0.5,
                                   noise_rate=0.3, seed=41))
    seen = set()

    step = st.tuples(
        st.integers(min_value=0, max_value=len(pool) - 1),  # pool row
        st.frozensets(st.sampled_from(attrs)),  # clean cells
        st.frozensets(st.sampled_from(attrs)),  # UNKNOWN cells
        st.frozensets(st.sampled_from(attrs)),  # Z
        st.sampled_from(["row", "permuted", "mapping"]),
        st.permutations(range(len(attrs))),
        st.sampled_from(["none", "delete", "insert"]),
        st.integers(min_value=0),
        st.integers(min_value=0),
        st.sampled_from(master_attrs),
    )

    @hypothesis.settings(
        max_examples=80,
        deadline=None,
        suppress_health_check=[hypothesis.HealthCheck.too_slow],
    )
    @hypothesis.given(steps=st.lists(step, min_size=1, max_size=4))
    def check(steps):
        store = InMemoryStore(Relation(bundle.master.schema, base_rows))
        program = compile_rules(bundle.rules, schema, store)
        deleted = set()
        for (index, clean_attrs, unknown, z, form, order,
             kind, i, j, column) in steps:
            _mutate(store, base_rows, deleted, kind, i, j, column)
            dt = pool[index]
            row = dt.dirty.with_values(
                {a: dt.clean[a] for a in clean_attrs}
            ).with_values({a: UNKNOWN for a in unknown})
            if form == "permuted":
                t = _permuted(row, order)
            elif form == "mapping":
                t = {a: row[a] for a in attrs if a in z or a in clean_attrs}
            else:
                t = row
            compare(t, z, bundle.rules, program, store, seen)

    check()
    assert {"survives=True", "survives=False"} <= seen


R = RelationSchema("R", [(a, INT) for a in "abcde"])
RM = RelationSchema("Rm", [(a, INT) for a in "vwxyg"])


def test_compiled_chase_and_survival_on_fanned_out_masters():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    small = st.integers(min_value=0, max_value=2)
    condition = st.one_of(
        st.builds(Const, small), st.builds(NotConst, small), st.just(ANY),
    )
    seen = set()

    @st.composite
    def rule(draw):
        lhs = draw(st.lists(st.sampled_from("abcde"), min_size=1,
                            max_size=2, unique=True))
        lhs_m = draw(st.lists(st.sampled_from("vwxy"), min_size=len(lhs),
                              max_size=len(lhs)))
        rhs = draw(st.sampled_from([a for a in "abcde" if a not in lhs]))
        pattern = draw(st.dictionaries(st.sampled_from("abcde"), condition,
                                       max_size=2))
        guard = draw(st.sampled_from([{}, {}, {"g": Const(1)},
                                      {"g": NotConst(0)}]))
        return EditingRule(lhs, lhs_m, rhs, draw(st.sampled_from("vwxy")),
                           PatternTuple(pattern),
                           master_guard=PatternTuple(guard))

    @st.composite
    def master_rows(draw):
        """1–3 keys on ``v``, each with 1–5 rows that mostly share values,
        so equal and distinct ``Bm`` values mix."""
        rows = []
        for key in draw(st.lists(small, min_size=1, max_size=3, unique=True)):
            base = draw(st.tuples(small, small, small))
            for _ in range(draw(st.integers(min_value=1, max_value=5))):
                values = tuple(
                    v if draw(st.sampled_from((True, True, False)))
                    else draw(small)
                    for v in base
                )
                rows.append((key,) + values + (draw(st.sampled_from((0, 1))),))
        return rows

    cell = st.one_of(small, st.just(UNKNOWN))
    step = st.tuples(
        st.tuples(*[cell] * 5),  # t over R
        st.frozensets(st.sampled_from("abcde")),  # Z
        st.sampled_from(["row", "permuted", "mapping"]),
        st.permutations(range(5)),
        st.sampled_from(["none", "delete", "insert"]),
        st.integers(min_value=0),
        st.tuples(small, small, small, small, st.sampled_from((0, 1))),
    )

    # Random draws rarely chain into an order-dependent conflict or hit a
    # validated wildcard cell left UNKNOWN, so explicit draws pin them:
    # from a = 0, rules 1 and 2 set b = 1 and c = 2 in batch 1, and rule
    # 3 then offers b = 0 off c (derivable without b); rules 4 and 5 set
    # d = 1 and d = 2 at once; the wildcard rule's full key is known but
    # its validated pattern cell c is UNKNOWN, so it does not survive.
    wildcard = [EditingRule("a", "v", "b", "w", PatternTuple({"c": ANY}))]
    chain = [
        EditingRule("a", "v", "b", "w"), EditingRule("a", "v", "c", "x"),
        EditingRule("c", "v", "b", "w"),
    ]
    clash = [EditingRule("a", "v", "d", "w"), EditingRule("a", "v", "d", "x")]
    fixed_rows = [(0, 1, 2, 0, 1), (2, 0, 0, 0, 1)]
    start = [((0, UNKNOWN, UNKNOWN, UNKNOWN, UNKNOWN), frozenset("a"), "row",
              (0, 1, 2, 3, 4), "none", 0, (0, 0, 0, 0, 0))]
    unknown_c = [((0, UNKNOWN, UNKNOWN, UNKNOWN, UNKNOWN), frozenset("ac"),
                  "row", (0, 1, 2, 3, 4), "none", 0, (0, 0, 0, 0, 0))]

    @hypothesis.settings(
        max_examples=300,
        deadline=None,
        derandomize=True,
        suppress_health_check=[hypothesis.HealthCheck.too_slow],
    )
    @hypothesis.given(
        rules=st.lists(rule(), min_size=1, max_size=6),
        rows=master_rows(),
        steps=st.lists(step, min_size=1, max_size=3),
    )
    @hypothesis.example(rules=chain, rows=fixed_rows, steps=start)
    @hypothesis.example(rules=clash, rows=fixed_rows, steps=start)
    @hypothesis.example(rules=wildcard, rows=fixed_rows, steps=unknown_c)
    def check(rules, rows, steps):
        store = InMemoryStore(Relation(RM, rows))
        program = compile_rules(rules, R, store)
        for values, z, form, order, kind, i, inserted in steps:
            if kind == "delete" and len(store):
                store.delete(list(store)[i % len(store)])
            elif kind == "insert":
                store.insert(inserted)
            row = Row(R, values)
            if form == "permuted":
                t = _permuted(row, order)
            elif form == "mapping":
                t = {a: row[a] for a in "abcde" if a in z}
            else:
                t = row
            compare(t, z, rules, program, store, seen)

    check()
    assert {"same-batch", "order-dependent", "protected",
            "survives=True", "survives=False"} <= seen


def test_compiling_against_a_master_that_lacks_a_read_attribute_fails():
    """A plan reads ``Bm`` (and a pattern-checked ``Xm``) by position, so a
    master schema without it is refused when Σ is compiled, before any
    master row is read."""
    store = InMemoryStore(Relation(RM, []))
    no_bm = [EditingRule("a", "v", "b", "z")]
    checked_xm = [EditingRule("a", "z", "b", "w", PatternTuple({"a": Const(1)}))]
    for rules in (no_bm, checked_xm):
        with pytest.raises(KeyError, match="no attribute 'z'"):
            compile_rules(rules, R, store)
    with pytest.raises(KeyError, match="no attribute 'z'"):
        chase(Row(R, (0, 1, 2, 3, 4)), {"a"}, no_bm, store)
