"""RegionGuard retention against a fresh CompCRegion, batch by batch.

On a 300-row HOSP master (30 hospitals x 10 measures) every seed has far
more than ``validate_patterns`` = 64 candidate patterns, so the guard can
actually keep regions across master mutations (on toy masters it always
rebuilds).  A seeded mix of inserts, deletes and updates is applied one
journal batch at a time; after every batch the guard accepts, the kept
region list must equal a fresh ``comp_c_region`` on the live store.
"""

from __future__ import annotations

import random

import pytest

from repro import obs
from repro.datasets import make_dirty_dataset, make_hosp
from repro.engine.relation import Relation
from repro.engine.store import InMemoryStore
from repro.repair.batch import BatchRepairEngine
from repro.repair.invalidation import RegionGuard
from repro.repair.region_search import comp_c_region

WINDOW = 64


def _signature(regions) -> list:
    return [
        (
            candidate.region.attrs,
            tuple(candidate.region.tableau),
            candidate.quality,
            candidate.patterns_checked,
            candidate.patterns_valid,
        )
        for candidate in regions
    ]


def _build(bundle, store) -> tuple:
    record: list = []
    regions = comp_c_region(bundle.rules, store, bundle.schema, record=record)
    guard = RegionGuard(bundle.rules, bundle.schema, store, record)
    return regions, guard


def _schedule(rng) -> list:
    """Mutation kinds in a seeded order; each is one journal batch, except
    ``duplicate`` (insert an exact copy of a window row, then delete it:
    the delete removes the earlier copy, so the window moves)."""
    kinds = (
        ["insert"] * 8 + ["delete"] * 8 + ["delete-window"] * 3
        + ["sample"] * 10 + ["mName"] * 3 + ["duplicate"] * 3
        + ["delete-fresh"] * 2
    )
    rng.shuffle(kinds)
    return kinds


def _apply(kind: str, step: int, bundle, store, fresh: list, rng) -> list:
    """Mutate *store*; returns the batches as ``(label, thunk)`` pairs."""
    rows = list(store)
    if kind == "insert":
        row = bundle.entity_factory(rng)
        fresh.append(row)
        return [("insert", lambda: store.insert(row))]
    live = [row for row in fresh if row in rows]
    if kind == "delete-fresh" and live:
        # Its id, phn and provider leave their columns' active values.
        row = live[rng.randrange(len(live))]
        return [("delete", lambda: store.delete(row))]
    if kind == "delete-window":
        row = rows[rng.randrange(WINDOW)]
        return [("delete", lambda: store.delete(row))]
    if kind in ("delete", "delete-fresh"):
        row = rows[rng.randrange(WINDOW, len(rows))]
        return [("delete", lambda: store.delete(row))]
    if kind == "duplicate":
        row = rows[rng.randrange(WINDOW)]
        return [
            ("insert", lambda: store.insert(row)),
            ("delete", lambda: store.delete(row)),
        ]
    row = rows[rng.randrange(len(rows))]
    if kind == "sample":
        new = row.with_values({"sample": f"{row['sample']} rev{step}"})
    else:  # "mName": a value the rules read (mCode -> mName, mName in lhs)
        new = row.with_values({"mName": f"{row['mName']} rev{step}"})
    return [("update", lambda: store.update(row, new))]


def test_guard_keeps_regions_identical_to_fresh_build_across_mutations():
    bundle = make_hosp(num_hospitals=30, num_measures=10, seed=7)
    store = InMemoryStore(Relation(bundle.schema, bundle.master.iter_rows()))
    rng = random.Random(20100913)
    regions, guard = _build(bundle, store)
    assert all(c.patterns_checked == WINDOW for c in regions)
    kept = {"insert": 0, "delete": 0, "update": 0}
    rebuilt = {"insert": 0, "delete": 0, "update": 0}
    fresh: list = []
    for step, kind in enumerate(_schedule(rng)):
        for label, mutate in _apply(kind, step, bundle, store, fresh, rng):
            version = store.version
            assert mutate() is not False
            deltas = store.deltas_since(version)
            assert deltas
            if guard.absorb(deltas, store):
                kept[label] += 1
                assert _signature(regions) == _signature(
                    comp_c_region(bundle.rules, store, bundle.schema)
                ), f"step {step} ({kind}): kept regions differ from a rebuild"
            else:
                rebuilt[label] += 1
                regions, guard = _build(bundle, store)
    # Retention must actually happen for every operation, not only the
    # always-correct rebuild; rule-read changes and window deletes rebuild.
    assert kept["insert"] and kept["delete"] and kept["update"], kept
    assert rebuilt["delete"] and rebuilt["update"], rebuilt


@pytest.mark.parametrize("workers", [
    pytest.param(1, id="inline"), pytest.param(2, id="process"),
])
@pytest.mark.parametrize(
    "position, column, rebuilds",
    [
        (-1, "sample", 0),  # free text past every checked window: kept
        (0, "mName", 1),    # rule-read: mCode -> mName now conflicts
    ],
)
def test_region_rebuilds_reach_the_report_and_metrics(
    workers, position, column, rebuilds
):
    bundle = make_hosp(num_hospitals=30, num_measures=10, seed=7)
    store = InMemoryStore(Relation(bundle.schema, bundle.master.iter_rows()))
    data = make_dirty_dataset(bundle, size=6, seed=3)
    row = list(store)[position]
    registry = obs.enable()
    try:
        with BatchRepairEngine(
            bundle.rules, store, bundle.schema, concurrency=workers,
        ) as engine:
            engine.run_dirty(data)
            store.update(row, row.with_values({column: f"{row[column]} rev"}))
            report = engine.run_dirty(data).report
    finally:
        obs.disable()
    assert (report.delta_purges, report.region_rebuilds) == (1, rebuilds)
    assert report.to_dict()["region_rebuilds"] == rebuilds
    assert f"{rebuilds} region rebuild(s)" in report.describe()
    if workers == 1:  # process workers record in their own registry
        snap = registry.snapshot()
        for result, count in (("kept", 1 - rebuilds), ("rebuilt", rebuilds)):
            assert snap.counter_value(
                "repro_region_guard_total", result=result
            ) == count


def test_second_batch_hitting_a_reverified_footprint_is_seen():
    # A three-rule chain a -> b -> c -> d over a master whose b- and
    # c-keys live in their own columns.  The check of pattern a=2 fails:
    # its chase probes bkey=x and finds nothing.  Batch 1 inserts a row
    # under bkey=x; the check is re-verified, still fails one step later
    # (no row under ckey=y), and records that probe as a new footprint.
    # Batch 2 inserts a row under ckey=y only — a key no build-time
    # footprint holds.  It completes the chase, so a fresh build turns
    # a=2 good and the guard must see the hit through the refreshed index.
    from repro.core.rules import EditingRule
    from repro.engine.schema import RelationSchema

    schema = RelationSchema("r", ["a", "b", "c", "d"])
    master_schema = RelationSchema(
        "m", ["a", "b", "bkey", "cval", "ckey", "dval"]
    )
    rules = [
        EditingRule(("a",), ("a",), "b", "b"),
        EditingRule(("b",), ("bkey",), "c", "cval"),
        EditingRule(("c",), ("ckey",), "d", "dval"),
    ]
    store = InMemoryStore(Relation(master_schema, [
        (1, "b1", "b1", "c1", "c1", "d1"),  # a=1 chases to the end: good
        (2, "x", "k2", "c2", "k3", "d2"),   # a=2: nothing under bkey=x
    ]))
    options = {"validate_patterns": 2, "max_extra": 0}

    def build():
        record: list = []
        regions = comp_c_region(rules, store, schema, record=record, **options)
        guard = RegionGuard(rules, schema, store, record)
        return regions, guard

    def fresh():
        return _signature(comp_c_region(rules, store, schema, **options))

    regions, guard = build()
    version = store.version
    store.insert([9, "b9", "x", "y", "k9", "d9"])
    assert guard.absorb(store.deltas_since(version), store)
    assert _signature(regions) == fresh()

    version = store.version
    store.insert([8, "b8", "k8", "c8", "y", "w"])
    assert _signature(regions) != fresh()  # a=2 is good now
    assert not guard.absorb(store.deltas_since(version), store)
