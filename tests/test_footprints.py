"""Master read footprints come from the chase itself.

``ChaseOutcome.reads`` is every ``(Xm, key)`` one chase probed and
``PatternCheck.reads`` the union over the chases of a pattern check; the
region guard and the chase memo purge by them.  A keyed read missing from
these footprints would let a master delta slip past a purge, so every
keyed read a store sees must lie in them.
"""

import pytest

from repro.analysis.consistency import check_pattern
from repro.core.patterns import ANY, PatternTuple
from repro.core.regions import Region
from repro.core.rules import EditingRule
from repro.engine.relation import Relation
from repro.engine.schema import INT, RelationSchema
from repro.engine.store import InMemoryStore
from repro.repair.region_search import comp_c_region


class CountingStore(InMemoryStore):
    """Records every keyed read: ``probe_batch``, ``probe``,
    ``probe_many`` and ``contains_key`` all reach ``probe_ref``."""

    def __init__(self, relation):
        super().__init__(relation)
        self.reads: set = set()

    def probe_ref(self, attrs, key):
        self.reads.add((tuple(attrs), tuple(key)))
        return super().probe_ref(attrs, key)

    def scan_probe(self, attrs, key):
        self.reads.add((tuple(attrs), tuple(key)))
        return super().scan_probe(attrs, key)


@pytest.mark.parametrize("name", ["hosp", "dblp"])
def test_region_build_reads_only_inside_its_checks(name, request):
    """``comp_c_region`` probes by key only inside ``check_pattern``, so
    the per-check footprints of its record cover every keyed read of the
    build — the premise the region guard retains regions on."""
    bundle = request.getfixturevalue(name)
    store = CountingStore(Relation(bundle.master.schema,
                                   bundle.master.iter_rows()))
    record: list = []
    regions = comp_c_region(bundle.rules, store, bundle.schema, record=record)
    assert regions
    recorded: set = set()
    for seed in record:
        for _pattern, _verdict, reads in seed["checks"]:
            recorded |= reads
    assert store.reads
    assert store.reads <= recorded
    assert recorded <= store.reads


def test_coverage_failure_keeps_the_consistency_chases_reads():
    """When coverage fails on the first instance, the check keeps chasing
    every instance for consistency; those chases' probes are part of the
    verdict, so they are part of the check's footprint."""
    r = RelationSchema("R", [(a, INT) for a in "abcd"])
    rm = RelationSchema("Rm", [(a, INT) for a in "wxyz"])
    store = CountingStore(Relation(rm, [(1, 2, 3, 4), (5, 6, 7, 8)]))
    rules = [EditingRule(("a",), ("w",), "b", "x", PatternTuple({}))]
    region = Region(("a",), tableau=None)
    pattern = PatternTuple({"a": ANY})
    check = check_pattern(rules, store, region, pattern, r)
    assert check.consistent and not check.certain
    assert check.instantiations == 1  # coverage failed on the first one
    probed = {key for _attrs, key in check.reads}
    assert {(1,), (5,)} <= probed
    assert set(check.reads) == store.reads
