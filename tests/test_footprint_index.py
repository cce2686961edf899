"""FootprintIndex: the one reverse index behind every master-delta purge.

The batch engine's chase memo and the region guard's pattern checks both
register their recorded probe footprints here and ask, per delta row,
which entries the row could invalidate.
"""

from repro.engine.schema import RelationSchema
from repro.repair.invalidation import FootprintIndex

SCHEMA = RelationSchema("m", ["a", "b", "c"])


def _index(**entries) -> FootprintIndex:
    index = FootprintIndex(SCHEMA)
    for entry, footprints in entries.items():
        index.add(entry, footprints)
    return index


def test_add_replaces_an_entrys_footprints():
    index = _index(e=[(("a",), (1,))])
    index.add("e", [(("a",), (2,))])
    assert len(index) == 1
    assert index.affected([(1, 0, 0)]) == set()
    assert index.affected([(2, 0, 0)]) == {"e"}


def test_discard_removes_an_entry():
    index = _index(e=[(("a",), (1,))], f=[(("a",), (1,))])
    index.discard("e")
    assert len(index) == 1
    assert index.affected([(1, 0, 0)]) == {"f"}
    index.discard("f")
    index.discard("f")  # absent: a no-op
    assert len(index) == 0
    assert index.affected([(1, 0, 0)]) == set()


def test_hits_over_single_and_multi_column_probes():
    index = _index(
        e=[(("a",), (1,))],
        f=[(("b", "c"), (2, 3)), (("a",), (9,))],
        g=[(("c", "a"), (3, 1))],
    )
    hits = {
        (attrs, key, frozenset(entries))
        for attrs, key, entries in index.hits((1, 2, 3))
    }
    assert hits == {
        (("a",), (1,), frozenset({"e"})),
        (("b", "c"), (2, 3), frozenset({"f"})),
        (("c", "a"), (3, 1), frozenset({"g"})),
    }
    # One column off the multi-column keys: only the single-column hit.
    assert [
        (attrs, key) for attrs, key, _ in index.hits((1, 2, 4))
    ] == [(("a",), (1,))]
    assert list(index.hits((5, 5, 5))) == []


def test_affected_is_the_union_of_hits():
    index = _index(
        e=[(("a",), (1,))],
        f=[(("b", "c"), (2, 3))],
        g=[(("a",), (7,)), (("b", "c"), (8, 8))],
    )
    rows = [(1, 0, 0), (0, 2, 3), (0, 8, 8), (4, 4, 4)]
    union = set()
    for row in rows:
        for _attrs, _key, entries in index.hits(row):
            union |= entries
    assert index.affected(rows) == union == {"e", "f", "g"}

