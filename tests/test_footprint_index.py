"""FootprintIndex: the region guard's reverse index from master probe
footprints to its pattern checks.

The guard registers each check's recorded probe footprint here and asks,
per delta row, which checks the row could invalidate.
"""

from repro.engine.schema import RelationSchema
from repro.repair.invalidation import FootprintIndex

SCHEMA = RelationSchema("m", ["a", "b", "c"])


def _index(**entries) -> FootprintIndex:
    index = FootprintIndex(SCHEMA)
    for entry, footprints in entries.items():
        index.add(entry, footprints)
    return index


def _owners(index: FootprintIndex, values) -> set:
    """Every entry behind a recorded probe key *values* projects onto."""
    return {e for _, _, entries in index.hits(values) for e in entries}


def test_add_replaces_an_entrys_footprints():
    index = _index(e=[(("a",), (1,))])
    index.add("e", [(("a",), (2,))])
    assert len(index) == 1
    assert _owners(index, (1, 0, 0)) == set()
    assert _owners(index, (2, 0, 0)) == {"e"}


def test_discard_removes_an_entry():
    index = _index(e=[(("a",), (1,))], f=[(("a",), (1,))])
    index.discard("e")
    assert len(index) == 1
    assert _owners(index, (1, 0, 0)) == {"f"}
    index.discard("f")
    index.discard("f")  # absent: a no-op
    assert len(index) == 0
    assert _owners(index, (1, 0, 0)) == set()


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
