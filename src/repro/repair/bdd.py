"""The BDD suggestion cache behind Suggest⁺ (Sect. 5.2, Figs. 7–8).

Computing a certain region at every interaction round is the latency
bottleneck; the paper maintains previously computed suggestions in a binary
decision diagram and, for each new tuple, first checks whether a cached
suggestion still applies ("it is far less costly to check whether a region
is certain than computing new certain regions").

Structure, following Example 15: each node holds one suggestion; the *true*
edge leads to the node consulted at the next interaction round (the cached
continuation after this suggestion succeeded), the *false* edge to the
alternative suggestion tried when the check fails.  A miss at the end of a
false-chain computes a fresh suggestion via :func:`repro.repair.suggest.suggest`
and appends it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro import obs
from repro.analysis.closure import attribute_closure
from repro.engine.schema import RelationSchema
from repro.engine.store import as_master_store
from repro.engine.tuples import Row
from repro.repair.suggest import Suggestion, applicable_rules, suggest

#: Longest false-chain walked before a miss computes a fresh suggestion.
MAX_CHAIN = 16


@dataclass
class _Node:
    suggestion: Suggestion
    true_child: "_Node" = None
    false_child: "_Node" = None


@dataclass
class CacheStats:
    """Hit/miss accounting (ablation A3)."""

    hits: int = 0
    misses: int = 0
    checks: int = 0
    invalidations: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class SuggestionCache:
    """The Suggest⁺ BDD: per-round suggestion reuse across a tuple stream.

    Every cached suggestion was certified against a concrete master state;
    when the backing :class:`~repro.engine.store.MasterStore` moves to a new
    version the owner must call :meth:`invalidate` (the repair engines do
    this automatically from their version-sync hook).

    ``pattern_cache`` holds the per-rule pattern-probe verdicts
    (``{rule: holds}``) every fresh suggestion and validity check reads;
    an owning engine patches it per master delta.
    """

    def __init__(self, rules: Sequence, master, schema: RelationSchema):
        self.rules = list(rules)
        self.master = as_master_store(master)
        self.schema = schema
        self.stats = CacheStats()
        self._root: _Node = None
        self.pattern_cache: dict = {}

    # -- per-tuple traversal -------------------------------------------------

    def start(self) -> "_Cursor":
        """A fresh traversal cursor (one per input tuple)."""
        return _Cursor(self)

    # -- invalidation --------------------------------------------------------

    def invalidate(self) -> None:
        """Drop every cached suggestion and pattern probe.

        Called when the master store's version moves: cached witnesses were
        validated against master tuples that may no longer exist, so the
        whole BDD is rebuilt lazily from fresh Suggest calls.  Live cursors
        keep working — their next step simply misses and recomputes.
        """
        self._root = None
        self.pattern_cache.clear()
        self.stats.invalidations += 1

    # -- validity check ------------------------------------------------------

    def _valid_for(self, suggestion: Suggestion, row: Row, z: frozenset) -> bool:
        """Cheap reuse test: the cached S must be disjoint from Z and, with
        the currently applicable rules, close over all of R."""
        self.stats.checks += 1
        s = set(suggestion.attrs)
        if not s or s & z:
            return False
        applicable = applicable_rules(
            self.rules, self.master, row, z, self.pattern_cache
        )
        fixable = {rule.rhs for rule in applicable}
        uncoverable = set(self.schema.attributes) - z - fixable
        if not uncoverable <= s:
            return False
        closure = attribute_closure(z | s, applicable)
        return closure >= set(self.schema.attributes)

    def _compute(self, row: Row, z: frozenset) -> Suggestion:
        return suggest(
            self.rules,
            self.master,
            self.schema,
            row,
            z,
            pattern_cache=self.pattern_cache,
        )


class _Cursor:
    """Traversal state for one tuple (one step per interaction round)."""

    def __init__(self, cache: SuggestionCache):
        self._cache = cache
        self._position = ("root",)

    def next_suggestion(self, row: Row, z: frozenset) -> Suggestion:
        cache = self._cache
        z = frozenset(z)

        if self._position[0] == "root":
            node = cache._root
            setter = lambda n: setattr(cache, "_root", n)  # noqa: E731
        else:
            parent = self._position[1]
            node = parent.true_child
            setter = lambda n: setattr(parent, "true_child", n)  # noqa: E731

        # Walk the false-chain for a reusable suggestion.
        depth = 0
        while node is not None and depth < MAX_CHAIN:
            if cache._valid_for(node.suggestion, row, z):
                cache.stats.hits += 1
                self._position = ("node", node)
                return node.suggestion
            setter = _false_setter(node)
            node = node.false_child
            depth += 1

        cache.stats.misses += 1
        # The miss path IS the BDD build: each fresh suggestion appended
        # here grows the diagram, so the span's sum tracks total build
        # cost and its count tracks the node count added.
        with obs.time_block("repro_bdd_build_seconds"):
            fresh = cache._compute(row, z)
            new_node = _Node(suggestion=fresh)
            setter(new_node)
        self._position = ("node", new_node)
        return fresh


def _false_setter(node: _Node):
    def setter(n: _Node):
        node.false_child = n

    return setter
