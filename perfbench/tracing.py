"""Spans around the repair layers' public entry points, and self times.

The traced run rebinds each layer's entry point, from this file, to a
wrapper that records one span per call: ``(name, start_ns, end_ns,
parent_index, request_id)``.  Spans are kept in memory and written out
when the run ends.  Nothing inside the program changes; :meth:`Tracer.
uninstall` restores every original binding.

Wrapped entry points (span name in brackets):

* ``CertainFix.fix`` [certainfix.fix]
* ``chase``, ``transfix``, ``comp_c_region`` and ``suggest`` where
  ``repro.repair.certainfix`` imports them, and ``suggest`` where
  ``repro.repair.bdd`` imports it [chase, transfix, regions.build, suggest]
* ``RegionGuard.absorb`` [invalidation.absorb]
* ``repro.lint.preflight`` [lint.preflight]
* the store instance's ``probe``/``probe_ref``/``probe_many``
  [store.probe] and ``insert``/``delete``/``update`` [store.mutation]
* the benchmark's own user model [oracle] and the harness's call of
  ``BatchRepairEngine.run`` [batch.run]

A layer's self time is its span's duration minus the part of that interval
its child spans cover (:func:`self_times`).
"""

from __future__ import annotations

import gzip
import time
from collections import defaultdict

import repro.lint
import repro.repair.bdd as bdd_module
import repro.repair.certainfix as certainfix_module
from repro.repair.certainfix import CertainFix
from repro.repair.invalidation import RegionGuard

#: Span name -> the layer its self time is charged to.
LAYER_OF = {
    "batch.run": "batch",
    "certainfix.fix": "certainfix",
    "chase": "chase",
    "transfix": "transfix",
    "suggest": "suggest",
    "regions.build": "regions",
    "invalidation.absorb": "invalidation",
    "store.probe": "store",
    "store.mutation": "store",
    "oracle": "oracle",
    "lint.preflight": "lint",
}

#: Request ids of spans recorded outside a monitored tuple.
SETUP_REQUEST = -1
MUTATION_REQUEST = -2

_STORE_PROBES = ("probe", "probe_ref", "probe_many")
_STORE_MUTATIONS = ("insert", "delete", "update")


class Tracer:
    """In-memory span recorder plus the (un)installation of its wrappers."""

    def __init__(self, oracle_class):
        self.spans: list = []
        self._stack: list = []
        self.request = SETUP_REQUEST
        self._oracle_class = oracle_class
        self._restore: list = []  # (owner, attribute, original or None)
        # Counts read off return values and arguments at the same
        # boundaries as the spans.
        self.transfix_lookups = 0
        self.absorb_survived = 0
        self.probe_keys: set = set()

    # -- spans ---------------------------------------------------------------

    def wrap(self, name: str, fn, observe=None):
        """*fn* recording one span per call; *observe(args, result)* sees
        each successful call."""
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.request)
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def call(self, name: str, fn, *args):
        """Run ``fn(*args)`` under one span."""
        return self.wrap(name, fn)(*args)

    # -- installation ----------------------------------------------------------

    def _rebind(self, owner, attribute: str, name: str, observe=None,
                instance: bool = False) -> None:
        original = getattr(owner, attribute)
        self._restore.append((owner, attribute, None if instance else original))
        setattr(owner, attribute, self.wrap(name, original, observe))

    def install(self, store) -> None:
        """Rebind every wrapped entry point (``store`` is the run's store)."""
        if self._restore:
            return
        self._rebind(CertainFix, "fix", "certainfix.fix")
        self._rebind(certainfix_module, "chase", "chase")
        self._rebind(certainfix_module, "transfix", "transfix",
                     observe=self._count_lookups)
        self._rebind(certainfix_module, "comp_c_region", "regions.build")
        self._rebind(certainfix_module, "suggest", "suggest")
        self._rebind(bdd_module, "suggest", "suggest")
        self._rebind(RegionGuard, "absorb", "invalidation.absorb",
                     observe=self._count_survival)
        self._rebind(repro.lint, "preflight", "lint.preflight")
        self._rebind(self._oracle_class, "assert_correct", "oracle")
        self._rebind(self._oracle_class, "revise", "oracle")
        if store is not None:
            for attribute in _STORE_PROBES:
                self._rebind(store, attribute, "store.probe", instance=True,
                             observe=self._probe_key_observer(attribute))
            for attribute in _STORE_MUTATIONS:
                self._rebind(store, attribute, "store.mutation",
                             instance=True)

    def uninstall(self) -> None:
        """Restore every original binding (instance wrappers are deleted,
        which re-exposes the class methods)."""
        while self._restore:
            owner, attribute, original = self._restore.pop()
            if original is None:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)

    # -- observers -------------------------------------------------------------

    def _count_lookups(self, args, result) -> None:
        self.transfix_lookups += result.lookups

    def _count_survival(self, args, result) -> None:
        self.absorb_survived += bool(result)

    def _probe_key_observer(self, attribute: str):
        keys = self.probe_keys

        def observe(args, result) -> None:
            attrs = tuple(args[0])
            if attribute == "probe_many":
                keys.update((attrs, tuple(key)) for key in args[1])
            else:
                keys.add((attrs, tuple(args[1])))

        return observe

    # -- output ----------------------------------------------------------------

    def write(self, path) -> None:
        """All spans as gzip'd TSV: name, start_ns, end_ns, parent, request."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as handle:
            handle.write("index\tname\tstart_ns\tend_ns\tparent\trequest\n")
            for index, (name, start, end, parent, request) in enumerate(
                self.spans
            ):
                handle.write(
                    f"{index}\t{name}\t{start}\t{end}\t{parent}\t{request}\n"
                )


def self_times(spans) -> list:
    """Per span, its duration minus the union of its children's intervals
    clipped to its own.

    *spans* is a list of ``(name, start, end, parent_index, request)``;
    the result lists self times in the same order and unit as the span
    bounds.
    """
    children = defaultdict(list)
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    out = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered = 0
        cursor = start
        for child_start, child_end in sorted(children.get(index, ())):
            child_start = max(child_start, cursor)
            child_end = min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                cursor = child_end
        out.append((end - start) - covered)
    return out


def outermost_spans(spans):
    """``(name, duration, request)`` of each span whose parent has another
    name: one per call of an entry point, however deep it recurses."""
    for name, start, end, parent, request in spans:
        if parent < 0 or spans[parent][0] != name:
            yield name, end - start, request


def layer_totals(spans, requests=None) -> dict:
    """``{layer: (self time sum, call count)}`` over the spans whose request
    id is in *requests* (all spans when None); calls are counted by
    :func:`outermost_spans`."""
    selfs = self_times(spans)
    totals: dict = defaultdict(lambda: [0, 0])
    for index, span in enumerate(spans):
        if requests is None or span[4] in requests:
            totals[LAYER_OF[span[0]]][0] += selfs[index]
    for name, _, request in outermost_spans(spans):
        if requests is None or request in requests:
            totals[LAYER_OF[name]][1] += 1
    return {layer: tuple(value) for layer, value in totals.items()}
