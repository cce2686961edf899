"""The metrics registry: counters, gauges and reservoir histograms.

One :class:`MetricsRegistry` holds every live metric of a process behind a
single lock; hot paths talk to it through the module-level helpers in
:mod:`repro.obs` (``inc`` / ``observe`` / ``time_block``), which resolve to
this registry only while observability is enabled and to the shared
:class:`NullRegistry` otherwise — the null path is a handful of attribute
reads and no allocation, so instrumented code keeps its benchmarked
throughput when nobody is looking.

Snapshots (:meth:`MetricsRegistry.snapshot`) are plain-data and picklable,
and :meth:`MetricsSnapshot.merge` combines two associatively.  Nothing in
the program merges worker snapshots yet: a process-pool worker records
into its own registry, and those series never reach the parent (a batch
run's counters reach it through ``BatchReport``; bringing worker spans
back is ROADMAP item 3).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

#: Reservoir bound per histogram: quantiles are computed over the most
#: recent this-many observations (a sliding window, not a decaying
#: sample — recent latency is what an operator is debugging).
DEFAULT_RESERVOIR = 512


def label_key(labels: dict) -> tuple:
    """Canonical, hashable, picklable form of a label set."""
    if not labels:
        return ()
    return tuple(sorted(labels.items()))


class _NullTimer:
    """Shared no-op context manager for disabled instrumentation.

    Stateless, so one instance is safely reentrant and thread-shared.
    """

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


NULL_TIMER = _NullTimer()


class NullRegistry:
    """The disabled-observability registry: every operation is a no-op.

    Installed by default (see :func:`repro.obs.get_registry`); the point is
    that instrumentation sites never need their own ``if enabled`` checks
    beyond the one the :mod:`repro.obs` helpers already perform.
    """

    enabled = False

    def inc(self, name: str, value: float = 1, **labels) -> None:
        pass

    def set_gauge(self, name: str, value: float, **labels) -> None:
        pass

    def observe(self, name: str, value: float, **labels) -> None:
        pass

    def time_block(self, name: str, **labels):
        return NULL_TIMER

    def snapshot(self) -> "MetricsSnapshot":
        return MetricsSnapshot()


NULL_REGISTRY = NullRegistry()


@dataclass(frozen=True)
class HistogramSnapshot:
    """Plain-data view of one histogram series (picklable, mergeable)."""

    count: int = 0
    total: float = 0.0
    min: float = None
    max: float = None
    #: The bounded reservoir of recent observations (quantile source).
    samples: tuple = ()

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """The *q*-quantile (0..1) of the reservoir, nearest-rank.

        Returns 0.0 on an empty reservoir — exposition code renders every
        series it has without special-casing emptiness.
        """
        if not self.samples:
            return 0.0
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        ordered = sorted(self.samples)
        index = min(len(ordered) - 1, int(q * len(ordered)))
        return ordered[index]

    def merge(self, other: "HistogramSnapshot") -> "HistogramSnapshot":
        """Combine two series; associative (reservoirs concatenate)."""
        if self.min is None:
            low = other.min
        elif other.min is None:
            low = self.min
        else:
            low = min(self.min, other.min)
        if self.max is None:
            high = other.max
        elif other.max is None:
            high = self.max
        else:
            high = max(self.max, other.max)
        return HistogramSnapshot(
            count=self.count + other.count,
            total=self.total + other.total,
            min=low,
            max=high,
            samples=self.samples + other.samples,
        )


@dataclass(frozen=True)
class MetricsSnapshot:
    """Picklable point-in-time copy of a registry.

    Keys are ``(name, label_key)`` pairs; values are plain numbers (or
    :class:`HistogramSnapshot`).  :meth:`merge` is associative — counters
    add, gauges last-write-wins, histograms concatenate — so process-pool
    workers' snapshots fold together in any grouping.
    """

    counters: dict = field(default_factory=dict)
    gauges: dict = field(default_factory=dict)
    histograms: dict = field(default_factory=dict)

    def merge(self, other: "MetricsSnapshot") -> "MetricsSnapshot":
        counters = dict(self.counters)
        for key, value in other.counters.items():
            counters[key] = counters.get(key, 0) + value
        gauges = dict(self.gauges)
        gauges.update(other.gauges)  # last write wins (associative)
        histograms = dict(self.histograms)
        for key, hist in other.histograms.items():
            mine = histograms.get(key)
            histograms[key] = hist if mine is None else mine.merge(hist)
        return MetricsSnapshot(
            counters=counters, gauges=gauges, histograms=histograms
        )

    @property
    def empty(self) -> bool:
        return not (self.counters or self.gauges or self.histograms)

    def counter_value(self, name: str, **labels) -> float:
        return self.counters.get((name, label_key(labels)), 0)

    def gauge_value(self, name: str, **labels) -> float:
        return self.gauges.get((name, label_key(labels)), 0.0)

    def histogram_value(self, name: str, **labels) -> HistogramSnapshot:
        return self.histograms.get(
            (name, label_key(labels)), HistogramSnapshot()
        )

    def series_names(self) -> set:
        """Every distinct metric name present in the snapshot."""
        return (
            {name for name, _ in self.counters}
            | {name for name, _ in self.gauges}
            | {name for name, _ in self.histograms}
        )


class _Histogram:
    """Mutable histogram state: exact count/sum/min/max + ring reservoir."""

    __slots__ = ("count", "total", "min", "max", "samples", "_next", "_cap")

    def __init__(self, cap: int):
        self.count = 0
        self.total = 0.0
        self.min = None
        self.max = None
        self.samples: list = []
        self._next = 0
        self._cap = cap

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if len(self.samples) < self._cap:
            self.samples.append(value)
        else:  # overwrite oldest: the reservoir is a sliding window
            self.samples[self._next] = value
            self._next = (self._next + 1) % self._cap

    def snapshot(self) -> HistogramSnapshot:
        return HistogramSnapshot(
            count=self.count,
            total=self.total,
            min=self.min,
            max=self.max,
            samples=tuple(self.samples),
        )


class _Timer:
    """Context manager recording its elapsed wall time into a histogram."""

    __slots__ = ("_registry", "_name", "_labels", "_started")

    def __init__(self, registry: "MetricsRegistry", name: str, labels: dict):
        self._registry = registry
        self._name = name
        self._labels = labels
        self._started = None

    def __enter__(self) -> "_Timer":
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        elapsed = time.perf_counter() - self._started
        self._registry.observe(self._name, elapsed, **self._labels)
        return False


class MetricsRegistry:
    """Thread-safe registry of counters, gauges and histograms.

    All series are created lazily on first touch and keyed by
    ``(name, sorted label items)``.  One lock serializes every update; the
    operations inside the hold are integer/float arithmetic and a list
    write, so contention is negligible next to any instrumented work.
    """

    enabled = True

    def __init__(self, reservoir: int = DEFAULT_RESERVOIR):
        if reservoir < 1:
            raise ValueError(f"reservoir must be >= 1, got {reservoir}")
        self._reservoir = reservoir
        self._lock = threading.Lock()
        self._counters: dict = {}
        self._gauges: dict = {}
        self._histograms: dict = {}

    # -- updates -------------------------------------------------------------

    def inc(self, name: str, value: float = 1, **labels) -> None:
        key = (name, label_key(labels))
        with self._lock:
            self._counters[key] = self._counters.get(key, 0) + value

    def set_gauge(self, name: str, value: float, **labels) -> None:
        key = (name, label_key(labels))
        with self._lock:
            self._gauges[key] = value

    def observe(self, name: str, value: float, **labels) -> None:
        key = (name, label_key(labels))
        with self._lock:
            hist = self._histograms.get(key)
            if hist is None:
                hist = self._histograms[key] = _Histogram(self._reservoir)
            hist.observe(value)

    def time_block(self, name: str, **labels) -> _Timer:
        """A context manager that observes its elapsed seconds on exit."""
        return _Timer(self, name, labels)

    # -- export --------------------------------------------------------------

    def snapshot(self) -> MetricsSnapshot:
        with self._lock:
            return MetricsSnapshot(
                counters=dict(self._counters),
                gauges=dict(self._gauges),
                histograms={
                    key: hist.snapshot()
                    for key, hist in self._histograms.items()
                },
            )

    def clear(self) -> None:
        """Drop every series (tests and long-lived services)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
