"""``repro.obs`` — unified telemetry: metrics, spans, provenance, progress.

Zero-dependency observability for the whole stack: a thread-safe
:class:`~repro.obs.registry.MetricsRegistry` (counters, gauges,
bounded-reservoir histograms with p50/p95/p99), span timing via context
managers on the hot paths, per-fix provenance records, Prometheus/JSON
exposition, and a reusable :class:`~repro.obs.progress.ProgressReporter`
behind ``batch-repair --progress`` (and, next, the ``serve-repair``
daemon's status stream — ROADMAP item 2).

**Off by default.**  The process-global registry starts as the no-op
:data:`~repro.obs.registry.NULL_REGISTRY`; every instrumentation site goes
through the helpers below, which cost an attribute check and a no-op call
while disabled — the benchmarked hot-path throughput is preserved.  Call
:func:`enable` (or pass ``--progress`` / use ``serve-master``, which
enable what they need) to start recording, :func:`snapshot` to read, and
the :mod:`repro.obs.render` functions to expose.

Enable-before-build: long-lived engines read the global registry when they
record, so ``enable()`` takes effect immediately, even for engines built
earlier.  Process-pool workers each record into their *own* process's
registry, and nothing ships those series back: the parent's registry sees
only what the parent recorded.  A batch run's counters (memo hits, delta
purges, region rebuilds) reach the parent through its ``BatchReport``
instead; bringing worker spans back is ROADMAP item 3.

Metric and span reference (mirroring the ``repro.lint`` diagnostic table)
-------------------------------------------------------------------------

====================================  =========  ==========================  ================================================
Name                                  Kind       Labels                      Recorded by / meaning
====================================  =========  ==========================  ================================================
repro_fix_seconds                     histogram  —                           ``CertainFix.fix`` span: one monitored tuple
repro_sessions_total                  counter    completed=true|false        sessions finished (fully validated or not)
repro_rounds_total                    counter    —                           interaction rounds across all sessions
repro_region_precompute_seconds       histogram  —                           ``CompCRegion`` span (per shared precompute)
repro_bdd_build_seconds               histogram  —                           Suggest⁺ BDD miss span (fresh suggestion + append)
repro_chase_memo_total                counter    result=hit|miss             batch chase memo lookups
repro_cache_invalidations_total       counter    —                           master-version moves reconciling shared caches
repro_store_delta_purge_total         counter    —                           version moves resolved by per-key delta purges
repro_store_full_drop_total           counter    —                           version moves falling back to the full cache drop
repro_region_guard_total              counter    result=kept|rebuilt         delta purges that kept the certain regions /
                                                                             discarded them for a CompCRegion rebuild
repro_store_probe_seconds             histogram  backend=sqlite|remote       one ``probe_batch`` span per call (every keyed read
                                                                             there is a batch; the memory backend is unspanned)
repro_lint_pass_seconds               histogram  code                        one lint pass execution (per diagnostic code)
repro_lint_budget_exhausted_total     counter    code                        certification budget exhaustions (E205 = the
                                                                             exact region check degraded to the sampled
                                                                             fallback, I208 = extension search went
                                                                             closure-level)
repro_remote_request_seconds          histogram  endpoint                    ``RemoteStore`` HTTP request span (client side)
repro_remote_requests_total           counter    endpoint, status            ``RemoteStore`` request outcomes (status=ok|error)
repro_remote_reconnects_total         counter    —                           client connections re-opened
repro_server_request_seconds          histogram  endpoint                    ``MasterServer`` per-endpoint handling span
repro_server_requests_total           counter    endpoint, status            ``MasterServer`` responses by HTTP status
repro_server_store_rows               gauge      —                           served store size (refreshed per scrape)
repro_server_store_version            gauge      —                           served store version (refreshed per scrape)
repro_server_probe_cache_hits         gauge      —                           served store LRU hits (backends with a cache)
repro_server_probe_cache_misses       gauge      —                           served store LRU misses
repro_server_probe_cache_size         gauge      —                           served store LRU resident lines
repro_server_probe_cache_evictions    gauge      —                           LRU lines evicted by capacity (``--probe-cache-size``)
repro_server_probe_cache_purged       gauge      —                           LRU lines removed by per-key delta purges
repro_server_store_probe_ref_calls    gauge      —                           served store ``probe_ref`` calls (repair hot path)
====================================  =========  ==========================  ================================================

The server-side series live in the :class:`MasterServer`'s *own* always-on
registry (scraping must work without a client-side ``enable()``); all
other series record into the process-global registry guarded by
:func:`enable` / :func:`disable`.
"""

from __future__ import annotations

import threading

from repro.obs.progress import ProgressReporter
from repro.obs.provenance import (
    FixProvenance,
    count_fixes_by_rule,
    session_provenance,
)
from repro.obs.registry import (
    NULL_REGISTRY,
    NULL_TIMER,
    HistogramSnapshot,
    MetricsRegistry,
    MetricsSnapshot,
    NullRegistry,
)
from repro.obs.render import (
    parse_prometheus_text,
    render_prometheus,
    snapshot_from_dict,
    snapshot_from_json,
    snapshot_to_dict,
    snapshot_to_json,
)

__all__ = [
    "FixProvenance",
    "HistogramSnapshot",
    "MetricsRegistry",
    "MetricsSnapshot",
    "NullRegistry",
    "NULL_REGISTRY",
    "NULL_TIMER",
    "ProgressReporter",
    "count_fixes_by_rule",
    "disable",
    "enable",
    "enabled",
    "get_registry",
    "inc",
    "observe",
    "parse_prometheus_text",
    "render_prometheus",
    "session_provenance",
    "set_gauge",
    "set_registry",
    "snapshot",
    "snapshot_from_dict",
    "snapshot_from_json",
    "snapshot_to_dict",
    "snapshot_to_json",
    "time_block",
]

_STATE_LOCK = threading.Lock()
_REGISTRY = NULL_REGISTRY


def get_registry():
    """The process-global registry (the no-op one while disabled)."""
    return _REGISTRY


def set_registry(registry) -> None:
    """Install *registry* (a ``MetricsRegistry`` or ``NullRegistry``)."""
    global _REGISTRY
    with _STATE_LOCK:
        _REGISTRY = registry


def enable(registry: MetricsRegistry = None) -> MetricsRegistry:
    """Turn recording on; returns the active registry.

    Idempotent: when already enabled (and no explicit *registry* is
    given) the current registry is kept, so two libraries calling
    ``enable()`` share one stream instead of clobbering each other.
    """
    global _REGISTRY
    with _STATE_LOCK:
        if registry is not None:
            _REGISTRY = registry
        elif not _REGISTRY.enabled:
            _REGISTRY = MetricsRegistry()
        return _REGISTRY


def disable() -> None:
    """Restore the no-op registry (existing data is discarded)."""
    set_registry(NULL_REGISTRY)


def enabled() -> bool:
    return _REGISTRY.enabled


# -- hot-path helpers ----------------------------------------------------------
#
# Instrumentation sites call these instead of holding a registry: while
# disabled each is one global read, one attribute check and a constant
# return — cheap enough for per-tuple (and per-probe on slow backends)
# use without an `if obs.enabled()` at every site.


def inc(name: str, value: float = 1, **labels) -> None:
    registry = _REGISTRY
    if registry.enabled:
        registry.inc(name, value, **labels)


def observe(name: str, value: float, **labels) -> None:
    registry = _REGISTRY
    if registry.enabled:
        registry.observe(name, value, **labels)


def set_gauge(name: str, value: float, **labels) -> None:
    registry = _REGISTRY
    if registry.enabled:
        registry.set_gauge(name, value, **labels)


def time_block(name: str, **labels):
    """Span context manager: times its body into histogram *name*.

    Returns the shared no-op context manager while disabled (no
    allocation, reentrant, thread-safe).
    """
    registry = _REGISTRY
    if registry.enabled:
        return registry.time_block(name, **labels)
    return NULL_TIMER


def snapshot() -> MetricsSnapshot:
    """Snapshot the global registry (empty while disabled)."""
    return _REGISTRY.snapshot()
