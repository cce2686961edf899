"""Reusable live-progress heartbeats for long-running work.

``batch-repair --progress`` prints one line per heartbeat interval while a
stream is being monitored::

    [batch-repair] 512/2000 (25.6%) | 843.2 tuples/s | ETA 1.8s | \
chase 92% | suggest 97% | pid-811 421.0/s · pid-812 407.3/s

The reporter is deliberately engine-agnostic — it knows about *units done*,
optional totals, named rates and per-worker counts, nothing about repair —
because the ``serve-repair`` daemon (ROADMAP item 2) will attach the same
reporter to its per-request status stream.

Throttling: :meth:`ProgressReporter.advance` is cheap to call per chunk (a
monotonic-clock compare when the interval has not elapsed); a line is
emitted at most every ``interval`` seconds, plus one final summary from
:meth:`finish` (emitted even after a mid-run failure, so the last heartbeat
always reflects everything that completed).
"""

from __future__ import annotations

import sys
import time


class ProgressReporter:
    """Throttled heartbeat lines for a unit-counting loop.

    Parameters
    ----------
    label:
        Prefix of every heartbeat line (``[label] ...``).
    total:
        Expected unit count; enables the ``done/total (pct)`` prefix and
        the ETA estimate.  ``None`` = unknown (streaming input).
    interval:
        Minimum seconds between heartbeats (0 = every :meth:`advance`).
    stream:
        Where lines go (default ``sys.stderr`` — stdout stays clean for
        actual command output).
    unit:
        Unit name used in the rate display (``tuples/s``).
    clock:
        Injectable monotonic clock (tests).
    """

    def __init__(
        self,
        label: str = "progress",
        total: int = None,
        interval: float = 1.0,
        stream=None,
        unit: str = "tuples",
        clock=time.monotonic,
    ):
        if interval < 0:
            raise ValueError(f"interval must be >= 0, got {interval}")
        self.label = label
        self.total = total
        self.interval = interval
        self.unit = unit
        self._stream = stream
        self._clock = clock
        self._started = None
        self._last_emit = None
        self.done = 0
        self.heartbeats = 0

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "ProgressReporter":
        """Reset the clock (called implicitly by the first advance)."""
        self._started = self._clock()
        self._last_emit = None
        self.done = 0
        self.heartbeats = 0
        return self

    def advance(self, n: int = 1, rates: dict = None,
                workers: dict = None) -> None:
        """Record *n* more completed units; maybe emit a heartbeat.

        ``rates`` maps display names to fractions in ``[0, 1]`` (rendered
        as percentages — cache hit rates); ``workers`` maps worker labels
        to their completed unit counts (rendered as per-worker
        throughput).
        """
        if self._started is None:
            self.start()
        self.done += n
        now = self._clock()
        if (
            self._last_emit is not None
            and now - self._last_emit < self.interval
        ):
            return
        self._emit(now, rates, workers)

    def finish(self, rates: dict = None, workers: dict = None) -> None:
        """Emit the final summary line (always, regardless of throttling)."""
        if self._started is None:
            self.start()
        self._emit(self._clock(), rates, workers, final=True)

    # -- rendering -----------------------------------------------------------

    def _emit(self, now: float, rates: dict, workers: dict,
              final: bool = False) -> None:
        self._last_emit = now
        self.heartbeats += 1
        elapsed = max(now - self._started, 1e-9)
        rate = self.done / elapsed
        parts = []
        if self.total:
            pct = 100.0 * self.done / self.total
            parts.append(f"{self.done}/{self.total} {self.unit} ({pct:.1f}%)")
        else:
            parts.append(f"{self.done} {self.unit}")
        parts.append(f"{rate:.1f} {self.unit}/s")
        if final:
            parts.append(f"done in {elapsed:.2f}s")
        elif self.total and rate > 0 and self.done < self.total:
            eta = (self.total - self.done) / rate
            parts.append(f"ETA {eta:.1f}s")
        for name, value in (rates or {}).items():
            parts.append(f"{name} {value:.0%}")
        if workers:
            per_worker = " · ".join(
                f"{label} {count / elapsed:.1f}/s"
                for label, count in sorted(workers.items())
            )
            parts.append(per_worker)
        stream = self._stream if self._stream is not None else sys.stderr
        print(f"[{self.label}] " + " | ".join(parts), file=stream, flush=True)
