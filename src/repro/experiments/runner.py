"""Stream runner: monitor a dirty workload and collect per-round metrics."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.metrics import AggregateMetrics, aggregate, evaluate_repair
from repro.repair.certainfix import CertainFix
from repro.repair.oracle import SimulatedUser


@dataclass
class StreamResult:
    """Sessions plus the workload they were run on."""

    sessions: list
    data: list
    engine: CertainFix

    @property
    def max_rounds(self) -> int:
        return max((s.round_count for s in self.sessions), default=0)

    def metrics_after_round(self, k: int) -> AggregateMetrics:
        return metrics_after_round(self.sessions, self.data, k)

    def final_metrics(self) -> AggregateMetrics:
        evaluations = []
        for session, dirty_tuple in zip(self.sessions, self.data):
            evaluations.append(
                evaluate_repair(
                    dirty_tuple.dirty,
                    dirty_tuple.clean,
                    session.final,
                    session.attrs_asserted_by_user,
                )
            )
        return aggregate(evaluations)

    def round_histogram(self) -> dict:
        histogram: dict = {}
        for session in self.sessions:
            histogram[session.round_count] = (
                histogram.get(session.round_count, 0) + 1
            )
        return dict(sorted(histogram.items()))

    def mean_round_latency(self) -> float:
        """Average wall-clock per interaction round (Fig. 12's y-axis)."""
        total, count = 0.0, 0
        for session in self.sessions:
            for r in session.rounds:
                total += r.elapsed
                count += 1
        return total / count if count else 0.0


def metrics_after_round(sessions: Iterable, data: Iterable, k: int) -> AggregateMetrics:
    """Aggregate metrics using each tuple's state after round *k*."""
    evaluations = []
    for session, dirty_tuple in zip(sessions, data):
        row, asserted = session.state_after_round(k)
        evaluations.append(
            evaluate_repair(dirty_tuple.dirty, dirty_tuple.clean, row, asserted)
        )
    return aggregate(evaluations)


def run_stream(
    bundle,
    data,
    use_bdd: bool = False,
    initial_region_rank: int = 0,
    regions: list = None,
    engine: CertainFix = None,
) -> StreamResult:
    """Monitor every dirty tuple of *data* with CertainFix.

    Passing a prebuilt *engine* lets callers reuse precomputed regions and
    caches across configurations (the paper computes regions "once and
    repeatedly used as long as Σ and Dm are unchanged").
    """
    if engine is None:
        engine = CertainFix(
            bundle.rules,
            bundle.master,
            bundle.schema,
            regions=regions,
            use_bdd=use_bdd,
            initial_region_rank=initial_region_rank,
        )
    sessions = []
    for dirty_tuple in data:
        oracle = SimulatedUser(dirty_tuple.clean)
        sessions.append(engine.fix(dirty_tuple.dirty, oracle))
    return StreamResult(sessions=sessions, data=list(data), engine=engine)
