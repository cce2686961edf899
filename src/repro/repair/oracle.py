"""User models for the interactive framework.

The framework asks the user to *assert the correctness* of a small set of
attributes each round; the paper's experiments simulate this by "providing
the correct values of the given suggestions".  :class:`SimulatedUser` is that
simulation; :class:`ScriptedUser` and :class:`LyingUser` support tests of the
validation/revision path.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.engine.tuples import Row


class SimulatedUser:
    """An oracle holding the ground-truth tuple.

    ``assert_correct`` returns the clean values for exactly the suggested
    attributes and records which of them actually changed (the framework's
    metrics must not credit user corrections to the algorithm).
    """

    def __init__(self, clean: Row):
        self.clean = clean
        self.corrected: set = set()
        self.asserted: set = set()

    def assert_correct(self, current: Row, suggestion: Iterable) -> dict:
        values = {}
        for attr in suggestion:
            value = self.clean[attr]
            values[attr] = value
            self.asserted.add(attr)
            if current[attr] != value:
                self.corrected.add(attr)
        return values

    def revise(self, current: Row, suggestion: Iterable, reason: str) -> dict:
        """A truthful user never needs to revise; re-assert the truth."""
        return self.assert_correct(current, suggestion)


class CpuBoundOracle:
    """Wrap any oracle with a deterministic CPU burn per interaction.

    Models production feedback sources that *compute* their answers —
    entity-resolution models, scoring services colocated with the repair
    engine — rather than blocking on I/O.  The burn holds the GIL, so
    only a process pool scales it; the batch throughput benchmark uses it
    to gate the pool's speedup over inline monitoring.

    The burn is a fixed-length sha256 chain (``cost`` iterations), so the
    cost is deterministic, portable, and uncompressible by the optimizer.
    Instances are picklable as long as the wrapped oracle is.
    """

    def __init__(self, inner, cost: int = 2000):
        if cost < 0:
            raise ValueError(f"cost must be >= 0, got {cost}")
        self.inner = inner
        self.cost = cost

    def _burn(self) -> None:
        import hashlib

        digest = b"certain-fix"
        for _ in range(self.cost):
            digest = hashlib.sha256(digest).digest()

    def assert_correct(self, current: Row, suggestion: Iterable) -> dict:
        self._burn()
        return self.inner.assert_correct(current, suggestion)

    def revise(self, current: Row, suggestion: Iterable, reason: str) -> dict:
        self._burn()
        return self.inner.revise(current, suggestion, reason)

    @property
    def corrected(self) -> set:
        return self.inner.corrected

    @property
    def asserted(self) -> set:
        return self.inner.asserted


class ScriptedUser:
    """Replays a fixed list of per-round responses (for tests)."""

    def __init__(self, responses: Iterable):
        self._responses = list(responses)
        self._cursor = 0
        self.corrected: set = set()
        self.asserted: set = set()

    def assert_correct(self, current: Row, suggestion: Iterable) -> dict:
        if self._cursor >= len(self._responses):
            raise RuntimeError("scripted user ran out of responses")
        response: Mapping = self._responses[self._cursor]
        self._cursor += 1
        values = {attr: response[attr] for attr in suggestion if attr in response}
        for attr, value in values.items():
            self.asserted.add(attr)
            if current[attr] != value:
                self.corrected.add(attr)
        return values

    def revise(self, current: Row, suggestion: Iterable, reason: str) -> dict:
        return self.assert_correct(current, suggestion)


class LyingUser:
    """Asserts the (possibly wrong) *current* values as correct.

    Exercises the framework's validation path: assertions inconsistent with
    master data make the unique-fix check fail, triggering a revision
    request, after which this user gives up and tells the truth via the
    wrapped truthful oracle.
    """

    def __init__(self, clean: Row, lie_rounds: int = 1):
        self.truthful = SimulatedUser(clean)
        self.lie_rounds = lie_rounds
        self.lies_told = 0
        self.revisions = 0

    @property
    def corrected(self) -> set:
        return self.truthful.corrected

    @property
    def asserted(self) -> set:
        return self.truthful.asserted

    def assert_correct(self, current: Row, suggestion: Iterable) -> dict:
        if self.lies_told < self.lie_rounds:
            self.lies_told += 1
            return {attr: current[attr] for attr in suggestion}
        return self.truthful.assert_correct(current, suggestion)

    def revise(self, current: Row, suggestion: Iterable, reason: str) -> dict:
        self.revisions += 1
        return self.truthful.assert_correct(current, suggestion)
