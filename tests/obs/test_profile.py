"""PhaseProfile: exclusive phase timing that partitions wall time.

The fix this guards: the evaluator's phase timers (then
``compile_time``, ``step_time`` and the batch planner's ``batch_fill``)
used to be measured with overlapping stopwatches, so their sum could
exceed ``wall_time``.  Routing every
timed region through one profiler whose innermost open phase owns the
clock makes the totals disjoint *by construction*; these tests drive the
profiler with a fake clock to pin down the arithmetic exactly.
"""

from __future__ import annotations

import pytest

from repro.obs import PhaseProfile


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def tick(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture()
def clock():
    return FakeClock()


class TestExclusiveTiming:
    def test_sequential_phases_partition(self, clock):
        profile = PhaseProfile(clock=clock)
        with profile.phase("compile"):
            clock.tick(1.0)
        with profile.phase("step"):
            clock.tick(2.0)
        assert profile.get("compile") == 1.0
        assert profile.get("step") == 2.0
        assert profile.total() == 3.0

    def test_nested_phase_pauses_outer(self, clock):
        profile = PhaseProfile(clock=clock)
        with profile.phase("fill"):
            clock.tick(1.0)
            with profile.phase("compile"):
                clock.tick(5.0)
            clock.tick(2.0)
        # The inner 5s belong to compile only: no double counting.
        assert profile.get("fill") == 3.0
        assert profile.get("compile") == 5.0
        assert profile.total() == 8.0

    def test_reentrant_phase_accumulates(self, clock):
        profile = PhaseProfile(clock=clock)
        for seconds in (1.0, 2.5):
            with profile.phase("step"):
                clock.tick(seconds)
        assert profile.get("step") == 3.5

    def test_deep_nesting_remains_disjoint(self, clock):
        profile = PhaseProfile(clock=clock)
        with profile.phase("a"):
            clock.tick(1.0)
            with profile.phase("b"):
                clock.tick(1.0)
                with profile.phase("c"):
                    clock.tick(1.0)
                clock.tick(1.0)
            clock.tick(1.0)
        assert profile.totals == {"a": 2.0, "b": 2.0, "c": 1.0}
        assert profile.total() == 5.0

    def test_exception_still_credits_phase(self, clock):
        profile = PhaseProfile(clock=clock)
        with pytest.raises(RuntimeError):
            with profile.phase("step"):
                clock.tick(4.0)
                raise RuntimeError("integration diverged")
        assert profile.get("step") == 4.0
        assert profile.depth == 0


class TestDrain:
    def test_drain_returns_and_resets(self, clock):
        profile = PhaseProfile(clock=clock)
        with profile.phase("compile"):
            clock.tick(1.0)
        assert profile.drain() == {"compile": 1.0}
        assert profile.totals == {}
        assert profile.total() == 0.0

    def test_drain_with_open_phase_raises(self, clock):
        profile = PhaseProfile(clock=clock)
        with pytest.raises(RuntimeError):
            with profile.phase("step"):
                profile.drain()

    def test_unknown_phase_reads_zero(self, clock):
        assert PhaseProfile(clock=clock).get("nope") == 0.0
