"""Process-level faults: SIGKILLed workers, hangs, pickling failures.

These tests exercise the recovery paths that only fire when hardware
misbehaves: a worker dying mid-run breaks the whole
``ProcessPoolExecutor`` (every in-flight future raises
``BrokenProcessPool``), so the campaign must rebuild the pool and
re-submit the swallowed seeds -- and the evaluation backend must do the
same mid-batch without double-counting statistics.

Everything here requires pooled execution (``max_workers >= 2``): a
SIGKILL on the serial path would kill the test process itself.
"""

from __future__ import annotations

import random
import time

import pytest


from repro.gp.config import GMRConfig
from repro.gp.engine import GMREngine, run_many
from repro.gp.init import random_individual
from repro.gp.parallel import (
    ProcessPoolBackend,
    SerialBackend,
    run_many_parallel,
)
from repro.gp.resilience import FailurePolicy
from tests.faults import (
    FaultInjectingEngine,
    FaultInjectingEvaluator,
    FaultPlan,
    InjectedFault,
    current_attempt,
    record_attempt,
)


class TestAttemptLedger:
    def test_counts_attempts_across_processes(self, tmp_path):
        directory = str(tmp_path)
        assert current_attempt(directory, 5) == 0
        assert record_attempt(directory, 5) == 1
        assert record_attempt(directory, 5) == 2
        assert current_attempt(directory, 5) == 2
        assert current_attempt(directory, 6) == 0


class TestEvaluatorFaults:
    def test_fail_at_evaluation_counts_calls(self, make_engine, toy_task):
        engine = make_engine()
        evaluator = FaultInjectingEvaluator(
            task=toy_task,
            config=engine.config,
            plan=FaultPlan(fail_at_evaluation=3),
        )
        with pytest.raises(InjectedFault, match="evaluation 3"):
            engine.run(seed=0, evaluator=evaluator)
        assert evaluator.evaluations_seen == 3

    def test_fire_once_marker_limits_fault(self, make_engine, toy_task, tmp_path):
        engine = make_engine()
        evaluator = FaultInjectingEvaluator(
            task=toy_task,
            config=engine.config,
            plan=FaultPlan(fail_at_evaluation=1, once_marker_dir=str(tmp_path)),
        )
        with pytest.raises(InjectedFault):
            engine.run(seed=0, evaluator=evaluator)
        # The marker exists now, so a fresh evaluator no longer faults.
        retry = FaultInjectingEvaluator(
            task=toy_task,
            config=engine.config,
            plan=FaultPlan(fail_at_evaluation=1, once_marker_dir=str(tmp_path)),
        )
        result = engine.run(seed=0, evaluator=retry)
        assert result.best_fitness is not None

    def test_cohort_evaluation_sees_every_individual(
        self, toy_grammar, toy_knowledge, toy_task
    ):
        """Per-evaluation faults count individuals on the cohort path
        too: ``evaluate_batch`` evaluates a cohort one individual at a
        time."""
        config = GMRConfig(population_size=8, max_generations=1, max_size=8)
        individuals = [
            random_individual(
                toy_grammar, toy_knowledge, config, random.Random(seed)
            )
            for seed in range(8)
        ]
        evaluator = FaultInjectingEvaluator(
            task=toy_task, config=config, plan=FaultPlan(fail_at_evaluation=6)
        )
        with pytest.raises(InjectedFault, match="evaluation 6"):
            evaluator.evaluate_batch(individuals)
        assert evaluator.evaluations_seen == 6
        assert evaluator.stats.evaluations == 5


class TestKilledWorkers:
    def test_campaign_survives_sigkill_under_retry(
        self, make_engine, tmp_path
    ):
        """The acceptance test: SIGKILL a worker mid-campaign; with
        ``policy=retry`` the pool is rebuilt and every seed completes."""
        engine = make_engine(
            engine_cls=FaultInjectingEngine,
            engine_kwargs={
                "plan": FaultPlan(kill_seed_attempts={1: 1}),
                "attempt_dir": str(tmp_path),
            },
            max_generations=2,
        )
        outcome = run_many_parallel(
            engine,
            3,
            base_seed=0,
            max_workers=2,
            policy=FailurePolicy.retrying(max_attempts=3, backoff_base=0.0),
        )
        assert outcome.ok
        assert [r.seed for r in outcome.completed] == [0, 1, 2]
        # Recovery must not change results: compare with a healthy run.
        healthy = make_engine(engine_cls=GMREngine, max_generations=2)
        reference = run_many(healthy, 3, base_seed=0)
        assert [r.best_fitness for r in outcome.completed] == [
            r.best_fitness for r in reference
        ]

    def test_persistent_killer_exhausts_rebuild_budget(
        self, make_engine, tmp_path
    ):
        engine = make_engine(
            engine_cls=FaultInjectingEngine,
            engine_kwargs={
                "plan": FaultPlan(kill_seed_attempts={1: 10**6}),
                "attempt_dir": str(tmp_path),
            },
            max_generations=1,
        )
        outcome = run_many_parallel(
            engine,
            2,
            base_seed=0,
            max_workers=2,
            policy=FailurePolicy.collect(),
        )
        # The campaign terminates (no infinite rebuild loop) and the
        # killing seed is recorded; the innocent seed may or may not have
        # been swallowed by a collapsing pool alongside it.
        assert outcome.n_runs == 2
        assert any(failure.seed == 1 for failure in outcome.failed)


class TestTimeoutWatchdog:
    def test_hung_run_recorded_as_timeout(self, make_engine, tmp_path):
        hang_seconds = 3.0
        engine = make_engine(
            engine_cls=FaultInjectingEngine,
            engine_kwargs={
                "plan": FaultPlan(
                    hang_at_evaluation=1, hang_seconds=hang_seconds
                ),
                "attempt_dir": str(tmp_path),
            },
            max_generations=1,
        )
        started = time.monotonic()
        outcome = run_many_parallel(
            engine,
            2,
            base_seed=0,
            max_workers=2,
            policy=FailurePolicy.collect(timeout=0.5),
        )
        elapsed = time.monotonic() - started
        assert elapsed < hang_seconds  # the watchdog did not wait it out
        assert len(outcome.failed) == 2
        assert all(f.error_type == "TimeoutError" for f in outcome.failed)
        assert all("watchdog" in f.message for f in outcome.failed)


class TestPicklingFaults:
    def test_unpicklable_engine_surfaces_as_failure(
        self, make_engine, tmp_path
    ):
        engine = make_engine(
            engine_cls=FaultInjectingEngine,
            engine_kwargs={
                "plan": FaultPlan(unpicklable=True),
                "attempt_dir": str(tmp_path),
            },
            max_generations=1,
        )
        outcome = run_many_parallel(
            engine,
            2,
            base_seed=0,
            max_workers=2,
            policy=FailurePolicy.collect(),
        )
        assert len(outcome.failed) == 2
        assert all(f.error_type == "InjectedFault" for f in outcome.failed)
        assert all("pickling" in f.message for f in outcome.failed)


class TestBrokenEvaluationPool:
    def _individuals(self, toy_grammar, toy_knowledge, config, n=8):
        return [
            random_individual(
                toy_grammar, toy_knowledge, config, random.Random(seed)
            )
            for seed in range(n)
        ]

    def test_backend_recovers_without_double_counting(
        self, toy_grammar, toy_knowledge, toy_task, tmp_path
    ):
        """A worker SIGKILLed mid-batch breaks the pool; the backend must
        rebuild it, re-evaluate only the missing chunks, and keep the
        evaluator's statistics and ES marker exact."""
        config = GMRConfig(
            population_size=8, max_generations=1, max_size=8, es_threshold=None
        )
        evaluator = FaultInjectingEvaluator(
            task=toy_task,
            config=config,
            plan=FaultPlan(
                kill_at_evaluation=1, once_marker_dir=str(tmp_path)
            ),
        )
        individuals = self._individuals(toy_grammar, toy_knowledge, config)
        backend = ProcessPoolBackend(max_workers=2)
        try:
            backend.evaluate_batch(evaluator, individuals)
        finally:
            backend.close()
        assert (tmp_path / "fault-kill.fired").exists()
        assert all(ind.fitness is not None for ind in individuals)
        # No double-counting: exactly one evaluation per individual.
        assert evaluator.stats.evaluations == len(individuals)
        assert evaluator.stats.pool_rebuilds == 1
        fully = [
            ind.fitness for ind in individuals if ind.fully_evaluated
        ]
        assert evaluator.best_prev_full == pytest.approx(min(fully))

    def test_exhausted_rebuild_budget_degrades_to_serial(
        self, toy_grammar, toy_knowledge, toy_task, tmp_path
    ):
        """Exhausting the rebuild budget engages the serial-fallback
        rung of the degradation ladder: the unfinished chunks evaluate
        in the parent, statistics stay exact, and the backend stays
        serial for later batches."""
        config = GMRConfig(
            population_size=8, max_generations=1, max_size=8, es_threshold=None
        )
        evaluator = FaultInjectingEvaluator(
            task=toy_task,
            config=config,
            plan=FaultPlan(
                kill_at_evaluation=1, once_marker_dir=str(tmp_path)
            ),
        )
        individuals = self._individuals(toy_grammar, toy_knowledge, config)
        backend = ProcessPoolBackend(max_workers=2, max_pool_rebuilds=0)
        try:
            backend.evaluate_batch(evaluator, individuals)
            assert backend._degraded
            assert all(ind.fitness is not None for ind in individuals)
            # Exactly one fallback, and no double-counted evaluations.
            assert evaluator.stats.pool_fallbacks == 1
            assert evaluator.stats.evaluations == len(individuals)
            # Later batches stay serial without re-counting a fallback.
            more = self._individuals(
                toy_grammar, toy_knowledge, config, n=4
            )
            backend.evaluate_batch(evaluator, more)
            assert all(ind.fitness is not None for ind in more)
            assert evaluator.stats.pool_fallbacks == 1
        finally:
            backend.close()

    def test_degraded_backend_matches_serial_results(
        self, toy_grammar, toy_knowledge, toy_task, tmp_path
    ):
        """The fallback is bit-identical with never having pooled."""
        config = GMRConfig(
            population_size=8, max_generations=1, max_size=8, es_threshold=None
        )
        reference = FaultInjectingEvaluator(task=toy_task, config=config)
        healthy = self._individuals(toy_grammar, toy_knowledge, config)
        SerialBackend().evaluate_batch(reference, healthy)

        evaluator = FaultInjectingEvaluator(
            task=toy_task,
            config=config,
            plan=FaultPlan(
                kill_at_evaluation=1, once_marker_dir=str(tmp_path)
            ),
        )
        individuals = self._individuals(toy_grammar, toy_knowledge, config)
        backend = ProcessPoolBackend(max_workers=1, max_pool_rebuilds=0)
        try:
            backend.evaluate_batch(evaluator, individuals)
        finally:
            backend.close()
        assert [ind.fitness for ind in individuals] == [
            ind.fitness for ind in healthy
        ]
        assert [ind.fully_evaluated for ind in individuals] == [
            ind.fully_evaluated for ind in healthy
        ]
        assert evaluator.stats.evaluations == reference.stats.evaluations
