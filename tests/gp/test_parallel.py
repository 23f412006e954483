"""Parallel execution layer: determinism, stats fan-in, pickling, failure.

The contract under test (see ``repro.gp.parallel``): farming work to
processes must never change results -- serial ``run_many`` and
``run_many_parallel`` are bit-identical given the same seeds -- and a
worker failure must surface loudly as :class:`ParallelRunError` naming
the seed, never as a hang or a silent drop.
"""

from __future__ import annotations

import copy
import math
import pickle
import random

import pytest

from repro.gp.cache import CacheStats
from repro.gp.config import GMRConfig
from repro.gp.engine import GMREngine, run_many
from repro.gp.fitness import EvaluationStats, GMRFitnessEvaluator
from repro.gp.init import random_individual
from repro.gp.parallel import (
    ParallelRunError,
    ProcessPoolBackend,
    SerialBackend,
    aggregate_stats,
    default_workers,
    run_many_parallel,
)


def small_engine(toy_knowledge, toy_task, **overrides) -> GMREngine:
    defaults = dict(
        population_size=8,
        max_generations=2,
        max_size=8,
        elite_size=1,
        local_search_steps=1,
        sigma_rampdown_generations=1,
    )
    defaults.update(overrides)
    return GMREngine(toy_knowledge, toy_task, GMRConfig(**defaults))


class ExplodingEngine(GMREngine):
    """Engine whose run raises for one specific seed (worker-failure tests)."""

    FAILING_SEED = 6

    def run(self, seed=0, progress=None, evaluator=None):
        if seed == self.FAILING_SEED:
            raise RuntimeError("injected worker failure")
        return super().run(seed=seed, progress=progress, evaluator=evaluator)


class TestRunDeterminism:
    def test_parallel_matches_serial(self, toy_knowledge, toy_task):
        engine = small_engine(toy_knowledge, toy_task)
        serial = run_many(engine, 4, base_seed=0)
        parallel = run_many_parallel(engine, 4, base_seed=0, max_workers=2)
        assert [r.seed for r in parallel] == [r.seed for r in serial]
        assert [r.best_fitness for r in parallel] == [
            r.best_fitness for r in serial
        ]
        for ours, theirs in zip(parallel, serial):
            assert [g.best_fitness for g in ours.history] == [
                g.best_fitness for g in theirs.history
            ]

    def test_run_many_delegates_to_pool(self, toy_knowledge, toy_task):
        serial_engine = small_engine(toy_knowledge, toy_task)
        pooled_engine = small_engine(toy_knowledge, toy_task, n_workers=2)
        serial = run_many(serial_engine, 3, base_seed=11)
        pooled = run_many(pooled_engine, 3, base_seed=11)
        assert [r.best_fitness for r in pooled] == [
            r.best_fitness for r in serial
        ]

    def test_single_worker_fallback_matches(self, toy_knowledge, toy_task):
        engine = small_engine(toy_knowledge, toy_task, max_generations=1)
        serial = run_many(engine, 2, base_seed=3)
        fallback = run_many_parallel(engine, 2, base_seed=3, max_workers=1)
        assert [r.best_fitness for r in fallback] == [
            r.best_fitness for r in serial
        ]

    def test_no_runs(self, toy_knowledge, toy_task):
        engine = small_engine(toy_knowledge, toy_task)
        assert run_many_parallel(engine, 0, max_workers=2) == []

    def test_default_workers_caps(self):
        assert default_workers(4, 2) == 2
        assert default_workers(2, 8) == 2
        assert default_workers(5, None) >= 1
        assert default_workers(0, None) == 1

    def test_env_cap_applies(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_WORKERS", "2")
        assert default_workers(8, 6) == 2

    def test_malformed_env_cap_warns_and_is_ignored(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_WORKERS", "lots")
        with pytest.warns(RuntimeWarning, match="REPRO_MAX_WORKERS='lots'"):
            assert default_workers(4, 3) == 3


class TestStatsMerge:
    def test_evaluation_stats_merge_sums_counters(self):
        left = EvaluationStats(
            evaluations=3,
            cache_hits=1,
            short_circuits=2,
            full_evaluations=1,
            divergences=0,
            steps_evaluated=40,
            steps_possible=60,
            wall_time=0.5,
        )
        right = EvaluationStats(
            evaluations=5,
            cache_hits=0,
            short_circuits=1,
            full_evaluations=4,
            divergences=1,
            steps_evaluated=90,
            steps_possible=100,
            wall_time=1.5,
        )
        merged = left.merge(right)
        assert merged.evaluations == 8
        assert merged.cache_hits == 1
        assert merged.short_circuits == 3
        assert merged.full_evaluations == 5
        assert merged.divergences == 1
        assert merged.steps_evaluated == 130
        assert merged.steps_possible == 160
        assert merged.wall_time == pytest.approx(2.0)
        # merge is a pure fan-in: inputs untouched.
        assert left.evaluations == 3 and right.evaluations == 5

    def test_merge_all_identity(self):
        assert EvaluationStats.merge_all([]) == EvaluationStats()
        assert CacheStats.merge_all([]) == CacheStats()

    def test_cache_stats_merge(self):
        merged = CacheStats(hits=2, misses=3, evictions=1).merge(
            CacheStats(hits=5, misses=1, evictions=0)
        )
        assert merged.hits == 7
        assert merged.misses == 4
        assert merged.evictions == 1
        assert merged.lookups == 11

    def test_aggregate_stats_over_runs(self, toy_knowledge, toy_task):
        engine = small_engine(toy_knowledge, toy_task, max_generations=1)
        results = run_many_parallel(engine, 3, base_seed=0, max_workers=2)
        total = aggregate_stats(results)
        assert total.evaluations == sum(r.stats.evaluations for r in results)
        assert total.steps_possible == sum(
            r.stats.steps_possible for r in results
        )
        assert total.steps_evaluated <= total.steps_possible


class TestPickling:
    def test_individual_round_trip(self, toy_grammar, toy_knowledge, toy_task):
        config = GMRConfig(population_size=4, max_generations=1, max_size=8)
        individual = random_individual(
            toy_grammar, toy_knowledge, config, random.Random(3)
        )
        clone = pickle.loads(pickle.dumps(individual))
        assert clone.size == individual.size
        assert clone.params == individual.params
        model, params = individual.phenotype(
            toy_task.state_names, toy_task.var_order
        )
        clone_model, clone_params = clone.phenotype(
            toy_task.state_names, toy_task.var_order
        )
        assert clone_model.structure_key() == model.structure_key()
        assert clone_params == params
        assert toy_task.rmse(clone_model, clone_params) == pytest.approx(
            toy_task.rmse(model, params)
        )

    def test_modeling_task_round_trip(self, toy_task):
        clone = pickle.loads(pickle.dumps(toy_task))
        assert clone.n_cases == toy_task.n_cases
        assert clone.state_names == toy_task.state_names
        assert clone.var_order == toy_task.var_order
        assert (clone.observed == toy_task.observed).all()

    def test_engine_round_trip_is_deterministic(self, toy_knowledge, toy_task):
        engine = small_engine(toy_knowledge, toy_task, max_generations=1)
        clone = pickle.loads(pickle.dumps(engine))
        assert clone.run(seed=7).best_fitness == engine.run(seed=7).best_fitness

    def test_compiled_model_dropped_and_rebuilt(
        self, toy_grammar, toy_knowledge, toy_task
    ):
        config = GMRConfig(population_size=4, max_generations=1, max_size=8)
        individual = random_individual(
            toy_grammar, toy_knowledge, config, random.Random(0)
        )
        model, params = individual.phenotype(
            toy_task.state_names, toy_task.var_order
        )
        model.compiled()  # attach the unpicklable handle
        clone = pickle.loads(pickle.dumps(model))
        assert clone._compiled is None
        assert clone.compiled()(params, (1.0,), (2.0,)) == pytest.approx(
            model.compiled()(params, (1.0,), (2.0,))
        )

    def test_evaluator_round_trip_drops_compiled_table(
        self, toy_grammar, toy_knowledge, toy_task
    ):
        """An evaluator that has compiled kernels pickles without them
        (they are exec-generated) and its clone scores the same."""
        config = GMRConfig(population_size=4, max_generations=1, max_size=8)
        evaluator = GMRFitnessEvaluator(task=toy_task, config=config)
        individual = random_individual(
            toy_grammar, toy_knowledge, config, random.Random(0)
        )
        fitness = evaluator.evaluate(copy.deepcopy(individual))
        assert evaluator.stats.compile_time > 0.0
        clone = pickle.loads(pickle.dumps(evaluator))
        clone.reset()
        assert math.isinf(clone.best_prev_full)
        assert clone.evaluate(individual) == fitness
        assert clone.stats.compile_time > 0.0

    def test_pool_backend_pickles_without_pool(self):
        backend = ProcessPoolBackend(max_workers=2)
        clone = pickle.loads(pickle.dumps(backend))
        assert clone.max_workers == 2
        assert clone._pool is None


class TestWorkerFailure:
    def _exploding(self, toy_knowledge, toy_task) -> ExplodingEngine:
        return ExplodingEngine(
            toy_knowledge,
            toy_task,
            GMRConfig(
                population_size=6,
                max_generations=1,
                max_size=8,
                local_search_steps=0,
            ),
        )

    def test_failure_names_seed_in_pool(self, toy_knowledge, toy_task):
        engine = self._exploding(toy_knowledge, toy_task)
        with pytest.raises(ParallelRunError) as excinfo:
            run_many_parallel(engine, 4, base_seed=5, max_workers=2)
        assert excinfo.value.seed == ExplodingEngine.FAILING_SEED
        assert str(ExplodingEngine.FAILING_SEED) in str(excinfo.value)

    def test_failure_names_seed_in_fallback(self, toy_knowledge, toy_task):
        engine = self._exploding(toy_knowledge, toy_task)
        with pytest.raises(ParallelRunError) as excinfo:
            run_many_parallel(engine, 4, base_seed=5, max_workers=1)
        assert excinfo.value.seed == ExplodingEngine.FAILING_SEED

    def test_healthy_seeds_unaffected(self, toy_knowledge, toy_task):
        engine = self._exploding(toy_knowledge, toy_task)
        results = run_many_parallel(engine, 3, base_seed=10, max_workers=2)
        assert [r.seed for r in results] == [10, 11, 12]


class TestBatchedEvaluation:
    def test_batched_serial_backend_runs(self, toy_knowledge, toy_task):
        engine = small_engine(
            toy_knowledge, toy_task, eval_batch_size=4, es_threshold=None
        )
        result = engine.run(seed=0)
        assert isinstance(engine.eval_backend, SerialBackend)
        assert math.isfinite(result.best_fitness)
        assert len(result.history) == 3

    def test_batched_pool_matches_serial_backend_without_es(
        self, toy_knowledge, toy_task
    ):
        # With short-circuiting disabled, per-batch best_prev_full
        # synchronisation is irrelevant, so the pool backend must agree
        # with the serial backend exactly.
        serial = small_engine(
            toy_knowledge, toy_task, eval_batch_size=4, es_threshold=None
        )
        pooled = small_engine(
            toy_knowledge,
            toy_task,
            eval_batch_size=4,
            es_threshold=None,
            n_workers=2,
        )
        try:
            ours = pooled.run(seed=1)
        finally:
            if pooled.eval_backend is not None:
                pooled.eval_backend.close()
        theirs = serial.run(seed=1)
        assert isinstance(pooled.eval_backend, ProcessPoolBackend)
        assert ours.best_fitness == theirs.best_fitness
        assert [g.best_fitness for g in ours.history] == [
            g.best_fitness for g in theirs.history
        ]

    def test_batch_size_zero_keeps_serial_path(self, toy_knowledge, toy_task):
        # The switch back to strictly per-individual ES semantics.
        engine = small_engine(toy_knowledge, toy_task, eval_batch_size=0)
        engine.run(seed=0)
        assert engine.eval_backend is None

    def test_pool_backend_updates_stats_and_marker(
        self, toy_grammar, toy_knowledge, toy_task
    ):
        config = GMRConfig(
            population_size=4, max_generations=1, max_size=8, es_threshold=None
        )
        evaluator = GMRFitnessEvaluator(task=toy_task, config=config)
        individuals = [
            random_individual(toy_grammar, toy_knowledge, config, random.Random(s))
            for s in range(4)
        ]
        backend = ProcessPoolBackend(max_workers=2)
        try:
            backend.evaluate_batch(evaluator, individuals)
        finally:
            backend.close()
        assert all(ind.fitness is not None for ind in individuals)
        assert evaluator.stats.evaluations == 4
        assert evaluator.stats.steps_evaluated <= evaluator.stats.steps_possible
        fully = [
            ind.fitness for ind in individuals if ind.fully_evaluated
        ]
        assert evaluator.best_prev_full == pytest.approx(min(fully))
