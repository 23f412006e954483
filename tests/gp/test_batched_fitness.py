"""Cohort evaluation: edge cases, caches and proposals.

``GMRFitnessEvaluator.evaluate_batch`` must be observationally identical
to a sequence of ``evaluate`` calls; the differential oracle harness
(``tests/test_oracle.py``) checks that over random cohorts and
settings.  These tests pin the cohort's edge cases: in-cohort cache
hits, the interpreter, duck-typed tasks, bounded caches and best-of-K
proposals.
"""

from __future__ import annotations

import copy
import dataclasses
import random

from repro.expr.compile import KERNEL_CACHE
from repro.gp.fitness import GMRFitnessEvaluator
from repro.gp.init import random_individual
from repro.gp.local_search import hill_climb
from repro.gp.operators import gaussian_mutation, gaussian_mutation_best_of
from tests.oracle import assert_equivalent, make_cohort


class TestCohortEquivalence:
    def test_in_cohort_duplicates_hit_the_cache(
        self, toy_grammar, toy_knowledge, toy_task, small_config
    ):
        # Without ES every original gets fully evaluated and cached, so
        # each duplicated member must resolve from the entry its original
        # wrote earlier in the same cohort.
        config = dataclasses.replace(small_config, es_threshold=None)
        cohort = make_cohort(
            toy_grammar, toy_knowledge, config, seed=9, size=20,
            duplicates=20, variants=0,
        )
        evaluator = GMRFitnessEvaluator(task=toy_task, config=config)
        evaluator.evaluate_batch(cohort)
        assert evaluator.stats.cache_hits >= 20

    def test_empty_cohort(self, toy_task, small_config):
        evaluator = GMRFitnessEvaluator(task=toy_task, config=small_config)
        assert evaluator.evaluate_batch([]) == []
        assert evaluator.stats.evaluations == 0

    def test_disabled_kernel_falls_back_to_scalar(
        self, toy_grammar, toy_knowledge, toy_task, small_config
    ):
        """Without compilation the cohort steps through the interpreter
        and compiles nothing."""
        config = dataclasses.replace(small_config, use_compilation=False)
        cohort = make_cohort(
            toy_grammar, toy_knowledge, config, seed=2, size=10, duplicates=0
        )
        evaluator = GMRFitnessEvaluator(task=toy_task, config=config)
        lookups = KERNEL_CACHE.stats.lookups
        evaluator.evaluate_batch(cohort)
        assert evaluator.stats.evaluations == len(cohort)
        assert evaluator.stats.compile_time == 0.0
        assert KERNEL_CACHE.stats.lookups == lookups

    def test_network_style_task_falls_back_to_scalar(
        self, toy_grammar, toy_knowledge, toy_task, small_config
    ):
        """Tasks without the plain-ODE surface must not crash the batch.

        The network-coupled river task is duck-typed to ModelingTask: it
        offers ``error_stream`` but no ``drivers``/``initial_state``/
        ``dt``/``clamp``.  ``evaluate_batch`` scores it with the same
        results as on the plain task.
        """

        class NetworkStyle:
            def __init__(self, task):
                self.state_names = task.state_names
                self.var_order = task.var_order
                self.n_cases = task.n_cases
                self.error_stream = task.error_stream

        cohort = make_cohort(
            toy_grammar, toy_knowledge, small_config, seed=7, size=12,
            duplicates=0,
        )
        ev_wrapped = GMRFitnessEvaluator(
            task=NetworkStyle(toy_task), config=small_config
        )
        ev_plain = GMRFitnessEvaluator(task=toy_task, config=small_config)
        wrapped = ev_wrapped.evaluate_batch(copy.deepcopy(cohort))
        plain = [ev_plain.evaluate(ind) for ind in copy.deepcopy(cohort)]
        assert wrapped == plain
        assert ev_wrapped.stats.evaluations == len(cohort)

    def test_timing_fields_populated(
        self, toy_grammar, toy_knowledge, toy_task, small_config
    ):
        cohort = make_cohort(toy_grammar, toy_knowledge, small_config, seed=6)
        evaluator = GMRFitnessEvaluator(task=toy_task, config=small_config)
        evaluator.evaluate_batch(cohort)
        stats = evaluator.stats
        assert stats.compile_time > 0.0
        assert stats.step_time > 0.0
        assert stats.wall_time >= stats.step_time


class TestBoundedCaches:
    def test_tree_cache_capacity_from_config(self, toy_task, small_config):
        config = dataclasses.replace(small_config, tree_cache_size=17)
        evaluator = GMRFitnessEvaluator(task=toy_task, config=config)
        assert evaluator.cache.max_entries == 17

    def test_tree_cache_evictions_counted(
        self, toy_grammar, toy_knowledge, toy_task, small_config
    ):
        config = dataclasses.replace(small_config, tree_cache_size=4)
        cohort = make_cohort(
            toy_grammar, toy_knowledge, config, seed=11, size=40, duplicates=0
        )
        evaluator = GMRFitnessEvaluator(task=toy_task, config=config)
        evaluator.evaluate_batch(cohort)
        assert len(evaluator.cache) <= 4
        assert evaluator.cache.stats.evictions > 0

    def test_batched_still_matches_with_tiny_caches(
        self, toy_grammar, toy_knowledge, toy_task, small_config
    ):
        """A three-entry tree cache evicts duplicates before they recur;
        they are simulated again, with identical results."""
        config = dataclasses.replace(small_config, tree_cache_size=3)
        cohort = make_cohort(toy_grammar, toy_knowledge, config, seed=13)
        pop_scalar = copy.deepcopy(cohort)
        pop_batched = copy.deepcopy(cohort)
        ev_scalar = GMRFitnessEvaluator(task=toy_task, config=config)
        ev_batched = GMRFitnessEvaluator(task=toy_task, config=config)
        for individual in pop_scalar:
            ev_scalar.evaluate(individual)
        ev_batched.evaluate_batch(pop_batched)
        assert_equivalent(ev_scalar, ev_batched, pop_scalar, pop_batched)


class TestProposeBest:
    def test_best_of_one_matches_single_mutation(
        self, toy_grammar, toy_knowledge, toy_task, small_config
    ):
        parent = random_individual(
            toy_grammar, toy_knowledge, small_config, random.Random(3)
        )
        evaluator = GMRFitnessEvaluator(task=toy_task, config=small_config)
        evaluator.evaluate(parent)
        chosen = gaussian_mutation_best_of(
            parent, toy_knowledge, small_config, random.Random(21), 1.0,
            evaluator.evaluate_batch,
        )
        reference = gaussian_mutation(
            parent, toy_knowledge, small_config, random.Random(21), 1.0
        )
        assert chosen.params == reference.params
        assert chosen.fitness is not None

    def test_best_of_k_picks_minimum(
        self, toy_grammar, toy_knowledge, toy_task, small_config
    ):
        config = dataclasses.replace(small_config, gaussian_proposals=8)
        parent = random_individual(
            toy_grammar, toy_knowledge, config, random.Random(3)
        )
        evaluator = GMRFitnessEvaluator(task=toy_task, config=config)
        chosen = gaussian_mutation_best_of(
            parent, toy_knowledge, config, random.Random(17), 1.0,
            evaluator.evaluate_batch,
        )
        # The winner's fitness is the minimum over what an identically
        # seeded proposal stream scores.
        check = GMRFitnessEvaluator(task=toy_task, config=config)
        replay_rng = random.Random(17)
        replayed = [
            gaussian_mutation(parent, toy_knowledge, config, replay_rng, 1.0)
            for _ in range(config.gaussian_proposals)
        ]
        fitnesses = check.evaluate_batch(replayed)
        assert chosen.fitness == min(fitnesses)

    def test_hill_climb_with_batched_proposals(
        self, toy_grammar, toy_knowledge, toy_task, small_config
    ):
        config = dataclasses.replace(
            small_config, gaussian_proposals=4, local_search_steps=6
        )
        parent = random_individual(
            toy_grammar, toy_knowledge, config, random.Random(8)
        )
        evaluator = GMRFitnessEvaluator(task=toy_task, config=config)
        evaluator.evaluate(parent)
        improved = hill_climb(
            parent,
            toy_grammar,
            config,
            evaluator.evaluate,
            random.Random(9),
            knowledge=toy_knowledge,
            batch_fitness_fn=evaluator.evaluate_batch,
        )
        assert improved.fitness is not None
        assert improved.fitness <= parent.fitness
