"""Evaluation phase timers partition wall time.

``compile_time``, ``step_time`` and ``triage_time`` all route through
one :class:`~repro.obs.profile.PhaseProfile`, making the invariant

    compile_time + step_time + triage_time <= wall_time

true by construction for single evaluations, cohorts and any mix of
them.  These tests enforce it on real evaluations of the toy revision
problem.
"""

from __future__ import annotations

import copy
import dataclasses

from repro.gp.fitness import GMRFitnessEvaluator

from tests.oracle import make_cohort

#: Wall time is measured around the phase-timed region, so the phases
#: can only undershoot it -- any overshoot beyond float rounding means
#: a stopwatch overlapped.
EPSILON = 1e-9


def assert_partition(stats) -> None:
    phase_sum = stats.compile_time + stats.step_time + stats.triage_time
    assert phase_sum == stats.phase_total
    assert phase_sum <= stats.wall_time + EPSILON, (
        f"phases overlap: compile={stats.compile_time:.6f} + "
        f"step={stats.step_time:.6f} + triage={stats.triage_time:.6f} "
        f"= {phase_sum:.6f} > wall={stats.wall_time:.6f}"
    )


class TestPhasePartition:
    def test_scalar_path_partitions_wall_time(
        self, toy_grammar, toy_knowledge, toy_task, small_config
    ):
        cohort = make_cohort(
            toy_grammar, toy_knowledge, small_config, seed=13, size=20
        )
        evaluator = GMRFitnessEvaluator(task=toy_task, config=small_config)
        for individual in cohort:
            evaluator.evaluate(individual)
        stats = evaluator.stats
        assert stats.step_time > 0.0, "scalar integration must be timed"
        assert_partition(stats)

    def test_batched_path_partitions_wall_time(
        self, toy_grammar, toy_knowledge, toy_task, small_config
    ):
        cohort = make_cohort(
            toy_grammar, toy_knowledge, small_config, seed=13, size=20
        )
        evaluator = GMRFitnessEvaluator(task=toy_task, config=small_config)
        evaluator.evaluate_batch(cohort)
        stats = evaluator.stats
        assert stats.evaluations == len(cohort)
        assert_partition(stats)

    def test_mixed_paths_accumulate_disjointly(
        self, toy_grammar, toy_knowledge, toy_task, small_config
    ):
        # Singles then a cohort on one evaluator: the accumulated totals
        # must still partition the accumulated wall.
        cohort = make_cohort(toy_grammar, toy_knowledge, small_config, seed=13)
        evaluator = GMRFitnessEvaluator(task=toy_task, config=small_config)
        for individual in copy.deepcopy(cohort[:5]):
            evaluator.evaluate(individual)
        evaluator.evaluate_batch(cohort)
        assert_partition(evaluator.stats)

    def test_partition_survives_reset(
        self, toy_grammar, toy_knowledge, toy_task, small_config
    ):
        cohort = make_cohort(
            toy_grammar, toy_knowledge, small_config, seed=13, size=10
        )
        evaluator = GMRFitnessEvaluator(task=toy_task, config=small_config)
        evaluator.evaluate_batch(copy.deepcopy(cohort))
        evaluator.reset()
        stats = evaluator.stats
        assert (stats.compile_time, stats.step_time, stats.triage_time) == (
            0.0,
            0.0,
            0.0,
        )
        evaluator.evaluate_batch(cohort)
        assert_partition(evaluator.stats)

    def test_triage_phase_accounted(
        self, toy_grammar, toy_knowledge, toy_task, small_config
    ):
        # With static triage on, the analysis time lands in its own
        # phase bucket and the partition still holds.
        config = dataclasses.replace(small_config, static_triage=True)
        cohort = make_cohort(toy_grammar, toy_knowledge, config, seed=13)
        evaluator = GMRFitnessEvaluator(task=toy_task, config=config)
        for individual in copy.deepcopy(cohort[:5]):
            evaluator.evaluate(individual)
        evaluator.evaluate_batch(cohort)
        stats = evaluator.stats
        assert stats.triage_time > 0.0, "triage analysis must be timed"
        assert_partition(stats)
