"""Evaluation phase timers partition wall time (the satellite fix).

``compile_time``, ``step_time`` and ``batch_fill`` used to be measured
with independent overlapping stopwatches: batch planning timed a region
that *included* kernel compilation, so the three could sum past
``wall_time``.  They now all route through one
:class:`~repro.obs.profile.PhaseProfile`, making the invariant

    compile_time + step_time + batch_fill <= wall_time

true by construction on the scalar path, the batched path, and any mix
(batched cohorts with scalar fallbacks).  These tests enforce it on real
evaluations of the toy revision problem.
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
    phase_sum = (
        stats.compile_time
        + stats.step_time
        + stats.batch_fill
        + stats.triage_time
    )
    assert phase_sum == stats.phase_total
    assert phase_sum <= stats.wall_time + EPSILON, (
        f"phases overlap: compile={stats.compile_time:.6f} + "
        f"step={stats.step_time:.6f} + fill={stats.batch_fill:.6f} + "
        f"triage={stats.triage_time:.6f} "
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
        assert stats.batch_fill == 0.0
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
        assert stats.batched_evaluations > 0
        assert_partition(stats)

    def test_mixed_paths_accumulate_disjointly(
        self, toy_grammar, toy_knowledge, toy_task, small_config
    ):
        # Scalar singles then a batched cohort on one evaluator: the
        # accumulated totals must still partition the accumulated wall.
        config = dataclasses.replace(small_config, kernel_batch_size=3)
        cohort = make_cohort(toy_grammar, toy_knowledge, config, seed=13)
        evaluator = GMRFitnessEvaluator(task=toy_task, config=config)
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
        assert (stats.compile_time, stats.step_time, stats.batch_fill) == (
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
        # phase bucket and the partition still holds on both paths.
        config = dataclasses.replace(small_config, static_triage=True)
        cohort = make_cohort(toy_grammar, toy_knowledge, config, seed=13)
        evaluator = GMRFitnessEvaluator(task=toy_task, config=config)
        for individual in copy.deepcopy(cohort[:5]):
            evaluator.evaluate(individual)
        evaluator.evaluate_batch(cohort)
        stats = evaluator.stats
        assert stats.triage_time > 0.0, "triage analysis must be timed"
        assert_partition(stats)
