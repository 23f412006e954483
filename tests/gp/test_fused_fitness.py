"""Cohort fusion in the evaluator: kernel reuse and degradation.

Fusing several structure groups into one padded cohort kernel
(``GMRFitnessEvaluator._plan_runs`` / ``_simulate``) must be
observationally invisible; the differential oracle harness
(``tests/test_oracle.py``) checks that against sequential scalar
evaluation.  These tests pin cohort-kernel cache reuse across
reshuffled generations, the degradation ladder (fused -> scalar), the
share-table accounting of demoted structures and the
``kernel_min_batch`` threshold.
"""

from __future__ import annotations

import copy
import dataclasses
import random

import pytest

import repro.gp.fitness as fitness_module
from repro.expr.compile import KERNEL_CACHE
from repro.gp.config import MIN_BATCH_COLUMNS, ConfigError, GMRConfig
from repro.gp.fitness import GMRFitnessEvaluator
from tests.oracle import assert_equivalent, make_cohort


def cohort_cache_keys():
    """Structure-fusion entries currently in the process kernel cache."""
    return {
        key
        for key in KERNEL_CACHE._entries
        if isinstance(key, tuple) and key and key[0] == "cohort"
    }


class TestCohortKernelReuse:
    def test_cohort_kernels_survive_reshuffling(
        self, toy_grammar, toy_knowledge, toy_task, small_config
    ):
        """Cohort cache keys are shuffle-invariant: re-evaluating the
        same structures in a different order plans the same cohorts and
        compiles nothing new."""
        cohort = make_cohort(toy_grammar, toy_knowledge, small_config, seed=3)
        evaluator = GMRFitnessEvaluator(task=toy_task, config=small_config)
        before = cohort_cache_keys()
        evaluator.evaluate_batch(copy.deepcopy(cohort))
        after_first = cohort_cache_keys()
        assert evaluator.stats.fused_cohorts > 0
        shuffled = copy.deepcopy(cohort)
        random.Random(99).shuffle(shuffled)
        fresh = GMRFitnessEvaluator(task=toy_task, config=small_config)
        fresh.evaluate_batch(shuffled)
        assert cohort_cache_keys() == after_first != before


class TestDegradationLadder:
    def test_fused_failure_falls_back_to_scalar(
        self, toy_grammar, toy_knowledge, toy_task, small_config, monkeypatch
    ):
        """A raising cohort compile demotes its members straight to the
        scalar path: the fitness stream is untouched, only the fused
        kernel's counter moves, and later batches plan the members
        straight to scalar."""
        cohort = make_cohort(toy_grammar, toy_knowledge, small_config, seed=8)
        pop_healthy = copy.deepcopy(cohort)
        pop_broken = copy.deepcopy(cohort)
        ev_healthy = GMRFitnessEvaluator(task=toy_task, config=small_config)
        ev_broken = GMRFitnessEvaluator(task=toy_task, config=small_config)
        healthy = ev_healthy.evaluate_batch(pop_healthy)
        # A second warm-state pass on the healthy evaluator: caches and
        # best_prev_full have moved, so the broken evaluator's second
        # pass must be compared against this, not the cold results.
        healthy_again = ev_healthy.evaluate_batch(copy.deepcopy(cohort))

        fused_members: list[str] = []

        def explode(models, lanes):
            fused_members.extend(model.structure_key() for model in models)
            raise RuntimeError("injected cohort-compile failure")

        monkeypatch.setattr(fitness_module, "compile_cohort", explode)
        broken = ev_broken.evaluate_batch(pop_broken)
        assert broken == pytest.approx(healthy, rel=1e-9, abs=0.0)
        assert ev_broken.stats.fusion_fallbacks >= 1
        assert ev_broken.stats.kernel_fallbacks == 0
        assert ev_broken.stats.fused_cohorts == 0
        assert len(fused_members) >= 2
        assert ev_broken._kernel_blocklist == set(fused_members)

        # Demoted structures take no vector kernel on later batches: no
        # more fallbacks accrue, and none of them is rolled out batched.
        rolled_out: list[str] = []
        batched = fitness_module.batched_euler_rollout

        def recording(model, *args, **kwargs):
            rolled_out.append(model.structure_key())
            return batched(model, *args, **kwargs)

        monkeypatch.setattr(fitness_module, "batched_euler_rollout", recording)
        fallbacks = (
            ev_broken.stats.fusion_fallbacks,
            ev_broken.stats.kernel_fallbacks,
        )
        again = ev_broken.evaluate_batch(copy.deepcopy(cohort))
        assert again == pytest.approx(healthy_again, rel=1e-9, abs=0.0)
        assert (
            ev_broken.stats.fusion_fallbacks,
            ev_broken.stats.kernel_fallbacks,
        ) == fallbacks
        assert not set(rolled_out) & set(fused_members)

    def test_demoted_structures_compile_through_share_table(
        self, toy_grammar, toy_knowledge, toy_task, small_config
    ):
        """A structure demoted to the scalar path is an ordinary scalar
        structure: it takes no vector kernel, and its compiled kernel
        comes from the share table with the same lookups as sequential
        scalar evaluation."""
        cohort = make_cohort(toy_grammar, toy_knowledge, small_config, seed=6)
        pop_scalar = copy.deepcopy(cohort)
        pop_demoted = copy.deepcopy(cohort)
        reference = GMRFitnessEvaluator(task=toy_task, config=small_config)
        baseline = [reference.evaluate(ind) for ind in pop_scalar]
        evaluator = GMRFitnessEvaluator(task=toy_task, config=small_config)
        for individual in cohort:
            model, _ = individual.phenotype(
                toy_task.state_names, toy_task.var_order
            )
            evaluator._kernel_blocklist.add(model.structure_key())
        results = evaluator.evaluate_batch(pop_demoted)
        assert results == pytest.approx(baseline, rel=1e-9, abs=0.0)
        assert_equivalent(reference, evaluator, pop_scalar, pop_demoted)
        assert evaluator.stats.batched_evaluations == 0
        assert evaluator.stats.fused_cohorts == 0
        assert evaluator.compiled_cache.stats.lookups > 0
        assert (
            evaluator.compiled_cache.stats.lookups
            == reference.compiled_cache.stats.lookups
        )


class TestMinBatchThreshold:
    def test_default_matches_historical_constant(self):
        assert GMRConfig().kernel_min_batch == MIN_BATCH_COLUMNS == 2

    def test_validation(self):
        with pytest.raises(ConfigError, match="kernel_min_batch"):
            GMRConfig(kernel_min_batch=0)
        with pytest.raises(ConfigError, match="fuse_cohort_size"):
            GMRConfig(fuse_cohort_size=0)

    def test_raised_threshold_forces_scalar(
        self, toy_grammar, toy_knowledge, toy_task, small_config
    ):
        """With the floor above any group's column count, every member
        takes the scalar path -- with identical results."""
        high = dataclasses.replace(small_config, kernel_min_batch=10_000)
        cohort = make_cohort(toy_grammar, toy_knowledge, high, seed=4)
        pop_high = copy.deepcopy(cohort)
        pop_default = copy.deepcopy(cohort)
        ev_high = GMRFitnessEvaluator(task=toy_task, config=high)
        ev_default = GMRFitnessEvaluator(task=toy_task, config=small_config)
        results_high = ev_high.evaluate_batch(pop_high)
        results_default = ev_default.evaluate_batch(pop_default)
        assert results_high == pytest.approx(
            results_default, rel=1e-9, abs=0.0
        )
        assert ev_high.stats.batched_evaluations == 0
        assert ev_high.stats.fused_cohorts == 0
        assert ev_default.stats.batched_evaluations > 0

    def test_threshold_one_batches_singleton_groups(
        self, toy_grammar, toy_knowledge, toy_task, small_config
    ):
        """kernel_min_batch=1 admits single-column groups to the batched
        (and fused) path, still bit-compatible with the default."""
        low = dataclasses.replace(small_config, kernel_min_batch=1)
        cohort = make_cohort(toy_grammar, toy_knowledge, low, seed=14)
        pop_low = copy.deepcopy(cohort)
        pop_default = copy.deepcopy(cohort)
        ev_low = GMRFitnessEvaluator(task=toy_task, config=low)
        ev_default = GMRFitnessEvaluator(task=toy_task, config=small_config)
        results_low = ev_low.evaluate_batch(pop_low)
        results_default = ev_default.evaluate_batch(pop_default)
        assert results_low == pytest.approx(
            results_default, rel=1e-9, abs=0.0
        )
        assert (
            ev_low.stats.batched_evaluations
            >= ev_default.stats.batched_evaluations
        )
