"""Routing in the evaluator: which structure groups take the vector kernel.

The differential oracle harness (``tests/test_oracle.py``) checks every
route against sequential scalar evaluation.  These tests pin the
share-table accounting of structures demoted to the scalar path and the
``kernel_min_batch`` threshold.  The module's name predates the deletion
of structure fusion and is kept so its test ids stay stable; the
batched kernel's own fallback is pinned in
``tests/resilience/test_faults.py::TestKernelLadder``.
"""

from __future__ import annotations

import copy
import dataclasses

import pytest

from repro.gp.config import MIN_BATCH_COLUMNS, ConfigError, GMRConfig
from repro.gp.fitness import GMRFitnessEvaluator
from tests.oracle import assert_equivalent, make_cohort


class TestDegradationLadder:
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
        assert ev_default.stats.batched_evaluations > 0

    def test_threshold_one_batches_singleton_groups(
        self, toy_grammar, toy_knowledge, toy_task, small_config
    ):
        """kernel_min_batch=1 admits single-column groups to the batched
        path, still bit-compatible with the default."""
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
