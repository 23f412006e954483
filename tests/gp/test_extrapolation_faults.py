"""Extrapolator errors leave ``evaluate_batch`` where ``evaluate`` raises
them, with the tree cache on and off.

Algorithm 1's cut against a finite marker is checked by the
differential oracle harness (``tests/test_oracle.py``).
"""

from __future__ import annotations

import copy
import dataclasses

import pytest

from repro.gp.fitness import GMRFitnessEvaluator
from tests.oracle import make_cohort, marker_for


class ExtrapolatorFault(RuntimeError):
    pass


class TestFaultSeam:
    @pytest.mark.parametrize("use_tree_cache", [True, False], ids=["cached", "uncached"])
    @pytest.mark.parametrize("after", [0, 40], ids=["always", "late"])
    def test_raises_where_evaluate_does(
        self,
        toy_grammar,
        toy_knowledge,
        toy_task,
        small_config,
        use_tree_cache,
        after,
    ):
        """The error leaves evaluate_batch at the member where evaluate
        raises it."""

        def faulty(fitness, cases_done, total):
            if cases_done > after:
                raise ExtrapolatorFault(f"cannot extrapolate at {cases_done}")
            return fitness

        config = dataclasses.replace(small_config, use_tree_cache=use_tree_cache)
        cohort = make_cohort(toy_grammar, toy_knowledge, config, seed=5)
        marker = marker_for(toy_task, config, cohort)
        ev_scalar = GMRFitnessEvaluator(toy_task, config, faulty)
        ev_batched = GMRFitnessEvaluator(toy_task, config, faulty)
        ev_scalar.best_prev_full = marker
        ev_batched.best_prev_full = marker
        with pytest.raises(ExtrapolatorFault):
            for member in copy.deepcopy(cohort):
                ev_scalar.evaluate(member)
        with pytest.raises(ExtrapolatorFault):
            ev_batched.evaluate_batch(copy.deepcopy(cohort))
        assert ev_batched.stats.evaluations == ev_scalar.stats.evaluations
