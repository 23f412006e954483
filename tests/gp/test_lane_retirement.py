"""ES lane retirement: vector rollouts stop once Algorithm 1 is done.

With evaluation short-circuiting on and a finite ``best_prev_full``, the
batched and fused rollouts of ``GMRFitnessEvaluator.evaluate_batch``
stop integrating a column once Algorithm 1 would cut it against the
marker the batch started with, and stop altogether once every column
has retired or diverged.  The marker only falls while the batch is
replayed, so none of this may change what the evaluator says: fitness,
``fully_evaluated``, the marker and every Algorithm 1 counter must match
sequential ``evaluate`` calls, for any threshold and any pure
extrapolator, monotone or not.  Only ``steps_integrated`` moves.
"""

from __future__ import annotations

import copy
import dataclasses
import math

import numpy as np
import pytest

import repro.gp.fitness as fitness_module
from repro.dynamics.drivers import DriverTable
from repro.dynamics.integrate import (
    _STOP_CHECK_ROWS,
    batched_euler_rollout,
    fused_euler_rollout,
)
from repro.dynamics.system import ProcessModel, compile_cohort
from repro.expr import ast
from repro.expr.ast import Param, State, Var
from repro.gp.fitness import (
    GMRFitnessEvaluator,
    linear_extrapolation,
    pessimistic_extrapolation,
)
from tests.gp.test_batched_fitness import assert_equivalent, make_cohort

HUGE = 1e308


def wobbly_extrapolation(fitness: float, cases_done: int, total: int) -> float:
    """A pure extrapolator that is not monotone in the partial RMSE."""
    if not math.isfinite(fitness):
        return fitness
    return fitness * (1.0 + 0.9 * math.cos(fitness + cases_done))


EXTRAPOLATORS = {
    "linear": linear_extrapolation,
    "pessimistic": pessimistic_extrapolation,
    "non-monotone": wobbly_extrapolation,
}


def poisoned_task(task, row: int | None):
    """``task`` with a NaN driver value at ``row``: every candidate that
    reads the driver diverges there, the others run on."""
    if row is None:
        return task
    vx = task.drivers.values[:, 0].copy()
    vx[row] = np.nan
    return dataclasses.replace(
        task, drivers=DriverTable.from_mapping({"Vx": vx})
    )


def marker_for(task, config, cohort) -> float:
    """A finite starting ``best_prev_full`` that a quarter of the cohort
    beats, so members lower the marker while the batch is replayed."""
    reference = GMRFitnessEvaluator(
        task=task, config=dataclasses.replace(config, es_threshold=None)
    )
    fitnesses = sorted(
        fitness
        for fitness in (
            reference.evaluate(member) for member in copy.deepcopy(cohort)
        )
        if fitness < 1e9
    )
    if not fitnesses:
        return 1.0
    return fitnesses[len(fitnesses) // 4]


class RolloutLog:
    """Records every vector rollout the evaluator runs, with its number
    of live columns (a fused cohort's padding lanes excluded)."""

    def __init__(self, monkeypatch) -> None:
        self.batched: list = []
        self.fused: list = []
        live_lanes: list[int] = []
        for name, log in (
            ("batched_euler_rollout", self.batched),
            ("fused_euler_rollout", self.fused),
        ):
            original = getattr(fitness_module, name)

            def wrapper(*args, _original=original, _log=log, **kwargs):
                rollout = _original(*args, **kwargs)
                if _log is self.fused:
                    _log.append((live_lanes.pop(), rollout))
                else:
                    _log.append((args[1].shape[1], rollout))
                return rollout

            monkeypatch.setattr(fitness_module, name, wrapper)
        simulate = GMRFitnessEvaluator._simulate_cohort_inner

        def cohort(evaluator, fused, kernel):
            live_lanes.append(sum(len(group.params) for group in fused.groups))
            simulate(evaluator, fused, kernel)

        monkeypatch.setattr(
            GMRFitnessEvaluator, "_simulate_cohort_inner", cohort
        )

    def columns(self) -> int:
        return sum(live for live, __ in self.batched + self.fused)

    def rows_times_columns(self) -> int:
        return sum(
            live * rollout.rows_run
            for live, rollout in self.batched + self.fused
        )

    def rollouts(self):
        return [rollout for __, rollout in self.batched + self.fused]

    def retired(self, n_cases: int) -> bool:
        """Whether any column stopped before the horizon without diverging."""
        return any(
            rollout.n_steps < n_cases
            and bool((rollout.diverged_at == rollout.n_steps).any())
            for rollout in self.rollouts()
        )


def run_both(task, config, cohort, marker, extrapolate):
    pop_scalar = copy.deepcopy(cohort)
    pop_batched = copy.deepcopy(cohort)
    ev_scalar = GMRFitnessEvaluator(task, config, extrapolate)
    ev_batched = GMRFitnessEvaluator(task, config, extrapolate)
    ev_scalar.best_prev_full = marker
    ev_batched.best_prev_full = marker
    for member in pop_scalar:
        ev_scalar.evaluate(member)
    ev_batched.evaluate_batch(pop_batched)
    return ev_scalar, ev_batched, pop_scalar, pop_batched


class TestRetirementEquivalence:
    @pytest.mark.parametrize(
        "nan_row", [None, 20, 70], ids=["clean", "nan20", "nan70"]
    )
    @pytest.mark.parametrize("fuse", [False, True], ids=["batched", "fused"])
    @pytest.mark.parametrize("width", [3, 64], ids=["k3", "k64"])
    @pytest.mark.parametrize("extrapolator", sorted(EXTRAPOLATORS))
    @pytest.mark.parametrize("threshold", [0.5, 0.7, 1.0, 1.3])
    def test_batch_matches_sequential_evaluate(
        self,
        toy_grammar,
        toy_knowledge,
        toy_task,
        small_config,
        monkeypatch,
        threshold,
        extrapolator,
        width,
        fuse,
        nan_row,
    ):
        task = poisoned_task(toy_task, nan_row)
        config = dataclasses.replace(
            small_config,
            es_threshold=threshold,
            kernel_batch_size=width,
            fuse_cohort_size=8 if fuse else 1,
            kernel_min_batch=1,
        )
        cohort = make_cohort(toy_grammar, toy_knowledge, config, seed=5)
        marker = marker_for(task, config, cohort)
        log = RolloutLog(monkeypatch)
        ev_scalar, ev_batched, pop_scalar, pop_batched = run_both(
            task, config, cohort, marker, EXTRAPOLATORS[extrapolator]
        )

        assert_equivalent(ev_scalar, ev_batched, pop_scalar, pop_batched)
        # The scalar loop simulates exactly the cases it counts.
        assert ev_scalar.stats.steps_integrated == (
            ev_scalar.stats.steps_evaluated
        )
        if nan_row is None:
            # Members beat the starting marker mid-cohort.
            assert ev_batched.best_prev_full < marker

        # Every non-cached member runs through a vector rollout
        # (kernel_min_batch=1), so the integrated rows are exactly the
        # rollouts' rows run times their live columns.
        n_cases = task.n_cases
        integrated = ev_batched.stats.steps_integrated
        assert integrated == log.rows_times_columns()
        assert log.columns() == (
            ev_batched.stats.fused_columns
            + sum(live for live, __ in log.batched)
        )
        assert bool(log.fused) == fuse
        assert log.retired(n_cases)
        assert integrated < log.columns() * n_cases
        for rollout in log.rollouts():
            assert rollout.rows_run == rollout.n_steps

    @pytest.mark.parametrize("fuse", [False, True], ids=["batched", "fused"])
    def test_retirement_saves_work_and_changes_nothing_else(
        self,
        toy_grammar,
        toy_knowledge,
        toy_task,
        small_config,
        monkeypatch,
        fuse,
    ):
        config = dataclasses.replace(
            small_config,
            fuse_cohort_size=8 if fuse else 1,
            kernel_min_batch=1,
        )
        cohort = make_cohort(toy_grammar, toy_knowledge, config, seed=5)
        marker = marker_for(toy_task, config, cohort)
        log = RolloutLog(monkeypatch)
        retiring = GMRFitnessEvaluator(task=toy_task, config=config)
        retiring.best_prev_full = marker
        pop_retiring = copy.deepcopy(cohort)
        retiring.evaluate_batch(pop_retiring)
        assert log.retired(toy_task.n_cases)

        # The same batch with every rollout run to the horizon: the
        # curves grow as before but no column ever retires.
        build = fitness_module._LaneCurves.__call__

        def never_stop(self, states, diverged_at, rows):
            build(self, states, diverged_at, rows)
            return False

        monkeypatch.setattr(fitness_module._LaneCurves, "__call__", never_stop)
        full = GMRFitnessEvaluator(task=toy_task, config=config)
        full.best_prev_full = marker
        pop_full = copy.deepcopy(cohort)
        full.evaluate_batch(pop_full)

        assert [m.fitness for m in pop_retiring] == [m.fitness for m in pop_full]
        assert [m.fully_evaluated for m in pop_retiring] == [
            m.fully_evaluated for m in pop_full
        ]
        assert retiring.best_prev_full == full.best_prev_full
        saved = dataclasses.asdict(retiring.stats)
        ran = dataclasses.asdict(full.stats)
        assert saved["steps_integrated"] < ran["steps_integrated"]
        for name in saved:
            if name == "steps_integrated" or isinstance(saved[name], float):
                continue
            assert saved[name] == ran[name], name

    def test_no_retirement_without_a_finite_marker(
        self, toy_grammar, toy_knowledge, toy_task, small_config, monkeypatch
    ):
        config = dataclasses.replace(small_config, kernel_min_batch=1)
        cohort = make_cohort(toy_grammar, toy_knowledge, config, seed=5)
        for es_threshold, marker in ((1.3, math.inf), (None, 30.0)):
            log = RolloutLog(monkeypatch)
            evaluator = GMRFitnessEvaluator(
                task=toy_task,
                config=dataclasses.replace(config, es_threshold=es_threshold),
            )
            evaluator.best_prev_full = marker
            evaluator.evaluate_batch(copy.deepcopy(cohort))
            assert log.rollouts()
            assert all(
                rollout.n_steps == toy_task.n_cases
                for rollout in log.rollouts()
            )


class ExtrapolatorFault(RuntimeError):
    pass


class TestFaultSeam:
    @pytest.mark.parametrize("fuse", [False, True], ids=["batched", "fused"])
    @pytest.mark.parametrize("after", [0, 40], ids=["always", "late"])
    def test_extrapolator_error_propagates_like_scalar(
        self,
        toy_grammar,
        toy_knowledge,
        toy_task,
        small_config,
        monkeypatch,
        fuse,
        after,
    ):
        """The error leaves evaluate_batch at the member where evaluate
        raises it, and never reaches the kernel degradation ladder."""

        def faulty(fitness, cases_done, total):
            if cases_done > after:
                raise ExtrapolatorFault(f"cannot extrapolate at {cases_done}")
            return fitness

        config = dataclasses.replace(
            small_config,
            fuse_cohort_size=8 if fuse else 1,
            kernel_min_batch=1,
        )
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
        assert ev_batched.stats.kernel_fallbacks == 0
        assert ev_batched.stats.fusion_fallbacks == 0
        assert not ev_batched._kernel_blocklist

    def test_replay_past_a_retired_column_raises(
        self, toy_grammar, toy_knowledge, toy_task, small_config, monkeypatch
    ):
        """A column retired against a marker the replay does not honour
        must not be scored from rows that were never integrated."""
        setup = fitness_module._LaneCurves.__init__

        def overeager(self, evaluator, target_index, curves):
            setup(self, evaluator, target_index, curves)
            self._best = 1e-9  # retires every column at the first check

        monkeypatch.setattr(fitness_module._LaneCurves, "__init__", overeager)
        config = dataclasses.replace(small_config, kernel_min_batch=1)
        cohort = make_cohort(toy_grammar, toy_knowledge, config, seed=5)
        evaluator = GMRFitnessEvaluator(task=toy_task, config=config)
        evaluator.best_prev_full = 1e12
        with pytest.raises(AssertionError, match="without a cut"):
            evaluator.evaluate_batch(cohort)


def logistic_model() -> ProcessModel:
    """dB/dt = r*B - d*B*B + c*Vx."""
    return ProcessModel.from_equations(
        {
            "B": ast.add(
                ast.sub(
                    ast.mul(Param("r"), State("B")),
                    ast.mul(Param("d"), ast.mul(State("B"), State("B"))),
                ),
                ast.mul(Param("c"), Var("Vx")),
            )
        },
        var_order=("Vx",),
    )


def poison_model() -> ProcessModel:
    """dB/dt = p*term - q*term: NaN via inf - inf once Vx is non-zero."""
    term = ast.mul(ast.mul(Var("Vx"), State("B")), State("B"))
    return ProcessModel.from_equations(
        {"B": ast.sub(ast.mul(Param("p"), term), ast.mul(Param("q"), term))},
        var_order=("Vx",),
    )


def wavy_drivers(n: int) -> DriverTable:
    day = np.arange(n, dtype=float)
    return DriverTable.from_mapping(
        {"Vx": 1.0 + 0.5 * np.sin(2 * np.pi * day / 17.0)}
    )


class StopAfter:
    """A stop callback that records its calls and stops on call ``n``."""

    def __init__(self, n: int | None) -> None:
        self.n = n
        self.calls: list[tuple[int, bool]] = []

    def __call__(self, states, diverged_at, rows) -> bool:
        assert np.isfinite(states[:rows]).all()
        self.calls.append((rows, bool((diverged_at < rows).any())))
        return self.n is not None and len(self.calls) >= self.n


class TestRolloutStop:
    def columns(self):
        return np.array(
            [(0.1, 0.01, 0.2), (0.3, 0.02, 0.1), (0.2, 0.05, 0.4)]
        ).T

    def test_without_callback_nothing_changes(self):
        model = logistic_model()
        drivers = wavy_drivers(100)
        plain = batched_euler_rollout(model, self.columns(), drivers, (2.0,))
        never = StopAfter(None)
        watched = batched_euler_rollout(
            model, self.columns(), drivers, (2.0,), stop=never
        )
        assert plain.n_steps == plain.rows_run == 100
        assert np.array_equal(plain.states, watched.states)
        assert np.array_equal(plain.diverged_at, watched.diverged_at)
        assert [rows for rows, __ in never.calls] == [
            _STOP_CHECK_ROWS * i for i in range(1, 100 // _STOP_CHECK_ROWS + 1)
        ]

    def test_stop_truncates_to_rows_run(self):
        model = logistic_model()
        drivers = wavy_drivers(100)
        full = batched_euler_rollout(model, self.columns(), drivers, (2.0,))
        stop = StopAfter(2)
        rollout = batched_euler_rollout(
            model, self.columns(), drivers, (2.0,), stop=stop
        )
        rows = 2 * _STOP_CHECK_ROWS
        assert rollout.n_steps == rollout.rows_run == rows
        assert np.array_equal(rollout.states, full.states[:rows])
        # Retired columns never diverged: they only ran out of rows.
        assert (rollout.diverged_at == rows).all()
        assert not rollout.diverged.any()

    def test_diverged_columns_keep_their_row(self):
        model = poison_model()
        vx = np.zeros(100)
        vx[5] = 1.0  # the poisoned column goes NaN at row 5
        drivers = DriverTable.from_mapping({"Vx": vx})
        params = np.array([(1e-3, 1e-3), (HUGE, HUGE)]).T
        rollout = batched_euler_rollout(
            model, params, drivers, (2.0,), stop=StopAfter(1)
        )
        assert rollout.n_steps == _STOP_CHECK_ROWS
        assert list(rollout.diverged_at) == [_STOP_CHECK_ROWS, 5]
        assert list(rollout.diverged) == [False, True]

    def test_all_dead_stops_at_last_divergence(self):
        model = poison_model()
        vx = np.zeros(100)
        vx[7] = 1.0
        drivers = DriverTable.from_mapping({"Vx": vx})
        params = np.array([(HUGE, HUGE), (HUGE, HUGE)]).T
        never = StopAfter(None)
        rollout = batched_euler_rollout(
            model, params, drivers, (2.0,), stop=never
        )
        plain = batched_euler_rollout(model, params, drivers, (2.0,))
        assert never.calls == []
        assert rollout.n_steps == rollout.rows_run == plain.rows_run == 8
        assert plain.n_steps == 100
        assert (rollout.diverged_at == 7).all()
        assert np.array_equal(rollout.states, plain.states[:8])

    def test_fused_rollout_stops_the_same_way(self):
        models = [logistic_model(), logistic_model()]
        drivers = wavy_drivers(100)
        kernel = compile_cohort(models, 4)
        params = np.hstack([np.repeat(self.columns()[:, :1], 4, axis=1)] * 2)
        full = fused_euler_rollout(
            kernel, params, drivers, (2.0,), models[0].var_order
        )
        rollout = fused_euler_rollout(
            kernel,
            params,
            drivers,
            (2.0,),
            models[0].var_order,
            stop=StopAfter(1),
        )
        assert rollout.n_steps == _STOP_CHECK_ROWS
        assert np.array_equal(rollout.states, full.states[:_STOP_CHECK_ROWS])
        assert (rollout.diverged_at == _STOP_CHECK_ROWS).all()
