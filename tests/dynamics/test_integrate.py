"""Integration, clamping, divergence, and the modeling-task API."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dynamics.drivers import DriverTable
from repro.dynamics.integrate import (
    ClampSpec,
    SimulationDiverged,
    euler_steps,
    observation_error_stream,
    safe_simulate,
    simulate,
)
from repro.dynamics.system import ModelError, ProcessModel
from repro.dynamics.task import BAD_FITNESS, ModelingTask
from repro.expr import ast
from repro.expr.ast import Const, Param, State, Var
from tests.oracle import outcome, wavy_drivers


def decay_model() -> ProcessModel:
    """dB/dt = -k * B (exact solution known)."""
    return ProcessModel.from_equations(
        {"B": ast.mul(ast.neg(Param("k")), State("B"))}, var_order=("Vx",)
    )


def drivers(n: int = 50) -> DriverTable:
    return DriverTable.from_mapping({"Vx": np.zeros(n)})


class TestProcessModel:
    def test_unknown_state_rejected(self):
        with pytest.raises(ModelError, match="unknown states"):
            ProcessModel.from_equations(
                {"B": State("Other")}, var_order=()
            )

    def test_unknown_variable_rejected(self):
        with pytest.raises(ModelError, match="unknown variables"):
            ProcessModel({"B": Var("V")}, (), ())

    def test_param_order_stable(self):
        model = ProcessModel.from_equations(
            {"B": ast.add(Param("z"), Param("a"))},
            var_order=(),
            extra_params=("z",),
        )
        assert model.param_order == ("z", "a")

    def test_structure_key_ignores_commutative_order(self):
        left = ProcessModel.from_equations(
            {"B": ast.add(Param("a"), Param("b"))}, var_order=()
        )
        right = ProcessModel.from_equations(
            {"B": ast.add(Param("b"), Param("a"))}, var_order=()
        )
        assert left.structure_key() == right.structure_key()

    def test_interpret_matches_compiled(self):
        model = decay_model()
        compiled = model.compiled()((0.1,), (0.0,), (2.0,))
        interpreted = model.interpret_step((0.1,), (0.0,), (2.0,))
        assert compiled == pytest.approx(interpreted)

    def test_describe_mentions_states(self):
        assert "dB/dt" in decay_model().describe()


class TestEuler:
    def test_exponential_decay_approximation(self):
        model = decay_model()
        trajectory = simulate(model, (0.1,), drivers(30), (1.0,))
        # Euler decay: (1 - 0.1)^30
        assert trajectory[-1, 0] == pytest.approx(0.9**30, rel=1e-9)

    def test_clamping_floor(self):
        model = decay_model()
        clamp = ClampSpec(minimum=0.5, maximum=10.0)
        trajectory = simulate(model, (0.9,), drivers(30), (1.0,), clamp=clamp)
        assert trajectory.min() >= 0.5

    def test_nan_raises(self):
        model = ProcessModel.from_equations(
            {"B": ast.log(ast.sub(State("B"), State("B")))}, var_order=("Vx",)
        )
        # log(0) -> 0 is protected; build NaN via 0/0 unprotected? The
        # protected ops never produce NaN, so inject it via the driver.
        table = DriverTable.from_mapping({"Vx": [float("nan")] * 3})
        passthrough = ProcessModel.from_equations(
            {"B": Var("Vx")}, var_order=("Vx",)
        )
        with pytest.raises(SimulationDiverged):
            simulate(passthrough, (), table, (1.0,))

    def test_wrong_initial_state_length(self):
        with pytest.raises(ValueError):
            list(euler_steps(decay_model(), (0.1,), drivers(3), (1.0, 2.0)))

    def test_safe_simulate_returns_none_on_divergence(self):
        table = DriverTable.from_mapping({"Vx": [float("nan")] * 3})
        model = ProcessModel.from_equations(
            {"B": Var("Vx")}, var_order=("Vx",)
        )
        assert safe_simulate(model, (), table, (1.0,)) is None


class TestModelingTask:
    def _task(self) -> ModelingTask:
        model = decay_model()
        observed = simulate(model, (0.1,), drivers(40), (1.0,))[:, 0]
        return ModelingTask(
            drivers=drivers(40),
            observed=observed,
            target_state="B",
            state_names=("B",),
            initial_state=(1.0,),
        )

    def test_perfect_model_has_zero_rmse(self):
        task = self._task()
        assert task.rmse(decay_model(), (0.1,)) == pytest.approx(0.0, abs=1e-12)
        assert task.mae(decay_model(), (0.1,)) == pytest.approx(0.0, abs=1e-12)

    def test_wrong_parameter_scores_worse(self):
        task = self._task()
        assert task.rmse(decay_model(), (0.3,)) > 0.01

    def test_error_stream_matches_rmse(self):
        task = self._task()
        errors = list(task.error_stream(decay_model(), (0.25,)))
        rmse = math.sqrt(sum(errors) / len(errors))
        assert rmse == pytest.approx(task.rmse(decay_model(), (0.25,)))

    def test_trajectory_shape(self):
        task = self._task()
        series = task.trajectory(decay_model(), (0.1,))
        assert series.shape == (40,)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ModelingTask(
                drivers=drivers(10),
                observed=np.zeros(5),
                target_state="B",
                state_names=("B",),
                initial_state=(1.0,),
            )

    def test_unknown_target_rejected(self):
        with pytest.raises(ValueError):
            ModelingTask(
                drivers=drivers(5),
                observed=np.zeros(5),
                target_state="Q",
                state_names=("B",),
                initial_state=(1.0,),
            )

    @settings(max_examples=25, deadline=None)
    @given(st.floats(min_value=0.0, max_value=0.5))
    def test_rmse_nonnegative_and_finite_or_bad(self, k):
        task = self._task()
        value = task.rmse(decay_model(), (k,))
        assert value >= 0.0
        assert math.isfinite(value) or value == BAD_FITNESS


#: Two of these multiplied overflow the float range to +inf -- silently:
#: Python float multiplication saturates, it does not raise.
HUGE = 1e308


def inf_model() -> ProcessModel:
    """dB/dt = +inf at every step."""
    return ProcessModel.from_equations(
        {"B": ast.mul(Const(HUGE), Const(HUGE))}, var_order=("Vx",)
    )


def nan_model() -> ProcessModel:
    """dB/dt = inf - inf = NaN at every step."""
    return ProcessModel.from_equations(
        {
            "B": ast.sub(
                ast.mul(Const(HUGE), Const(HUGE)),
                ast.mul(Const(HUGE), Const(HUGE)),
            )
        },
        var_order=("Vx",),
    )


class TestDivergence:
    """ClampSpec / safe_simulate behaviour when models blow up."""

    def test_clamp_maps_infinities_into_the_band(self):
        clamp = ClampSpec(minimum=0.5, maximum=10.0)
        assert clamp.apply(float("inf")) == 10.0
        assert clamp.apply(float("-inf")) == 0.5

    def test_clamp_rejects_nan(self):
        with pytest.raises(SimulationDiverged):
            ClampSpec().apply(float("nan"))

    def test_inf_derivative_is_clamped_to_ceiling(self):
        clamp = ClampSpec(minimum=0.5, maximum=10.0)
        trajectory = simulate(inf_model(), (), drivers(5), (1.0,), clamp=clamp)
        assert (trajectory == 10.0).all()
        assert np.isfinite(trajectory).all()

    def test_negative_inf_derivative_is_clamped_to_floor(self):
        model = ProcessModel.from_equations(
            {"B": ast.neg(ast.mul(Const(HUGE), Const(HUGE)))},
            var_order=("Vx",),
        )
        clamp = ClampSpec(minimum=0.5, maximum=10.0)
        trajectory = simulate(model, (), drivers(5), (1.0,), clamp=clamp)
        assert (trajectory == 0.5).all()

    def test_nan_from_inf_minus_inf_raises(self):
        with pytest.raises(SimulationDiverged):
            simulate(nan_model(), (), drivers(5), (1.0,))

    def test_safe_simulate_swallows_nan_divergence(self):
        assert safe_simulate(nan_model(), (), drivers(5), (1.0,)) is None

    def test_safe_simulate_swallows_overflow_error(self):
        # Compiled step functions can raise OverflowError outright (e.g.
        # float ** with extreme operands); safe_simulate must treat that
        # as a divergence, not crash the evaluation loop.
        model = decay_model()

        def exploding_step(params, row, state):
            raise OverflowError("math range error")

        model._compiled = exploding_step
        assert safe_simulate(model, (0.1,), drivers(5), (1.0,)) is None

    def test_error_stream_raises_instead_of_yielding_nonfinite(self):
        # With an unbounded clamp the state really reaches +inf; the
        # stream must raise rather than emit inf/NaN squared errors into
        # fitness accumulation.
        unbounded = ClampSpec(
            minimum=-math.inf, maximum=math.inf
        )
        stream = observation_error_stream(
            inf_model(),
            (),
            drivers(5),
            (1.0,),
            np.zeros(5),
            "B",
            clamp=unbounded,
        )
        with pytest.raises(SimulationDiverged):
            list(stream)

    def test_error_stream_raises_on_nan_state(self):
        stream = observation_error_stream(
            nan_model(), (), drivers(5), (1.0,), np.zeros(5), "B"
        )
        with pytest.raises(SimulationDiverged):
            list(stream)


class TestObservationStream:
    def test_mismatched_observations_rejected(self):
        model = decay_model()
        with pytest.raises(ValueError):
            list(
                observation_error_stream(
                    model, (0.1,), drivers(5), (1.0,), np.zeros(3), "B"
                )
            )

    def test_unknown_state_rejected(self):
        model = decay_model()
        with pytest.raises(ValueError):
            list(
                observation_error_stream(
                    model, (0.1,), drivers(5), (1.0,), np.zeros(5), "Q"
                )
            )


def wavy_task(n: int = 30) -> ModelingTask:
    """A task whose driver ``Vx`` swings through [0.5, 1.5]."""
    return ModelingTask(
        drivers=wavy_drivers(n),
        observed=np.linspace(1.0, 3.0, n),
        target_state="B",
        state_names=("B",),
        initial_state=(2.0,),
    )


class TestFloatBoundary:
    """The scalar step loop runs over Python floats only: driver rows
    and observations are converted at the boundary, so no NumPy scalar
    leaks into a state or an error."""

    @pytest.mark.parametrize("use_compiled", [True, False])
    def test_error_stream_yields_python_floats(self, use_compiled):
        model = ProcessModel.from_equations(
            {"B": ast.sub(ast.mul(Param("k"), Var("Vx")), State("B"))},
            var_order=("Vx",),
        )
        errors = list(wavy_task().error_stream(model, (0.7,), use_compiled))
        assert len(errors) == 30
        assert all(type(error) is float for error in errors)

    @pytest.mark.parametrize(
        "equation",
        [
            # p * Vx * B overflows to +inf once B is clamped to 1e6; the
            # state saturates at the clamp's ceiling.
            "saturating",
            # p * Vx * B - p * Vx * B is inf - inf = NaN once the product
            # overflows; the rollout raises.
            "poisoned",
        ],
    )
    def test_overflow_is_silent_and_paths_agree(self, equation):
        product = ast.mul(ast.mul(Param("p"), Var("Vx")), State("B"))
        rhs = product if equation == "saturating" else ast.sub(product, product)
        model = ProcessModel.from_equations({"B": rhs}, var_order=("Vx",))
        task = wavy_task()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            compiled = outcome(task.error_stream(model, (HUGE,)))
            interpreted = outcome(
                task.error_stream(model, (HUGE,), use_compiled=False)
            )
        assert compiled == interpreted
        values, error = compiled
        if equation == "saturating":
            assert error is None and len(values) == 30
        else:
            assert error == (SimulationDiverged, "state became NaN")
            assert len(values) < 30
