"""RK4's compiled/interpreted parity and its NaN handling.

The Euler stream's agreement with the interpreter is checked by the
differential oracle harness (``tests/test_oracle.py``).
"""

import numpy as np
import pytest

from repro.dynamics.drivers import DriverTable
from repro.dynamics.integrate import SimulationDiverged, euler_steps, rk4_steps
from repro.dynamics.system import ProcessModel
from repro.expr import ast
from repro.expr.ast import Const, Param, State, Var
from tests.oracle import HUGE, logistic_model, poison_model, wavy_drivers


class TestRk4Parity:
    def test_interpreter_matches_compiled(self):
        model = logistic_model()
        drivers = wavy_drivers(25)
        vector = (0.1, 0.01, 0.2)
        compiled = list(rk4_steps(model, vector, drivers, (2.0,)))
        interpreted = list(
            rk4_steps(model, vector, drivers, (2.0,), use_compiled=False)
        )
        assert compiled == pytest.approx(interpreted)

    def test_nan_slope_raises_like_euler(self):
        model = poison_model()
        drivers = DriverTable.from_mapping({"Vx": np.ones(5)})
        poisoned = (HUGE, HUGE)
        with pytest.raises(SimulationDiverged):
            list(rk4_steps(model, poisoned, drivers, (2.0,)))
        with pytest.raises(SimulationDiverged):
            list(euler_steps(model, poisoned, drivers, (2.0,)))

    def test_mid_step_nan_is_caught(self):
        # B starts safe but the k2 midpoint state crosses into NaN
        # territory: dB/dt = p*(B-2)*HUGE - q*(B-2)*HUGE is 0 at B=2
        # exactly, NaN elsewhere; k1 = 0 keeps the midpoint at B=2 only
        # if dt*k1/2 stays 0 -- perturb via the driver term to move it.
        term = ast.mul(
            ast.sub(State("B"), Const(2.0)), Const(HUGE)
        )
        model = ProcessModel.from_equations(
            {
                "B": ast.add(
                    ast.sub(
                        ast.mul(Param("p"), term), ast.mul(Param("q"), term)
                    ),
                    ast.mul(Const(1.0), Var("Vx")),
                )
            },
            var_order=("Vx",),
        )
        drivers = DriverTable.from_mapping({"Vx": np.ones(4)})
        with pytest.raises(SimulationDiverged):
            list(rk4_steps(model, (HUGE, HUGE), drivers, (2.0,)))
