"""Modeling tasks: drivers + observations + a target state to match.

A :class:`ModelingTask` is the generic "fit this dynamic system to these
observations" problem description shared by GMR, GGGP, and all nine model
calibration baselines: simulate a candidate model over the driver table
and score one state's trajectory against observations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.dynamics.drivers import DriverTable
from repro.dynamics.integrate import (
    ClampSpec,
    SimulationDiverged,
    observation_error_stream,
    simulate,
)
from repro.dynamics.system import ProcessModel

#: Fitness assigned to diverging / non-finite simulations.
BAD_FITNESS = 1e15


def stream_rmse(errors: Iterable[float]) -> float:
    """The RMSE of a squared-error stream read to its end.

    :data:`BAD_FITNESS` if the stream diverges (``SimulationDiverged``
    or ``OverflowError``), is empty, or sums to a non-finite value.
    Every task's ``rmse`` is this over its ``error_stream``.
    """
    total = 0.0
    count = 0
    try:
        for squared_error in errors:
            total += squared_error
            count += 1
    except (SimulationDiverged, OverflowError):
        return BAD_FITNESS
    if count == 0 or not math.isfinite(total):
        return BAD_FITNESS
    return math.sqrt(total / count)


@dataclass
class ModelingTask:
    """Fit a process model to observations of one state variable.

    Attributes:
        drivers: Exogenous driver table; its column order is the variable
            order candidate models must use.
        observed: Observations of ``target_state``, one per driver row.
        target_state: Name of the observed state.
        state_names: All state names, fixing equation order.
        initial_state: Initial state values, following ``state_names``.
        dt: Integration step (days).
        clamp: State clamping band.
    """

    drivers: DriverTable
    observed: np.ndarray
    target_state: str
    state_names: tuple[str, ...]
    initial_state: tuple[float, ...]
    dt: float = 1.0
    clamp: ClampSpec = field(default_factory=ClampSpec)

    def __post_init__(self) -> None:
        self.observed = np.asarray(self.observed, dtype=float)
        if len(self.observed) != len(self.drivers):
            raise ValueError(
                f"{len(self.observed)} observations for "
                f"{len(self.drivers)} driver rows"
            )
        if self.target_state not in self.state_names:
            raise ValueError(
                f"target state {self.target_state!r} not in {self.state_names}"
            )
        if len(self.initial_state) != len(self.state_names):
            raise ValueError("initial_state length must match state_names")
        # The error stream reads Python floats (a NumPy scalar
        # observation would make every error a NumPy scalar); convert
        # once here, not on every evaluation.
        self._observed_floats = self.observed.tolist()

    @property
    def n_cases(self) -> int:
        """Number of fitness cases (time steps)."""
        return len(self.drivers)

    @property
    def var_order(self) -> tuple[str, ...]:
        return self.drivers.names

    def error_stream(
        self,
        model: ProcessModel,
        params: Sequence[float],
        use_compiled: bool = True,
    ) -> Iterator[float]:
        """Per-step squared-error stream (for short-circuited evaluation)."""
        return observation_error_stream(
            model,
            params,
            self.drivers,
            self.initial_state,
            self._observed_floats,
            self.target_state,
            dt=self.dt,
            clamp=self.clamp,
            use_compiled=use_compiled,
        )

    def rmse(
        self,
        model: ProcessModel,
        params: Sequence[float],
        use_compiled: bool = True,
    ) -> float:
        """Full-trajectory RMSE; :data:`BAD_FITNESS` on divergence."""
        return stream_rmse(self.error_stream(model, params, use_compiled))

    def mae(self, model: ProcessModel, params: Sequence[float]) -> float:
        """Full-trajectory mean absolute error; BAD_FITNESS on divergence."""
        trajectory = self.trajectory(model, params)
        if trajectory is None:
            return BAD_FITNESS
        return float(np.mean(np.abs(trajectory - self.observed)))

    def trajectory(
        self,
        model: ProcessModel,
        params: Sequence[float],
    ) -> np.ndarray | None:
        """The simulated series of the target state; None on divergence."""
        try:
            states = simulate(
                model,
                params,
                self.drivers,
                self.initial_state,
                dt=self.dt,
                clamp=self.clamp,
            )
        except (SimulationDiverged, OverflowError):
            return None
        index = model.state_names.index(self.target_state)
        series = states[:, index]
        if not np.all(np.isfinite(series)):
            return None
        return series

    def slice(self, start: int, stop: int) -> "ModelingTask":
        """A time-sliced copy (e.g. to split train/test periods).

        The initial state of the sliced task is the original initial state
        when ``start == 0``; otherwise callers should supply observations
        of the state at ``start`` via :meth:`with_initial_state`.
        """
        return ModelingTask(
            drivers=self.drivers.slice(start, stop),
            observed=self.observed[start:stop],
            target_state=self.target_state,
            state_names=self.state_names,
            initial_state=self.initial_state,
            dt=self.dt,
            clamp=self.clamp,
        )

    def with_initial_state(self, initial_state: Sequence[float]) -> "ModelingTask":
        """A copy with a different initial state."""
        return ModelingTask(
            drivers=self.drivers,
            observed=self.observed,
            target_state=self.target_state,
            state_names=self.state_names,
            initial_state=tuple(initial_state),
            dt=self.dt,
            clamp=self.clamp,
        )
