"""Forward integration of process models over driver data.

The river models are integrated with a daily explicit Euler step (the
standard choice for this family of ecological models).  State trajectories
are clamped to a physically plausible band, and divergence (NaN) is
reported via :class:`SimulationDiverged` so that fitness evaluation can
assign the worst score instead of propagating bad floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from repro.dynamics.drivers import DriverTable
from repro.dynamics.system import ProcessModel


class SimulationDiverged(ArithmeticError):
    """Raised when a simulated state becomes NaN."""


@dataclass(frozen=True)
class ClampSpec:
    """Per-state clamping band applied after every step.

    Biomass states cannot go negative and unbounded exponential growth is
    unphysical; the clamp keeps evolved models inside a sane envelope so
    one bad individual cannot stall the whole evolutionary run.
    """

    minimum: float = 1e-3
    maximum: float = 1e6

    def apply(self, value: float) -> float:
        if value != value:  # NaN
            raise SimulationDiverged("state became NaN")
        if value < self.minimum:
            return self.minimum
        if value > self.maximum:
            return self.maximum
        return value


def euler_steps(
    model: ProcessModel,
    params: Sequence[float],
    drivers: DriverTable,
    initial_state: Sequence[float],
    dt: float = 1.0,
    clamp: ClampSpec = ClampSpec(),
    use_compiled: bool = True,
) -> Iterator[tuple[float, ...]]:
    """Yield the state after each Euler step, one per driver row.

    The state yielded at step ``t`` is the state *after* consuming driver
    row ``t``; the initial state itself is not yielded.

    Args:
        model: The process model to integrate.
        params: Parameter values following ``model.param_order``.
        drivers: Driver table whose columns follow ``model.var_order``.
        initial_state: Starting values following ``model.state_names``.
        dt: Step size (days).
        clamp: Clamping band applied to every state after each step.
        use_compiled: When False, step through the reference interpreter
            (the Figure 10 "no runtime compilation" configuration).
    """
    rows, params, state, step = _euler_inputs(
        model, params, drivers, initial_state, use_compiled
    )
    indices = range(len(state))
    for row in rows:
        derivatives = step(params, row, state)
        for index in indices:
            state[index] = clamp.apply(state[index] + dt * derivatives[index])
        yield tuple(state)


def _euler_inputs(
    model: ProcessModel,
    params: Sequence[float],
    drivers: DriverTable,
    initial_state: Sequence[float],
    use_compiled: bool,
) -> tuple[list[tuple[float, ...]], tuple[float, ...], list[float], Callable]:
    """What an Euler loop reads: the driver rows in ``model.var_order``,
    the parameter tuple, the state as a list of floats to update in
    place, and the step function (compiled or interpreted)."""
    if drivers.names != model.var_order:
        drivers = drivers.select(model.var_order)
    params = tuple(params)
    state = [float(value) for value in initial_state]
    if len(state) != len(model.state_names):
        raise ValueError(
            f"initial state has {len(state)} entries, model has "
            f"{len(model.state_names)} states"
        )
    step = model.compiled() if use_compiled else model.interpret_step
    return drivers.rows(), params, state, step


def simulate(
    model: ProcessModel,
    params: Sequence[float],
    drivers: DriverTable,
    initial_state: Sequence[float],
    dt: float = 1.0,
    clamp: ClampSpec = ClampSpec(),
    use_compiled: bool = True,
) -> np.ndarray:
    """Integrate and return the full trajectory, shape ``(T, n_states)``.

    Raises:
        SimulationDiverged: If any state becomes NaN.
    """
    trajectory = np.empty((len(drivers), len(model.state_names)), dtype=float)
    stepper = euler_steps(
        model, params, drivers, initial_state, dt, clamp, use_compiled
    )
    for index, state in enumerate(stepper):
        trajectory[index] = state
    return trajectory


def is_finite_trajectory(trajectory: np.ndarray) -> bool:
    """True if every entry of the trajectory is finite."""
    return bool(np.all(np.isfinite(trajectory)))


def safe_simulate(
    model: ProcessModel,
    params: Sequence[float],
    drivers: DriverTable,
    initial_state: Sequence[float],
    dt: float = 1.0,
    clamp: ClampSpec = ClampSpec(),
) -> np.ndarray | None:
    """Like :func:`simulate`, but return None on divergence."""
    try:
        trajectory = simulate(model, params, drivers, initial_state, dt, clamp)
    except (SimulationDiverged, OverflowError):
        return None
    if not is_finite_trajectory(trajectory):
        return None
    return trajectory


def observation_error_stream(
    model: ProcessModel,
    params: Sequence[float],
    drivers: DriverTable,
    initial_state: Sequence[float],
    observed: Sequence[float] | np.ndarray,
    target_state: str,
    dt: float = 1.0,
    clamp: ClampSpec = ClampSpec(),
    use_compiled: bool = True,
) -> Iterator[float]:
    """Yield per-step squared errors between a state and observations.

    This is the *fitness case* stream consumed by evaluation
    short-circuiting (Algorithm 1): one squared error per time step,
    produced incrementally so evaluation can stop early.

    The stream steps the model itself, with :func:`euler_steps`'
    arithmetic and :meth:`ClampSpec.apply`'s checks inlined: one step
    call, the clamped states written in place and one error per row.
    ``observed`` may be a list of Python floats (read as it is, as
    :class:`~repro.dynamics.task.ModelingTask` passes it) or anything
    ``np.asarray`` takes.

    Raises:
        SimulationDiverged: If the simulated state becomes NaN (callers
            should score such individuals with the worst fitness).
    """
    try:
        target_index = model.state_names.index(target_state)
    except ValueError:
        raise ValueError(
            f"model has no state {target_state!r}; states: {model.state_names}"
        ) from None
    # Python floats, like the driver rows: a NumPy scalar observation
    # would make every error a NumPy scalar.
    if not isinstance(observed, list):
        observed = np.asarray(observed, dtype=float).tolist()
    if len(observed) != len(drivers):
        raise ValueError(
            f"{len(observed)} observations for {len(drivers)} driver rows"
        )
    rows, params, state, step = _euler_inputs(
        model, params, drivers, initial_state, use_compiled
    )
    low, high = clamp.minimum, clamp.maximum
    indices = range(len(state))
    isfinite = math.isfinite
    for row, target in zip(rows, observed):
        derivatives = step(params, row, state)
        for index in indices:
            value = state[index] + dt * derivatives[index]
            if value != value:  # NaN
                raise SimulationDiverged("state became NaN")
            if value < low:
                value = low
            elif value > high:
                value = high
            state[index] = value
        predicted = state[target_index]
        if not isfinite(predicted):
            raise SimulationDiverged("predicted value is not finite")
        error = predicted - target
        yield error * error
