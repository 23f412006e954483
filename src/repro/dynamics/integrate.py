"""Forward integration of process models over driver data.

The river models are integrated with a daily explicit Euler step (the
standard choice for this family of ecological models); an RK4 stepper is
provided for callers that need higher-order accuracy.  State trajectories
are clamped to a physically plausible band, and divergence (NaN) is
reported via :class:`SimulationDiverged` so that fitness evaluation can
assign the worst score instead of propagating bad floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

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
    if drivers.names != model.var_order:
        drivers = drivers.select(model.var_order)
    params = tuple(params)
    state = list(float(value) for value in initial_state)
    n_states = len(state)
    if n_states != len(model.state_names):
        raise ValueError(
            f"initial state has {n_states} entries, model has "
            f"{len(model.state_names)} states"
        )
    step = model.compiled() if use_compiled else model.interpret_step
    rows = drivers.rows()
    for row in rows:
        derivatives = step(params, row, state)
        for index in range(n_states):
            state[index] = clamp.apply(state[index] + dt * derivatives[index])
        yield tuple(state)


def _checked_slopes(slopes: tuple[float, ...]) -> tuple[float, ...]:
    """Raise :class:`SimulationDiverged` if any slope is NaN.

    RK4 evaluates the step function at intermediate points; a NaN in an
    intermediate slope (``k2``/``k3``) would otherwise propagate silently
    through the combined update, so slopes get the same loud-failure
    treatment :meth:`ClampSpec.apply` gives states.
    """
    for value in slopes:
        if value != value:  # NaN
            raise SimulationDiverged("slope became NaN")
    return slopes


def rk4_steps(
    model: ProcessModel,
    params: Sequence[float],
    drivers: DriverTable,
    initial_state: Sequence[float],
    dt: float = 1.0,
    clamp: ClampSpec = ClampSpec(),
    use_compiled: bool = True,
) -> Iterator[tuple[float, ...]]:
    """Yield states from a classical Runge-Kutta-4 integration.

    Driver values are held constant within a step (they are daily
    observations, so sub-step interpolation would be spurious precision).
    Matches :func:`euler_steps` error behaviour: a NaN in any slope or
    updated state raises :class:`SimulationDiverged`, and ``use_compiled``
    selects between the compiled step function and the reference
    interpreter.
    """
    if drivers.names != model.var_order:
        drivers = drivers.select(model.var_order)
    params = tuple(params)
    state = [float(value) for value in initial_state]
    n_states = len(state)
    step = model.compiled() if use_compiled else model.interpret_step
    for row in drivers.rows():
        k1 = _checked_slopes(step(params, row, state))
        mid1 = [state[i] + 0.5 * dt * k1[i] for i in range(n_states)]
        k2 = _checked_slopes(step(params, row, mid1))
        mid2 = [state[i] + 0.5 * dt * k2[i] for i in range(n_states)]
        k3 = _checked_slopes(step(params, row, mid2))
        end = [state[i] + dt * k3[i] for i in range(n_states)]
        k4 = _checked_slopes(step(params, row, end))
        for i in range(n_states):
            increment = (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]) / 6.0
            state[i] = clamp.apply(state[i] + dt * increment)
        yield tuple(state)


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
    observed: np.ndarray,
    target_state: str,
    dt: float = 1.0,
    clamp: ClampSpec = ClampSpec(),
    use_compiled: bool = True,
) -> Iterator[float]:
    """Yield per-step squared errors between a state and observations.

    This is the *fitness case* stream consumed by evaluation
    short-circuiting (Algorithm 1): one squared error per time step,
    produced incrementally so evaluation can stop early.

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
    observed = np.asarray(observed, dtype=float)
    if len(observed) != len(drivers):
        raise ValueError(
            f"{len(observed)} observations for {len(drivers)} driver rows"
        )
    stepper = euler_steps(
        model, params, drivers, initial_state, dt, clamp, use_compiled
    )
    for step_index, state in enumerate(stepper):
        predicted = state[target_index]
        if not math.isfinite(predicted):
            raise SimulationDiverged("predicted value is not finite")
        error = predicted - observed[step_index]
        yield error * error
