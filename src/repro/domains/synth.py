"""The one data pipeline of the benchmark domains' synthetic datasets.

The Lotka-Volterra and SIR plugins both synthesise their data through
:class:`SyntheticDomain`: seasonal drivers with AR(1) weather noise, the
hidden ground truth integrated with an Euler stepper that injects
multiplicative *process noise* at every step, and observations of the
target state with multiplicative measurement noise, windowed into
train/test :class:`~repro.dynamics.task.ModelingTask` s.  Every random
draw comes from a ``numpy`` generator seeded from the dataset config, so
a fixed seed reproduces the dataset bit-identically -- across calls and
across process restarts (the conformance suite checks the latter in a
subprocess).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from repro.dynamics.drivers import DriverTable
from repro.dynamics.integrate import ClampSpec
from repro.dynamics.system import ProcessModel
from repro.dynamics.task import ModelingTask

DAYS_PER_YEAR = 365


@dataclass(frozen=True)
class SyntheticDataset:
    """One benchmark domain's synthesised problem instance.

    Attributes:
        drivers: Exogenous driver table (full horizon).
        observed: Noisy observations of the target state.
        states: The hidden true trajectory, shape ``(T, n_states)``.
        train_days: Length of the training window; the rest is test.
    """

    drivers: DriverTable
    observed: np.ndarray
    states: np.ndarray
    train_days: int

    def window(self, period: str) -> slice:
        if period == "train":
            return slice(0, self.train_days)
        if period == "test":
            return slice(self.train_days, len(self.observed))
        if period == "all":
            return slice(0, len(self.observed))
        raise ValueError(f"unknown period {period!r}")


def ar1(
    rng: np.random.Generator, n: int, sigma: float, rho: float
) -> np.ndarray:
    """A zero-mean AR(1) series (the river dataset's weather noise)."""
    noise = rng.normal(0.0, sigma, size=n)
    series = np.empty(n)
    value = 0.0
    scale = np.sqrt(max(1.0 - rho * rho, 1e-9))
    for index in range(n):
        value = rho * value + scale * noise[index]
        series[index] = value
    return series


def seasonal(
    day: np.ndarray, mean: float, amplitude: float, phase_day: float
) -> np.ndarray:
    """``mean + amplitude * sin(2*pi*(day - phase)/365)``."""
    return mean + amplitude * np.sin(
        2.0 * np.pi * (day - phase_day) / DAYS_PER_YEAR
    )


def noisy_euler(
    model: ProcessModel,
    params: Sequence[float],
    drivers: DriverTable,
    initial_state: Sequence[float],
    rng: np.random.Generator,
    process_noise: float,
    clamp: ClampSpec,
    dt: float = 1.0,
) -> np.ndarray:
    """Euler integration with multiplicative process noise.

    After every deterministic Euler step each state is perturbed by
    ``exp(process_noise * eta)`` with ``eta ~ N(0, 1)`` and re-clamped,
    so the hidden truth is a *stochastic* dynamical system while every
    candidate model is still evaluated deterministically against the
    realised trajectory.  Returns the trajectory, shape
    ``(T, n_states)``.
    """
    if drivers.names != model.var_order:
        drivers = drivers.select(model.var_order)
    params = tuple(params)
    state = [float(value) for value in initial_state]
    n_states = len(state)
    step = model.compiled()
    out = np.empty((len(drivers), n_states), dtype=float)
    # One draw per (step, state): the noise stream depends only on the
    # rng seed and the horizon, never on the trajectory values.
    shocks = rng.normal(0.0, 1.0, size=(len(drivers), n_states))
    for t, row in enumerate(drivers.rows()):
        derivatives = step(params, row, state)
        for index in range(n_states):
            value = state[index] + dt * derivatives[index]
            value *= float(np.exp(process_noise * shocks[t, index]))
            state[index] = clamp.apply(value)
        out[t] = state
    return out


def observe(
    rng: np.random.Generator, series: np.ndarray, relative_noise: float
) -> np.ndarray:
    """Multiplicative log-normal measurement noise on a series."""
    factors = np.exp(rng.normal(0.0, relative_noise, size=len(series)))
    return series * factors


@dataclass(frozen=True, eq=False)
class SyntheticDomain:
    """What a synthetic domain plugin supplies; the pipeline is shared.

    A dataset config is a frozen dataclass with at least ``seed``,
    ``n_days``, ``train_days``, ``process_noise`` and
    ``observation_noise``.  ``make_drivers(config)`` draws its noise from
    ``default_rng(config.seed)``; process and observation noise take the
    independent substreams ``(seed, 1)`` and ``(seed, 2)``.

    Attributes:
        make_drivers: The driver table of a config (full horizon).
        truth_model: The hidden data-generating model.
        hidden_constants: Its parameter values, by name.
        initial_state: The state at day 0 of a config.
        state_names: The model's states, in order.
        target_state: The observed state.
        clamp: The clamping band of truth and candidate models.
        default_config: The config used when none is given.
    """

    make_drivers: Callable[[Any], DriverTable]
    truth_model: Callable[[], ProcessModel]
    hidden_constants: Mapping[str, float]
    initial_state: Callable[[Any], tuple[float, ...]]
    state_names: tuple[str, ...]
    target_state: str
    clamp: ClampSpec
    default_config: Any

    def generate(self, config: Any = None) -> SyntheticDataset:
        """Synthesise drivers, the noisy truth trajectory, and
        observations of the target state."""
        config = self.default_config if config is None else config
        drivers = self.make_drivers(config)
        model = self.truth_model()
        params = tuple(self.hidden_constants[name] for name in model.param_order)
        states = noisy_euler(
            model,
            params,
            drivers,
            self.initial_state(config),
            np.random.default_rng((config.seed, 1)),
            config.process_noise,
            self.clamp,
        )
        target = self.state_names.index(self.target_state)
        observed = observe(
            np.random.default_rng((config.seed, 2)),
            states[:, target],
            config.observation_noise,
        )
        return SyntheticDataset(
            drivers=drivers,
            observed=observed,
            states=states,
            train_days=config.train_days,
        )

    def make_task(
        self, period: str = "train", config: Any = None
    ) -> ModelingTask:
        """The modeling task over ``period`` (train/test/all); a window
        that starts after day 0 starts from the true state there."""
        config = self.default_config if config is None else config
        dataset = _cached_generate(self, config)
        window = dataset.window(period)
        start = window.start or 0
        if start == 0:
            initial = self.initial_state(config)
        else:
            initial = tuple(float(value) for value in dataset.states[start])
        return ModelingTask(
            drivers=DriverTable(
                dataset.drivers.names, dataset.drivers.values[window]
            ),
            observed=dataset.observed[window],
            target_state=self.target_state,
            state_names=self.state_names,
            initial_state=initial,
            clamp=self.clamp,
        )


@lru_cache(maxsize=8)
def _cached_generate(domain: SyntheticDomain, config: Any) -> SyntheticDataset:
    return domain.generate(config)
