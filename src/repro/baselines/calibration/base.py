"""Common machinery for model-calibration baselines.

The paper compares against nine widely used calibration algorithms (run
through the SPOTPY framework in the original).  Here each algorithm is
implemented from scratch against a common interface: a
:class:`CalibrationProblem` exposes the parameter names, bounds and an
objective (train RMSE of the expert model under a parameter vector), and a
:class:`Calibrator` searches it under a fixed evaluation budget.

Calibration updates *only parameter values* -- the model structure is the
untouched expert process, which is exactly the limitation model revision
lifts (Table I).
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from repro.dynamics.system import ProcessModel
from repro.dynamics.task import ModelingTask
from repro.gp.knowledge import ParameterPrior


class CalibrationError(ValueError):
    """Raised for ill-posed calibration problems."""


@dataclass
class CalibrationProblem:
    """A parameter-estimation problem over a fixed model structure.

    Attributes:
        model: The (expert) process model whose parameters are calibrated.
        task: The training task supplying the objective (RMSE).
        priors: Priors for every calibratable parameter.
    """

    model: ProcessModel
    task: ModelingTask
    priors: dict[str, ParameterPrior]
    evaluations: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        missing = set(self.model.param_order) - set(self.priors)
        if missing:
            raise CalibrationError(
                f"model parameters without priors: {sorted(missing)}"
            )

    @property
    def names(self) -> tuple[str, ...]:
        return self.model.param_order

    @property
    def dimension(self) -> int:
        return len(self.names)

    @property
    def lower(self) -> np.ndarray:
        return np.array([self.priors[name].minimum for name in self.names])

    @property
    def upper(self) -> np.ndarray:
        return np.array([self.priors[name].maximum for name in self.names])

    @property
    def means(self) -> np.ndarray:
        return np.array([self.priors[name].mean for name in self.names])

    def clip(self, vector: np.ndarray) -> np.ndarray:
        """Clamp a parameter vector to the prior bounds."""
        return np.clip(vector, self.lower, self.upper)

    def random_vector(self, rng: random.Random) -> np.ndarray:
        """A uniform random in-bounds parameter vector."""
        lower, upper = self.lower, self.upper
        return np.array(
            [rng.uniform(lo, hi) for lo, hi in zip(lower, upper)]
        )

    def evaluate(self, vector: np.ndarray) -> float:
        """Objective: training RMSE (lower is better)."""
        self.evaluations += 1
        return self.task.rmse(self.model, tuple(self.clip(vector)))

    def as_dict(self, vector: np.ndarray) -> dict[str, float]:
        return dict(zip(self.names, (float(v) for v in self.clip(vector))))


@dataclass
class CalibrationResult:
    """Outcome of one calibration run."""

    method: str
    best_vector: np.ndarray
    best_fitness: float
    evaluations: int
    history: list[float] = field(default_factory=list)

    def params(self, problem: CalibrationProblem) -> dict[str, float]:
        return problem.as_dict(self.best_vector)


class Calibrator(ABC):
    """Base class of the nine calibration baselines."""

    #: Display name used in Table V.
    name: str = "base"

    @abstractmethod
    def calibrate(
        self,
        problem: CalibrationProblem,
        budget: int,
        seed: int = 0,
    ) -> CalibrationResult:
        """Search for the best parameter vector within ``budget`` evaluations."""

    def _result(
        self,
        problem: CalibrationProblem,
        best_vector: np.ndarray,
        best_fitness: float,
        history: list[float],
    ) -> CalibrationResult:
        return CalibrationResult(
            method=self.name,
            best_vector=problem.clip(np.asarray(best_vector, dtype=float)),
            best_fitness=best_fitness,
            evaluations=problem.evaluations,
            history=history,
        )


def track_best(
    current_best: tuple[float, np.ndarray],
    fitness: float,
    vector: np.ndarray,
) -> tuple[float, np.ndarray]:
    """Functional helper keeping the best (fitness, vector) pair."""
    if fitness < current_best[0]:
        return fitness, np.array(vector, dtype=float)
    return current_best
