"""Dynamic-system substrate: drivers, process models, integration."""

from repro.dynamics.drivers import DriverError, DriverTable
from repro.dynamics.integrate import (
    ClampSpec,
    SimulationDiverged,
    euler_steps,
    is_finite_trajectory,
    observation_error_stream,
    safe_simulate,
    simulate,
)
from repro.dynamics.system import ModelError, ProcessModel
from repro.dynamics.task import BAD_FITNESS, ModelingTask

__all__ = [
    "BAD_FITNESS",
    "ClampSpec",
    "ModelingTask",
    "DriverError",
    "DriverTable",
    "ModelError",
    "ProcessModel",
    "SimulationDiverged",
    "euler_steps",
    "is_finite_trajectory",
    "observation_error_stream",
    "safe_simulate",
    "simulate",
]
