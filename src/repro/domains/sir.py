"""SIR epidemic benchmark domain.

An SIRS compartment model over population fractions, planted with one
structural gap: the hidden truth adds a case *importation* flux to the
infected compartment (``CIMP * Vtrv``, a seasonal travel index) that the
"expert" seed omits.  The revision grammar reaches the missing term in
one connector adjunction at ``ExtInf`` (``+`` with ``Vtrv``); a decoy
extension point on waning immunity (``*`` with humidity) gives the
search a plausible wrong turn.

Hidden truth::

    dS/dt = CWAN * R - CTRN * S * I
    dI/dt = CTRN * S * I - CREC * I + CIMP * Vtrv
    dR/dt = CREC * I - CWAN * R

Expert seed: the same equations without the ``CIMP`` importation, with
``ExtInf`` marking the infected equation and ``ExtWan`` marking the
waning-rate constant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.domains.registry import ConformancePlan, DomainSpec
from repro.domains.synth import SyntheticDomain, ar1, seasonal
from repro.dynamics.drivers import DriverTable
from repro.dynamics.integrate import ClampSpec
from repro.dynamics.system import ProcessModel
from repro.dynamics.task import ModelingTask
from repro.expr import ast
from repro.expr.ast import Expr, Ext, Param, State, Var
from repro.gp.knowledge import ExtensionSpec, ParameterPrior, PriorKnowledge

STATE_NAMES: tuple[str, ...] = ("S", "I", "R")
VARIABLE_ORDER: tuple[str, ...] = ("Vtrv", "Vhum")

#: States are population fractions; the upper bound leaves headroom for
#: the mass the importation flux injects, so trajectories never ride the
#: clamp.
SIR_CLAMP = ClampSpec(minimum=1e-6, maximum=3.0)

#: Hidden-truth parameter values (R0 = CTRN/CREC = 2).
HIDDEN_CONSTANTS: dict[str, float] = {
    "CTRN": 0.32,
    "CREC": 0.16,
    "CWAN": 0.05,
    # Hidden-only structure coefficient: the planted importation flux.
    "CIMP": 0.002,
}

#: Expert priors over the seed's constant parameters.
CONSTANT_PRIORS: dict[str, ParameterPrior] = {
    prior.name: prior
    for prior in (
        ParameterPrior("CTRN", 0.3, 0.05, 1.0, "day^-1", "Transmission rate"),
        ParameterPrior("CREC", 0.15, 0.05, 0.5, "day^-1", "Recovery rate"),
        ParameterPrior("CWAN", 0.04, 0.005, 0.2, "day^-1", "Waning immunity"),
    )
}


@dataclass(frozen=True)
class SIRConfig:
    """Knobs of the synthetic epidemic dataset."""

    n_days: int = 420
    train_days: int = 280
    seed: int = 11
    process_noise: float = 0.01
    observation_noise: float = 0.04
    initial_s: float = 0.97
    initial_i: float = 0.02
    initial_r: float = 0.01


def _susceptible_equation() -> Expr:
    s, i, r = State("S"), State("I"), State("R")
    return ast.sub(
        ast.mul(Param("CWAN"), r),
        ast.mul(Param("CTRN"), ast.mul(s, i)),
    )


def _infected_equation(with_ext: bool, with_import: bool) -> Expr:
    s, i = State("S"), State("I")
    core = ast.sub(
        ast.mul(Param("CTRN"), ast.mul(s, i)),
        ast.mul(Param("CREC"), i),
    )
    if with_import:
        core = ast.add(core, ast.mul(Param("CIMP"), Var("Vtrv")))
    if with_ext:
        core = Ext("ExtInf", core)
    return core


def _recovered_equation(with_ext: bool) -> Expr:
    i, r = State("I"), State("R")
    waning: Expr = Param("CWAN")
    if with_ext:
        waning = Ext("ExtWan", waning)
    return ast.sub(ast.mul(Param("CREC"), i), ast.mul(waning, r))


def seed_equations() -> dict[str, Expr]:
    """The wrong expert seed: no importation, extension points marked."""
    return {
        "S": _susceptible_equation(),
        "I": _infected_equation(with_ext=True, with_import=False),
        "R": _recovered_equation(with_ext=True),
    }


def truth_equations() -> dict[str, Expr]:
    """The hidden data-generating system (with the planted importation)."""
    return {
        "S": _susceptible_equation(),
        "I": _infected_equation(with_ext=False, with_import=True),
        "R": _recovered_equation(with_ext=False),
    }


def truth_model() -> ProcessModel:
    return ProcessModel.from_equations(
        truth_equations(), var_order=VARIABLE_ORDER
    )


def make_knowledge() -> PriorKnowledge:
    """Seed + revision vocabulary + priors for the SIR domain.

    ``Vtrv`` carries no expert level, so connector revisions introduce it
    as ``Vtrv * scale``, matching the planted ``CIMP * Vtrv`` form; the
    random-constant init range is tight around zero because fractions
    this small are where survivable importation rates live.  ``Vhum``
    (the decoy) enters as an anomaly around its seasonal mean.
    """
    return PriorKnowledge(
        seed_equations=seed_equations(),
        priors=dict(CONSTANT_PRIORS),
        extensions=[
            ExtensionSpec(
                "ExtInf", variables=("Vtrv",), connector_ops=("+",)
            ),
            ExtensionSpec(
                "ExtWan", variables=("Vhum",), connector_ops=("*",)
            ),
        ],
        rconst_bounds=(-10.0, 10.0),
        rconst_init=(0.0, 0.01),
        variable_levels={"Vhum": 0.6},
    )


def make_drivers(config: SIRConfig) -> DriverTable:
    """Seasonal travel index and relative humidity with AR(1) noise."""
    rng = np.random.default_rng(config.seed)
    day = np.arange(config.n_days, dtype=float)
    travel = seasonal(day, 1.0, 0.6, 200.0) + ar1(
        rng, config.n_days, 0.15, 0.75
    )
    humidity = seasonal(day, 0.6, 0.25, 30.0) + ar1(
        rng, config.n_days, 0.04, 0.8
    )
    return DriverTable.from_mapping(
        {
            "Vtrv": np.clip(travel, 0.05, 3.0),
            "Vhum": np.clip(humidity, 0.05, 1.0),
        }
    )


def initial_state(config: SIRConfig) -> tuple[float, ...]:
    return (config.initial_s, config.initial_i, config.initial_r)


SYNTHETIC = SyntheticDomain(
    make_drivers=make_drivers,
    truth_model=truth_model,
    hidden_constants=HIDDEN_CONSTANTS,
    initial_state=initial_state,
    state_names=STATE_NAMES,
    target_state="I",
    clamp=SIR_CLAMP,
    default_config=SIRConfig(),
)

#: ``generate(config=SIRConfig())`` and ``make_task(period="train",
#: config=SIRConfig())``: the shared pipeline over this domain.
generate = SYNTHETIC.generate
make_task = SYNTHETIC.make_task

#: Small instance for the conformance battery and quick experiments.
MINI_CONFIG = SIRConfig(n_days=200, train_days=150)


def make_mini_task(period: str = "train") -> ModelingTask:
    return make_task(period, MINI_CONFIG)


def make_spec() -> DomainSpec:
    """Build the SIR domain spec."""
    return DomainSpec(
        name="sir",
        description=(
            "SIRS epidemic dynamics with a planted case-importation flux "
            "the expert seed omits"
        ),
        state_names=STATE_NAMES,
        var_order=VARIABLE_ORDER,
        target_state="I",
        # Semantic-lint annotations: compartments are population
        # fractions (dimensionless), as are both drivers.
        state_units={"S": "", "I": "", "R": ""},
        var_units={"Vtrv": "", "Vhum": ""},
        var_bounds={"Vtrv": (0.05, 3.0), "Vhum": (0.05, 1.0)},
        time_unit="day",
        make_knowledge=make_knowledge,
        make_task=make_task,
        make_mini_task=make_mini_task,
        truth_equations=truth_equations,
        clamp=SIR_CLAMP,
        conformance=ConformancePlan(
            mini_seed=2,
            population_size=20,
            max_generations=8,
            max_size=12,
            init_max_size=6,
            local_search_steps=2,
            recovery_variables=("Vtrv",),
            min_improvement=0.25,
        ),
    )
