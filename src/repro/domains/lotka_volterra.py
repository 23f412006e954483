"""Lotka-Volterra predator-prey benchmark domain.

A classic two-species system with logistic prey limitation, planted with
one structural gap: the hidden truth feeds prey with a seasonal food
influx (``CFLX * Vfood``) that the "expert" seed omits.  The revision
grammar can reach the missing term in one connector adjunction at
``ExtPrey`` (``+`` with ``Vfood``), so a seeded GMR mini-run recovers it
-- the cross-domain conformance suite asserts exactly that.  A decoy
extension point on predator mortality (``*`` with temperature) gives the
search a plausible wrong turn, as real revision vocabularies do.

Hidden truth::

    dPrey/dt = Prey * (CGRW * (1 - Prey/CCAP) - CATT * Pred) + CFLX * Vfood
    dPred/dt = Pred * (CEFF * CATT * Prey - CMRT)

Expert seed: the same equations without the ``CFLX`` influx, with
``ExtPrey`` marking the prey equation and ``ExtMort`` marking the
predator mortality constant.
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
from repro.expr.ast import Const, Expr, Ext, Param, State, Var
from repro.gp.knowledge import ExtensionSpec, ParameterPrior, PriorKnowledge

STATE_NAMES: tuple[str, ...] = ("Prey", "Pred")
VARIABLE_ORDER: tuple[str, ...] = ("Vfood", "Vtmp")

#: States are biomasses: strictly positive, bounded well above any
#: realised trajectory.
LV_CLAMP = ClampSpec(minimum=1e-3, maximum=1e4)

#: Hidden-truth parameter values; the expert priors centre elsewhere
#: (within bounds) so calibration has real work even without revision.
HIDDEN_CONSTANTS: dict[str, float] = {
    "CGRW": 0.34,
    "CCAP": 42.0,
    "CATT": 0.055,
    "CEFF": 0.36,
    "CMRT": 0.21,
    # Hidden-only structure coefficient: the planted food influx.
    "CFLX": 0.8,
}

#: Expert priors over the seed's constant parameters.
CONSTANT_PRIORS: dict[str, ParameterPrior] = {
    prior.name: prior
    for prior in (
        ParameterPrior("CGRW", 0.3, 0.05, 1.0, "day^-1", "Prey growth rate"),
        ParameterPrior("CCAP", 40.0, 15.0, 120.0, "ug L^-1", "Prey capacity"),
        # A per-capita attack rate: multiplied by a predator density
        # (ug/L) it must yield day^-1, hence the L ug^-1 factor.
        ParameterPrior(
            "CATT", 0.05, 0.005, 0.3, "L ug^-1 day^-1", "Attack rate"
        ),
        ParameterPrior("CEFF", 0.3, 0.1, 0.8, "", "Conversion efficiency"),
        ParameterPrior("CMRT", 0.2, 0.02, 0.8, "day^-1", "Predator mortality"),
    )
}


@dataclass(frozen=True)
class LotkaVolterraConfig:
    """Knobs of the synthetic predator-prey dataset."""

    n_days: int = 420
    train_days: int = 280
    seed: int = 5
    process_noise: float = 0.01
    observation_noise: float = 0.03
    initial_prey: float = 14.0
    initial_pred: float = 5.0


def _prey_equation(with_ext: bool, with_flux: bool) -> Expr:
    prey, pred = State("Prey"), State("Pred")
    logistic = ast.mul(
        Param("CGRW"),
        ast.sub(Const(1.0), ast.div(prey, Param("CCAP"))),
    )
    core = ast.mul(prey, ast.sub(logistic, ast.mul(Param("CATT"), pred)))
    if with_flux:
        core = ast.add(core, ast.mul(Param("CFLX"), Var("Vfood")))
    if with_ext:
        core = Ext("ExtPrey", core)
    return core


def _pred_equation(with_ext: bool) -> Expr:
    prey, pred = State("Prey"), State("Pred")
    mortality: Expr = Param("CMRT")
    if with_ext:
        mortality = Ext("ExtMort", mortality)
    gain = ast.mul(Param("CEFF"), ast.mul(Param("CATT"), prey))
    return ast.mul(pred, ast.sub(gain, mortality))


def seed_equations() -> dict[str, Expr]:
    """The wrong expert seed: no food influx, extension points marked."""
    return {
        "Prey": _prey_equation(with_ext=True, with_flux=False),
        "Pred": _pred_equation(with_ext=True),
    }


def truth_equations() -> dict[str, Expr]:
    """The hidden data-generating system (with the planted influx)."""
    return {
        "Prey": _prey_equation(with_ext=False, with_flux=True),
        "Pred": _pred_equation(with_ext=False),
    }


def truth_model() -> ProcessModel:
    return ProcessModel.from_equations(
        truth_equations(), var_order=VARIABLE_ORDER
    )


def make_knowledge() -> PriorKnowledge:
    """Seed + revision vocabulary + priors for the LV domain.

    ``Vfood`` carries no expert level, so connector revisions introduce
    it as ``Vfood * scale`` with the scale initialised in the random-
    constant range -- the planted ``CFLX * Vfood`` term is one adjunction
    plus constant tuning away.  ``Vtmp`` (the decoy) enters as an anomaly
    around its seasonal mean.
    """
    return PriorKnowledge(
        seed_equations=seed_equations(),
        priors=dict(CONSTANT_PRIORS),
        extensions=[
            ExtensionSpec(
                "ExtPrey", variables=("Vfood",), connector_ops=("+",)
            ),
            ExtensionSpec(
                "ExtMort", variables=("Vtmp",), connector_ops=("*",)
            ),
        ],
        rconst_bounds=(-50.0, 50.0),
        rconst_init=(0.0, 1.0),
        variable_levels={"Vtmp": 14.0},
    )


def make_drivers(config: LotkaVolterraConfig) -> DriverTable:
    """Seasonal food index and water temperature with AR(1) noise."""
    rng = np.random.default_rng(config.seed)
    day = np.arange(config.n_days, dtype=float)
    food = seasonal(day, 1.0, 0.5, 90.0) + ar1(rng, config.n_days, 0.12, 0.8)
    temperature = seasonal(day, 14.0, 9.0, 120.0) + ar1(
        rng, config.n_days, 0.8, 0.85
    )
    return DriverTable.from_mapping(
        {
            "Vfood": np.clip(food, 0.05, 3.0),
            "Vtmp": np.clip(temperature, 0.5, 32.0),
        }
    )


def initial_state(config: LotkaVolterraConfig) -> tuple[float, ...]:
    return (config.initial_prey, config.initial_pred)


SYNTHETIC = SyntheticDomain(
    make_drivers=make_drivers,
    truth_model=truth_model,
    hidden_constants=HIDDEN_CONSTANTS,
    initial_state=initial_state,
    state_names=STATE_NAMES,
    target_state="Prey",
    clamp=LV_CLAMP,
    default_config=LotkaVolterraConfig(),
)

#: ``generate(config=LotkaVolterraConfig())`` and ``make_task(
#: period="train", config=LotkaVolterraConfig())``: the shared pipeline
#: over this domain.
generate = SYNTHETIC.generate
make_task = SYNTHETIC.make_task

#: Small instance for the conformance battery and quick experiments.
MINI_CONFIG = LotkaVolterraConfig(n_days=200, train_days=150)


def make_mini_task(period: str = "train") -> ModelingTask:
    return make_task(period, MINI_CONFIG)


def make_spec() -> DomainSpec:
    """Build the Lotka-Volterra domain spec."""
    return DomainSpec(
        name="lotka_volterra",
        description=(
            "Predator-prey dynamics with a planted seasonal food influx "
            "the expert seed omits"
        ),
        state_names=STATE_NAMES,
        var_order=VARIABLE_ORDER,
        target_state="Prey",
        # Semantic-lint annotations: densities in ug/L, the food driver
        # is a dimensionless seasonal index, bounds from the dataset
        # generator's ranges.
        state_units={"Prey": "ug L^-1", "Pred": "ug L^-1"},
        var_units={"Vfood": "", "Vtmp": "degC"},
        var_bounds={"Vfood": (0.05, 3.0), "Vtmp": (0.5, 32.0)},
        time_unit="day",
        make_knowledge=make_knowledge,
        make_task=make_task,
        make_mini_task=make_mini_task,
        truth_equations=truth_equations,
        clamp=LV_CLAMP,
        conformance=ConformancePlan(
            mini_seed=1,
            population_size=20,
            max_generations=8,
            max_size=12,
            init_max_size=6,
            local_search_steps=2,
            recovery_variables=("Vfood",),
            min_improvement=0.25,
        ),
    )
