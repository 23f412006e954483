"""Bring your own domain: a lake predator-prey plugin for the registry.

The paper's extensibility discussion (Section VI) argues the framework
carries over to any model-identification problem where expert knowledge
is available but incomplete.  This example builds such a problem from
scratch and registers it as a *domain plugin* -- the same mechanism the
built-in river, Lotka-Volterra and SIR domains use:

* Hidden truth: algae ``A`` and grazers ``G`` in a lake, where grazer
  mortality rises with temperature (the same kind of mechanism the paper
  reports discovering, its eq. (7)).
* Expert seed: the textbook predator-prey core with constant mortality,
  marked extensible at the mortality subprocess.
* Prior knowledge: parameter priors plus "temperature may matter here".

The data runs through :class:`~repro.domains.synth.SyntheticDomain`,
the pipeline of the built-in synthetic domains (cached generation,
train/test/all task windows); ``LakeDomain`` overrides only its
``generate``, because the lake's truth runs without process noise.

Packaging those pieces as a :class:`~repro.domains.DomainSpec` and
calling :func:`~repro.domains.register_domain` buys the whole toolchain:
``GMREngine.for_domain("lake")``, domain-stamped checkpoints that refuse
to resume under a different spec, ``python -m repro.lint --domain lake``,
and -- were the spec shipped inside ``repro.domains`` -- the full
cross-domain conformance battery under ``tests/domains/``.  The
regression test ``tests/domains/test_custom_domain_example.py`` runs
this module end-to-end, so the example stays current with the API.

Run:  python examples/custom_domain.py
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis import report
from repro.domains import ConformancePlan, DomainSpec, register_domain
from repro.domains.synth import (
    SyntheticDataset,
    SyntheticDomain,
    ar1,
    observe,
    seasonal,
)
from repro.dynamics import (
    ClampSpec,
    DriverTable,
    ModelingTask,
    ProcessModel,
    simulate,
)
from repro.expr import parse
from repro.expr.ast import Expr
from repro.gp import ExtensionSpec, GMREngine, ParameterPrior, PriorKnowledge

STATE_NAMES: tuple[str, ...] = ("A", "G")
VARIABLE_ORDER: tuple[str, ...] = ("Vtmp", "Vlgt")

#: Biomasses: strictly positive, bounded far above any real trajectory.
LAKE_CLAMP = ClampSpec(minimum=1e-3, maximum=1e5)

#: Data-generating parameter values (the expert priors centre elsewhere).
HIDDEN_PARAMS: dict[str, float] = {
    "grow": 0.5,
    "cap": 120.0,
    "graze": 2.2,
    "half": 30.0,
    "eff": 0.35,
    "mort": 0.25,
}


@dataclass(frozen=True)
class LakeConfig:
    """Knobs of the synthetic lake dataset."""

    n_days: int = 730
    train_days: int = 500
    seed: int = 3
    observation_noise: float = 0.03
    initial_algae: float = 20.0
    initial_grazers: float = 4.0


def hidden_truth() -> dict[str, Expr]:
    """The data-generating equations (temperature-dependent mortality)."""
    return {
        "A": parse(
            "A * (grow * Vlgt * (1 - A / cap) - graze * G / (half + A))",
            variables={"Vlgt"},
            states=set(STATE_NAMES),
        ),
        "G": parse(
            "G * (eff * graze * A / (half + A) - mort * (0.1 + 0.09 * Vtmp))",
            variables={"Vtmp"},
            states=set(STATE_NAMES),
        ),
    }


def truth_model() -> ProcessModel:
    return ProcessModel.from_equations(
        hidden_truth(), var_order=VARIABLE_ORDER
    )


def make_knowledge() -> PriorKnowledge:
    """The expert seed: constant grazer mortality, extensible there."""
    seed = {
        "A": parse(
            "A * (grow * Vlgt * (1 - A / cap) - graze * G / (half + A))",
            variables={"Vlgt"},
            states=set(STATE_NAMES),
        ),
        "G": parse(
            "G * (eff * graze * A / (half + A) - {mort}@Ext2)",
            variables={"Vtmp"},
            states=set(STATE_NAMES),
        ),
    }
    return PriorKnowledge(
        seed_equations=seed,
        priors={
            "grow": ParameterPrior("grow", 0.4, 0.1, 1.0),
            "cap": ParameterPrior("cap", 100.0, 50.0, 200.0),
            "graze": ParameterPrior("graze", 2.0, 0.5, 4.0),
            "half": ParameterPrior("half", 25.0, 10.0, 60.0),
            "eff": ParameterPrior("eff", 0.3, 0.1, 0.6),
            "mort": ParameterPrior("mort", 0.2, 0.05, 0.6),
        },
        extensions=[
            # "Temperature may affect grazer mortality" -- the expert hunch.
            ExtensionSpec("Ext2", variables=("Vtmp",), connector_ops=("*",)),
        ],
        rconst_bounds=(-100.0, 100.0),
        variable_levels={"Vtmp": 15.0, "Vlgt": 1.0},
    )


def make_drivers(config: LakeConfig) -> DriverTable:
    """Seasonal temperature and light with AR(1) weather noise."""
    rng = np.random.default_rng(config.seed)
    day = np.arange(config.n_days, dtype=float)
    temperature = seasonal(day, 15.0, 9.0, 120.0) + ar1(
        rng, config.n_days, 0.6, 0.8
    )
    light = seasonal(day, 1.0, 0.4, 100.0)
    return DriverTable.from_mapping(
        {
            "Vtmp": np.clip(temperature, 1.0, 30.0),
            "Vlgt": np.clip(light, 0.2, 2.0),
        }
    )


def initial_state(config: LakeConfig) -> tuple[float, ...]:
    return (config.initial_algae, config.initial_grazers)


class LakeDomain(SyntheticDomain):
    """The shared synthetic pipeline (cached generation, train/test/all
    task windows) over the lake's own data: a truth integrated without
    process noise."""

    def generate(self, config: LakeConfig | None = None) -> SyntheticDataset:
        """Simulate the hidden truth and observe algae with lognormal
        noise."""
        config = self.default_config if config is None else config
        drivers = self.make_drivers(config)
        model = self.truth_model()
        params = tuple(self.hidden_constants[name] for name in model.param_order)
        states = simulate(
            model, params, drivers, self.initial_state(config), clamp=self.clamp
        )
        observed = observe(
            np.random.default_rng((config.seed, 2)),
            states[:, self.state_names.index(self.target_state)],
            config.observation_noise,
        )
        return SyntheticDataset(
            drivers=drivers,
            observed=observed,
            states=states,
            train_days=config.train_days,
        )


LAKE = LakeDomain(
    make_drivers=make_drivers,
    truth_model=truth_model,
    hidden_constants=HIDDEN_PARAMS,
    initial_state=initial_state,
    state_names=STATE_NAMES,
    target_state="A",
    clamp=LAKE_CLAMP,
    default_config=LakeConfig(),
)

#: ``generate(config=LakeConfig())`` and ``make_task(period="train",
#: config=LakeConfig())``: the lake's data through the shared pipeline.
generate = LAKE.generate
make_task = LAKE.make_task


#: Small instance for quick runs and the regression test.
MINI_CONFIG = LakeConfig(n_days=240, train_days=180)


def make_mini_task(period: str = "train") -> ModelingTask:
    return make_task(period, MINI_CONFIG)


def make_spec() -> DomainSpec:
    """Package the lake problem as a registrable domain spec."""
    return DomainSpec(
        name="lake",
        description=(
            "Lake algae-grazer dynamics with a hidden temperature-"
            "dependent grazer mortality the expert seed lacks"
        ),
        state_names=STATE_NAMES,
        var_order=VARIABLE_ORDER,
        target_state="A",
        make_knowledge=make_knowledge,
        make_task=make_task,
        make_mini_task=make_mini_task,
        truth_equations=hidden_truth,
        clamp=LAKE_CLAMP,
        conformance=ConformancePlan(
            mini_seed=2,
            population_size=24,
            max_generations=10,
            max_size=14,
            init_max_size=6,
            local_search_steps=2,
            recovery_variables=("Vtmp",),
            min_improvement=0.25,
        ),
    )


def register() -> DomainSpec:
    """Validate and register the lake domain (idempotent)."""
    return register_domain(make_spec(), replace=True)


def main() -> None:
    spec = register()
    task = spec.mini_task("train")
    seed_rmse = task.rmse(spec.seed_model(), spec.seed_parameters())
    print(f"Registered domain {spec.name!r} (spec {spec.spec_hash()[:12]}..)")
    print(f"Expert seed RMSE: {seed_rmse:.3f}")

    plan = spec.conformance
    from repro.gp import GMRConfig

    engine = GMREngine.for_domain(
        spec.name,
        GMRConfig(
            population_size=plan.population_size,
            max_generations=plan.max_generations,
            max_size=plan.max_size,
            init_max_size=plan.init_max_size,
            local_search_steps=plan.local_search_steps,
        ),
        mini=True,
    )
    result = engine.run(seed=plan.mini_seed)
    model, params = result.best.phenotype(task.state_names, task.var_order)
    print(f"Revised model RMSE: {task.rmse(model, params):.3f}")
    print()
    print(report(result.best, STATE_NAMES))


if __name__ == "__main__":
    main()
