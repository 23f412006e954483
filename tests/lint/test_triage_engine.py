"""Engine-integrated static triage.

The contract under test: with ``GMRConfig.static_triage`` on, the
engine skips simulating candidates the interval pass proves divergent
(A001) -- and *nothing else changes*.  Fitness values, per-generation
history, evaluation counts, checkpoints, and resumes are bit-identical
to a triage-off run; only ``stats.triage_skips`` and saved simulation
steps differ.
"""

from __future__ import annotations

import math
import pickle

import numpy as np
import pytest

from repro.dynamics.drivers import DriverTable
from repro.dynamics.integrate import ClampSpec
from repro.dynamics.task import ModelingTask
from repro.expr import ast
from repro.expr.ast import Const, Ext, Param, State
from repro.gp import GMREngine
from repro.gp.checkpoint import load_checkpoint
from repro.gp.config import GMRConfig
from repro.gp.fitness import EvaluationStats, GMRFitnessEvaluator
from repro.gp.knowledge import (
    ExtensionSpec,
    ParameterPrior,
    PriorKnowledge,
    build_grammar,
)
from repro.lint import LintError
from tests.oracle import make_cohort


def blowup_knowledge() -> PriorKnowledge:
    """A revision problem whose candidate pool is divergence-heavy.

    The driver ``Vhuge`` and the random constants both sit near 1e160,
    so any product of two of them overflows to infinity and differences
    of such products are provably NaN -- exactly the candidates A001
    exists to skip.
    """
    seed = {
        "B": Ext(
            "Ext1",
            ast.mul(State("B"), ast.sub(Param("mu"), Param("loss"))),
        )
    }
    return PriorKnowledge(
        seed_equations=seed,
        priors={
            "mu": ParameterPrior("mu", 0.10, 0.0, 0.5),
            "loss": ParameterPrior("loss", 0.12, 0.0, 0.5),
        },
        extensions=[
            ExtensionSpec("Ext1", ("Vhuge",), connector_ops=("+", "-"))
        ],
        rconst_bounds=(1e160, 1e170),
        rconst_init=(1e160, 1e170),
    )


def blowup_task() -> ModelingTask:
    rng = np.random.default_rng(7)
    n = 48
    vhuge = 10.0 ** rng.uniform(160.0, 170.0, n)
    observed = 2.0 * np.exp(-0.02 * np.arange(n, dtype=float))
    return ModelingTask(
        drivers=DriverTable.from_mapping({"Vhuge": vhuge}),
        observed=observed,
        target_state="B",
        state_names=("B",),
        initial_state=(2.0,),
        clamp=ClampSpec(minimum=1e-6, maximum=1e6),
    )


def blowup_config(**overrides) -> GMRConfig:
    defaults = dict(
        population_size=16,
        max_generations=4,
        max_size=12,
        init_max_size=8,
        local_search_steps=1,
    )
    defaults.update(overrides)
    return GMRConfig(**defaults)


def histories(result):
    return [record.best_fitness for record in result.history]


class TestBitIdentity:
    def test_triage_changes_nothing_the_search_observes(self):
        knowledge, task = blowup_knowledge(), blowup_task()
        on = GMREngine(
            knowledge, task, blowup_config(static_triage=True)
        ).run(seed=11)
        off = GMREngine(
            knowledge, task, blowup_config(static_triage=False)
        ).run(seed=11)
        assert on.best_fitness == off.best_fitness
        assert histories(on) == histories(off)
        assert on.stats.evaluations == off.stats.evaluations
        assert on.stats.cache_hits == off.stats.cache_hits
        assert on.stats.divergences == off.stats.divergences

    def test_triage_actually_skips_on_divergence_heavy_cohort(self):
        knowledge, task = blowup_knowledge(), blowup_task()
        on = GMREngine(
            knowledge, task, blowup_config(static_triage=True)
        ).run(seed=11)
        off = GMREngine(
            knowledge, task, blowup_config(static_triage=False)
        ).run(seed=11)
        assert on.stats.triage_skips > 0
        assert off.stats.triage_skips == 0
        # Every skip is a candidate whose fitness cases never ran.
        assert on.stats.steps_evaluated <= off.stats.steps_evaluated
        assert on.stats.steps_possible == off.stats.steps_possible

    def test_benign_domain_runs_identically_with_zero_skips(self):
        from repro.domains import get_domain

        from tests.domains.conftest import conformance_config

        spec = get_domain("lotka_volterra")
        knowledge, task = spec.make_knowledge(), spec.mini_task("train")
        seed = spec.conformance.mini_seed
        on = GMREngine(
            knowledge, task, conformance_config(spec, static_triage=True)
        ).run(seed=seed)
        off = GMREngine(
            knowledge, task, conformance_config(spec, static_triage=False)
        ).run(seed=seed)
        assert histories(on) == histories(off)
        assert on.best_fitness == off.best_fitness
        assert on.stats.evaluations == off.stats.evaluations


def cohort_outcomes(use_tree_cache: bool, batched: bool):
    """A divergence-heavy cohort scored with triage on, through one
    ``evaluate_batch`` call or one ``evaluate`` call per member: the
    fitnesses and the evaluator's stats."""
    knowledge = blowup_knowledge()
    config = blowup_config(static_triage=True, use_tree_cache=use_tree_cache)
    cohort = make_cohort(build_grammar(knowledge), knowledge, config, seed=11)
    evaluator = GMRFitnessEvaluator(task=blowup_task(), config=config)
    if batched:
        fitnesses = evaluator.evaluate_batch(cohort)
    else:
        fitnesses = [evaluator.evaluate(member) for member in cohort]
    return fitnesses, evaluator.stats


class TestScalarBatchedParity:
    """``evaluate_batch`` triages exactly like per-member ``evaluate``."""

    def test_batched_and_scalar_paths_skip_identically(self):
        batched, stats = cohort_outcomes(use_tree_cache=True, batched=True)
        scalar, scalar_stats = cohort_outcomes(use_tree_cache=True, batched=False)
        assert batched == scalar
        assert stats.triage_skips == scalar_stats.triage_skips > 0

    def test_parity_survives_cache_off(self):
        batched, stats = cohort_outcomes(use_tree_cache=False, batched=True)
        scalar, scalar_stats = cohort_outcomes(use_tree_cache=False, batched=False)
        assert batched == scalar
        assert stats.triage_skips == scalar_stats.triage_skips > 0


class SimulatedCrash(RuntimeError):
    pass


def crash_at(generation: int):
    def progress(g, record):
        if g == generation:
            raise SimulatedCrash(f"crashed at generation {g}")

    return progress


class TestCrashResume:
    def test_resume_with_triage_is_bit_identical(self, tmp_path):
        knowledge, task = blowup_knowledge(), blowup_task()
        config = blowup_config(static_triage=True, checkpoint_every=1)
        engine = GMREngine(knowledge, task, config)
        full = engine.run(seed=11)
        assert full.stats.triage_skips > 0

        path = tmp_path / "triage.ckpt"
        with pytest.raises(SimulatedCrash):
            engine.run(seed=11, checkpoint_path=path, progress=crash_at(2))
        checkpoint = load_checkpoint(path)
        assert checkpoint.generation == 2

        resumed = engine.run(resume_from=path)
        assert resumed.best_fitness == full.best_fitness
        assert histories(resumed) == histories(full)
        assert resumed.stats.evaluations == full.stats.evaluations
        assert resumed.stats.triage_skips == full.stats.triage_skips


class TestSeedTriage:
    def _nan_seed_knowledge(self) -> PriorKnowledge:
        blown = ast.mul(Const(1e300), Const(1e300))
        return PriorKnowledge(
            seed_equations={"B": Ext("Ext1", ast.sub(blown, blown))},
            priors={"mu": ParameterPrior("mu", 0.10, 0.0, 0.5)},
            extensions=[ExtensionSpec("Ext1", ("Vhuge",))],
        )

    def test_fatal_seed_rejected_up_front(self):
        engine = GMREngine(
            self._nan_seed_knowledge(),
            blowup_task(),
            blowup_config(static_triage=True, max_generations=1),
        )
        with pytest.raises(LintError) as excinfo:
            engine.run(seed=1)
        assert "A001" in str(excinfo.value)

    def test_clean_seed_passes_seed_triage(self):
        engine = GMREngine(
            blowup_knowledge(),
            blowup_task(),
            blowup_config(static_triage=True, max_generations=1),
        )
        result = engine.run(seed=1)
        assert math.isfinite(result.best_fitness)


class TestStatsCompat:
    def test_stats_roundtrip_preserves_triage_fields(self):
        stats = EvaluationStats()
        stats.triage_skips = 3
        stats.triage_time = 0.25
        clone = pickle.loads(pickle.dumps(stats))
        assert clone.triage_skips == 3
        assert clone.triage_time == 0.25

    def test_merge_sums_triage_fields(self):
        a, b = EvaluationStats(), EvaluationStats()
        a.triage_skips, b.triage_skips = 2, 3
        a.triage_time, b.triage_time = 0.5, 0.25
        merged = a.merge(b)
        assert merged.triage_skips == 5
        assert merged.triage_time == 0.75
