"""The cross-domain conformance battery.

Every registered domain must behave identically under the engine's
moving parts: its bundle lints clean, batched kernels reproduce the
scalar path, seeded runs are deterministic, crash/resume is
bit-identical, and a seeded mini-run recovers the planted revision (or,
for domains without one, beats the expert seed).  The battery is the
contract a new domain signs by registering.
"""

from __future__ import annotations

import pytest

from repro.domains import get_domain
from repro.expr.ast import free_vars
from repro.gp import GMREngine
from repro.gp.checkpoint import load_checkpoint
from repro.gp.knowledge import build_grammar

from tests.domains.conftest import conformance_config
from tests.oracle import ALGORITHM_1_COUNTERS


class SimulatedCrash(RuntimeError):
    """Stands in for the process dying mid-run."""


def crash_at(generation: int):
    def progress(g, record):
        if g == generation:
            raise SimulatedCrash(f"crashed at generation {g}")

    return progress


def histories(result):
    return [record.best_fitness for record in result.history]


def champion_variables(result) -> set[str]:
    expressions, __ = result.best.expressions()
    used: set[str] = set()
    for expr in expressions:
        used |= free_vars(expr)
    return used


class TestSpecConsistency:
    def test_deep_validation_passes(self, spec):
        spec.validate(deep=True)

    def test_spec_hash_is_stable_across_builds(self, spec):
        assert spec.spec_hash() == get_domain(spec.name).spec_hash()
        assert len(spec.spec_hash()) == 64

    def test_tasks_cover_all_periods(self, spec):
        for period in ("train", "test", "all"):
            task = spec.mini_task(period)
            assert len(task.observed) > 0
            assert tuple(task.state_names) == tuple(spec.state_names)


class TestLintClean:
    def test_bundle_lints_clean(self, spec, knowledge):
        """Grammar, knowledge, seed derivation and seed model: no errors,
        no warnings (info notes -- e.g. revision variables the seed does
        not consume yet -- are by design)."""
        from repro.lint import (
            lint_derivation,
            lint_knowledge,
            lint_system,
        )
        from repro.tag.derivation import DerivationNode, DerivationTree

        grammar = build_grammar(knowledge)
        report = lint_knowledge(knowledge, grammar)
        report.extend(lint_system(spec.seed_model()))
        seed = DerivationTree(DerivationNode(tree=grammar.alphas["seed"]))
        report.extend(lint_derivation(seed, grammar))
        assert report.ok(warnings_as_errors=True), report.render_text()

    def test_lint_cli_passes(self, spec):
        from repro.lint.__main__ import main

        assert main(["--domain", spec.name, "--warnings-as-errors"]) == 0


def assert_vector_run_matches_scalar_run(spec, knowledge, mini_task, **routing):
    """The same seeded mini run with the vector kernel off and on (under
    ``routing``) must agree exactly: champion fitness, per-generation
    history and Algorithm 1 counts."""
    seed = spec.conformance.mini_seed
    batching = dict(
        eval_batch_size=spec.conformance.population_size, gaussian_proposals=8
    )
    off = GMREngine(
        knowledge,
        mini_task,
        conformance_config(spec, use_batched_kernel=False, **batching),
    ).run(seed=seed)
    on = GMREngine(
        knowledge,
        mini_task,
        conformance_config(spec, **routing, **batching),
    ).run(seed=seed)
    assert off.stats.batched_evaluations == 0
    assert on.stats.batched_evaluations > 0
    assert on.best_fitness == off.best_fitness
    assert histories(on) == histories(off)
    for name in ALGORITHM_1_COUNTERS:
        assert getattr(on.stats, name) == getattr(off.stats, name), name


class TestKernelEquivalence:
    def test_batched_run_matches_scalar_run(self, spec, knowledge, mini_task):
        """derive -> compile -> simulate through the batched NumPy kernels
        under the default routing must reproduce the scalar path
        exactly."""
        assert_vector_run_matches_scalar_run(spec, knowledge, mini_task)

    def test_fused_run_matches_unfused_run(self, spec, knowledge, mini_task):
        """Every structure group through the vector kernel, singletons
        included (``kernel_min_batch=1``: the groups structure fusion
        once packed), must reproduce the scalar path exactly."""
        assert_vector_run_matches_scalar_run(
            spec, knowledge, mini_task, kernel_min_batch=1
        )


class TestDeterminism:
    def test_same_seed_same_run(self, spec, knowledge, mini_task):
        config = conformance_config(spec)
        engine = GMREngine(knowledge, mini_task, config)
        first = engine.run(seed=spec.conformance.mini_seed)
        second = engine.run(seed=spec.conformance.mini_seed)
        assert first.best_fitness == second.best_fitness
        assert histories(first) == histories(second)
        assert first.stats.evaluations == second.stats.evaluations


class TestCrashResume:
    def test_resume_is_bit_identical(
        self, spec, knowledge, mini_task, tmp_path
    ):
        config = conformance_config(spec, checkpoint_every=1)
        seed = spec.conformance.mini_seed
        engine = GMREngine(knowledge, mini_task, config)
        full = engine.run(seed=seed)

        path = tmp_path / f"{spec.name}.ckpt"
        with pytest.raises(SimulatedCrash):
            engine.run(seed=seed, checkpoint_path=path, progress=crash_at(2))
        checkpoint = load_checkpoint(path)
        assert checkpoint.generation == 2
        assert checkpoint.domain == spec.name
        assert checkpoint.domain_spec_hash == spec.spec_hash()

        resumed = engine.run(resume_from=path)
        assert resumed.best_fitness == full.best_fitness
        assert histories(resumed) == histories(full)
        assert resumed.stats.evaluations == full.stats.evaluations


class TestRecovery:
    def test_mini_run_recovers_planted_revision(
        self, spec, knowledge, mini_task
    ):
        """The end-to-end acceptance check: a seeded GMR mini-run finds
        the planted structural revision (references the planted driver
        variables) and improves on the expert seed by the plan's
        margin."""
        plan = spec.conformance
        engine = GMREngine(knowledge, mini_task, conformance_config(spec))
        result = engine.run(seed=plan.mini_seed)

        seed_rmse = mini_task.rmse(spec.seed_model(), spec.seed_parameters())
        assert result.best_fitness < seed_rmse
        improvement = 1.0 - result.best_fitness / seed_rmse
        assert improvement >= plan.min_improvement, (
            f"champion improved on the seed by {improvement:.1%}, "
            f"plan demands {plan.min_improvement:.1%}"
        )
        missing = set(plan.recovery_variables) - champion_variables(result)
        assert not missing, (
            f"champion never references planted variable(s) {sorted(missing)}"
        )


class TestTriageClean:
    def test_seed_is_semantically_clean(self, spec):
        """The expert seed must survive the semantic tier: no interval
        findings (banded denominators, saturating exp, provable NaN) and
        no unit clashes under the domain's declared annotations."""
        from repro.lint.triage import triage_domain

        report = triage_domain(spec)
        semantic = [d for d in report if d.rule[0] in ("A", "U")]
        assert not semantic, "\n".join(d.format() for d in semantic)

    def test_declared_annotations_parse(self, spec):
        from repro.lint.triage import context_for_domain

        context = context_for_domain(spec)
        assert context.annotation_report.ok(warnings_as_errors=True)


class TestTriageConformance:
    def test_recovery_survives_static_triage(self, spec, knowledge, mini_task):
        """The planted revision stays recoverable -- bit-identically --
        with static triage enabled."""
        seed = spec.conformance.mini_seed
        plain = GMREngine(
            knowledge, mini_task, conformance_config(spec)
        ).run(seed=seed)
        triaged = GMREngine(
            knowledge, mini_task, conformance_config(spec, static_triage=True)
        ).run(seed=seed)
        assert triaged.best_fitness == plain.best_fitness
        assert histories(triaged) == histories(plain)
        assert triaged.stats.evaluations == plain.stats.evaluations

    def test_resume_with_triage_is_bit_identical(
        self, spec, knowledge, mini_task, tmp_path
    ):
        config = conformance_config(
            spec, static_triage=True, checkpoint_every=1
        )
        seed = spec.conformance.mini_seed
        engine = GMREngine(knowledge, mini_task, config)
        full = engine.run(seed=seed)

        path = tmp_path / f"{spec.name}-triage.ckpt"
        with pytest.raises(SimulatedCrash):
            engine.run(seed=seed, checkpoint_path=path, progress=crash_at(2))
        resumed = engine.run(resume_from=path)
        assert resumed.best_fitness == full.best_fitness
        assert histories(resumed) == histories(full)
        assert resumed.stats.triage_skips == full.stats.triage_skips
