"""Domain-aware checkpoints: envelope fields and resume guards.

The envelope records the domain name and its spec hash; resume refuses
the wrong domain or a changed spec with a clear :class:`CheckpointError`.
"""

from __future__ import annotations

import copy

import pytest

from repro.domains import DomainNotFoundError, get_domain
from repro.gp import GMRConfig, GMREngine
from repro.gp.checkpoint import CheckpointError, load_checkpoint

from tests.domains.conftest import conformance_config
from tests.gp.conftest import (  # noqa: F401 - shared toy problem
    toy_grammar,
    toy_knowledge,
    toy_task,
)


def histories(result):
    return [record.best_fitness for record in result.history]


@pytest.fixture()
def lv_engine(tmp_path):
    spec = get_domain("lotka_volterra")
    return GMREngine(
        spec.make_knowledge(),
        spec.mini_task("train"),
        conformance_config(spec, max_generations=2, checkpoint_every=1),
    )


@pytest.fixture()
def lv_checkpoint_path(lv_engine, tmp_path):
    path = tmp_path / "lv.ckpt"
    lv_engine.run(seed=1, checkpoint_path=path)
    return path


class TestEnvelope:
    def test_records_domain_and_spec_hash(self, lv_checkpoint_path):
        checkpoint = load_checkpoint(lv_checkpoint_path)
        assert checkpoint.domain == "lotka_volterra"
        expected = get_domain("lotka_volterra").spec_hash()
        assert checkpoint.domain_spec_hash == expected

    def test_hand_built_engine_records_registered_river_hash(
        self, toy_knowledge, toy_task, tmp_path
    ):
        """Engines that never went through the registry checkpoint under
        the default domain; the recorded hash is whatever ``river``
        currently hashes to (or '' were it unregistered)."""
        engine = GMREngine(
            toy_knowledge,
            toy_task,
            GMRConfig(
                population_size=6,
                max_generations=2,
                max_size=8,
                local_search_steps=1,
                checkpoint_every=1,
            ),
        )
        path = tmp_path / "toy.ckpt"
        engine.run(seed=3, checkpoint_path=path)
        checkpoint = load_checkpoint(path)
        assert checkpoint.domain == "river"
        assert checkpoint.domain_spec_hash == get_domain("river").spec_hash()


class TestResumeGuards:
    def test_wrong_domain_is_refused(self, lv_engine, lv_checkpoint_path):
        wrong = GMREngine(
            lv_engine.knowledge,
            lv_engine.task,
            conformance_config(
                get_domain("lotka_volterra"),
                max_generations=2,
                checkpoint_every=1,
                domain="sir",
            ),
        )
        with pytest.raises(CheckpointError) as excinfo:
            wrong.run(resume_from=lv_checkpoint_path)
        message = str(excinfo.value)
        assert "'lotka_volterra'" in message
        assert "'sir'" in message

    def test_changed_spec_hash_is_refused(self, lv_engine, lv_checkpoint_path):
        checkpoint = load_checkpoint(lv_checkpoint_path)
        checkpoint.domain_spec_hash = "0" * 64
        with pytest.raises(CheckpointError, match="spec changed"):
            lv_engine.run(resume_from=checkpoint)

    def test_empty_saved_hash_skips_the_comparison(
        self, lv_engine, lv_checkpoint_path
    ):
        checkpoint = load_checkpoint(lv_checkpoint_path)
        checkpoint.domain_spec_hash = ""
        result = lv_engine.run(resume_from=checkpoint)
        assert result.best_fitness == lv_engine.run(seed=1).best_fitness

    def test_matching_domain_resumes(self, lv_engine, lv_checkpoint_path):
        resumed = lv_engine.run(resume_from=lv_checkpoint_path)
        assert histories(resumed) == histories(lv_engine.run(seed=1))


class TestForDomain:
    def test_builds_engine_from_registry(self):
        engine = GMREngine.for_domain(
            "sir", conformance_config(get_domain("sir")), mini=True
        )
        assert engine.config.domain == "sir"
        assert engine.task.target_state == "I"
        assert tuple(engine.task.state_names) == ("S", "I", "R")

    def test_stamps_domain_into_config(self):
        engine = GMREngine.for_domain("lotka_volterra", mini=True)
        assert engine.config.domain == "lotka_volterra"

    def test_unknown_domain_raises(self):
        with pytest.raises(DomainNotFoundError):
            GMREngine.for_domain("atlantis")

    def test_checkpoints_of_for_domain_engines_interoperate(self, tmp_path):
        spec = get_domain("sir")
        config = conformance_config(
            spec, max_generations=2, checkpoint_every=1
        )
        engine = GMREngine.for_domain("sir", config, mini=True)
        path = tmp_path / "sir.ckpt"
        full = engine.run(seed=2, checkpoint_path=path)

        fresh = GMREngine.for_domain("sir", copy.deepcopy(config), mini=True)
        resumed = fresh.run(resume_from=path)
        assert histories(resumed) == histories(full)
