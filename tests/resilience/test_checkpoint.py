"""Checkpoint envelope: atomicity, integrity, versioning, resume guards.

Checkpoints exist for the moments when processes die mid-write, so this
suite attacks the on-disk format directly: flipped bytes, truncation,
foreign files, and future format versions must all surface as
:class:`CheckpointError`, never as a garbage resume; so must every
envelope older than the one format this build reads.
"""

from __future__ import annotations

import glob
import hashlib
import os
import pickle

import pytest

from repro.gp.checkpoint import (
    CHECKPOINT_VERSION,
    CheckpointError,
    RunCheckpoint,
    checkpoint_file,
    load_checkpoint,
    load_checkpoint_resilient,
    load_result,
    result_file,
    save_checkpoint,
    save_result,
)
from repro.gp.fitness import GMRFitnessEvaluator


@pytest.fixture()
def checkpointed(make_engine, tmp_path):
    """A completed run that checkpointed every generation."""
    engine = make_engine(checkpoint_every=1)
    path = tmp_path / "run.ckpt"
    result = engine.run(seed=5, checkpoint_path=path)
    return engine, path, result


class TestEnvelope:
    def test_round_trip(self, checkpointed):
        engine, path, result = checkpointed
        checkpoint = load_checkpoint(path)
        assert isinstance(checkpoint, RunCheckpoint)
        assert checkpoint.seed == 5
        assert checkpoint.generation == engine.config.max_generations
        assert checkpoint.config_repr == repr(engine.config)
        assert checkpoint.version == CHECKPOINT_VERSION
        assert len(checkpoint.population) == engine.config.population_size
        assert len(checkpoint.history) == len(result.history)
        assert checkpoint.best.fitness == result.best.fitness
        assert checkpoint.evaluator.stats.evaluations > 0

    def test_no_temp_file_litter(self, checkpointed, tmp_path):
        __, path, __ = checkpointed
        assert glob.glob(f"{path}.tmp.*") == []
        assert sorted(entry.name for entry in tmp_path.iterdir()) == [
            "run.ckpt"
        ]

    def test_bit_flip_detected(self, checkpointed):
        __, path, __ = checkpointed
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="integrity"):
            load_checkpoint(path)

    def test_truncation_detected(self, checkpointed):
        __, path, __ = checkpointed
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(CheckpointError, match="integrity"):
            load_checkpoint(path)

    def test_foreign_file_rejected(self, tmp_path):
        path = tmp_path / "notes.txt"
        path.write_bytes(b"definitely not a checkpoint, much longer than 40b")
        with pytest.raises(CheckpointError, match="not a checkpoint"):
            load_checkpoint(path)

    def test_future_version_rejected(self, checkpointed):
        __, path, __ = checkpointed
        blob = bytearray(path.read_bytes())
        blob[7] = CHECKPOINT_VERSION + 1  # the magic's version byte
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="could not read"):
            load_checkpoint(tmp_path / "nowhere.ckpt")

    def test_result_file_is_not_a_checkpoint(self, checkpointed, tmp_path):
        __, __, result = checkpointed
        path = tmp_path / "run.result"
        save_result(result, path)
        with pytest.raises(CheckpointError, match="not a checkpoint"):
            load_checkpoint(path)

    def test_wrong_payload_type_rejected(self, tmp_path):
        path = tmp_path / "imposter.ckpt"
        save_checkpoint({"not": "a checkpoint"}, path)
        with pytest.raises(CheckpointError, match="not a RunCheckpoint"):
            load_checkpoint(path)

    def test_result_round_trip(self, checkpointed, tmp_path):
        __, __, result = checkpointed
        path = tmp_path / "run.result"
        save_result(result, path)
        loaded = load_result(path)
        assert loaded.seed == result.seed
        assert loaded.best_fitness == result.best_fitness
        assert [g.best_fitness for g in loaded.history] == [
            g.best_fitness for g in result.history
        ]

    def test_canonical_paths(self, tmp_path):
        assert checkpoint_file(tmp_path, 3) == str(tmp_path / "run-3.ckpt")
        assert result_file(tmp_path, 3) == str(tmp_path / "run-3.result")


def _envelope(obj: object, magic: bytes) -> bytes:
    """A well-formed envelope around ``obj`` under an arbitrary magic."""
    payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    return magic + hashlib.sha256(payload).digest() + payload


class TestVersionRefusal:
    """This build reads only the current format: every older envelope is
    refused with a message naming the version found, never migrated."""

    @pytest.mark.parametrize("version", [1, 2, 3, 4])
    @pytest.mark.parametrize("kind", ["checkpoint", "result"])
    def test_older_envelope_refused(
        self, checkpointed, tmp_path, kind, version
    ):
        __, path, result = checkpointed
        if kind == "result":
            path = tmp_path / "run.result"
            save_result(result, path)
        blob = bytearray(path.read_bytes())
        blob[7] = version  # the magic's version byte
        path.write_bytes(bytes(blob))
        load = load_checkpoint if kind == "checkpoint" else load_result
        with pytest.raises(CheckpointError) as excinfo:
            load(path)
        message = str(excinfo.value)
        assert f"version {version}," in message
        assert f"reads only version {CHECKPOINT_VERSION}" in message

    def test_older_pickled_version_refused(self, checkpointed):
        __, path, __ = checkpointed
        checkpoint = load_checkpoint(path)
        checkpoint.version = 4
        path.write_bytes(_envelope(checkpoint, path.read_bytes()[:8]))
        with pytest.raises(CheckpointError, match="checkpoint version 4,"):
            load_checkpoint(path)

    def test_resilient_load_falls_back_to_current_ring_sibling(
        self, make_engine, tmp_path
    ):
        engine = make_engine(checkpoint_every=1, checkpoint_keep=2)
        path = tmp_path / "run.ckpt"
        engine.run(seed=5, checkpoint_path=path)
        stale = load_checkpoint(path)
        stale.version = 4
        path.write_bytes(_envelope(stale, path.read_bytes()[:8]))
        with pytest.warns(RuntimeWarning, match="retention-ring"):
            checkpoint = load_checkpoint_resilient(path)
        assert checkpoint.version == CHECKPOINT_VERSION
        assert checkpoint.generation == engine.config.max_generations


class TestCacheCounterPreservation:
    """Satellite fix: the checkpoint round-trip used to zero the
    compiled-cache hit/miss/eviction counters (the evaluator's
    ``__getstate__`` swapped in a fresh ``KernelCache``), so resumed
    runs under-reported cache traffic.  The evaluator now holds no
    kernel table: ``compiled_cache`` is the process-global one, which a
    checkpoint does not carry."""

    def test_kernel_cache_counters_survive_pickling(self, checkpointed):
        __, path, __ = checkpointed
        checkpoint = load_checkpoint(path)
        stats = checkpoint.evaluator.compiled_cache.stats
        assert stats.misses > 0  # compilation happened before the snapshot
        round_tripped = pickle.loads(pickle.dumps(checkpoint))
        revived = round_tripped.evaluator.compiled_cache.stats
        assert (revived.hits, revived.misses, revived.evictions) == (
            stats.hits,
            stats.misses,
            stats.evictions,
        )

    def test_tree_cache_counters_survive_pickling(self, checkpointed):
        __, path, __ = checkpointed
        checkpoint = load_checkpoint(path)
        stats = checkpoint.evaluator.cache.stats
        round_tripped = pickle.loads(pickle.dumps(checkpoint))
        revived = round_tripped.evaluator.cache.stats
        assert (revived.hits, revived.misses, revived.evictions) == (
            stats.hits,
            stats.misses,
            stats.evictions,
        )


class TestResumeGuards:
    def test_config_mismatch_refused(self, checkpointed, make_engine):
        __, path, __ = checkpointed
        other = make_engine(checkpoint_every=1, population_size=8)
        with pytest.raises(CheckpointError, match="different engine"):
            other.run(resume_from=path)

    def test_seed_mismatch_refused(self, checkpointed):
        engine, path, __ = checkpointed
        with pytest.raises(CheckpointError, match="seed"):
            engine.run(seed=6, resume_from=path)

    def test_matching_seed_accepted(self, checkpointed):
        engine, path, result = checkpointed
        resumed = engine.run(seed=5, resume_from=path)
        assert resumed.best_fitness == result.best_fitness

    def test_evaluator_conflict_refused(self, checkpointed, toy_task):
        engine, path, __ = checkpointed
        evaluator = GMRFitnessEvaluator(task=toy_task, config=engine.config)
        with pytest.raises(CheckpointError, match="evaluator"):
            engine.run(resume_from=path, evaluator=evaluator)

    def test_no_snapshot_without_cadence(self, make_engine, tmp_path):
        engine = make_engine()  # checkpoint_every defaults to 0
        path = tmp_path / "run.ckpt"
        engine.run(seed=0, checkpoint_path=path)
        assert not path.exists()


class TestTriageContextStaysOut:
    """The per-task triage context, hull memo included, is rebuilt after
    unpickling and never written into an envelope."""

    def test_hull_memo_is_dropped_on_pickling(self, tmp_path):
        from repro.gp.config import GMRConfig
        from repro.gp.engine import GMREngine

        config = GMRConfig(
            population_size=8, max_generations=2, max_size=12,
            init_max_size=8, local_search_steps=1, eval_batch_size=8,
            static_triage=True, checkpoint_every=1, domain="sir",
        )
        engine = GMREngine.for_domain("sir", config)
        evaluator = engine.make_evaluator()
        path = tmp_path / "run.ckpt"
        engine.run(seed=3, checkpoint_path=path, evaluator=evaluator)
        memo = evaluator._triage_context.hull_memo
        assert any(bounds is not None for bounds in memo.values())

        clone = pickle.loads(pickle.dumps(evaluator))
        assert clone._triage_context is None
        assert clone._triage_context_for_task().hull_memo == {}
        # The envelope's evaluator pickles to the same bytes with and
        # without the filled memo, so checkpoints do not grow with it.
        filled = pickle.dumps(evaluator)
        evaluator._triage_context = None
        assert pickle.dumps(evaluator) == filled
        assert load_checkpoint(path).evaluator._triage_context is None
