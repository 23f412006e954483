"""Crash/resume equivalence: the tier-1 acceptance property.

A run resumed from the checkpoint of generation *g* must reproduce the
remaining generations bit-identically to the uninterrupted run -- same
``best_fitness`` history, same champion, same evaluation statistics --
for a crash at *any* generation.
"""

from __future__ import annotations

import pytest

import repro.dynamics.system as system
from repro.gp.checkpoint import load_checkpoint
from repro.lru import LRU


class SimulatedCrash(RuntimeError):
    """Stands in for the process dying mid-run."""


def crash_at(generation: int):
    def progress(g, record):
        if g == generation:
            raise SimulatedCrash(f"crashed at generation {g}")

    return progress


def histories(result):
    return [record.best_fitness for record in result.history]


class TestCrashResumeEquivalence:
    @pytest.mark.parametrize("crash_generation", [0, 1, 2, 3])
    def test_resume_reproduces_uninterrupted_run(
        self, make_engine, tmp_path, crash_generation
    ):
        engine = make_engine(checkpoint_every=1, max_generations=4)
        full = engine.run(seed=9)

        path = tmp_path / "run.ckpt"
        with pytest.raises(SimulatedCrash):
            engine.run(
                seed=9,
                checkpoint_path=path,
                progress=crash_at(crash_generation),
            )
        checkpoint = load_checkpoint(path)
        # The snapshot lands before the progress callback, so a crash at
        # generation g leaves a checkpoint of exactly generation g.
        assert checkpoint.generation == crash_generation

        resumed = engine.run(resume_from=path)
        assert resumed.seed == full.seed
        assert resumed.best_fitness == full.best_fitness
        assert histories(resumed) == histories(full)
        assert resumed.stats.evaluations == full.stats.evaluations
        assert resumed.elapsed > 0.0

    def test_coarse_cadence_resumes_from_last_snapshot(
        self, make_engine, tmp_path
    ):
        engine = make_engine(checkpoint_every=2, max_generations=4)
        full = engine.run(seed=4)

        path = tmp_path / "run.ckpt"
        with pytest.raises(SimulatedCrash):
            engine.run(seed=4, checkpoint_path=path, progress=crash_at(3))
        # Crash at 3 with a cadence of 2: the last snapshot is generation 2.
        assert load_checkpoint(path).generation == 2

        resumed = engine.run(resume_from=path)
        assert histories(resumed) == histories(full)
        assert resumed.best_fitness == full.best_fitness

    def test_resume_accepts_in_memory_checkpoint(self, make_engine, tmp_path):
        engine = make_engine(checkpoint_every=1, max_generations=3)
        full = engine.run(seed=2)
        path = tmp_path / "run.ckpt"
        with pytest.raises(SimulatedCrash):
            engine.run(seed=2, checkpoint_path=path, progress=crash_at(1))
        checkpoint = load_checkpoint(path)
        resumed = engine.run(resume_from=checkpoint)
        assert histories(resumed) == histories(full)

    def test_resume_from_final_snapshot_is_a_no_op_replay(
        self, make_engine, tmp_path
    ):
        engine = make_engine(checkpoint_every=1, max_generations=3)
        path = tmp_path / "run.ckpt"
        full = engine.run(seed=1, checkpoint_path=path)
        resumed = engine.run(resume_from=path)
        assert histories(resumed) == histories(full)
        assert resumed.best_fitness == full.best_fitness
        # All generations were already done; nothing was re-evaluated.
        assert resumed.stats.evaluations == full.stats.evaluations

    def test_checkpointing_does_not_change_results(self, make_engine, tmp_path):
        plain = make_engine(max_generations=3)
        snapshotting = make_engine(max_generations=3, checkpoint_every=1)
        theirs = plain.run(seed=7)
        ours = snapshotting.run(
            seed=7, checkpoint_path=tmp_path / "run.ckpt"
        )
        assert histories(ours) == histories(theirs)

    def test_resume_with_warm_capped_caches(
        self, make_engine, tmp_path, monkeypatch
    ):
        """Satellite fix: resume equivalence with caches small enough to
        evict.  The checkpoint round-trip used to zero the compiled
        cache's counters, so the resumed run's cache statistics drifted
        from the uninterrupted run even though its search was identical.
        The kernel table is process-global now; a two-entry one churns
        as hard, and since kernels are keyed on the exact tree, what is
        evicted and rebuilt cannot change a result.
        """
        kernels = LRU(2)
        monkeypatch.setattr(system, "KERNEL_CACHE", kernels)

        def capped(**overrides):
            return make_engine(
                checkpoint_every=1,
                max_generations=4,
                tree_cache_size=2,
                **overrides,
            )

        full = capped().run(seed=9)
        # Tiny caps must actually churn the caches or the test is vacuous.
        assert full.stats.evaluations > 4

        path = tmp_path / "run.ckpt"
        engine = capped()
        with pytest.raises(SimulatedCrash):
            engine.run(seed=9, checkpoint_path=path, progress=crash_at(2))
        # The two-entry kernel table churned.
        assert kernels.stats.misses > 0
        assert kernels.stats.evictions > 0
        checkpoint = load_checkpoint(path)
        tree_stats = checkpoint.evaluator.cache.stats
        # The snapshot carries the warm counters, not zeroed ones --
        # including evictions, the counter the old round-trip dropped.
        assert tree_stats.misses > 0
        assert tree_stats.evictions > 0

        resumed = capped().run(resume_from=path)
        assert histories(resumed) == histories(full)
        assert resumed.best_fitness == full.best_fitness
        assert resumed.stats.evaluations == full.stats.evaluations
        assert resumed.stats.cache_hits == full.stats.cache_hits
