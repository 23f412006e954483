"""Failure policies: fail_fast / collect / retry, serial and pooled.

The acceptance property: a campaign of N runs where one seed fails
yields N-1 completed runs plus one structured :class:`RunFailure` under
``collect``, succeeds entirely under ``retry`` when the fault is
transient, and raises promptly under ``fail_fast``.
"""

from __future__ import annotations

import pytest

from repro.gp.engine import GMREngine, run_many
from repro.gp.parallel import ParallelRunError, run_many_parallel
from repro.gp.resilience import (
    CampaignError,
    CampaignResult,
    FailurePolicy,
    ResilienceConfigError,
    RetryPolicy,
    RunFailure,
    run_campaign,
)
from tests.faults import FaultInjectingEngine, FaultPlan, current_attempt


class TestRetryPolicy:
    def test_delay_is_deterministic(self):
        policy = RetryPolicy(backoff_base=0.1, jitter=0.5)
        assert policy.delay(3, 2) == policy.delay(3, 2)

    def test_delay_within_jitter_band(self):
        policy = RetryPolicy(
            backoff_base=0.1, backoff_factor=2.0, jitter=0.25
        )
        for attempt in (1, 2, 3):
            raw = 0.1 * 2.0 ** (attempt - 1)
            for seed in range(20):
                delay = policy.delay(seed, attempt)
                assert raw * 0.75 <= delay <= raw * 1.25

    def test_delay_decorrelated_across_seeds(self):
        policy = RetryPolicy(backoff_base=1.0, jitter=0.25)
        delays = {policy.delay(seed, 1) for seed in range(10)}
        assert len(delays) > 1

    def test_delay_capped(self):
        policy = RetryPolicy(
            backoff_base=10.0, backoff_factor=10.0, backoff_max=15.0, jitter=0.0
        )
        assert policy.delay(0, 5) == 15.0

    def test_zero_jitter_is_exact(self):
        policy = RetryPolicy(backoff_base=0.2, backoff_factor=3.0, jitter=0.0)
        assert policy.delay(7, 2) == pytest.approx(0.6)

    def test_attempt_numbering_starts_at_one(self):
        with pytest.raises(ResilienceConfigError):
            RetryPolicy().delay(0, 0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_attempts": 0},
            {"backoff_base": -0.1},
            {"backoff_factor": 0.5},
            {"backoff_max": -1.0},
            {"jitter": 1.5},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ResilienceConfigError):
            RetryPolicy(**kwargs)


class TestFailurePolicy:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ResilienceConfigError, match="mode"):
            FailurePolicy(mode="shrug")

    def test_nonpositive_timeout_rejected(self):
        with pytest.raises(ResilienceConfigError, match="timeout"):
            FailurePolicy.collect(timeout=0.0)

    def test_max_attempts_only_counts_under_retry(self):
        assert FailurePolicy.collect().max_attempts == 1
        assert FailurePolicy.fail_fast().max_attempts == 1
        assert FailurePolicy.retrying(max_attempts=4).max_attempts == 4


class TestCampaignResult:
    def _failure(self, seed: int) -> RunFailure:
        return RunFailure.from_exception(
            seed, 2, ValueError("boom"), elapsed=0.5
        )

    def test_ok_and_counts(self):
        clean = CampaignResult(completed=[], failed=[])
        assert clean.ok and clean.n_runs == 0
        broken = CampaignResult(completed=[], failed=[self._failure(3)])
        assert not broken.ok and broken.n_runs == 1

    def test_raise_if_failed_names_seed(self):
        broken = CampaignResult(completed=[], failed=[self._failure(3)])
        with pytest.raises(CampaignError, match="seed 3"):
            broken.results()

    def test_failure_record_captures_cause(self):
        failure = self._failure(3)
        assert failure.error_type == "ValueError"
        assert failure.message == "boom"
        assert "ValueError: boom" in failure.traceback
        assert "seed 3" in failure.describe()
        assert "2 attempt" in failure.describe()


#: One seed of the campaign fails on every attempt.
PERSISTENT = 10**6


def faulty_engine(make_engine, tmp_path, plan: FaultPlan, **overrides):
    return make_engine(
        engine_cls=FaultInjectingEngine,
        engine_kwargs={"plan": plan, "attempt_dir": str(tmp_path)},
        max_generations=2,
        **overrides,
    )


@pytest.mark.parametrize("max_workers", [1, 2])
class TestPolicySemantics:
    def test_collect_keeps_the_other_runs(
        self, make_engine, tmp_path, max_workers
    ):
        engine = faulty_engine(
            make_engine, tmp_path, FaultPlan(fail_seed_attempts={2: PERSISTENT})
        )
        outcome = run_many_parallel(
            engine,
            4,
            base_seed=0,
            max_workers=max_workers,
            policy=FailurePolicy.collect(),
        )
        assert isinstance(outcome, CampaignResult)
        assert [r.seed for r in outcome.completed] == [0, 1, 3]
        (failure,) = outcome.failed
        assert failure.seed == 2
        assert failure.attempts == 1
        assert failure.error_type == "InjectedFault"
        assert "injected run failure" in failure.message
        assert "InjectedFault" in failure.traceback
        assert failure.elapsed >= 0.0

    def test_retry_recovers_from_transient_fault(
        self, make_engine, tmp_path, max_workers
    ):
        engine = faulty_engine(
            make_engine, tmp_path, FaultPlan(fail_seed_attempts={1: 2})
        )
        outcome = run_many_parallel(
            engine,
            3,
            base_seed=0,
            max_workers=max_workers,
            policy=FailurePolicy.retrying(max_attempts=3, backoff_base=0.0),
        )
        assert outcome.ok
        assert [r.seed for r in outcome.completed] == [0, 1, 2]
        # The ledger shows the transient seed needed all three attempts
        # and the healthy seeds exactly one.
        assert current_attempt(str(tmp_path), 1) == 3
        assert current_attempt(str(tmp_path), 0) == 1
        assert current_attempt(str(tmp_path), 2) == 1

    def test_retry_exhaustion_records_attempt_count(
        self, make_engine, tmp_path, max_workers
    ):
        engine = faulty_engine(
            make_engine, tmp_path, FaultPlan(fail_seed_attempts={0: PERSISTENT})
        )
        outcome = run_many_parallel(
            engine,
            2,
            base_seed=0,
            max_workers=max_workers,
            policy=FailurePolicy.retrying(max_attempts=2, backoff_base=0.0),
        )
        (failure,) = outcome.failed
        assert failure.seed == 0
        assert failure.attempts == 2
        assert [r.seed for r in outcome.completed] == [1]

    def test_fail_fast_raises_and_names_seed(
        self, make_engine, tmp_path, max_workers
    ):
        engine = faulty_engine(
            make_engine, tmp_path, FaultPlan(fail_seed_attempts={1: PERSISTENT})
        )
        with pytest.raises(ParallelRunError) as excinfo:
            run_many_parallel(
                engine,
                3,
                base_seed=0,
                max_workers=max_workers,
                policy=FailurePolicy.fail_fast(),
            )
        assert excinfo.value.seed == 1

    def test_completed_runs_match_healthy_serial(
        self, make_engine, tmp_path, max_workers
    ):
        engine = faulty_engine(
            make_engine, tmp_path, FaultPlan(fail_seed_attempts={1: 1})
        )
        outcome = run_many_parallel(
            engine,
            3,
            base_seed=0,
            max_workers=max_workers,
            policy=FailurePolicy.retrying(max_attempts=2, backoff_base=0.0),
        )
        healthy = make_engine(engine_cls=GMREngine, max_generations=2)
        reference = run_many(healthy, 3, base_seed=0)
        assert [r.best_fitness for r in outcome.results()] == [
            r.best_fitness for r in reference
        ]


@pytest.mark.parametrize("max_workers", [1, 2])
class TestRetryAccounting:
    """Satellite audit: a retried seed's evaluation statistics must
    count the successful attempt exactly once -- the failed attempt's
    partial :class:`EvaluationStats` never reach the merged result,
    neither on the serial path nor through the process-pool chunk merge.
    """

    def test_retried_seed_counts_one_attempts_work(
        self, make_engine, tmp_path, max_workers
    ):
        ledger = tmp_path / "ledger"
        markers = tmp_path / "markers"
        ledger.mkdir()
        markers.mkdir()
        # One injected mid-run failure, fired exactly once campaign-wide
        # (the marker dir), and only on a seed's first attempt -- the
        # retry then completes cleanly.
        engine = make_engine(
            engine_cls=FaultInjectingEngine,
            engine_kwargs={
                "plan": FaultPlan(
                    fail_at_evaluation=5,
                    max_faulty_attempts=1,
                    once_marker_dir=str(markers),
                ),
                "attempt_dir": str(ledger),
            },
            max_generations=2,
        )
        outcome = run_campaign(
            engine,
            3,
            base_seed=0,
            max_workers=max_workers,
            policy=FailurePolicy.retrying(max_attempts=3, backoff_base=0.0),
        )
        assert outcome.ok

        clean = make_engine(engine_cls=GMREngine, max_generations=2)
        reference = run_many(clean, 3, base_seed=0)

        # Exactly one seed needed a retry; the fault fired exactly once.
        attempts = [current_attempt(str(ledger), seed) for seed in range(3)]
        assert sorted(attempts) == [1, 1, 2]

        # Per-seed accounting matches the clean campaign exactly: the
        # failed attempt's partial evaluations are not double-merged.
        by_seed = {r.seed: r for r in outcome.results()}
        for ref in reference:
            result = by_seed[ref.seed]
            assert result.stats.evaluations == ref.stats.evaluations
            assert result.stats.cache_hits == ref.stats.cache_hits
            assert result.best_fitness == ref.best_fitness
        total = sum(r.stats.evaluations for r in outcome.results())
        assert total == sum(r.stats.evaluations for r in reference)


class TestRunCampaign:
    def test_default_policy_collects(self, make_engine, tmp_path):
        engine = faulty_engine(
            make_engine, tmp_path, FaultPlan(fail_seed_attempts={0: PERSISTENT})
        )
        outcome = run_campaign(engine, 2, base_seed=0, max_workers=1)
        assert not outcome.ok
        assert [r.seed for r in outcome.completed] == [1]

    def test_completed_results_are_reused(self, make_engine, tmp_path):
        ledger = tmp_path / "ledger"
        ledger.mkdir()
        checkpoints = tmp_path / "ckpt"
        engine = make_engine(
            engine_cls=FaultInjectingEngine,
            engine_kwargs={"plan": FaultPlan(), "attempt_dir": str(ledger)},
            max_generations=2,
        )
        first = run_campaign(
            engine, 3, max_workers=1, checkpoint_dir=checkpoints
        )
        assert first.ok and len(first.completed) == 3
        second = run_campaign(
            engine, 3, max_workers=1, checkpoint_dir=checkpoints
        )
        assert [r.best_fitness for r in second.results()] == [
            r.best_fitness for r in first.results()
        ]
        # The ledger proves completed seeds were loaded, not re-run.
        for seed in range(3):
            assert current_attempt(str(ledger), seed) == 1

    def test_corrupt_result_is_recomputed_with_warning(
        self, make_engine, tmp_path
    ):
        ledger = tmp_path / "ledger"
        ledger.mkdir()
        checkpoints = tmp_path / "ckpt"
        engine = make_engine(
            engine_cls=FaultInjectingEngine,
            engine_kwargs={"plan": FaultPlan(), "attempt_dir": str(ledger)},
            max_generations=2,
        )
        first = run_campaign(
            engine, 2, max_workers=1, checkpoint_dir=checkpoints
        )
        victim = checkpoints / "run-1.result"
        blob = bytearray(victim.read_bytes())
        blob[-1] ^= 0xFF
        victim.write_bytes(bytes(blob))
        with pytest.warns(RuntimeWarning, match="re-running seed 1"):
            second = run_campaign(
                engine, 2, max_workers=1, checkpoint_dir=checkpoints
            )
        assert [r.best_fitness for r in second.results()] == [
            r.best_fitness for r in first.results()
        ]
        assert current_attempt(str(ledger), 0) == 1
        assert current_attempt(str(ledger), 1) == 2

    def test_interrupted_run_resumes_from_snapshot(
        self, make_engine, tmp_path
    ):
        checkpoints = tmp_path / "ckpt"
        checkpoints.mkdir()
        engine = make_engine(checkpoint_every=1, max_generations=3)
        full = engine.run(seed=0)

        # Simulate an interrupted campaign: a mid-run snapshot exists but
        # no result file.  The campaign must finish the run from there
        # and reproduce the uninterrupted history.
        from repro.gp.checkpoint import checkpoint_file

        class Crash(RuntimeError):
            pass

        def crash(generation, record):
            if generation == 1:
                raise Crash

        with pytest.raises(Crash):
            engine.run(
                seed=0,
                checkpoint_path=checkpoint_file(checkpoints, 0),
                progress=crash,
            )
        outcome = run_campaign(
            engine, 1, max_workers=1, checkpoint_dir=checkpoints
        )
        (resumed,) = outcome.results()
        assert [g.best_fitness for g in resumed.history] == [
            g.best_fitness for g in full.history
        ]
        # The finished run replaced its snapshot with a result file.
        assert not (checkpoints / "run-0.ckpt").exists()
        assert (checkpoints / "run-0.result").exists()

    def test_empty_campaign(self, make_engine):
        outcome = run_campaign(make_engine(), 0)
        assert outcome.ok and outcome.n_runs == 0
