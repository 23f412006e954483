"""Failure policies and campaign orchestration (fault tolerance, tier 2).

The paper's experiments are long campaigns of repeated independent runs
(60 per method); at that scale worker crashes, OOM kills, and preemption
are routine, and an all-or-nothing campaign wastes everything it already
computed.  This module defines *what should happen when a run fails*:

* :class:`FailurePolicy` -- ``fail_fast`` (the historical behaviour:
  raise on the first failure), ``collect`` (finish everything else and
  return structured :class:`RunFailure` records alongside the completed
  results), or ``retry`` (re-attempt failed seeds under a
  :class:`RetryPolicy` before giving up collect-style).
* :class:`RetryPolicy` -- bounded attempts with exponential backoff and
  *deterministic* jitter derived from the seed and attempt number, so a
  retried campaign behaves identically on every host.
* :class:`CampaignResult` -- completed runs plus structured failures, so
  N-1 good runs survive one bad seed.
* :func:`run_campaign` -- campaign-level durability on top of
  :func:`repro.gp.parallel.run_many_parallel`: completed results persist
  to a checkpoint directory and interrupted runs resume from their
  per-run snapshots (:mod:`repro.gp.checkpoint`), so re-invoking after a
  crash only pays for the work not yet done.
"""

from __future__ import annotations

import os
import random
import traceback as traceback_module
import warnings
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, ContextManager, Iterable

from repro.gp.checkpoint import (
    CheckpointError,
    claim_checkpoint_dir,
    load_result,
    result_file,
)
from repro.obs.trace import Tracer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.gp.engine import GMREngine, RunResult
    from repro.obs.metrics import MetricsRegistry

#: The three failure-policy modes.
FAIL_FAST = "fail_fast"
COLLECT = "collect"
RETRY = "retry"

_MODES = (FAIL_FAST, COLLECT, RETRY)


class ResilienceConfigError(ValueError):
    """Raised for inconsistent retry/failure-policy configurations."""


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with exponential backoff and deterministic jitter.

    Attributes:
        max_attempts: Total attempts per seed (1 = no retries).
        backoff_base: Delay before the first retry, seconds.
        backoff_factor: Multiplier applied per subsequent retry.
        backoff_max: Upper bound on any single delay, seconds.
        jitter: Fractional jitter band; the delay is scaled by a factor
            in ``[1 - jitter, 1 + jitter]`` drawn from an RNG seeded with
            the run seed and attempt number -- deterministic, so retried
            campaigns stay reproducible, yet decorrelated across seeds so
            retried workers do not stampede in lock-step.
    """

    max_attempts: int = 3
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 30.0
    jitter: float = 0.25

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ResilienceConfigError("max_attempts must be >= 1")
        if self.backoff_base < 0:
            raise ResilienceConfigError("backoff_base must be >= 0")
        if self.backoff_factor < 1:
            raise ResilienceConfigError("backoff_factor must be >= 1")
        if self.backoff_max < 0:
            raise ResilienceConfigError("backoff_max must be >= 0")
        if self.jitter < 0 or self.jitter > 1:
            raise ResilienceConfigError("jitter must lie in [0, 1]")

    def delay(self, seed: int, attempt: int) -> float:
        """Seconds to wait before retrying ``seed`` after ``attempt``
        failed attempts (``attempt >= 1``); pure in its arguments."""
        if attempt < 1:
            raise ResilienceConfigError("attempt numbering starts at 1")
        raw = min(
            self.backoff_max,
            self.backoff_base * self.backoff_factor ** (attempt - 1),
        )
        if self.jitter == 0 or raw == 0:
            return raw
        unit = random.Random(seed * 1_000_003 + attempt).random()
        return raw * (1.0 + self.jitter * (2.0 * unit - 1.0))


@dataclass(frozen=True)
class FailurePolicy:
    """What a campaign does when an individual run fails.

    Attributes:
        mode: ``fail_fast`` raises :class:`~repro.gp.parallel.
            ParallelRunError` on the first failure (cancelling outstanding
            work); ``collect`` records a :class:`RunFailure` and keeps
            going; ``retry`` re-attempts per ``retry`` before recording.
        retry: Retry schedule (consulted only in ``retry`` mode).
        timeout: Per-run watchdog in seconds, or None.  Enforced on
            pooled execution, measured from the submission of the run's
            round; a run that exceeds it is recorded as failed with a
            ``TimeoutError``.  (A queued run shares its round's clock, so
            treat this as a budget for *round* stragglers, not a precise
            per-process limit.)
        max_pool_rebuilds: How many times a campaign may rebuild a pool
            that broke (``BrokenProcessPool`` -- a worker was OOM-killed
            or segfaulted) and re-submit the affected seeds before
            treating the breakage as a per-run failure.  Re-submission
            after a pool break does not consume retry attempts: the run
            never got to fail on its own.
    """

    mode: str = FAIL_FAST
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    timeout: float | None = None
    max_pool_rebuilds: int = 2

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise ResilienceConfigError(
                f"unknown failure-policy mode {self.mode!r}; "
                f"choose from {_MODES}"
            )
        if self.timeout is not None and self.timeout <= 0:
            raise ResilienceConfigError("timeout must be positive or None")
        if self.max_pool_rebuilds < 0:
            raise ResilienceConfigError("max_pool_rebuilds must be >= 0")

    @classmethod
    def fail_fast(cls, timeout: float | None = None) -> "FailurePolicy":
        """Raise on the first failure (the historical contract)."""
        return cls(mode=FAIL_FAST, timeout=timeout)

    @classmethod
    def collect(cls, timeout: float | None = None) -> "FailurePolicy":
        """Keep going; return failures alongside completed runs."""
        return cls(mode=COLLECT, timeout=timeout)

    @classmethod
    def retrying(
        cls,
        max_attempts: int = 3,
        backoff_base: float = 0.05,
        backoff_factor: float = 2.0,
        backoff_max: float = 30.0,
        jitter: float = 0.25,
        timeout: float | None = None,
    ) -> "FailurePolicy":
        """Retry failed seeds, then collect whatever still fails."""
        return cls(
            mode=RETRY,
            retry=RetryPolicy(
                max_attempts=max_attempts,
                backoff_base=backoff_base,
                backoff_factor=backoff_factor,
                backoff_max=backoff_max,
                jitter=jitter,
            ),
            timeout=timeout,
        )

    @property
    def max_attempts(self) -> int:
        """Attempts per seed under this policy (1 unless retrying)."""
        return self.retry.max_attempts if self.mode == RETRY else 1


@dataclass(frozen=True)
class RunFailure:
    """Structured record of one seed that could not be completed.

    Attributes:
        seed: The failed run's seed.
        attempts: How many attempts were made before giving up.
        error_type: Qualified name of the final exception's type.
        message: ``str()`` of the final exception.
        traceback: Formatted traceback of the final exception (includes
            the remote traceback when the failure crossed a process
            boundary).
        elapsed: Wall-clock seconds spent on this seed across attempts.
    """

    seed: int
    attempts: int
    error_type: str
    message: str
    traceback: str
    elapsed: float

    @classmethod
    def from_exception(
        cls,
        seed: int,
        attempts: int,
        error: BaseException,
        elapsed: float,
    ) -> "RunFailure":
        """Capture an exception (and its cause chain) as a record."""
        return cls(
            seed=seed,
            attempts=attempts,
            error_type=type(error).__name__,
            message=str(error),
            traceback="".join(
                traceback_module.format_exception(
                    type(error), error, error.__traceback__
                )
            ),
            elapsed=elapsed,
        )

    def describe(self) -> str:
        return (
            f"seed {self.seed} failed after {self.attempts} attempt(s) "
            f"in {self.elapsed:.1f}s: {self.error_type}: {self.message}"
        )


class CampaignError(RuntimeError):
    """Raised by :meth:`CampaignResult.raise_if_failed`."""

    def __init__(self, failures: Iterable[RunFailure]) -> None:
        self.failures = list(failures)
        lines = "; ".join(failure.describe() for failure in self.failures)
        super().__init__(
            f"{len(self.failures)} run(s) failed permanently: {lines}"
        )


@dataclass
class CampaignResult:
    """Outcome of a fault-tolerant campaign: partial results survive.

    Attributes:
        completed: Successfully finished runs, in seed order.
        failed: Structured records of permanently failed seeds, in seed
            order (empty under ``fail_fast``, which raises instead).
        stop_reason: Why the campaign stopped early, if it did
            (``budget:*`` or ``signal:*``, from the first run the
            :class:`~repro.gp.governor.RunGovernor` stopped), or None
            for a campaign that ran to completion.  A stopped run's
            partial result is in ``completed`` but keeps its checkpoint
            on disk, so re-invoking the campaign with a larger budget
            resumes it.
    """

    completed: list["RunResult"]
    failed: list[RunFailure]
    stop_reason: str | None = None

    @property
    def ok(self) -> bool:
        return not self.failed

    @property
    def n_runs(self) -> int:
        return len(self.completed) + len(self.failed)

    def raise_if_failed(self) -> None:
        """Raise :class:`CampaignError` if any seed failed permanently."""
        if self.failed:
            raise CampaignError(self.failed)

    def results(self) -> list["RunResult"]:
        """The completed runs, after asserting there were no failures."""
        self.raise_if_failed()
        return self.completed

    def publish(
        self, registry: "MetricsRegistry", prefix: str = "campaign"
    ) -> None:
        """Publish campaign outcomes into a metrics registry.

        Counts completed/failed seeds, folds every completed run's
        evaluation statistics into ``<prefix>.eval.*``, and feeds the
        per-run best fitnesses into a histogram.
        """
        registry.counter(f"{prefix}.completed").inc(len(self.completed))
        registry.counter(f"{prefix}.failed").inc(len(self.failed))
        retries = sum(
            max(0, failure.attempts - 1) for failure in self.failed
        )
        registry.counter(f"{prefix}.failed_attempts").inc(retries)
        best = registry.histogram(f"{prefix}.best_fitness")
        for result in self.completed:
            result.stats.publish(registry, prefix=f"{prefix}.eval")
            best.observe(result.best_fitness)


def run_campaign(
    engine: "GMREngine",
    n_runs: int,
    base_seed: int = 0,
    max_workers: int | None = None,
    policy: FailurePolicy | None = None,
    checkpoint_dir: str | os.PathLike[str] | None = None,
    tracer: Tracer | None = None,
    lock: bool = True,
    lock_wait: float = 0.0,
) -> CampaignResult:
    """Run a campaign of independent seeded runs with durable state.

    Like :func:`repro.gp.parallel.run_many_parallel` with a policy
    (default :meth:`FailurePolicy.collect`), plus campaign-level
    durability when ``checkpoint_dir`` is given:

    * every completed run's :class:`~repro.gp.engine.RunResult` is
      persisted to ``run-<seed>.result`` (atomically, integrity-checked),
      and re-invoking the campaign loads it instead of re-running;
    * when ``engine.config.checkpoint_every > 0``, in-flight runs
      snapshot to ``run-<seed>.ckpt`` on that cadence and a re-invoked
      campaign resumes each interrupted run from its last snapshot --
      so a crash at generation 95 of 100 costs at most
      ``checkpoint_every`` generations, not the whole run.

    Results are bit-identical to an uninterrupted campaign either way
    (resume replays from a full snapshot of the run's loop state).
    Unreadable result/checkpoint files are ignored with a warning and
    the affected seed is simply recomputed.

    The checkpoint directory is *claimed* for the campaign's duration
    (``lock``, on by default): a second process invoking a campaign
    over the same directory -- a double submission, or a restarted
    scheduler racing a still-dying predecessor -- is refused with
    :class:`~repro.gp.checkpoint.CheckpointLockError` instead of
    interleaving checkpoint renames and retention-ring pruning with
    the live owner.  ``lock_wait > 0`` waits up to that many seconds
    for the claim instead of refusing immediately; claims left by a
    dead process are taken over automatically (see
    :func:`~repro.gp.checkpoint.claim_checkpoint_dir`).

    ``tracer`` wraps the execution in a ``campaign`` span and records
    ``campaign_retry`` events (tracing is observational only: traced
    campaigns return bit-identical results).
    """
    from repro.gp.parallel import execute_campaign

    if policy is None:
        policy = FailurePolicy.collect()
    seeds = [base_seed + index for index in range(n_runs)]
    claim = None
    if checkpoint_dir is not None:
        os.makedirs(checkpoint_dir, exist_ok=True)
        if lock:
            claim = claim_checkpoint_dir(checkpoint_dir, wait=lock_wait)
    try:
        prior: list["RunResult"] = []
        pending = seeds
        if checkpoint_dir is not None:
            pending = []
            for seed in seeds:
                path = result_file(checkpoint_dir, seed)
                if os.path.exists(path):
                    try:
                        prior.append(load_result(path))
                        continue
                    except CheckpointError as exc:
                        warnings.warn(
                            f"re-running seed {seed}: {exc}",
                            RuntimeWarning,
                            stacklevel=2,
                        )
                pending.append(seed)
        if tracer is not None and not tracer.enabled:
            tracer = None
        span_cm: ContextManager[int] = nullcontext(-1)
        if tracer is not None:
            span_cm = tracer.span(
                "campaign", n_seeds=len(pending), mode=policy.mode
            )
        with span_cm as span:
            outcome = execute_campaign(
                engine, pending, policy, max_workers, checkpoint_dir, tracer
            )
            if tracer is not None:
                tracer.end_span_fields(
                    "campaign",
                    span,
                    completed=len(outcome.completed),
                    failed=len(outcome.failed),
                )
    finally:
        if claim is not None:
            claim.release()
    completed = sorted(
        prior + outcome.completed, key=lambda result: result.seed
    )
    return CampaignResult(
        completed=completed,
        failed=outcome.failed,
        stop_reason=outcome.stop_reason,
    )
