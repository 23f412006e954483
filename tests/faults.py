"""Deterministic fault injection for the test suite (fault tolerance, tier 3).

Recovery code that only runs when hardware misbehaves is recovery code
that never runs in CI.  This module makes every failure mode the
resilience layer handles *deterministically reproducible*:

* :class:`FaultPlan` -- a declarative schedule of faults: raise at the
  Nth fitness evaluation, raise (or SIGKILL the worker) on the first j
  attempts of seed k, hang for a bounded interval, or refuse to pickle.
* :class:`FaultInjectingEvaluator` -- a :class:`~repro.gp.fitness.
  GMRFitnessEvaluator` that consults the plan on every evaluation.
* :class:`FaultInjectingEngine` -- a :class:`~repro.gp.engine.GMREngine`
  that applies seed/attempt-scoped faults at run start and builds
  fault-injecting evaluators.
* :func:`fail_first_rollouts` -- makes the evaluator's batched
  rollouts raise, through the module-level name :mod:`repro.gp.fitness`
  calls them by, to walk the kernel degradation ladder.

Attempt-scoped faults ("fail seed 3 on its first two attempts") need a
memory that survives worker processes dying -- that is the point -- so
attempts are counted in an *attempt ledger* directory shared through the
pickled engine: one append-only file per seed.  Campaign retries of a
given seed are sequential, so the ledger needs no locking.

Nothing here ships with the package; it exists so that the resilience
and observability suites can exercise crash/resume, retry, broken-pool
recovery and kernel degradation without flaky sleeps or real resource
exhaustion.

.. warning::
   ``kill_seed_attempts`` SIGKILLs the *current process*.  Only use it
   with pooled execution (``max_workers >= 2``); on the in-process
   serial path it would kill the caller.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import pytest

import repro.gp.fitness as fitness_module
from repro.gp.checkpoint import RunCheckpoint
from repro.gp.engine import GMREngine, ProgressFn, RunResult
from repro.gp.fitness import GMRFitnessEvaluator
from repro.gp.individual import Individual


class InjectedFault(RuntimeError):
    """The deliberate failure raised by fault-injection plans."""


@dataclass(frozen=True)
class FaultPlan:
    """Declarative schedule of faults to inject into runs.

    Attributes:
        fail_at_evaluation: Raise :class:`InjectedFault` on the Nth call
            to ``evaluate`` (1-based, per evaluator instance), or None.
        hang_at_evaluation: Sleep ``hang_seconds`` before the Nth
            evaluation (a bounded stand-in for a hung worker that lets
            timeout watchdogs fire without leaking processes), or None.
        hang_seconds: Duration of the injected hang.
        kill_at_evaluation: SIGKILL the evaluating process on the Nth
            evaluation (deterministically reproduces a worker dying
            mid-*batch* -- see the warning above), or None.
        term_at_evaluation: SIGTERM the evaluating process on the Nth
            evaluation, or None.  Unlike ``kill``, TERM is what a
            :class:`~repro.gp.governor.RunGovernor` with
            ``handle_signals`` turns into a cooperative stop, so this
            deterministically exercises graceful shutdown mid-run
            without subprocess choreography.
        fail_seed_attempts: ``{seed: j}`` -- raise at run start for the
            first ``j`` attempts of ``seed`` (a *transient* fault: the
            run succeeds from attempt ``j + 1`` on).
        kill_seed_attempts: ``{seed: j}`` -- SIGKILL the worker process
            at run start for the first ``j`` attempts of ``seed``
            (deterministically reproduces ``BrokenProcessPool``).
        max_faulty_attempts: Evaluation-scoped faults (``fail_at_...``,
            ``hang_at_...``, ``kill_at_...``) only fire while the seed's
            attempt number is at most this; None means every attempt.
        once_marker_dir: When set, each evaluation-scoped fault fires at
            most once globally, coordinated through marker files in this
            directory -- the cross-process memory that lets a recovery
            path (pool rebuild, chunk re-submission) be tested against a
            fault that does *not* simply recur on the retried work.
        unpicklable: Raise :class:`InjectedFault` when the engine is
            pickled (exercises submission-time failures: the fault
            surfaces in the parent, before any worker runs).
    """

    fail_at_evaluation: int | None = None
    hang_at_evaluation: int | None = None
    hang_seconds: float = 2.0
    kill_at_evaluation: int | None = None
    term_at_evaluation: int | None = None
    fail_seed_attempts: Mapping[int, int] = field(default_factory=dict)
    kill_seed_attempts: Mapping[int, int] = field(default_factory=dict)
    max_faulty_attempts: int | None = None
    once_marker_dir: str | None = None
    unpicklable: bool = False


def record_attempt(attempt_dir: str, seed: int) -> int:
    """Append one attempt for ``seed`` to the ledger; return its number."""
    path = os.path.join(attempt_dir, f"seed-{seed}.attempts")
    with open(path, "a", encoding="ascii") as handle:
        handle.write(f"{os.getpid()}\n")
    return current_attempt(attempt_dir, seed)


def current_attempt(attempt_dir: str, seed: int) -> int:
    """Attempts recorded so far for ``seed`` (0 if none)."""
    path = os.path.join(attempt_dir, f"seed-{seed}.attempts")
    try:
        with open(path, encoding="ascii") as handle:
            return sum(1 for _ in handle)
    except FileNotFoundError:
        return 0


@dataclass
class FaultInjectingEvaluator(GMRFitnessEvaluator):
    """An evaluator that injects the plan's evaluation-scoped faults.

    The evaluation counter is ordinary state, so it travels through run
    checkpoints: a resumed run replays its fault schedule exactly where
    the interrupted run left off.
    """

    plan: FaultPlan = field(default_factory=FaultPlan)
    run_seed: int | None = None
    attempt_dir: str | None = None
    evaluations_seen: int = 0

    def _faults_active(self) -> bool:
        limit = self.plan.max_faulty_attempts
        if limit is None:
            return True
        if self.attempt_dir is None or self.run_seed is None:
            return True
        return current_attempt(self.attempt_dir, self.run_seed) <= limit

    def _claim_fault(self, kind: str) -> bool:
        """True if this fault may fire now (fire-once bookkeeping)."""
        marker_dir = self.plan.once_marker_dir
        if marker_dir is None:
            return True
        try:
            # O_CREAT|O_EXCL: exactly one process wins the claim.
            handle = os.open(
                os.path.join(marker_dir, f"fault-{kind}.fired"),
                os.O_CREAT | os.O_EXCL | os.O_WRONLY,
            )
        except FileExistsError:
            return False
        os.close(handle)
        return True

    def evaluate(self, individual) -> float:  # type: ignore[override]
        self.evaluations_seen += 1
        plan = self.plan
        if self._faults_active():
            if (
                plan.hang_at_evaluation == self.evaluations_seen
                and self._claim_fault("hang")
            ):
                time.sleep(plan.hang_seconds)
            if (
                plan.kill_at_evaluation == self.evaluations_seen
                and self._claim_fault("kill")
            ):
                os.kill(os.getpid(), signal.SIGKILL)
            if (
                plan.term_at_evaluation == self.evaluations_seen
                and self._claim_fault("term")
            ):
                os.kill(os.getpid(), signal.SIGTERM)
            if (
                plan.fail_at_evaluation == self.evaluations_seen
                and self._claim_fault("fail")
            ):
                raise InjectedFault(
                    f"injected failure at evaluation {self.evaluations_seen}"
                    + (
                        f" (seed {self.run_seed})"
                        if self.run_seed is not None
                        else ""
                    )
                )
        return super().evaluate(individual)

    def evaluate_batch(self, individuals: Sequence[Individual]) -> list[float]:
        # Per-evaluation faults must fire once per individual, so cohorts
        # are evaluated one by one instead of through the vector kernels.
        return [self.evaluate(individual) for individual in individuals]


def fail_first_rollouts(monkeypatch: pytest.MonkeyPatch, count: int) -> None:
    """Make the evaluator's first ``count`` batched rollouts raise.

    Patches ``repro.gp.fitness.batched_euler_rollout``, the name the
    evaluator calls the rollout through; later calls run the real
    rollout.  A failing rollout exercises the degradation ladder: the
    group's structure drops to the scalar path and is blocklisted, with
    results identical to a healthy run.
    """
    original = fitness_module.batched_euler_rollout
    calls = 0

    def failing(*args, **kwargs):
        nonlocal calls
        calls += 1
        if calls <= count:
            raise InjectedFault(f"injected batched rollout failure (call {calls})")
        return original(*args, **kwargs)

    monkeypatch.setattr(fitness_module, "batched_euler_rollout", failing)


@dataclass
class FaultInjectingEngine(GMREngine):
    """A GMR engine that applies seed/attempt-scoped faults at run start."""

    plan: FaultPlan = field(default_factory=FaultPlan)
    attempt_dir: str | None = None

    def __getstate__(self) -> dict:
        if self.plan.unpicklable:
            raise InjectedFault("injected pickling failure")
        # Delegates to GMREngine so process-local extras (the tracer)
        # are dropped here too.
        return super().__getstate__()

    def make_evaluator(self) -> GMRFitnessEvaluator:
        return FaultInjectingEvaluator(
            task=self.task,
            config=self.config,
            plan=self.plan,
            run_seed=getattr(self, "_running_seed", None),
            attempt_dir=self.attempt_dir,
        )

    def run(
        self,
        seed: int | None = None,
        progress: ProgressFn | None = None,
        evaluator: GMRFitnessEvaluator | None = None,
        resume_from: "RunCheckpoint | str | os.PathLike[str] | None" = None,
        checkpoint_path: "str | os.PathLike[str] | None" = None,
    ) -> RunResult:
        if seed is not None:
            attempt = 1
            if self.attempt_dir is not None:
                attempt = record_attempt(self.attempt_dir, seed)
            failing_until = self.plan.fail_seed_attempts.get(seed, 0)
            if attempt <= failing_until:
                raise InjectedFault(
                    f"injected run failure: seed {seed}, attempt {attempt}"
                )
            killing_until = self.plan.kill_seed_attempts.get(seed, 0)
            if attempt <= killing_until:
                # Simulates an OOM kill; see the module warning above.
                os.kill(os.getpid(), signal.SIGKILL)
        self._running_seed = seed
        return super().run(
            seed=seed,
            progress=progress,
            evaluator=evaluator,
            resume_from=resume_from,
            checkpoint_path=checkpoint_path,
        )
