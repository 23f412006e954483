"""Process-pool execution for the GMR engine.

Two independent levels of parallelism, matching the two cost axes of the
reproduction:

1. **Run-level** -- :func:`run_many_parallel` farms independent seeded
   runs to worker processes.  Runs are embarrassingly parallel (the paper
   executed 60 per method; related TAG-GP work likewise repeats
   independent evolutionary runs), and because every run builds its own
   :class:`~repro.gp.fitness.GMRFitnessEvaluator`, caches stay
   process-local and the results are bit-identical to the serial
   ``run_many`` path.
2. **Evaluation-level** -- an :class:`EvaluationBackend` seam through
   which :class:`~repro.gp.engine.GMREngine` evaluates batches of
   offspring.  :class:`SerialBackend` preserves the strictly sequential
   semantics; :class:`ProcessPoolBackend` spreads a batch over a worker
   pool, synchronising the ES ``best_prev_full`` marker once per batch
   (documented caveat: slightly lazier short-circuiting than the
   per-individual serial path).

Every campaign, at any worker count, runs through one round loop,
:func:`execute_campaign`.  With one worker its executor is an in-process
stand-in whose futures run when collected, so runs execute one at a
time, in seed order, in the parent, sharing its governor and warm
kernel cache.  A budget- or signal-stopped run ends the campaign: seeds
not yet started are left for the next invocation.

Failure handling is governed by :class:`~repro.gp.resilience.
FailurePolicy`.  By default workers fail loudly: an exception inside a
worker surfaces in the parent as :class:`ParallelRunError` naming the
seed that failed (outstanding work is cancelled), never as a hang.  With
``policy=collect``/``retry`` a campaign instead returns a
:class:`~repro.gp.resilience.CampaignResult` carrying every completed
run plus structured failure records, optionally after bounded retries.
A pool broken by a dying worker (OOM kill, segfault) is rebuilt and the
affected seeds are re-submitted, bounded by ``policy.max_pool_rebuilds``;
:class:`ProcessPoolBackend` recovers the same way at evaluation level.
Everything shipped across the process boundary is picklable -- compiled
step functions are dropped on pickling and rebuilt lazily on first use
in the receiving process.
"""

from __future__ import annotations

import os
import pickle
import time
import warnings
from abc import ABC, abstractmethod
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.gp.checkpoint import (
    CheckpointError,
    checkpoint_file,
    load_checkpoint_resilient,
    result_file,
    save_result,
)
from repro.gp.fitness import EvaluationStats, GMRFitnessEvaluator
from repro.gp.individual import Individual
from repro.gp.resilience import (
    FAIL_FAST,
    CampaignResult,
    FailurePolicy,
    RunFailure,
)
from repro.obs.trace import MemorySink, TraceEvent, Tracer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.gp.engine import GMREngine, RunResult


class ParallelRunError(RuntimeError):
    """A worker process failed while executing a seeded run.

    Attributes:
        seed: The run seed whose worker raised.
    """

    def __init__(self, seed: int, cause: BaseException) -> None:
        super().__init__(
            f"parallel run with seed {seed} failed: "
            f"{type(cause).__name__}: {cause}"
        )
        self.seed = seed


def default_workers(n_tasks: int, requested: int | None = None) -> int:
    """Resolve a worker count: the request, capped by tasks and CPUs.

    The ``REPRO_MAX_WORKERS`` environment variable caps the result
    unconditionally (CI runners set it to their vCPU count).  A value
    that does not parse as an integer is ignored with a warning, so a
    misconfigured runner is visible instead of silently uncapped.
    """
    if requested is None:
        requested = os.cpu_count() or 1
    cap = os.environ.get("REPRO_MAX_WORKERS")
    if cap:
        try:
            parsed = int(cap)
        except ValueError:
            warnings.warn(
                f"ignoring malformed REPRO_MAX_WORKERS={cap!r} "
                "(expected an integer); worker pools are uncapped",
                RuntimeWarning,
                stacklevel=2,
            )
        else:
            requested = min(requested, max(1, parsed))
    return max(1, min(requested, n_tasks))


def _run_one(
    engine: "GMREngine",
    seed: int,
    checkpoint_dir: str | None = None,
) -> "RunResult":
    """Worker entry point: one full evolutionary run.

    ``engine.run`` builds a fresh evaluator, so caches and the ES
    ``best_prev_full`` marker are private to this run -- which is exactly
    what makes parallel results bit-identical to serial ones.  With a
    checkpoint directory, the run snapshots itself there (on the
    ``config.checkpoint_every`` cadence) and resumes from the last
    snapshot an interrupted attempt left behind; an unreadable snapshot
    is discarded with a warning and the run restarts from scratch.
    """
    if checkpoint_dir is None:
        return engine.run(seed=seed)
    path = checkpoint_file(checkpoint_dir, seed)
    resume = None
    if os.path.exists(path):
        try:
            resume = load_checkpoint_resilient(path)
        except CheckpointError as exc:
            warnings.warn(
                f"restarting seed {seed} from scratch: {exc}",
                RuntimeWarning,
                stacklevel=2,
            )
    return engine.run(seed=seed, resume_from=resume, checkpoint_path=path)


def _finalize_run(
    checkpoint_dir: str | None, seed: int, result: "RunResult"
) -> None:
    """Persist a completed run's result and drop its mid-run snapshot."""
    if checkpoint_dir is None:
        return
    save_result(result, result_file(checkpoint_dir, seed))
    try:
        os.remove(checkpoint_file(checkpoint_dir, seed))
    except FileNotFoundError:
        pass


def run_many_parallel(
    engine: "GMREngine",
    n_runs: int,
    base_seed: int = 0,
    max_workers: int | None = None,
    policy: FailurePolicy | None = None,
) -> "list[RunResult] | CampaignResult":
    """Execute independent seeded runs across a process pool.

    Equivalent to ``run_many(engine, n_runs, base_seed)`` -- same seeds,
    same per-run ``best_fitness`` histories -- but wall-clock scales with
    the number of workers.  Results are returned in seed order.

    Args:
        engine: The engine to run; must be picklable (it is, including
            grammars and compiled models, which rebuild lazily).
        n_runs: Number of independent runs (seeds ``base_seed + i``).
        base_seed: First seed.
        max_workers: Pool size; defaults to ``min(n_runs, cpu_count)``.
            1 runs in-process (no pool) but keeps the same error
            contract.
        policy: Failure handling.  None (the default) keeps the
            historical contract -- fail fast, return a plain list.  With
            a policy the call returns a :class:`~repro.gp.resilience.
            CampaignResult` of completed runs plus structured failures
            (``fail_fast`` mode still raises).

    Raises:
        ParallelRunError: A worker raised under fail-fast handling; the
            error names the seed, and outstanding runs are cancelled.
    """
    seeds = [base_seed + index for index in range(max(0, n_runs))]
    outcome = execute_campaign(
        engine, seeds, policy or FailurePolicy.fail_fast(), max_workers
    )
    return outcome.completed if policy is None else outcome


class _InProcessFuture:
    """A call deferred until its result is collected, then run here."""

    def __init__(self, fn: Callable[..., Any], args: tuple[Any, ...]) -> None:
        self._fn = fn
        self._args = args
        #: ``time.monotonic()`` when the call started, or None before.
        self.started: float | None = None

    def cancel(self) -> bool:
        """Succeeds for a call that has not started."""
        return self.started is None

    def result(self, timeout: float | None = None) -> Any:
        """Run the call in this process; ``timeout`` is ignored, as
        in-process code cannot be interrupted."""
        self.started = time.monotonic()
        return self._fn(*self._args)


class _InProcessExecutor:
    """The one-worker stand-in for a process pool.

    ``submit`` defers the call, so runs execute one at a time, in the
    order they are collected, in this process, and keep its governor
    and warm kernel cache.  No call outlives its collection, so there is
    nothing to shut down.
    """

    def submit(self, fn: Callable[..., Any], *args: Any) -> _InProcessFuture:
        return _InProcessFuture(fn, args)

    def shutdown(self, wait: bool = True, cancel_futures: bool = False) -> None:
        pass


def execute_campaign(
    engine: "GMREngine",
    seeds: Sequence[int],
    policy: FailurePolicy,
    max_workers: int | None = None,
    checkpoint_dir: str | None = None,
    tracer: Tracer | None = None,
) -> CampaignResult:
    """Run ``seeds`` under ``policy``; the engine room of campaigns.

    Callers normally reach this through :func:`run_many_parallel` or
    :func:`repro.gp.resilience.run_campaign` (which adds completed-result
    reuse on top).  ``tracer`` receives ``campaign_retry`` events when a
    failed seed re-enters under a retry policy.

    One round loop serves every worker count.  Each round submits every
    outstanding seed, then collects in seed order.  Failed seeds either
    terminate the campaign (``fail_fast``), are recorded (``collect``),
    or re-enter the next round (``retry``, after one backoff sleep: the
    longest delay among the round's retries).  A broken pool is rebuilt
    (bounded by ``policy.max_pool_rebuilds``) and the seeds it swallowed
    are re-submitted without consuming their retry attempts.  With one
    worker the executor is :class:`_InProcessExecutor`: runs execute in
    this process, in seed order, when collected, and ``policy.timeout``
    is not enforced.

    Stop rule, checked before each future is collected: once a run
    returns a ``stop_reason`` or the engine's governor has a stop
    requested, every future that has not started is cancelled and its
    seed left for the next invocation; running or finished ones are
    still collected.
    """
    if not seeds:
        return CampaignResult(completed=[], failed=[])
    if tracer is not None and not tracer.enabled:
        tracer = None
    workers = default_workers(len(seeds), max_workers)

    def new_pool() -> "ProcessPoolExecutor | _InProcessExecutor":
        if workers == 1:
            return _InProcessExecutor()
        return ProcessPoolExecutor(max_workers=workers)

    completed: dict[int, RunResult] = {}
    failed: dict[int, RunFailure] = {}
    attempts = {seed: 0 for seed in seeds}
    first_seen: dict[int, float] = {}
    outstanding = list(seeds)
    futures: dict[int, Any] = {}
    retry_later: list[int] = []
    round_started = time.monotonic()
    rebuilds = 0
    timed_out = False
    stop_reason: str | None = None
    governor = getattr(engine, "governor", None)
    pool = new_pool()

    def record_failure(seed: int, error: BaseException) -> None:
        began = first_seen.setdefault(seed, round_started)
        failed[seed] = RunFailure.from_exception(
            seed, attempts[seed], error, time.monotonic() - began
        )

    def stopping() -> bool:
        # Signals land in the parent; pooled workers run to their own
        # budgets, so a requested stop is picked up here.
        nonlocal stop_reason
        if stop_reason is None and governor is not None:
            stop_reason = governor.stop_requested
        return stop_reason is not None

    def handle_failure(seed: int, error: BaseException) -> None:
        # Elapsed time counts from the seed's first attempt: a pooled
        # run starts with its round, an in-process one when collected.
        started = getattr(futures.get(seed), "started", None)
        first_seen.setdefault(seed, started or round_started)
        if policy.mode == FAIL_FAST:
            pool.shutdown(wait=False, cancel_futures=True)
            raise ParallelRunError(seed, error) from error
        if attempts[seed] < policy.max_attempts:
            retry_later.append(seed)
            if tracer is not None:
                tracer.point(
                    "campaign_retry",
                    seed=seed,
                    attempt=attempts[seed],
                    error_type=type(error).__name__,
                    delay=policy.retry.delay(seed, attempts[seed]),
                )
        else:
            record_failure(seed, error)

    try:
        while outstanding and not stopping():
            retry_later = []
            rebuild_seeds: list[int] = []
            pool_error: BaseException | None = None
            for seed in outstanding:
                attempts[seed] += 1
            round_started = time.monotonic()
            futures = {}
            for seed in outstanding:
                try:
                    futures[seed] = pool.submit(
                        _run_one, engine, seed, checkpoint_dir
                    )
                except BrokenExecutor as exc:
                    pool_error = exc
                    rebuild_seeds.append(seed)

            for seed in outstanding:
                future = futures.get(seed)
                if future is None:
                    continue  # submission hit a broken pool
                if stopping() and future.cancel():
                    continue  # not started: left for the next invocation
                if timed_out:
                    # A previous run in this round blew the watchdog;
                    # drain the rest without blocking.  Never-started
                    # futures are cancelled, in-flight stragglers get
                    # their own failure record each, and runs that
                    # finished in the meantime are still harvested.
                    if future.cancel():
                        handle_failure(
                            seed,
                            TimeoutError(
                                f"run with seed {seed} cancelled after "
                                f"the round exceeded the "
                                f"{policy.timeout}s watchdog"
                            ),
                        )
                        continue
                    if not future.done():
                        handle_failure(
                            seed,
                            TimeoutError(
                                f"run with seed {seed} still running "
                                f"after the round exceeded the "
                                f"{policy.timeout}s watchdog"
                            ),
                        )
                        continue
                try:
                    if policy.timeout is None or timed_out:
                        result = future.result()
                    else:
                        budget = max(
                            0.0,
                            round_started + policy.timeout - time.monotonic(),
                        )
                        result = future.result(timeout=budget)
                except FuturesTimeoutError:
                    timed_out = True
                    future.cancel()
                    handle_failure(
                        seed,
                        TimeoutError(
                            f"run with seed {seed} exceeded the "
                            f"{policy.timeout}s watchdog"
                        ),
                    )
                except BrokenExecutor as exc:
                    pool_error = exc
                    rebuild_seeds.append(seed)
                except Exception as exc:
                    handle_failure(seed, exc)
                else:
                    completed[seed] = result
                    # A budget- or signal-stopped run is partial: it
                    # keeps its snapshot (no .result file), so re-running
                    # the campaign with a larger budget resumes it.
                    run_stop = getattr(result, "stop_reason", None)
                    if run_stop is not None:
                        if stop_reason is None:
                            stop_reason = run_stop
                    else:
                        _finalize_run(checkpoint_dir, seed, result)

            if pool_error is not None:
                pool.shutdown(wait=False, cancel_futures=True)
                if rebuilds >= policy.max_pool_rebuilds:
                    if policy.mode == FAIL_FAST:
                        raise ParallelRunError(
                            rebuild_seeds[0], pool_error
                        ) from pool_error
                    for seed in rebuild_seeds:
                        record_failure(seed, pool_error)
                    rebuild_seeds = []
                else:
                    rebuilds += 1
                    pool = new_pool()
                    # The pool died under these seeds; they never failed
                    # on their own, so give their attempts back.
                    for seed in rebuild_seeds:
                        attempts[seed] -= 1

            if retry_later and stop_reason is None:
                delay = max(
                    policy.retry.delay(seed, attempts[seed])
                    for seed in retry_later
                )
                if delay > 0:
                    time.sleep(delay)
            outstanding = sorted(rebuild_seeds + retry_later)
    finally:
        # A timed-out run may still occupy a worker; do not block on it.
        pool.shutdown(wait=not timed_out, cancel_futures=True)
    return CampaignResult(
        completed=[completed[seed] for seed in sorted(completed)],
        failed=[failed[seed] for seed in sorted(failed)],
        stop_reason=stop_reason,
    )


def aggregate_stats(results: Sequence["RunResult"]) -> EvaluationStats:
    """Merge the per-run evaluation statistics of several runs."""
    return EvaluationStats.merge_all(result.stats for result in results)


class EvaluationBackend(ABC):
    """Strategy for evaluating a batch of unevaluated offspring.

    The engine hands over individuals whose ``fitness`` is ``None``; the
    backend must set ``fitness`` and ``fully_evaluated`` on each and keep
    the evaluator's statistics and ``best_prev_full`` marker up to date.
    """

    @abstractmethod
    def evaluate_batch(
        self,
        evaluator: GMRFitnessEvaluator,
        individuals: Sequence[Individual],
    ) -> None:
        """Evaluate ``individuals`` in place."""

    def close(self) -> None:
        """Release pooled resources (no-op for in-process backends)."""


class SerialBackend(EvaluationBackend):
    """In-process evaluation, identical to the engine's historical path:
    ``best_prev_full`` tightens after every individual."""

    def evaluate_batch(
        self,
        evaluator: GMRFitnessEvaluator,
        individuals: Sequence[Individual],
    ) -> None:
        # The evaluator's own cohort path: one evaluate call per member.
        evaluator.evaluate_batch(list(individuals))


# Per-worker-process evaluator, created once by the pool initializer so
# tree/compilation caches persist across batches within one worker.
_WORKER_EVALUATOR: GMRFitnessEvaluator | None = None


def _init_eval_worker(evaluator: GMRFitnessEvaluator) -> None:
    global _WORKER_EVALUATOR
    _WORKER_EVALUATOR = evaluator


def _evaluate_chunk(
    individuals: list[Individual],
    best_prev_full: float,
    collect_trace: bool = False,
) -> tuple[
    list[tuple[float, bool]], EvaluationStats, float, list[TraceEvent]
]:
    """Worker entry point: evaluate one chunk of a batch.

    Returns per-individual ``(fitness, fully_evaluated)`` pairs, the
    statistics delta for this chunk, the worker's updated
    ``best_prev_full`` (for the parent's per-batch fan-in), and -- when
    ``collect_trace`` is set -- the chunk's trace events, recorded into
    an in-memory sink here and re-emitted (span-remapped) by the
    parent's tracer.
    """
    evaluator = _WORKER_EVALUATOR
    assert evaluator is not None, "pool initializer did not run"
    evaluator.best_prev_full = best_prev_full
    evaluator.stats = EvaluationStats()
    sink: MemorySink | None = None
    if collect_trace:
        sink = MemorySink()
        evaluator.tracer = Tracer(sink)
    try:
        evaluator.evaluate_batch(individuals)
    finally:
        evaluator.tracer = None
    outcomes = [
        (individual.fitness, individual.fully_evaluated)
        for individual in individuals
    ]
    events = sink.events if sink is not None else []
    return outcomes, evaluator.stats, evaluator.best_prev_full, events


@dataclass
class ProcessPoolBackend(EvaluationBackend):
    """Evaluate offspring batches across a pool of worker processes.

    Each worker owns a process-local evaluator (tree cache, compiled-
    function table) that persists across batches.  The ES marker
    ``best_prev_full`` is broadcast at the start of each batch and the
    minimum over workers is folded back afterwards -- per-*batch*
    synchronisation, slightly lazier than the serial per-individual
    tightening, which is why batched evaluation is opt-in
    (``GMRConfig.eval_batch_size``) and switchable back to
    :class:`SerialBackend` semantics at any time.

    A worker dying mid-batch (OOM kill, segfault) breaks the whole pool;
    the backend detects ``BrokenProcessPool``, rebuilds its pool, and
    re-submits only the chunks whose results it never received -- at most
    ``max_pool_rebuilds`` times per batch, each counted in the evaluator's
    ``pool_rebuilds``.  Statistics are folded in once per *successfully
    returned* chunk, so recovery never double-counts evaluations and the
    ES marker stays consistent.  (Re-submitted chunks observe the
    ``best_prev_full`` current at re-submission, which is at least as
    tight as the original broadcast -- within the documented per-batch
    synchronisation semantics.)

    When the rebuild budget is exhausted the backend descends the
    degradation ladder instead of aborting the campaign: it evaluates
    the unfinished chunks in the parent process, counts one
    ``pool_fallbacks`` in the evaluator's statistics, emits a
    ``degradation`` trace event, and stays serial for the rest of its
    life (the sticky ``_degraded`` flag) -- a pool that broke
    ``max_pool_rebuilds + 1`` times is presumed hostile to workers.

    The backend itself stays picklable: the live pool is dropped on
    pickling and lazily rebuilt.
    """

    max_workers: int = 2
    max_pool_rebuilds: int = 2

    def __post_init__(self) -> None:
        self._pool: ProcessPoolExecutor | None = None
        self._degraded = False

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["_pool"] = None
        return state

    @property
    def effective_workers(self) -> int:
        """Pool size after the ``REPRO_MAX_WORKERS`` cap."""
        return default_workers(self.max_workers, self.max_workers)

    def _ensure_pool(self, evaluator: GMRFitnessEvaluator) -> ProcessPoolExecutor:
        if self._pool is None:
            # Seed each worker with a reset clone of the caller's
            # evaluator: same class (so test doubles keep their
            # behaviour), but private caches, statistics, and ES marker.
            seed_evaluator = pickle.loads(pickle.dumps(evaluator))
            seed_evaluator.reset()
            self._pool = ProcessPoolExecutor(
                max_workers=self.effective_workers,
                initializer=_init_eval_worker,
                initargs=(seed_evaluator,),
            )
        return self._pool

    def evaluate_batch(
        self,
        evaluator: GMRFitnessEvaluator,
        individuals: Sequence[Individual],
    ) -> None:
        pending = list(individuals)
        if not pending:
            return
        if self._degraded:
            # The ladder already engaged for this backend; everything
            # evaluates in-process with SerialBackend semantics.
            evaluator.evaluate_batch(pending)
            return
        trace = evaluator._active_tracer()
        chunk_size = -(-len(pending) // self.effective_workers)  # ceil division
        remaining = [
            pending[start : start + chunk_size]
            for start in range(0, len(pending), chunk_size)
        ]
        rebuilds = 0
        while remaining:
            pool = self._ensure_pool(evaluator)
            submitted = []
            pool_error: BaseException | None = None
            for chunk in remaining:
                try:
                    submitted.append(
                        (chunk, pool.submit(
                            _evaluate_chunk, chunk, evaluator.best_prev_full,
                            trace is not None,
                        ))
                    )
                except BrokenExecutor as exc:
                    pool_error = exc
                    submitted.append((chunk, None))
            unfinished: list[list[Individual]] = []
            best = evaluator.best_prev_full
            for chunk, future in submitted:
                if future is None:
                    unfinished.append(chunk)
                    continue
                try:
                    outcomes, stats_delta, worker_best, events = (
                        future.result()
                    )
                except BrokenExecutor as exc:
                    pool_error = exc
                    unfinished.append(chunk)
                    continue
                for individual, (fitness, fully) in zip(chunk, outcomes):
                    individual.fitness = fitness
                    individual.fully_evaluated = fully
                # Statistics (and trace events) fold in once per
                # *successfully returned* chunk, so pool-rebuild
                # re-submissions never double-count.
                evaluator.stats = evaluator.stats.merge(stats_delta)
                best = min(best, worker_best)
                if trace is not None and events:
                    trace.absorb(events)
            evaluator.best_prev_full = best
            if pool_error is not None:
                self._discard_pool()
                if rebuilds >= self.max_pool_rebuilds:
                    # The degradation ladder's rung: evaluate
                    # the chunks the broken pool never returned in the
                    # parent process (their statistics were never
                    # folded, so nothing double-counts), and stay
                    # serial from here on.
                    self._degrade(evaluator, pool_error)
                    for chunk in unfinished:
                        evaluator.evaluate_batch(chunk)
                    return
                rebuilds += 1
                evaluator.stats.pool_rebuilds += 1
            remaining = unfinished

    def _degrade(
        self, evaluator: GMRFitnessEvaluator, error: BaseException
    ) -> None:
        """Flip the sticky serial-fallback flag and account for it."""
        self._degraded = True
        evaluator.stats.pool_fallbacks += 1
        tracer = evaluator._active_tracer()
        if tracer is not None:
            tracer.point(
                "degradation",
                what="pool_serial_fallback",
                error_type=type(error).__name__,
                detail=str(error)[:200],
            )

    def _discard_pool(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None
