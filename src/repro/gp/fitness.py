"""Fitness evaluation with evaluation short-circuiting (Algorithm 1).

The evaluator combines the three speedup techniques of Section III-D, each
independently switchable for the Figure 10 ablation:

* **Tree caching (TC)** -- fitness results are cached on the canonical
  simplified structure plus parameter values (:mod:`repro.gp.cache`).
* **Evaluation short-circuiting (ES)** -- Algorithm 1: evaluation over the
  fitness cases is stopped as soon as the extrapolated fitness cannot beat
  the best previously *fully evaluated* fitness, controlled by the
  ``threshold`` eagerness parameter.
* **Runtime compilation (RC)** -- models are evaluated through compiled
  step functions rather than the tree-walking interpreter
  (:mod:`repro.expr.compile`); compiled functions are shared between
  structurally identical individuals.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Hashable, Iterable, Sequence

import numpy as np

from repro.dynamics.integrate import (
    BatchedRollout,
    SimulationDiverged,
    batched_euler_rollout,
)

# The e2e benchmark's probes wrap this name here (ROADMAP item 1).
from repro.dynamics.integrate import fused_euler_rollout  # noqa: F401
from repro.dynamics.system import ProcessModel
from repro.dynamics.task import BAD_FITNESS, ModelingTask
from repro.expr.compile import KernelCache, KernelCacheStats
from repro.gp.cache import CacheStats, TreeCache
from repro.gp.config import GMRConfig
from repro.gp.individual import Individual
from repro.gp.phenotype import PhenotypeCache
from repro.obs.metrics import MetricsRegistry, merge_fields, publish_fields
from repro.obs.profile import PhaseProfile
from repro.obs.trace import Tracer

#: Extrapolates a final fitness from a partial one:
#: ``extrapolate(partial_fitness, cases_done, total_cases)``.
ExtrapolationFn = Callable[[float, int, int], float]


def linear_extrapolation(fitness: float, cases_done: int, total_cases: int) -> float:
    """Linear extrapolation of the accumulated squared error.

    With RMSE as fitness, scaling the partial SSE linearly to the full
    horizon leaves the RMSE unchanged, so the partial RMSE *is* the linear
    estimate of the final fitness.
    """
    return fitness


def pessimistic_extrapolation(
    fitness: float, cases_done: int, total_cases: int
) -> float:
    """Assume the per-case error keeps growing at the observed rate.

    A stricter alternative extrapolation: errors of dynamic models tend to
    accumulate, so weight the partial RMSE up by the remaining fraction.
    """
    if cases_done <= 0:
        return fitness
    remaining = (total_cases - cases_done) / total_cases
    return fitness * (1.0 + 0.5 * remaining)


@dataclass
class EvaluationStats:
    """Bookkeeping across all evaluations performed by an evaluator.

    The step counters (``steps_evaluated``/``steps_possible``) account
    fitness cases *algorithmically* -- what the returned result consumed
    under Algorithm 1 -- on both the scalar and the batched path, so ES
    selectivity numbers stay comparable across kernels.
    ``steps_integrated`` counts what was actually simulated: the rows the
    scalar error stream produced, plus rows run times columns for every
    batched rollout (deduplicated columns once).  A vector rollout
    integrates past a lane's cut until its next stop check (or to the
    end with ES off), so ``steps_integrated - steps_evaluated`` is the
    simulation Algorithm 1 did not need.  The timing
    fields break the actual compute down by phase: ``compile_time``
    (acquiring compiled kernels, cached or not), ``step_time``
    (integration and error-curve computation, scalar or batched), and
    ``batch_fill`` (phenotype derivation, structure grouping, and
    parameter-matrix stacking while planning a batch).  Phase times come
    from a :class:`~repro.obs.profile.PhaseProfile`, so they are
    mutually disjoint and their sum never exceeds ``wall_time`` -- on
    either path (``tests/gp/test_phase_partition.py``).

    The field list is the only list of counters: ``merge`` and
    ``publish`` are derived from it, so a new counter is one declaration
    (``int`` fields publish as counters, ``float`` timers as gauges).
    """

    evaluations: int = 0
    cache_hits: int = 0
    short_circuits: int = 0
    full_evaluations: int = 0
    divergences: int = 0
    steps_evaluated: int = 0
    steps_possible: int = 0
    steps_integrated: int = 0
    wall_time: float = 0.0
    batched_evaluations: int = 0
    compile_time: float = 0.0
    step_time: float = 0.0
    batch_fill: float = 0.0
    #: Candidates skipped by static triage (``GMRConfig.static_triage``):
    #: proven divergent before compilation, scored BAD_FITNESS without
    #: simulating.  Skips also count as ``divergences``, so divergence
    #: totals stay comparable with triage off.
    triage_skips: int = 0
    #: Exclusive seconds spent in the static-triage analysis phase.
    triage_time: float = 0.0
    #: Structure groups demoted from the batched kernel to the scalar
    #: path after their batched rollout raised (degradation ladder; see
    #: ``GMRFitnessEvaluator._run_kernel``).
    kernel_fallbacks: int = 0
    #: Process-pool backends that degraded to serial evaluation after
    #: exhausting their rebuild budget (``ProcessPoolBackend``).
    pool_fallbacks: int = 0
    #: Broken evaluation pools rebuilt by ``ProcessPoolBackend``.
    pool_rebuilds: int = 0
    #: Always 0: kept because the e2e benchmark's probe sums it into
    #: ``fitness.degradations`` (ROADMAP item 1).
    fusion_fallbacks: int = 0
    #: Phenotypes served from the per-shape derivation memo
    #: (:mod:`repro.gp.phenotype`) and phenotypes derived in full.  A
    #: resumed run starts with an empty memo, so these two counters, unlike
    #: the rest, can differ from an uninterrupted run's.
    phenotype_hits: int = 0
    phenotype_misses: int = 0

    @property
    def mean_time_per_individual(self) -> float:
        if self.evaluations == 0:
            return 0.0
        return self.wall_time / self.evaluations

    @property
    def step_fraction(self) -> float:
        """Fraction of fitness cases actually evaluated."""
        if self.steps_possible == 0:
            return 0.0
        return self.steps_evaluated / self.steps_possible

    def merge(self, other: "EvaluationStats") -> "EvaluationStats":
        """Counter-wise sum with ``other``.

        Used by the parallel execution layer to fan per-worker statistics
        back into one aggregate; wall times add up to total CPU seconds
        spent evaluating, not elapsed wall-clock.
        """
        return merge_fields(self, other)

    @classmethod
    def merge_all(cls, parts: "Iterable[EvaluationStats]") -> "EvaluationStats":
        """Merge any number of per-worker statistics."""
        total = cls()
        for part in parts:
            total = total.merge(part)
        return total

    @property
    def phase_total(self) -> float:
        """Sum of the disjoint phase timers (``<= wall_time``)."""
        return sum(getattr(self, timer) for timer in _PHASE_TIMERS.values())

    def publish(self, registry: MetricsRegistry, prefix: str = "eval") -> None:
        """Publish the counters into a :class:`~repro.obs.MetricsRegistry`."""
        publish_fields(self, registry, prefix)


#: The :class:`~repro.obs.profile.PhaseProfile` phases the evaluator
#: opens, each with the :class:`EvaluationStats` timer it drains into.
_PHASE_TIMERS = {
    "compile": "compile_time",
    "step": "step_time",
    "fill": "batch_fill",
    "triage": "triage_time",
}

#: The :class:`EvaluationStats` fields an ``evaluation_batch`` trace
#: point reports as deltas over its ``evaluate_batch`` call.
_BATCH_TRACE_DELTAS = ("cache_hits", "compile_time", "step_time", "batch_fill")


@dataclass
class _BatchEntry:
    """Where one cohort member's fitness will come from.

    Planning resolves every member to either an anticipated tree-cache
    hit (``column`` stays -1) or a column of a structure group's batched
    rollout.  Finalisation then replays the scalar path's cache lookups
    and Algorithm 1 decisions in cohort order, reading simulated error
    curves instead of re-integrating.
    """

    individual: Individual
    model: ProcessModel
    params: tuple[float, ...]
    structure_key: str
    cache_key: Hashable | None = None
    group_key: Hashable | None = None
    column: int = -1
    #: Static triage proved this member divergent; finalisation scores it
    #: BAD_FITNESS without a simulation column (after the cache lookup,
    #: so duplicates still resolve as cache hits like the scalar path).
    triaged: bool = False


@dataclass
class _BatchGroup:
    """One structure's stacked parameter columns within a batch.

    ``columns`` dedups identical candidates (keyed like the tree cache
    when caching is on, by exact parameters otherwise) so K counts
    distinct parameter vectors.  After simulation, ``curves[:, k]`` holds
    column ``k``'s cumulative SSE against the observations (see
    :class:`_LaneCurves`) over its first ``rows_run[k]`` rows -- the
    rows its rollout integrated -- and ``diverged_at[k]`` the first
    unusable driver row (``rows_run[k]`` if none).
    """

    model: ProcessModel
    structure_key: str
    columns: dict[Hashable, int] = field(default_factory=dict)
    params: list[tuple[float, ...]] = field(default_factory=list)
    curves: np.ndarray | None = None
    diverged_at: np.ndarray | None = None
    rows_run: np.ndarray | None = None


class _LaneCurves:
    """Cumulative-SSE curves of one rollout's lanes, grown as it runs.

    ``curves[:, k]`` is lane ``k``'s cumulative squared error against
    the observed series.  Each block of rows is summed with
    :func:`numpy.cumsum` after adding the previous block's last row to
    its first, which is the left-to-right order of one full-horizon
    cumsum and of the scalar loop's running sum, so the curves match
    both bit for bit.  ``first_bad[k]`` is lane ``k``'s first non-finite
    prediction row (``n_cases`` if none): the scalar error stream
    refuses such rows (possible under a clamp band with an infinite
    bound) like a divergence.

    With ES on and a finite ``best_prev_full`` (``retiring``) the
    instance is also the rollout's stop callback, implementing lane
    retirement.  Let ``best0`` be the marker when the batch starts.  A
    lane retires once Algorithm 1's cut test holds for it at some case
    ``t`` against ``best0``: ``partial > best0 * threshold`` and
    ``extrapolate(partial, t + 1, n) > best0``.  Within a batch the
    marker only goes down, and with a smaller ``best`` both inequalities
    still hold, so the ordered replay (:meth:`GMRFitnessEvaluator.
    _score_curve`) cuts that lane at case ``t`` or earlier and never
    reads a row past ``t``.  The argument needs only that
    ``extrapolate`` is a pure function of its three arguments.  The
    rollout stops once every lane has retired or diverged.

    A lane whose ``extrapolate`` call raises simply stays live: the
    ordered replay then calls it with the same arguments exactly when
    the scalar path would, so the error propagates from
    :meth:`~GMRFitnessEvaluator.evaluate_batch` at the member where
    :meth:`~GMRFitnessEvaluator.evaluate` raises it, and never reaches
    the kernel degradation ladder.
    """

    def __init__(
        self,
        evaluator: "GMRFitnessEvaluator",
        target_index: int,
        curves: np.ndarray,
    ) -> None:
        task = evaluator.task
        self.curves = curves
        #: Rows already folded into ``curves``.
        self.rows = 0
        self.first_bad = np.full(curves.shape[1], task.n_cases, dtype=np.int64)
        self._total = task.n_cases
        self._observed = task.observed[:, np.newaxis]
        self._target_index = target_index
        self._threshold = evaluator.config.es_threshold
        self._best = evaluator.best_prev_full
        self._extrapolate = evaluator.extrapolate
        self._done = np.zeros(curves.shape[1], dtype=bool)
        self.retiring = self._threshold is not None and self._best < math.inf

    def _extend(self, states: np.ndarray, rows: int) -> None:
        """Fold rows ``[self.rows, rows)`` of ``states`` into the curves."""
        start = self.rows
        if rows <= start:
            return
        predicted = states[start:rows, self._target_index, :]
        errors = predicted - self._observed[start:rows]
        squared = errors * errors
        if start:
            squared[0] += self.curves[start - 1]
        np.cumsum(squared, axis=0, out=self.curves[start:rows])
        with np.errstate(invalid="ignore"):
            nonfinite = ~np.isfinite(predicted)
        if nonfinite.any():
            np.minimum(
                self.first_bad,
                np.where(
                    nonfinite.any(axis=0),
                    start + nonfinite.argmax(axis=0),
                    self._total,
                ),
                out=self.first_bad,
            )
        self.rows = rows

    def __call__(
        self, states: np.ndarray, diverged_at: np.ndarray, rows: int
    ) -> bool:
        """Stop callback: extend the curves, retire lanes, report if done."""
        start = self.rows
        self._extend(states, rows)
        done = self._done
        done |= diverged_at < rows
        done |= self.first_bad < rows
        # The scalar loop tests cases t with t + 1 < n_cases only.
        limit = min(rows, self._total - 1)
        if limit > start:
            self._retire(start, limit)
        return bool(done.all())

    def _retire(self, start: int, stop: int) -> None:
        """Retire live lanes whose cut test holds at a case in the block."""
        best = self._best
        steps = np.arange(start + 1, stop + 1, dtype=float)[:, np.newaxis]
        with np.errstate(invalid="ignore", divide="ignore"):
            partial = np.sqrt(self.curves[start:stop] / steps)
            over = partial > best * self._threshold
        over[:, self._done] = False
        for lane in np.flatnonzero(over.any(axis=0)):
            for index in np.flatnonzero(over[:, lane]):
                try:
                    estimate = self._extrapolate(
                        float(partial[index, lane]),
                        start + int(index) + 1,
                        self._total,
                    )
                except Exception:
                    continue
                if estimate > best:
                    self._done[lane] = True
                    break

    def finish(self, rollout: BatchedRollout) -> np.ndarray:
        """Complete the curves over ``rollout``; return each lane's first
        unusable row."""
        self._extend(rollout.states, rollout.n_steps)
        return np.minimum(self.first_bad, rollout.diverged_at)


@dataclass
class GMRFitnessEvaluator:
    """Evaluates individuals on a modeling task with TC/ES/RC switches.

    Attributes:
        task: The modeling task (drivers, observations, target state).
        config: Engine configuration supplying the TC/ES/RC switches.
        extrapolate: Extrapolation used by short-circuiting.
    """

    task: ModelingTask
    config: GMRConfig
    extrapolate: ExtrapolationFn = linear_extrapolation
    stats: EvaluationStats = field(default_factory=EvaluationStats)

    def __post_init__(self) -> None:
        self._cache = TreeCache(max_entries=self.config.tree_cache_size)
        self._compiled = KernelCache(max_entries=self.config.compiled_cache_size)
        # Batched rollouts re-integrate the model themselves, so they need
        # the plain-ODE task surface; duck-typed tasks without it (e.g.
        # the network-coupled river task, which streams errors from its
        # own compiled day loop) evaluate one candidate at a time.
        self._batchable = all(
            hasattr(self.task, attr)
            for attr in ("drivers", "initial_state", "dt", "clamp")
        )
        #: Best fitness seen among *full* evaluations (Algorithm 1's
        #: ``bestPrevFull``).
        self.best_prev_full: float = math.inf
        #: Disjoint phase timers, drained into ``stats`` per evaluation.
        self._profile = PhaseProfile()
        #: Optional tracer; assigned by the engine, never pickled.
        self.tracer: Tracer | None = None
        #: Lazily built static-triage context (repro.lint.triage); not
        #: pickled -- rebuilt from task/config after resume.
        self._triage_context = None
        #: Structure keys demoted to the scalar path after their vector
        #: kernel raised (degradation ladder, see :meth:`_run_kernel`).
        #: The vector path is bit-identical with the scalar one, so
        #: demotion moves the work and never a fitness.
        self._kernel_blocklist: set[str] = set()
        #: Derived models per derivation shape (repro.gp.phenotype);
        #: pickled empty, so an unpickled evaluator starts empty.
        self._phenotypes = PhenotypeCache()

    @property
    def cache(self) -> TreeCache:
        return self._cache

    @property
    def compiled_cache(self) -> KernelCache:
        """The bounded share table of compiled step functions."""
        return self._compiled

    def reset(self) -> None:
        """Clear caches and the best-previous-full marker (new run)."""
        self._cache.clear()
        self._cache.stats = CacheStats()
        self._compiled.clear()
        self._compiled.stats = KernelCacheStats()
        self._phenotypes.clear()
        self.best_prev_full = math.inf
        self.stats = EvaluationStats()

    def __call__(self, individual: Individual) -> float:
        return self.evaluate(individual)

    def evaluate(self, individual: Individual) -> float:
        """Evaluate one individual, honouring the configured speedups.

        Sets ``individual.fitness`` and ``individual.fully_evaluated``.
        """
        started = time.perf_counter()
        fitness, fully = self._evaluate_inner(individual)
        individual.fitness = fitness
        individual.fully_evaluated = fully
        self.stats.evaluations += 1
        self._drain_phases()
        self.stats.wall_time += time.perf_counter() - started
        return fitness

    def _drain_phases(self) -> None:
        """Fold the profiler's exclusive phase totals into the stats.

        :class:`PhaseProfile` attributes every second to exactly one
        phase, so after draining ``compile_time + step_time + batch_fill
        <= wall_time`` holds by construction on both paths.
        """
        for phase, seconds in self._profile.drain().items():
            timer = _PHASE_TIMERS[phase]
            setattr(self.stats, timer, getattr(self.stats, timer) + seconds)

    def _active_tracer(self) -> Tracer | None:
        """The assigned tracer, or None when tracing is off."""
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            return tracer
        return None

    def __getstate__(self) -> dict:
        # The kernel cache drops its exec-generated entries but keeps its
        # counters (see KernelCache.__getstate__); tracers hold sink file
        # handles and stay behind; the profiler, the triage context and
        # the phenotype memo restart empty.
        state = dict(self.__dict__)
        state["tracer"] = None
        state["_profile"] = PhaseProfile()
        state["_triage_context"] = None
        state["_phenotypes"] = PhenotypeCache()
        return state

    def _phenotype(
        self, individual: Individual
    ) -> tuple[ProcessModel, tuple[float, ...]]:
        """``individual``'s model and parameters, through the shape memo."""
        model, params, hit = self._phenotypes.phenotype(
            individual, self.task.state_names, self.task.var_order
        )
        if hit:
            self.stats.phenotype_hits += 1
        else:
            self.stats.phenotype_misses += 1
        return model, params

    def _evaluate_inner(self, individual: Individual) -> tuple[float, bool]:
        config = self.config
        model, params = self._phenotype(individual)
        structure_key = model.structure_key()
        cache_key = None
        if config.use_tree_cache:
            cache_key = TreeCache.make_key(structure_key, params)
        cached = self._cached(cache_key)
        if cached is not None:
            return cached, True
        if config.static_triage and self._batchable:
            with self._profile.phase("triage"):
                fatal = self._triage_fatal(model, params)
            if fatal:
                return self._triage_skip(cache_key)

        return self._evaluate_scalar(model, params, structure_key, cache_key)

    # -- Algorithm 1's outcomes, shared by the scalar loop and the replay --

    def _cached(self, cache_key: Hashable | None) -> float | None:
        """The counted tree-cache lookup of ``cache_key``.

        A hit still counts its would-be fitness cases as possible (with
        zero evaluated), so ``step_fraction`` credits tree caching with
        the steps it saved and ``steps_evaluated <= steps_possible``
        holds on every path.
        """
        if cache_key is None:
            return None
        cached = self._cache.get(cache_key)
        if cached is not None:
            self.stats.cache_hits += 1
            self.stats.steps_possible += self.task.n_cases
        return cached

    def _short_circuit(self, estimate: float, cases_done: int) -> tuple[float, bool]:
        """Stop after ``cases_done`` cases with the extrapolated fitness."""
        self.stats.short_circuits += 1
        self.stats.steps_evaluated += cases_done
        return estimate, False

    def _diverged(
        self, cases_done: int, cache_key: Hashable | None
    ) -> tuple[float, bool]:
        """Score a simulation that broke after ``cases_done`` cases:
        BAD_FITNESS, fully evaluated, cached."""
        self.stats.divergences += 1
        self.stats.steps_evaluated += cases_done
        if cache_key is not None:
            self._cache.put(cache_key, BAD_FITNESS)
        return BAD_FITNESS, True

    def _completed(
        self, sse: float, cases_done: int, cache_key: Hashable | None
    ) -> tuple[float, bool]:
        """Score a run over all ``cases_done`` cases by its RMSE, lower
        ``best_prev_full`` and cache it; an empty or non-finite sum
        scores BAD_FITNESS, uncached."""
        self.stats.steps_evaluated += cases_done
        if cases_done == 0 or not math.isfinite(sse):
            self.stats.divergences += 1
            return BAD_FITNESS, True
        fitness = math.sqrt(sse / cases_done)
        self.stats.full_evaluations += 1
        if fitness < self.best_prev_full:
            self.best_prev_full = fitness
        if cache_key is not None:
            self._cache.put(cache_key, fitness)
        return fitness, True

    def _triage_skip(self, cache_key: Hashable | None) -> tuple[float, bool]:
        """Score a triaged-out candidate exactly like a first-step
        divergence: BAD_FITNESS, fully evaluated, zero cases run."""
        self.stats.triage_skips += 1
        self.stats.steps_possible += self.task.n_cases
        return self._diverged(0, cache_key)

    def _triage_context_for_task(self):
        """The lazily built per-task triage context.

        Unit annotations and the parameters' prior hull resolve through
        the configured domain only when its declared states/drivers match
        the task (the config's domain name is advisory; custom tasks run
        interval-only triage and bind every candidate's parameters as
        points).
        """
        if self._triage_context is None:
            from repro.lint.triage import context_for_task

            spec = None
            try:
                from repro.domains import get_domain

                spec = get_domain(self.config.domain)
            except Exception:
                spec = None
            self._triage_context = context_for_task(self.task, spec)
        return self._triage_context

    def _triage_fatal(
        self, model: ProcessModel, params: tuple[float, ...]
    ) -> bool:
        """Whether static triage proves this candidate divergent.

        Only the fatal rule counts (A001: every reachable input yields a
        NaN right-hand side), so this runs
        :func:`repro.lint.triage.triage_fatal` -- one point-bound
        interval walk per equation, skipped when the structure is
        NaN-free on its prior hull -- and never the full lint report.
        Such a candidate raises ``SimulationDiverged`` on its first step
        and scores BAD_FITNESS either way, so skipping the simulation
        cannot change fitness values, selection, or the RNG stream --
        runs with triage on and off stay bit-identical on everything the
        search observes.
        """
        from repro.lint.triage import triage_fatal

        return triage_fatal(model, params, self._triage_context_for_task())

    def _evaluate_scalar(
        self,
        model: ProcessModel,
        params: tuple[float, ...],
        structure_key: str,
        cache_key: Hashable | None,
    ) -> tuple[float, bool]:
        """Run one individual through the scalar Algorithm 1 loop.

        The tree-cache lookup has already happened (and missed) by the
        time this runs; a successful result is still written back to the
        cache under ``cache_key``.
        """
        config = self.config
        total_cases = self.task.n_cases

        if config.use_compilation:
            with self._profile.phase("compile"):
                # Sharing must key on the parameter order too: simplification
                # can collapse structurally different models (with different
                # raw parameter vectors) onto one canonical key, but a
                # compiled step function indexes parameters positionally.
                share_key = (structure_key, model.param_order)
                shared = self._compiled.get(share_key)
                if shared is not None:
                    model.adopt_kernel(shared)
                else:
                    self._compiled.put(share_key, self._task_kernel(model))

        self.stats.steps_possible += total_cases
        threshold = config.es_threshold

        sse = 0.0
        cases_done = 0
        with self._profile.phase("step"):
            try:
                for squared_error in self.task.error_stream(
                    model, params, use_compiled=config.use_compilation
                ):
                    sse += squared_error
                    cases_done += 1
                    if threshold is not None and cases_done < total_cases:
                        fitness = math.sqrt(sse / cases_done)
                        if fitness > self.best_prev_full * threshold:
                            estimate = self.extrapolate(
                                fitness, cases_done, total_cases
                            )
                            if estimate > self.best_prev_full:
                                return self._short_circuit(estimate, cases_done)
            except (SimulationDiverged, OverflowError):
                return self._diverged(cases_done, cache_key)
            finally:
                self.stats.steps_integrated += cases_done
        return self._completed(sse, cases_done, cache_key)

    def _task_kernel(self, model: ProcessModel):
        """Compile the kernel the task's compiled error stream runs.

        A task names it with a ``compiled_kernel(model)`` hook (the river
        network's station kernel, :meth:`repro.river.simulator.RiverTask.
        compiled_kernel`); by default it is the scalar step function.
        """
        hook = getattr(self.task, "compiled_kernel", None)
        return model.compiled() if hook is None else hook(model)

    def evaluate_batch(self, individuals: Sequence[Individual]) -> list[float]:
        """Evaluate a cohort through the batched NumPy kernels.

        Groups the cohort by model structure and integrates each group's
        K distinct parameter vectors in one vectorised rollout per
        :attr:`GMRConfig.kernel_batch_size` chunk (:meth:`_simulate`).
        A vector kernel that raises demotes its structure to the scalar
        path (:meth:`_run_kernel`).  It then finalises every member *in
        cohort order*, replaying exactly the decisions the scalar path
        would have made: tree-cache lookups (hits produced by earlier
        members of this very cohort included), Algorithm 1
        short-circuits against the live ``best_prev_full`` marker,
        divergence scoring, and cache write-back.  Fitness values, the
        marker, and all statistics therefore match a sequence of
        :meth:`evaluate` calls bit for bit.  The vector kernels
        integrate ahead of the replay, and with ES on they stop
        integrating a column once Algorithm 1 would cut it against the
        marker the batch started with (lane retirement, see
        :class:`_LaneCurves`): the marker only falls during the replay,
        so the replay cuts such a column no later and never reads the
        rows that were skipped.  ``steps_integrated`` counts the rows
        actually simulated.

        Falls back to sequential :meth:`evaluate` calls when batched
        kernels are disabled (``use_batched_kernel`` or
        ``use_compilation`` off), or when the task lacks the plain-ODE
        surface batched rollouts integrate (``drivers``,
        ``initial_state``, ``dt``, ``clamp``): the network-coupled river
        task has none of it and scores each candidate through its own
        compiled network stream.
        """
        cohort = list(individuals)
        if not cohort:
            return []
        config = self.config
        trace = self._active_tracer()
        before = replace(self.stats) if trace is not None else None
        started = time.perf_counter()
        if (
            not config.use_batched_kernel
            or not config.use_compilation
            or not self._batchable
        ):
            results = [self.evaluate(individual) for individual in cohort]
            if trace is not None:
                wall = time.perf_counter() - started
                fields = dict(size=len(cohort), batched=False, source="scalar")
                self._trace_batch(trace, before, wall, **fields)
            return results

        with self._profile.phase("fill"):
            entries, groups = self._plan_batch(cohort)
        for group in groups.values():
            self._run_kernel(group)
        results = []
        for entry in entries:
            fitness, fully = self._finalize_entry(entry, groups)
            entry.individual.fitness = fitness
            entry.individual.fully_evaluated = fully
            self.stats.evaluations += 1
            results.append(fitness)
        self._drain_phases()
        wall = time.perf_counter() - started
        self.stats.wall_time += wall
        if trace is not None:
            self._trace_batch(
                trace,
                before,
                wall,
                size=len(cohort),
                batched=True,
                groups=len(groups),
                columns=sum(len(g.params) for g in groups.values()),
                source="batched",
            )
        return results

    def _trace_batch(
        self, trace: Tracer, before: EvaluationStats, wall: float, **fields
    ) -> None:
        """Emit one ``evaluate_batch`` call's ``evaluation_batch`` point:
        ``fields``, its wall time, and the stats deltas since ``before``."""
        for name in _BATCH_TRACE_DELTAS:
            fields[name] = getattr(self.stats, name) - getattr(before, name)
        trace.point("evaluation_batch", wall_time=wall, **fields)

    def _plan_batch(
        self, cohort: list[Individual]
    ) -> tuple[list[_BatchEntry], dict[Hashable, _BatchGroup]]:
        """Resolve cohort members to cache hits or simulation columns.

        Structures on the kernel blocklist get no column: finalisation
        scores them through the scalar path.
        """
        entries: list[_BatchEntry] = []
        groups: dict[Hashable, _BatchGroup] = {}
        use_cache = self.config.use_tree_cache
        triage = self.config.static_triage and self._batchable
        for individual in cohort:
            model, params = self._phenotype(individual)
            entry = _BatchEntry(
                individual=individual,
                model=model,
                params=params,
                structure_key=model.structure_key(),
            )
            entries.append(entry)
            if use_cache:
                entry.cache_key = TreeCache.make_key(
                    entry.structure_key, params
                )
                # peek, not get: the stats-counting lookup happens during
                # finalisation, in cohort order, like the scalar path's.
                if self._cache.peek(entry.cache_key) is not None:
                    continue
            if triage:
                with self._profile.phase("triage"):
                    fatal = self._triage_fatal(model, params)
                if fatal:
                    # Doomed candidates never join a simulation group
                    # (that's the saving: no compile, no rollout column).
                    # With caching on, the first occurrence writes
                    # BAD_FITNESS back during finalisation and duplicates
                    # resolve as cache hits, matching the scalar path.
                    entry.triaged = True
                    continue
            if entry.structure_key in self._kernel_blocklist:
                continue
            group_key = (entry.structure_key, model.param_order)
            group = groups.get(group_key)
            if group is None:
                group = _BatchGroup(
                    model=model, structure_key=entry.structure_key
                )
                groups[group_key] = group
            dedup_key = (
                entry.cache_key if entry.cache_key is not None else params
            )
            column = group.columns.get(dedup_key)
            if column is None:
                column = len(group.params)
                group.columns[dedup_key] = column
                group.params.append(params)
            entry.group_key = group_key
            entry.column = column
        # Structure groups too small to amortise NumPy overhead fall back
        # to the scalar kernel during finalisation.
        min_columns = self.config.kernel_min_batch
        for group_key in [
            key
            for key, group in groups.items()
            if len(group.params) < min_columns
        ]:
            del groups[group_key]
        return entries, groups

    def _run_kernel(self, group: _BatchGroup) -> None:
        """Simulate ``group`` through its vector kernel.

        The degradation ladder has one rung.  If the kernel raises
        (compile or rollout), the structure goes on the kernel blocklist
        and its curves stay unset, so finalisation scores its members
        through the scalar path and later batches plan it straight to
        scalar.  The vector path is bit-identical with the scalar one,
        so the only observable effects are ``kernel_fallbacks`` and a
        ``degradation`` trace event.
        """
        try:
            self._simulate(group)
        except Exception as error:
            group.curves = None
            self._kernel_blocklist.add(group.structure_key)
            self.stats.kernel_fallbacks += 1
            tracer = self._active_tracer()
            if tracer is not None:
                tracer.point(
                    "degradation",
                    what="kernel_scalar_fallback",
                    error_type=type(error).__name__,
                    detail=str(error)[:200],
                )

    def _simulate(self, group: _BatchGroup) -> None:
        """Integrate ``group``'s columns and hand it its error curves.

        The columns roll out in ``kernel_batch_size``-column chunks of
        one ``(n_params, K)`` parameter matrix.
        """
        task = self.task
        model = group.model
        with self._profile.phase("compile"):
            model.compiled_batched()
        with self._profile.phase("step"):
            params = np.array(group.params, dtype=float).T.copy()
            width = params.shape[1]
            target_index = model.state_names.index(task.target_state)
            curves = np.empty((task.n_cases, width))
            diverged_at = np.empty(width, dtype=np.int64)
            rows_run = np.empty(width, dtype=np.int64)
            chunk = self.config.kernel_batch_size
            for start in range(0, width, chunk):
                stop = min(start + chunk, width)
                lane_curves = _LaneCurves(self, target_index, curves[:, start:stop])
                rollout = batched_euler_rollout(
                    model,
                    params[:, start:stop],
                    task.drivers,
                    task.initial_state,
                    dt=task.dt,
                    clamp=task.clamp,
                    stop=lane_curves if lane_curves.retiring else None,
                )
                diverged_at[start:stop] = lane_curves.finish(rollout)
                rows_run[start:stop] = rollout.rows_run
                self.stats.steps_integrated += rollout.rows_run * (stop - start)
            group.curves = curves
            group.diverged_at = diverged_at
            group.rows_run = rows_run

    def _finalize_entry(
        self, entry: _BatchEntry, groups: dict[Hashable, _BatchGroup]
    ) -> tuple[float, bool]:
        """Score one cohort member exactly as the scalar path would."""
        cached = self._cached(entry.cache_key)
        if cached is not None:
            return cached, True
        if entry.triaged:
            return self._triage_skip(entry.cache_key)
        group = (
            groups.get(entry.group_key)
            if entry.group_key is not None
            else None
        )
        if group is None or group.curves is None:
            # An anticipated cache hit whose entry was evicted mid-batch,
            # a structure group below kernel_min_batch, a blocklisted
            # structure, or a group whose vector kernel just raised.
            return self._evaluate_scalar(
                entry.model, entry.params, entry.structure_key, entry.cache_key
            )
        self.stats.batched_evaluations += 1
        self.stats.steps_possible += self.task.n_cases
        assert group.diverged_at is not None and group.rows_run is not None
        return self._score_curve(
            group.curves[:, entry.column],
            int(group.diverged_at[entry.column]),
            int(group.rows_run[entry.column]),
            entry.cache_key,
        )

    def _score_curve(
        self,
        cumulative_sse: np.ndarray,
        usable_cases: int,
        rows_run: int,
        cache_key: Hashable | None,
    ) -> tuple[float, bool]:
        """Replay Algorithm 1 over a precomputed cumulative-SSE curve.

        ``usable_cases`` is the number of leading fitness cases the
        scalar stream would have produced before raising (the column's
        first bad row); ``total_cases`` means the column never diverged.
        ``rows_run`` is the number of rows the column's rollout
        integrated; a retired column has ``usable_cases == rows_run <
        total_cases`` and must be cut by the replay before that row.
        Partial RMSEs come out bitwise-equal to the scalar loop's
        (``sqrt(cum[t] / (t + 1))`` on the same accumulation order), so
        short-circuit decisions and returned estimates match exactly.
        """
        total_cases = self.task.n_cases
        threshold = self.config.es_threshold
        best = self.best_prev_full
        if threshold is not None:
            # Scalar checks after each case t (0-based) with t + 1 < total
            # and only for cases that actually ran (t < usable_cases).
            limit = min(usable_cases, total_cases - 1)
            if limit > 0 and best < math.inf:
                steps = np.arange(1, limit + 1, dtype=float)
                with np.errstate(invalid="ignore", divide="ignore"):
                    partial = np.sqrt(cumulative_sse[:limit] / steps)
                    candidates = np.nonzero(partial > best * threshold)[0]
                for index in candidates:
                    cases_done = int(index) + 1
                    estimate = self.extrapolate(
                        float(partial[index]), cases_done, total_cases
                    )
                    if estimate > best:
                        return self._short_circuit(estimate, cases_done)
        if usable_cases == rows_run < total_cases:
            raise AssertionError(
                f"a retired column's replay reached row {rows_run} of "
                f"{total_cases} without a cut"
            )
        if usable_cases < total_cases:
            return self._diverged(usable_cases, cache_key)
        sse = float(cumulative_sse[-1]) if total_cases else 0.0
        return self._completed(sse, total_cases, cache_key)
