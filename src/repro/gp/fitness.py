"""Fitness evaluation with evaluation short-circuiting (Algorithm 1).

The evaluator combines the three speedup techniques of Section III-D, each
independently switchable for the Figure 10 ablation:

* **Tree caching (TC)** -- fitness results are cached on the exact
  structure (:meth:`ProcessModel.structure_key`) plus the exact
  parameter values, in a bounded :class:`~repro.lru.LRU` of
  ``GMRConfig.tree_cache_size`` entries.  The key is the tree that is
  compiled and interpreted, so a cached result is the one the
  individual itself would compute (the paper simplifies trees before
  keying them; simplifying rewrites and commutative reordering can
  change the last bits, or a NaN, of a result).
* **Evaluation short-circuiting (ES)** -- Algorithm 1: evaluation over the
  fitness cases is stopped as soon as the extrapolated fitness cannot beat
  the best previously *fully evaluated* fitness, controlled by the
  ``threshold`` eagerness parameter.
* **Runtime compilation (RC)** -- models are evaluated through compiled
  step functions rather than the tree-walking interpreter
  (:mod:`repro.expr.compile`); compiled functions are shared, through
  the process-global kernel cache, between individuals of one exact
  structure, so a model's bits never depend on what compiled before it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Hashable, Iterable, Sequence

from repro.dynamics.integrate import SimulationDiverged
from repro.dynamics.system import ProcessModel
from repro.dynamics.task import BAD_FITNESS, ModelingTask
from repro.expr.compile import KERNEL_CACHE
from repro.gp.config import GMRConfig
from repro.gp.individual import Individual
from repro.gp.phenotype import PhenotypeCache
from repro.lru import LRU
from repro.obs.metrics import MetricsRegistry, merge_fields, publish_fields
from repro.obs.profile import PhaseProfile
from repro.obs.trace import Tracer

# Inert: the e2e benchmark's probes wrap these names of the deleted
# vector rollouts (ROADMAP item 1).  Nothing in the package calls them.
batched_euler_rollout = None
fused_euler_rollout = None

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
    under Algorithm 1 -- and ``steps_integrated`` counts the rows the
    error stream actually produced.  Every simulation runs through one
    scalar error stream that stops where Algorithm 1 stops it, so the
    two agree.  The timing fields break the actual compute down by
    phase: ``compile_time`` (acquiring compiled kernels, cached or
    not), ``step_time`` (integration and error accumulation) and
    ``triage_time``.  Phase times come from a
    :class:`~repro.obs.profile.PhaseProfile`, so they are mutually
    disjoint and their sum never exceeds ``wall_time``
    (``tests/gp/test_phase_partition.py``).

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
    compile_time: float = 0.0
    step_time: float = 0.0
    #: Candidates skipped by static triage (``GMRConfig.static_triage``):
    #: proven divergent before compilation, scored BAD_FITNESS without
    #: simulating.  Skips also count as ``divergences``, so divergence
    #: totals stay comparable with triage off.
    triage_skips: int = 0
    #: Exclusive seconds spent in the static-triage analysis phase.
    triage_time: float = 0.0
    #: Process-pool backends that degraded to serial evaluation after
    #: exhausting their rebuild budget (``ProcessPoolBackend``).
    pool_fallbacks: int = 0
    #: Broken evaluation pools rebuilt by ``ProcessPoolBackend``.
    pool_rebuilds: int = 0
    #: Phenotypes served from the per-shape derivation memo
    #: (:mod:`repro.gp.phenotype`) and phenotypes derived in full.  A
    #: resumed run starts with an empty memo, so these two counters, unlike
    #: the rest, can differ from an uninterrupted run's.
    phenotype_hits: int = 0
    phenotype_misses: int = 0
    # Inert, always 0: fields of the deleted vector path that the e2e
    # benchmark's probes still read (ROADMAP item 1).  Nothing in the
    # package increments them.
    batched_evaluations: int = 0
    batch_fill: float = 0.0
    kernel_fallbacks: int = 0
    fusion_fallbacks: int = 0

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
    "triage": "triage_time",
}

#: The :class:`EvaluationStats` fields an ``evaluation_batch`` trace
#: point reports as deltas over its ``evaluate_batch`` call.
_BATCH_TRACE_DELTAS = ("cache_hits", "compile_time", "step_time")


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
        self._cache = LRU(self.config.tree_cache_size)
        # Static triage bounds the reachable states from the plain-ODE
        # task surface; duck-typed tasks without it (e.g. the
        # network-coupled river task, which streams errors from its own
        # compiled day loop) are never triaged.
        self._triageable = all(
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
        #: Derived models per derivation shape (repro.gp.phenotype);
        #: pickled empty, so an unpickled evaluator starts empty.
        self._phenotypes = PhenotypeCache()

    @property
    def cache(self) -> LRU:
        return self._cache

    # Probe-only: the e2e benchmark's probes read the kernel cache's
    # counters through this name (ROADMAP item 1).  Nothing in the
    # package reads it.
    @property
    def compiled_cache(self) -> LRU:
        """The process-global kernel cache the models compile into."""
        return KERNEL_CACHE

    def reset(self) -> None:
        """Clear caches and the best-previous-full marker (new run)."""
        self._cache = LRU(self.config.tree_cache_size)
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
        phase, so after draining ``compile_time + step_time +
        triage_time <= wall_time`` holds by construction.
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
        # Tracers hold sink file handles and stay behind; the profiler,
        # the triage context and the phenotype memo restart empty.
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
        cache_key = None
        if config.use_tree_cache:
            cache_key = (model.structure_key(), params)
        cached = self._cached(cache_key)
        if cached is not None:
            return cached, True
        if config.static_triage and self._triageable:
            with self._profile.phase("triage"):
                fatal = self._triage_fatal(model, params)
            if fatal:
                return self._triage_skip(cache_key)

        return self._evaluate_scalar(model, params, cache_key)

    # -- Algorithm 1's outcomes ------------------------------------------

    def _cached(self, cache_key: Hashable | None) -> float | None:
        """The counted tree-cache lookup of ``cache_key``.

        A hit still counts its would-be fitness cases as possible (with
        zero evaluated), so ``step_fraction`` credits tree caching with
        the steps it saved and ``steps_evaluated <= steps_possible``
        holds.
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
                self._task_kernel(model)

        self.stats.steps_possible += total_cases
        threshold = config.es_threshold
        # Algorithm 1's cutoff is computed once: ``best_prev_full`` only
        # moves in ``_completed``, after the loop.  With ES off,
        # ``es_cases`` is 0, so a row pays one integer comparison and no
        # square root.
        if threshold is None:
            es_cases, cutoff = 0, math.inf
        else:
            es_cases, cutoff = total_cases, self.best_prev_full * threshold
        sqrt = math.sqrt

        sse = 0.0
        cases_done = 0
        with self._profile.phase("step"):
            try:
                for squared_error in self.task.error_stream(
                    model, params, use_compiled=config.use_compilation
                ):
                    sse += squared_error
                    cases_done += 1
                    if cases_done < es_cases:
                        fitness = sqrt(sse / cases_done)
                        if fitness > cutoff:
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
        """Evaluate a cohort: one :meth:`evaluate` call per member, in
        order.

        The engine, local search and the pool backends hand their
        cohorts (batched offspring, Gaussian proposals) to this entry
        point; with a tracer attached, each call emits one
        ``evaluation_batch`` point.
        """
        cohort = list(individuals)
        if not cohort:
            return []
        trace = self._active_tracer()
        before = replace(self.stats) if trace is not None else None
        started = time.perf_counter()
        results = [self.evaluate(individual) for individual in cohort]
        if trace is not None:
            deltas = {
                name: getattr(self.stats, name) - getattr(before, name)
                for name in _BATCH_TRACE_DELTAS
            }
            wall = time.perf_counter() - started
            trace.point(
                "evaluation_batch", size=len(cohort), wall_time=wall, **deltas
            )
        return results
