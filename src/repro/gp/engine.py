"""The generational model-revision loop (paper Figure 5).

Each generation: elites are preserved; the rest of the next population is
produced by tournament selection plus one of the four reproduction
operators (crossover, subtree mutation, Gaussian mutation, replication);
offspring then undergo stochastic hill-climbing local search.  Prior
knowledge flows through every stage -- the seed alpha-tree anchors
initialisation, beta-trees constrain structural revisions, and parameter
priors govern Gaussian mutation.
"""

from __future__ import annotations

import math
import os
import random
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from typing import Callable, ContextManager

from repro.dynamics.task import ModelingTask
from repro.gp.checkpoint import (
    CheckpointError,
    RunCheckpoint,
    load_checkpoint_resilient,
    save_checkpoint,
)
from repro.gp.config import GMRConfig
from repro.gp.fitness import EvaluationStats, GMRFitnessEvaluator
from repro.gp.governor import RunGovernor
from repro.gp.individual import Individual
from repro.gp.init import initial_population
from repro.gp.knowledge import PriorKnowledge, build_grammar
from repro.gp.local_search import hill_climb
from repro.gp.operators import (
    crossover,
    gaussian_mutation,
    gaussian_mutation_best_of,
    replication,
    subtree_mutation,
)
from repro.gp.parallel import (
    EvaluationBackend,
    ProcessPoolBackend,
    SerialBackend,
)
from repro.gp.selection import best_of, elites, tournament_select
from repro.obs.profile import PhaseProfile
from repro.obs.trace import JsonlSink, Tracer
from repro.tag.grammar import TagGrammar

#: Optional per-generation progress callback ``(generation, record)``.
ProgressFn = Callable[[int, "GenerationRecord"], None]


@dataclass(frozen=True)
class GenerationRecord:
    """Statistics of one generation."""

    generation: int
    best_fitness: float
    mean_fitness: float
    best_size: int
    best_fully_evaluated: bool
    evaluations_so_far: int


@dataclass
class RunResult:
    """Outcome of one GMR run.

    ``stop_reason`` is None for a run that exhausted its configured
    generations; a governed run that stopped early (budget ceiling,
    cooperative signal shutdown) carries the machine-readable reason
    (``budget:*`` / ``signal:*``) and its ``history``/``best``/``stats``
    describe the partial-but-valid prefix actually executed.
    """

    best: Individual
    history: list[GenerationRecord]
    stats: EvaluationStats
    seed: int
    elapsed: float
    stop_reason: str | None = None

    @property
    def best_fitness(self) -> float:
        if self.best.fitness is None:
            return float("inf")
        return self.best.fitness


@dataclass
class GMREngine:
    """Knowledge-guided genetic model revision.

    Attributes:
        knowledge: Prior knowledge (seed process, revisions, priors).
        task: The modeling task to fit.
        config: Engine configuration.
        grammar: The TAG compiled from ``knowledge`` (built if omitted).
    """

    knowledge: PriorKnowledge
    task: ModelingTask
    config: GMRConfig = field(default_factory=GMRConfig)
    grammar: TagGrammar | None = None
    use_local_search: bool = True
    #: Offspring-evaluation backend for batched mode
    #: (``config.eval_batch_size > 0``); built from the config when None.
    eval_backend: EvaluationBackend | None = None
    #: Optional tracer receiving run/generation/checkpoint events.
    #: Process-local (sinks hold file handles); dropped on pickling.
    tracer: Tracer | None = None
    #: When set (and no explicit ``tracer`` is attached), each run writes
    #: a JSONL trace to ``<trace_dir>/run-<seed>.jsonl``.  Plain path, so
    #: it survives pickling into pool workers -- campaign runs trace
    #: themselves from inside their worker processes.
    trace_dir: str | os.PathLike[str] | None = None
    #: Optional resource governor (:mod:`repro.gp.governor`): budget
    #: ceilings checked at generation boundaries, cooperative
    #: SIGTERM/SIGINT shutdown, and heartbeat trace events.  Lives on
    #: the engine (not the config) so a budget-stopped checkpoint can be
    #: resumed under a larger budget without tripping resume's
    #: ``config_repr`` equality check.  Picklable; the runtime stop flag
    #: is dropped on pickling (see ``RunGovernor.__getstate__``).
    governor: RunGovernor | None = None
    #: Default per-generation progress callback, used when ``run()`` is
    #: not given an explicit one.  Campaign paths (``run_campaign`` ->
    #: ``_run_one``) never thread a callback through, so this is how a
    #: campaign owner -- e.g. the serve layer's pacing hook -- observes
    #: generations.  Observational only; like the tracer it is dropped
    #: on pickling (callbacks may not pickle, and worker processes must
    #: not inherit the parent's hook).
    progress: ProgressFn | None = None

    def __post_init__(self) -> None:
        if self.grammar is None:
            self.grammar = build_grammar(self.knowledge)
        if tuple(self.knowledge.state_names) != tuple(self.task.state_names):
            raise ValueError(
                "knowledge and task disagree on state names: "
                f"{self.knowledge.state_names} vs {self.task.state_names}"
            )

    def __getstate__(self) -> dict:
        # Tracers hold sink file handles; worker processes build their
        # own from ``trace_dir``.
        state = dict(self.__dict__)
        state["tracer"] = None
        state["progress"] = None
        return state

    def make_evaluator(self) -> GMRFitnessEvaluator:
        return GMRFitnessEvaluator(task=self.task, config=self.config)

    @classmethod
    def for_domain(
        cls,
        name: str,
        config: GMRConfig | None = None,
        period: str = "train",
        mini: bool = False,
        **kwargs,
    ) -> "GMREngine":
        """Build an engine for a registered domain (see :mod:`repro.domains`).

        Resolves knowledge and task from the registered
        :class:`~repro.domains.registry.DomainSpec` and stamps the
        domain name into the config, so checkpoints written by the run
        carry it.

        Args:
            name: Registered domain name (``river``, ``sir``, ...).
            config: Engine configuration; its ``domain`` field is
                overwritten with ``name``.
            period: Task period (``train``/``test``/``all``).
            mini: Use the domain's small conformance task instead of the
                standard one.
            **kwargs: Forwarded to the :class:`GMREngine` constructor
                (``trace_dir``, ``eval_backend``, ...).

        Raises:
            DomainNotFoundError: ``name`` is not registered.
        """
        from repro.domains.registry import get_domain

        spec = get_domain(name)
        config = config if config is not None else GMRConfig()
        if config.domain != spec.name:
            config = replace(config, domain=spec.name)
        task = spec.mini_task(period) if mini else spec.make_task(period)
        return cls(spec.make_knowledge(), task, config, **kwargs)

    def _check_checkpoint_domain(self, checkpoint: RunCheckpoint) -> None:
        """Refuse to resume under the wrong domain or a changed spec."""
        saved_domain = checkpoint.domain
        if saved_domain != self.config.domain:
            raise CheckpointError(
                f"checkpoint was written for domain {saved_domain!r}, "
                f"cannot resume it under domain {self.config.domain!r}"
            )
        saved_hash = checkpoint.domain_spec_hash
        if not saved_hash:
            return  # unregistered domain at save time: nothing to compare
        current_hash = self._domain_spec_hash()
        if current_hash and current_hash != saved_hash:
            raise CheckpointError(
                f"domain {saved_domain!r} spec changed since the "
                "checkpoint was written (spec hash "
                f"{saved_hash[:12]}.. != {current_hash[:12]}..): resuming "
                "would continue the run over a different search space. "
                "Restore the original domain spec, or restart the run "
                "fresh under the new one."
            )

    def _domain_spec_hash(self) -> str:
        """Current spec hash of ``config.domain`` ('' when unregistered).

        Memoised per engine: the hash walks the domain's knowledge
        bundle, and checkpoint cadences of 1 would otherwise rebuild it
        every generation.
        """
        cached = self.__dict__.get("_cached_domain_hash")
        if cached is None:
            from repro.domains.registry import domain_spec_hash

            cached = domain_spec_hash(self.config.domain)
            self.__dict__["_cached_domain_hash"] = cached
        return cached

    def run(
        self,
        seed: int | None = None,
        progress: ProgressFn | None = None,
        evaluator: GMRFitnessEvaluator | None = None,
        resume_from: RunCheckpoint | str | os.PathLike[str] | None = None,
        checkpoint_path: str | os.PathLike[str] | None = None,
    ) -> RunResult:
        """Execute one full evolutionary run.

        Args:
            seed: RNG seed (runs are deterministic given a seed).
                Defaults to 0 for fresh runs; a resumed run adopts its
                checkpoint's seed, and passing a conflicting seed raises.
            progress: Optional callback invoked after each generation
                (defaults to the engine-level :attr:`progress` hook).
            evaluator: Custom evaluator (e.g. with different ES settings);
                a fresh one is created when omitted.  Incompatible with
                ``resume_from`` (the checkpoint carries its evaluator).
            resume_from: A :class:`~repro.gp.checkpoint.RunCheckpoint`
                (or path to one) to continue from.  The resumed run
                replays the remaining generations bit-identically to the
                uninterrupted run: same ``best_fitness`` history, same
                champion.
            checkpoint_path: Where to snapshot the run every
                ``config.checkpoint_every`` generations (atomic
                write-then-rename; no-op when the cadence is 0).

        Raises:
            CheckpointError: ``resume_from`` is unreadable, corrupt, was
                written under a different configuration, or conflicts
                with an explicit ``seed``/``evaluator``.
        """
        config = self.config
        started = time.perf_counter()
        if progress is None:
            progress = self.progress

        if resume_from is not None:
            if evaluator is not None:
                raise CheckpointError(
                    "pass either resume_from or evaluator, not both: "
                    "the checkpoint carries its own evaluator state"
                )
            checkpoint = (
                resume_from
                if isinstance(resume_from, RunCheckpoint)
                else load_checkpoint_resilient(resume_from)
            )
            if checkpoint.config_repr != repr(config):
                raise CheckpointError(
                    "checkpoint was written under a different engine "
                    f"configuration:\n  checkpoint: {checkpoint.config_repr}"
                    f"\n  engine:     {config!r}"
                )
            self._check_checkpoint_domain(checkpoint)
            if seed is not None and seed != checkpoint.seed:
                raise CheckpointError(
                    f"checkpoint holds seed {checkpoint.seed}, "
                    f"cannot resume it as seed {seed}"
                )
            seed = checkpoint.seed
            rng = random.Random()
            rng.setstate(checkpoint.rng_state)
            evaluator = checkpoint.evaluator
            # The checks above pin every repr'd setting; the evaluator
            # follows this engine's repr=False ones (domain,
            # checkpoint_keep) and drops whatever the writer's pickled
            # config carried.
            evaluator.config = config
            population: list[Individual] | None = checkpoint.population
            best: Individual | None = checkpoint.best
            history = list(checkpoint.history)
            start_generation = checkpoint.generation
            elapsed_before = checkpoint.elapsed
            resumed = True
            trace_seq = checkpoint.trace_seq
        else:
            if seed is None:
                seed = 0
            rng = random.Random(seed)
            if evaluator is None:
                evaluator = self.make_evaluator()
            population = None
            best = None
            history = []
            start_generation = 0
            elapsed_before = 0.0
            resumed = False
            trace_seq = 0

        tracer, owns_tracer = self._resolve_tracer(seed)
        profile: PhaseProfile | None = None
        run_cm: ContextManager[int] = nullcontext(-1)
        if tracer is not None:
            tracer.advance_to(trace_seq)
            evaluator.tracer = tracer
            profile = PhaseProfile()
            run_cm = tracer.span(
                "run",
                seed=seed,
                resumed=resumed,
                start_generation=start_generation,
            )
        governor = self.governor
        signal_cm: ContextManager[object] = (
            governor.install() if governor is not None else nullcontext()
        )
        stop_reason: str | None = None
        try:
            with signal_cm, run_cm as run_span:
                if not resumed:
                    if config.strict_validate:
                        self._lint_artifacts()
                    if config.static_triage:
                        self._triage_seed(evaluator)
                    population = initial_population(
                        self.grammar, self.knowledge, config, rng
                    )
                    if config.strict_validate:
                        self._lint_offspring(population, "initial population")
                    # The seed population is one cohort with no RNG use
                    # between evaluations.
                    with self._phase(profile, "evaluate"):
                        evaluator.evaluate_batch(population)

                    best = self._track_best(None, population)
                    record = self._record(0, population, evaluator)
                    history.append(record)
                    with self._phase(profile, "checkpoint"):
                        self._maybe_checkpoint(
                            checkpoint_path, seed, 0, rng, population, best,
                            history, evaluator, started, elapsed_before,
                            tracer,
                        )
                    self._trace_generation(tracer, profile, record)
                    if progress is not None:
                        progress(0, record)
                assert population is not None and best is not None

                # Generation boundaries are the governor's deterministic
                # decision points.  A resumed run re-checks at its start
                # generation (without a duplicate heartbeat) so resuming
                # under an already-exhausted budget stops before doing a
                # generation of over-budget work.
                stop_reason = self._governor_tick(
                    governor, tracer, evaluator, start_generation if resumed
                    else 0, seed, rng, population, best, history,
                    checkpoint_path, started, elapsed_before,
                    heartbeat=not resumed,
                )

                for generation in range(
                    start_generation + 1, config.max_generations + 1
                ):
                    if stop_reason is not None:
                        break
                    sigma_scale = config.sigma_scale(generation)
                    population = self._next_generation(
                        population, evaluator, rng, sigma_scale, profile
                    )
                    best = self._track_best(best, population)
                    record = self._record(generation, population, evaluator)
                    history.append(record)
                    with self._phase(profile, "checkpoint"):
                        self._maybe_checkpoint(
                            checkpoint_path, seed, generation, rng,
                            population, best, history, evaluator, started,
                            elapsed_before, tracer,
                        )
                    self._trace_generation(tracer, profile, record)
                    if progress is not None:
                        progress(generation, record)
                    stop_reason = self._governor_tick(
                        governor, tracer, evaluator, generation, seed, rng,
                        population, best, history, checkpoint_path, started,
                        elapsed_before,
                    )

                elapsed = elapsed_before + (time.perf_counter() - started)
                if tracer is not None:
                    end_fields: dict = dict(
                        best_fitness=(
                            best.fitness
                            if best.fitness is not None
                            else math.inf
                        ),
                        generations=len(history),
                        evaluations=evaluator.stats.evaluations,
                        steps_evaluated=evaluator.stats.steps_evaluated,
                        steps_integrated=evaluator.stats.steps_integrated,
                    )
                    if stop_reason is not None:
                        end_fields["stop_reason"] = stop_reason
                    tracer.end_span_fields("run", run_span, **end_fields)
        finally:
            if tracer is not None:
                evaluator.tracer = None
                if owns_tracer:
                    tracer.close()
        return RunResult(
            best=best,
            history=history,
            stats=evaluator.stats,
            seed=seed,
            elapsed=elapsed,
            stop_reason=stop_reason,
        )

    def _resolve_tracer(self, seed: int) -> tuple[Tracer | None, bool]:
        """The tracer this run should emit into, if any.

        An explicitly attached :attr:`tracer` wins; otherwise
        :attr:`trace_dir` opens a per-seed JSONL trace owned (and closed)
        by this run.  Returns ``(tracer, owns_tracer)``.
        """
        if self.tracer is not None and self.tracer.enabled:
            return self.tracer, False
        if self.trace_dir is not None:
            path = os.path.join(
                os.fspath(self.trace_dir), f"run-{seed}.jsonl"
            )
            return Tracer(JsonlSink(path)), True
        return None, False

    @staticmethod
    def _phase(
        profile: PhaseProfile | None, name: str
    ) -> ContextManager[None]:
        """A profiler phase, or a no-op when profiling is off."""
        if profile is None:
            return nullcontext()
        return profile.phase(name)

    @staticmethod
    def _trace_generation(
        tracer: Tracer | None,
        profile: PhaseProfile | None,
        record: GenerationRecord,
    ) -> None:
        """Emit one ``generation`` event with the drained phase times."""
        if tracer is None:
            return
        phases = profile.drain() if profile is not None else {}
        tracer.point(
            "generation",
            generation=record.generation,
            best_fitness=record.best_fitness,
            mean_fitness=record.mean_fitness,
            best_size=record.best_size,
            evaluations=record.evaluations_so_far,
            best_fully_evaluated=record.best_fully_evaluated,
            select_time=phases.get("select", 0.0),
            evaluate_time=phases.get("evaluate", 0.0),
            local_search_time=phases.get("local_search", 0.0),
            checkpoint_time=phases.get("checkpoint", 0.0),
        )

    def _governor_tick(
        self,
        governor: RunGovernor | None,
        tracer: Tracer | None,
        evaluator: GMRFitnessEvaluator,
        generation: int,
        seed: int,
        rng: random.Random,
        population: list[Individual],
        best: Individual,
        history: list[GenerationRecord],
        checkpoint_path: str | os.PathLike[str] | None,
        started: float,
        elapsed_before: float,
        heartbeat: bool = True,
    ) -> str | None:
        """One governor consultation at a generation boundary.

        Emits the heartbeat, checks budgets and the cooperative stop
        flag, and -- when stopping -- emits the ``run_stop`` event and
        forces a final checkpoint (regardless of cadence) with the stop
        reason stamped into the envelope.  The stop event and the forced
        save happen *before* the envelope's ``trace_seq`` is recorded,
        so a resumed run's stitched trace continues right after them.
        """
        if governor is None:
            return None
        elapsed_now = elapsed_before + (time.perf_counter() - started)
        evaluations = evaluator.stats.evaluations
        if heartbeat and tracer is not None:
            governor.heartbeat(
                tracer,
                generation=generation,
                evaluations=evaluations,
                elapsed=elapsed_now,
            )
        reason = governor.check(
            generation=generation,
            evaluations=evaluations,
            elapsed=elapsed_now,
        )
        if reason is None:
            return None
        if tracer is not None:
            tracer.point(
                "run_stop",
                reason=reason,
                generation=generation,
                evaluations=evaluations,
                elapsed=elapsed_now,
            )
        if checkpoint_path is not None:
            self._write_checkpoint(
                checkpoint_path, seed, generation, rng, population, best,
                history, evaluator, started, elapsed_before, tracer,
                stop_reason=reason,
            )
        return reason

    def _maybe_checkpoint(
        self,
        path: str | os.PathLike[str] | None,
        seed: int,
        generation: int,
        rng: random.Random,
        population: list[Individual],
        best: Individual,
        history: list[GenerationRecord],
        evaluator: GMRFitnessEvaluator,
        started: float,
        elapsed_before: float,
        tracer: Tracer | None = None,
    ) -> None:
        """Snapshot the loop state if the cadence says this generation."""
        every = self.config.checkpoint_every
        if path is None or every <= 0 or generation % every != 0:
            return
        self._write_checkpoint(
            path, seed, generation, rng, population, best, history,
            evaluator, started, elapsed_before, tracer,
        )

    def _write_checkpoint(
        self,
        path: str | os.PathLike[str],
        seed: int,
        generation: int,
        rng: random.Random,
        population: list[Individual],
        best: Individual,
        history: list[GenerationRecord],
        evaluator: GMRFitnessEvaluator,
        started: float,
        elapsed_before: float,
        tracer: Tracer | None = None,
        stop_reason: str | None = None,
    ) -> None:
        """Write one envelope now (cadence snapshot or forced stop save)."""
        # The checkpoint event goes out *before* the save, so the stored
        # trace offset covers it and a resumed run continues the JSONL
        # trace right after it without reusing sequence numbers.
        if tracer is not None:
            tracer.point(
                "checkpoint", generation=generation, path=os.fspath(path)
            )
        save_checkpoint(
            RunCheckpoint(
                seed=seed,
                generation=generation,
                elapsed=elapsed_before + (time.perf_counter() - started),
                config_repr=repr(self.config),
                rng_state=rng.getstate(),
                population=population,
                best=best,
                history=list(history),
                evaluator=evaluator,
                trace_seq=tracer.seq if tracer is not None else 0,
                domain=self.config.domain,
                domain_spec_hash=self._domain_spec_hash(),
                stop_reason=stop_reason,
            ),
            path,
            keep=self.config.checkpoint_keep,
        )

    def _lint_artifacts(self) -> None:
        """Strict mode: lint the grammar and knowledge bundle up front."""
        from repro.lint import lint_knowledge

        lint_knowledge(self.knowledge, self.grammar).raise_if_errors(
            "strict_validate: grammar/knowledge failed the lint pass"
        )

    def _triage_seed(self, evaluator: GMRFitnessEvaluator) -> None:
        """Static-triage mode: prove the expert seed clean up front.

        A seed whose equations static triage would skip (provably NaN
        over the task's reachable inputs) means the knowledge bundle and
        task disagree -- fail loudly at generation 0 instead of running
        a search in which the seed and all its neighbourhoods score the
        divergence sentinel.  Tasks without the plain-ODE surface
        (duck-typed ``error_stream``-only tasks) are not triaged; the
        run's evaluator knows which tasks have it and owns the triage
        context its candidates are checked against.
        """
        if not evaluator._triageable:
            return
        from repro.lint import LintReport
        from repro.lint.triage import fatal_findings, triage_equations

        report = triage_equations(
            self.knowledge.seed_equations,
            evaluator._triage_context_for_task(),
            obj="seed equation",
        )
        fatal = fatal_findings(report)
        if fatal:
            failing = LintReport()
            for finding in fatal:
                failing.add(finding)
            failing.raise_if_errors(
                "static_triage: the expert seed is provably divergent "
                "on this task"
            )

    def _lint_offspring(
        self, individuals: list[Individual], context: str
    ) -> None:
        """Strict mode: lint derivations before they reach evaluation.

        All findings across the cohort are aggregated into one
        :class:`repro.lint.LintError` so a malformed batch fails once,
        with every offending individual named, instead of N times.
        """
        from repro.lint import LintReport, lint_derivation

        report = LintReport()
        for index, individual in enumerate(individuals):
            found = lint_derivation(individual.derivation, self.grammar)
            for diagnostic in found:
                location = replace(
                    diagnostic.location,
                    detail=(
                        f"individual {index}"
                        if not diagnostic.location.detail
                        else f"individual {index}; {diagnostic.location.detail}"
                    ),
                )
                report.add(replace(diagnostic, location=location))
        report.raise_if_errors(f"strict_validate: {context}")

    def _spawn_offspring(
        self,
        population: list[Individual],
        rng: random.Random,
        sigma_scale: float,
        evaluator: GMRFitnessEvaluator,
    ) -> list[Individual]:
        """One reproduction-operator roll: select parents, produce children."""
        config = self.config
        ops = config.operators

        def select() -> Individual:
            return tournament_select(population, config.tournament_size, rng)

        roll = rng.random()
        if roll < ops.crossover:
            pair = crossover(select(), select(), self.grammar, config, rng)
            if pair is None:
                return [replication(select())]
            return list(pair)
        if roll < ops.crossover + ops.subtree_mutation:
            child = subtree_mutation(select(), self.grammar, config, rng)
            return [child if child is not None else replication(select())]
        if roll < ops.crossover + ops.subtree_mutation + ops.gaussian_mutation:
            if config.gaussian_proposals > 1:
                # Propose-K-then-pick-best: all proposals share the
                # parent's structure, so one cohort scores them.
                return [
                    gaussian_mutation_best_of(
                        select(), self.knowledge, config, rng, sigma_scale,
                        evaluator.evaluate_batch,
                    )
                ]
            return [
                gaussian_mutation(
                    select(), self.knowledge, config, rng, sigma_scale
                )
            ]
        return [replication(select())]

    def _local_search(
        self,
        child: Individual,
        evaluator: GMRFitnessEvaluator,
        rng: random.Random,
        sigma_scale: float,
    ) -> Individual:
        config = self.config
        if self.use_local_search and config.local_search_steps > 0:
            return hill_climb(
                child,
                self.grammar,
                config,
                evaluator.evaluate,
                rng,
                knowledge=self.knowledge,
                sigma_scale=sigma_scale,
                batch_fitness_fn=evaluator.evaluate_batch,
            )
        return child

    def _ensure_backend(self) -> EvaluationBackend:
        if self.eval_backend is None:
            if self.config.n_workers > 1:
                self.eval_backend = ProcessPoolBackend(
                    max_workers=self.config.n_workers
                )
            else:
                self.eval_backend = SerialBackend()
        return self.eval_backend

    def _next_generation(
        self,
        population: list[Individual],
        evaluator: GMRFitnessEvaluator,
        rng: random.Random,
        sigma_scale: float,
        profile: PhaseProfile | None = None,
    ) -> list[Individual]:
        config = self.config
        if config.eval_batch_size > 0:
            return self._next_generation_batched(
                population, evaluator, rng, sigma_scale, profile
            )
        next_population: list[Individual] = elites(population, config.elite_size)
        while len(next_population) < config.population_size:
            # "select" covers parent selection and operator application
            # (including any proposal scoring the operator does itself).
            with self._phase(profile, "select"):
                children = self._spawn_offspring(
                    population, rng, sigma_scale, evaluator
                )
            for child in children:
                if len(next_population) >= config.population_size:
                    break
                if config.strict_validate:
                    self._lint_offspring([child], "offspring")
                if child.fitness is None:
                    with self._phase(profile, "evaluate"):
                        evaluator.evaluate(child)
                with self._phase(profile, "local_search"):
                    child = self._local_search(
                        child, evaluator, rng, sigma_scale
                    )
                next_population.append(child)
        return next_population

    def _next_generation_batched(
        self,
        population: list[Individual],
        evaluator: GMRFitnessEvaluator,
        rng: random.Random,
        sigma_scale: float,
        profile: PhaseProfile | None = None,
    ) -> list[Individual]:
        """Batched offspring evaluation through the evaluation backend.

        The whole offspring cohort is generated *unevaluated* first, then
        evaluated in batches of ``config.eval_batch_size`` via the
        backend, then local-searched.  With a process-pool backend the ES
        ``best_prev_full`` marker synchronises once per batch rather than
        once per individual, so results can differ slightly from the
        serial path (see :mod:`repro.gp.parallel`); set
        ``eval_batch_size=0`` to restore strictly serial semantics.
        """
        config = self.config
        next_population: list[Individual] = elites(population, config.elite_size)
        budget = config.population_size - len(next_population)
        offspring: list[Individual] = []
        with self._phase(profile, "select"):
            while len(offspring) < budget:
                for child in self._spawn_offspring(
                    population, rng, sigma_scale, evaluator
                ):
                    if len(offspring) >= budget:
                        break
                    offspring.append(child)

        if config.strict_validate:
            self._lint_offspring(offspring, "offspring cohort")
        backend = self._ensure_backend()
        batch_size = config.eval_batch_size
        for start in range(0, len(offspring), batch_size):
            batch = offspring[start : start + batch_size]
            pending = [child for child in batch if child.fitness is None]
            if pending:
                with self._phase(profile, "evaluate"):
                    backend.evaluate_batch(evaluator, pending)
            with self._phase(profile, "local_search"):
                for child in batch:
                    child = self._local_search(
                        child, evaluator, rng, sigma_scale
                    )
                    next_population.append(child)
        return next_population

    @staticmethod
    def _track_best(
        best: Individual | None, population: list[Individual]
    ) -> Individual:
        candidate = best_of(population)
        # NB: `best.fitness or inf` would treat a legitimate 0.0 champion
        # as missing and let any candidate displace it; only None means
        # "no fitness yet".
        incumbent = (
            float("inf") if best is None or best.fitness is None
            else best.fitness
        )
        if best is None or (
            candidate.fitness is not None and candidate.fitness < incumbent
        ):
            clone = candidate.copy()
            clone.fitness = candidate.fitness
            clone.fully_evaluated = candidate.fully_evaluated
            return clone
        return best

    @staticmethod
    def _record(
        generation: int,
        population: list[Individual],
        evaluator: GMRFitnessEvaluator,
    ) -> GenerationRecord:
        fitnesses = [
            individual.fitness
            for individual in population
            if individual.fitness is not None
        ]
        champion = best_of(population)
        return GenerationRecord(
            generation=generation,
            best_fitness=champion.fitness if champion.fitness is not None else float("inf"),
            mean_fitness=sum(fitnesses) / len(fitnesses) if fitnesses else float("inf"),
            best_size=champion.size,
            best_fully_evaluated=champion.fully_evaluated,
            evaluations_so_far=evaluator.stats.evaluations,
        )


def run_many(
    engine: GMREngine,
    n_runs: int,
    base_seed: int = 0,
) -> list[RunResult]:
    """Execute several independent runs with consecutive seeds.

    When ``engine.config.n_workers > 1`` the runs are farmed to a process
    pool via :func:`repro.gp.parallel.run_many_parallel`; per-run results
    are identical to serial execution either way (each run owns its
    evaluator, so seeds fully determine outcomes).
    """
    if engine.config.n_workers > 1 and n_runs > 1:
        from repro.gp.parallel import run_many_parallel

        return run_many_parallel(
            engine, n_runs, base_seed, max_workers=engine.config.n_workers
        )
    return [engine.run(seed=base_seed + index) for index in range(n_runs)]
