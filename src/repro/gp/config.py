"""Configuration for the GMR engine.

Defaults follow Appendix B of the paper (population 200, 100 generations,
elite 2, tournament 5, chromosome size 2..50, operator probabilities
crossover/subtree/Gaussian/replication = 0.3/0.3/0.3/0.1, five local-search
steps).  Experiments in this reproduction typically scale the population
and generation counts down; the dataclass keeps every knob explicit.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class ConfigError(ValueError):
    """Raised for inconsistent engine configurations."""


@dataclass(frozen=True)
class OperatorProbabilities:
    """Probabilities with which reproduction operators are chosen."""

    crossover: float = 0.3
    subtree_mutation: float = 0.3
    gaussian_mutation: float = 0.3
    replication: float = 0.1

    def __post_init__(self) -> None:
        total = (
            self.crossover
            + self.subtree_mutation
            + self.gaussian_mutation
            + self.replication
        )
        if abs(total - 1.0) > 1e-9:
            raise ConfigError(f"operator probabilities sum to {total}, not 1")
        for name, value in self.__dict__.items():
            if value < 0:
                raise ConfigError(f"negative probability for {name}")


@dataclass(frozen=True)
class GMRConfig:
    """All knobs of a genetic-model-revision run.

    Attributes:
        population_size: Number of individuals per generation (POPSIZE).
        max_generations: Number of generations (MAXGEN).
        min_size: Minimum chromosome size (derivation nodes, MINSIZE).
        max_size: Maximum chromosome size (MAXSIZE).
        init_max_size: Cap on the *initial* individual size (None grows up
            to ``max_size``, the paper's behaviour).  Starting small and
            letting insertion/crossover grow structure tends to co-adapt
            constants better under tight evaluation budgets.
        elite_size: Individuals copied unchanged each generation.
        tournament_size: Tournament selection pressure.
        operators: Reproduction-operator probabilities.
        local_search_steps: Hill-climbing steps per offspring (0 disables).
        gaussian_sigma_factor: Mutation sigma as a fraction of the prior
            mean (the paper uses 1/4).
        sigma_rampdown_generations: Over how many final generations the
            sigma is ramped down linearly (the paper's ``k``).
        es_threshold: Evaluation short-circuiting threshold; None disables
            short-circuiting entirely.  Lower values are more eager; like
            the paper's Figure 11, eager thresholds trade accuracy for
            fewer evaluated time steps, and 1.3 matches full evaluation
            quality at a fraction of the cost on the river task.
        use_tree_cache: Enable fitness caching on exact structure.
        use_compilation: Evaluate through runtime-compiled step functions
            (False falls back to the tree-walking interpreter).
        crossover_retries: Attempts to find compatible crossover subtrees
            before giving up (the paper's retry limit).
        local_search_gaussian: Mix a Gaussian parameter tweak into the
            local-search moves (memetic extension; the paper's local
            search uses insertion/deletion only -- set False for the
            strictly-paper behaviour).
        n_workers: Worker processes used by the parallel execution layer
            (:mod:`repro.gp.parallel`).  1 keeps everything in-process;
            ``run_many`` farms independent runs out when > 1, and the
            process-pool evaluation backend sizes its pool from it.
        strict_validate: Run the :mod:`repro.lint` static verification
            pass inside the engine: the grammar and knowledge bundle are
            linted once at the start of a run, and every seed individual
            and offspring derivation is linted before evaluation.  Any
            error-severity finding raises a single aggregated
            :class:`repro.lint.LintError` instead of crashing deep inside
            ``derive``/``compile`` (or, worse, inside N pool workers at
            once).  Off by default: the operators only produce valid
            derivations, so this guards against hand-built or
            deserialised artifacts at a small per-offspring cost.
        eval_batch_size: When > 0, ``GMREngine`` generates offspring in
            unevaluated batches of this size and evaluates each batch
            through its evaluation backend
            (``GMRFitnessEvaluator.evaluate_batch``, or a process pool)
            before local search.  The members of a batch are generated
            before any of them is scored, so the RNG stream and the
            order in which ES's ``best_prev_full`` marker moves differ
            from the (default) per-individual mode, and results can
            differ slightly; 0 preserves the strictly serial semantics.
        gaussian_proposals: Candidates proposed per Gaussian-mutation
            move (engine operator and hill-climb move alike).  With K > 1
            each move proposes K parameter vectors of the *same*
            structure, scores them as one cohort through
            ``evaluate_batch``, and keeps the best.  1 (default)
            preserves the paper's single-proposal semantics.
        tree_cache_size: LRU capacity of the fitness tree cache
            (entries).  Bounds cache memory over long campaigns; see
            :class:`repro.lru.LRU`.
        domain: Name of the problem domain this run revises models for
            (see :mod:`repro.domains`).  Engines built through
            ``GMREngine.for_domain`` resolve knowledge and task from the
            registered :class:`~repro.domains.registry.DomainSpec` of
            this name; hand-built engines keep the default.  Excluded
            from ``repr`` so pre-domain checkpoints (which compare
            ``config_repr`` on resume) stay resumable -- domain mismatch
            is guarded by the checkpoint envelope's explicit ``domain``
            and ``domain_spec_hash`` fields instead, which produce
            clearer errors than a repr diff.
        static_triage: Run the semantic lint triage
            (:mod:`repro.lint.triage`) on every candidate before
            compilation: an interval-domain abstract interpretation of
            its equations over the task's reachable state/driver ranges.
            Candidates whose right-hand side is *provably* NaN for every
            reachable input (rule A001, the only fatal rule) skip
            compilation and simulation entirely and score the
            worst-fitness sentinel -- the exact value the simulator's
            first-step divergence would produce -- so fitness values,
            selection, the RNG stream, histories, traces and checkpoints
            are bit-identical with triage on or off; only the skipped
            work (counted in ``EvaluationStats.triage_skips``) differs.
            Off by default.
        checkpoint_every: Snapshot cadence of the resilience layer
            (:mod:`repro.gp.checkpoint`): when > 0 and ``GMREngine.run``
            is given a ``checkpoint_path``, the run's full loop state is
            written there every this many generations (atomically), so an
            interrupted run resumes from its last snapshot and reproduces
            the uninterrupted history bit-identically.  0 (default)
            disables mid-run snapshots; campaign-level result persistence
            (:func:`repro.gp.resilience.run_campaign`) works either way.
        checkpoint_keep: How many generation snapshots the checkpoint
            retention ring keeps on disk (see
            :func:`repro.gp.checkpoint.save_checkpoint`).  1 (default)
            keeps only the canonical newest envelope -- the historical
            behaviour; N > 1 additionally retains the newest N ring
            copies, and a corrupted canonical envelope falls back to the
            newest verifiable one on resume instead of raising.
            Excluded from ``repr`` (like ``domain``) so resume's
            ``config_repr`` equality check still accepts checkpoints
            written under a different retention setting -- retention is
            an operational knob, not part of the search configuration.
    """

    population_size: int = 200
    max_generations: int = 100
    min_size: int = 2
    max_size: int = 50
    init_max_size: int | None = None
    elite_size: int = 2
    tournament_size: int = 5
    operators: OperatorProbabilities = field(default_factory=OperatorProbabilities)
    local_search_steps: int = 5
    gaussian_sigma_factor: float = 0.25
    sigma_rampdown_generations: int = 10
    es_threshold: float | None = 1.3
    local_search_gaussian: bool = True
    use_tree_cache: bool = True
    use_compilation: bool = True
    crossover_retries: int = 10
    n_workers: int = 1
    eval_batch_size: int = 0
    strict_validate: bool = False
    static_triage: bool = False
    checkpoint_every: int = 0
    gaussian_proposals: int = 1
    tree_cache_size: int = 200_000
    domain: str = field(default="river", repr=False)
    checkpoint_keep: int = field(default=1, repr=False)

    def __post_init__(self) -> None:
        if not self.domain or not isinstance(self.domain, str):
            raise ConfigError("domain must be a non-empty string")
        if self.population_size < 1:
            raise ConfigError("population_size must be positive")
        if self.max_generations < 1:
            raise ConfigError("max_generations must be positive")
        if not 1 <= self.min_size <= self.max_size:
            raise ConfigError("need 1 <= min_size <= max_size")
        if self.init_max_size is not None and not (
            self.min_size <= self.init_max_size <= self.max_size
        ):
            raise ConfigError("init_max_size must lie in [min_size, max_size]")
        if self.elite_size < 0 or self.elite_size > self.population_size:
            raise ConfigError("elite_size must be in [0, population_size]")
        if self.tournament_size < 1:
            raise ConfigError("tournament_size must be positive")
        if self.es_threshold is not None and self.es_threshold <= 0:
            raise ConfigError("es_threshold must be positive or None")
        if self.gaussian_sigma_factor <= 0:
            raise ConfigError("gaussian_sigma_factor must be positive")
        if self.n_workers < 1:
            raise ConfigError("n_workers must be positive")
        if self.eval_batch_size < 0:
            raise ConfigError("eval_batch_size must be >= 0")
        if self.checkpoint_every < 0:
            raise ConfigError("checkpoint_every must be >= 0")
        if self.checkpoint_keep < 1:
            raise ConfigError("checkpoint_keep must be >= 1")
        if self.gaussian_proposals < 1:
            raise ConfigError("gaussian_proposals must be positive")
        if self.tree_cache_size < 1:
            raise ConfigError("tree_cache_size must be positive")

    def sigma_scale(self, generation: int) -> float:
        """Linear ramp-down of the Gaussian-mutation sigma (Section III-B3).

        Returns 1.0 until the final ``sigma_rampdown_generations``
        generations, then decays linearly towards (but never reaching) 0.
        """
        remaining = self.max_generations - generation
        k = self.sigma_rampdown_generations
        if k <= 0 or remaining >= k:
            return 1.0
        return max(remaining, 1) / k
