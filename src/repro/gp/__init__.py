"""Genetic model revision: the TAG3P-based GMR engine."""

from repro.gp.checkpoint import (
    CheckpointError,
    RunCheckpoint,
    load_checkpoint,
    load_checkpoint_resilient,
    save_checkpoint,
)
from repro.gp.config import ConfigError, GMRConfig, OperatorProbabilities
from repro.gp.engine import (
    GenerationRecord,
    GMREngine,
    RunResult,
    run_many,
)
from repro.gp.governor import (
    CampaignBudget,
    GovernorConfigError,
    RunGovernor,
)
from repro.gp.fitness import (
    EvaluationStats,
    GMRFitnessEvaluator,
    linear_extrapolation,
    pessimistic_extrapolation,
)
from repro.gp.individual import Individual
from repro.gp.init import (
    InitialisationError,
    initial_population,
    random_individual,
)
from repro.gp.knowledge import (
    BINARY_REVISION_OPS,
    RANDOM_OPERAND,
    UNARY_REVISION_OPS,
    ExtensionSpec,
    KnowledgeError,
    ParameterPrior,
    PriorKnowledge,
    build_grammar,
)
from repro.gp.local_search import deletion, hill_climb, insertion
from repro.gp.parallel import (
    EvaluationBackend,
    ParallelRunError,
    ProcessPoolBackend,
    SerialBackend,
    aggregate_stats,
    run_many_parallel,
)
from repro.gp.operators import (
    crossover,
    gaussian_mutation,
    gaussian_mutation_best_of,
    replication,
    subtree_mutation,
)
from repro.gp.resilience import (
    CampaignError,
    CampaignResult,
    FailurePolicy,
    ResilienceConfigError,
    RetryPolicy,
    RunFailure,
    run_campaign,
)
from repro.gp.selection import best_of, elites, tournament_select

__all__ = [
    "BINARY_REVISION_OPS",
    "CampaignBudget",
    "CampaignError",
    "CampaignResult",
    "CheckpointError",
    "ConfigError",
    "EvaluationBackend",
    "EvaluationStats",
    "ExtensionSpec",
    "FailurePolicy",
    "GMRConfig",
    "GMREngine",
    "GMRFitnessEvaluator",
    "GenerationRecord",
    "GovernorConfigError",
    "Individual",
    "InitialisationError",
    "KnowledgeError",
    "OperatorProbabilities",
    "ParallelRunError",
    "ParameterPrior",
    "PriorKnowledge",
    "ProcessPoolBackend",
    "RANDOM_OPERAND",
    "ResilienceConfigError",
    "RetryPolicy",
    "RunCheckpoint",
    "RunFailure",
    "RunGovernor",
    "RunResult",
    "SerialBackend",
    "UNARY_REVISION_OPS",
    "aggregate_stats",
    "best_of",
    "build_grammar",
    "crossover",
    "deletion",
    "elites",
    "gaussian_mutation",
    "gaussian_mutation_best_of",
    "hill_climb",
    "initial_population",
    "insertion",
    "linear_extrapolation",
    "load_checkpoint",
    "load_checkpoint_resilient",
    "pessimistic_extrapolation",
    "random_individual",
    "replication",
    "run_campaign",
    "run_many",
    "run_many_parallel",
    "save_checkpoint",
    "subtree_mutation",
    "tournament_select",
]
