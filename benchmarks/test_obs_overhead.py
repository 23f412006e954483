"""Tracing overhead: a traced cohort evaluation stays within 5% of untraced.

The observability layer's performance contract: with a JSONL sink
attached, the evaluator emits one ``evaluation_batch`` event per cohort
and snapshots a handful of counters -- nothing per-individual, nothing
per-step -- so a traced cohort evaluation must run within
``OVERHEAD_BUDGET`` of the untraced one.

One cohort evaluation lasts only a fraction of a second, too short for a
5% gate on a shared host.  Each sample therefore repeats the evaluation
until it has lasted at least ``SAMPLE_SECONDS`` and reports the mean per
evaluation; ``PAIRS`` traced/untraced sample pairs run interleaved, with
the mode that goes first alternating, and the gate applies to the median
of the per-pair ratios.
"""

from __future__ import annotations

import random
import statistics
import time

from repro.experiments.scale import get_scale
from repro.gp import GMRConfig, GMRFitnessEvaluator
from repro.gp.init import initial_population
from repro.gp.knowledge import build_grammar
from repro.gp.operators import gaussian_mutation, replication
from repro.obs import JsonlSink, Tracer
from repro.river import load_dataset, river_knowledge

#: Maximum tolerated slowdown of the traced run (1.05 == 5%).
OVERHEAD_BUDGET = 1.05

#: Interleaved traced/untraced sample pairs.
PAIRS = 7

#: Minimum evaluation time accumulated by one sample.
SAMPLE_SECONDS = 1.0


def _cohort(scale, seed: int, proposals: int = 31):
    """A GP-shaped cohort: an initial population, a copy of each founder
    and ``proposals`` Gaussian variants of it, as ``gaussian_proposals``
    feeds them through ``evaluate_batch``.  ES is off, so every member
    runs the full horizon and the work per sample does not depend on
    where cuts fall."""
    knowledge = river_knowledge()
    grammar = build_grammar(knowledge)
    rng = random.Random(seed)
    config = GMRConfig(
        population_size=max(6, scale.population_size // 4),
        max_generations=1,
        max_size=scale.max_size,
        init_max_size=scale.init_max_size,
        es_threshold=None,
    )
    population = []
    for founder in initial_population(grammar, knowledge, config, rng):
        population.append(founder)
        population.append(replication(founder))
        for __ in range(proposals):
            population.append(gaussian_mutation(founder, knowledge, config, rng))
    return config, population


def _evaluate_once(task, config, cohort, tracer=None) -> float:
    population = [individual.copy() for individual in cohort]
    evaluator = GMRFitnessEvaluator(task=task, config=config)
    evaluator.tracer = tracer
    clock = time.perf_counter()
    evaluator.evaluate_batch(population)
    return time.perf_counter() - clock


def _sample(task, config, cohort, tracer=None) -> float:
    """Mean seconds per evaluation over at least ``SAMPLE_SECONDS``."""
    total = 0.0
    repeats = 0
    while total < SAMPLE_SECONDS:
        total += _evaluate_once(task, config, cohort, tracer)
        repeats += 1
    return total / repeats


def test_traced_evaluation_overhead_under_budget(scale_name, tmp_path):
    scale = get_scale(scale_name)
    dataset = load_dataset(
        n_years=scale.n_years, seed=7, train_years=scale.train_years
    )
    task = dataset.task("train")
    config, cohort = _cohort(scale, seed=0)

    tracer = Tracer(JsonlSink(tmp_path / "bench.jsonl"))
    ratios = []
    try:
        # Warm compilation caches so neither mode pays them.
        _evaluate_once(task, config, cohort)
        for pair in range(PAIRS):
            if pair % 2 == 0:
                untraced = _sample(task, config, cohort)
                traced = _sample(task, config, cohort, tracer)
            else:
                traced = _sample(task, config, cohort, tracer)
                untraced = _sample(task, config, cohort)
            ratios.append(traced / untraced)
    finally:
        tracer.close()

    overhead = statistics.median(ratios)
    print(
        "\nper-pair traced/untraced: "
        + ", ".join(f"{ratio:.3f}" for ratio in ratios)
        + f" (median {overhead:.3f}x)"
    )
    assert overhead <= OVERHEAD_BUDGET, (
        f"tracing overhead {overhead:.3f}x exceeds {OVERHEAD_BUDGET}x budget "
        f"(per-pair ratios {[round(ratio, 3) for ratio in ratios]})"
    )
