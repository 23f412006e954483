"""River network kernel: generated network stream vs. the ``steps()`` stream.

Shape targets: on a seeded set of river candidates replayed at fixed
evaluation-short-circuiting cut lengths, the compiled network stream
(station kernels inside the generated day loop) must yield bit-identical
per-day squared errors and raise identically, and run the replay at
least 2x faster than the stream stepped through
``RiverSystemSimulator.steps`` with the compiled step function.  Both
arms run with warm kernels.  The run emits ``BENCH_network.json`` so
future PRs have a recorded baseline.
"""

from __future__ import annotations

import json
import random
import struct
import time

from repro.gp.config import GMRConfig
from repro.gp.init import random_individual
from repro.gp.knowledge import build_grammar
from repro.gp.operators import subtree_mutation
from repro.river.dataset import load_dataset
from repro.river.grammar_def import river_knowledge

#: Where the baseline lands (repo root when run via pytest).
BENCH_JSON = "BENCH_network.json"

SEED = 13

#: Candidates in the replayed set.
N_CANDIDATES = 24

#: Days each evaluation consumes before Algorithm 1 stops it, cycled
#: over the candidates: a spread around a river-network run's ES cuts
#: (median ~190 of 730 days, about one in five evaluations in full).
CUT_DAYS = (730, 186, 60, 262, 120, 730, 400, 30, 186, 90)

#: Replay rounds per arm; the fastest round counts.
ROUNDS = 5

#: Minimum stream speedup of the network kernel over ``steps()``.
SPEEDUP_TARGET = 2.0


def candidates(task):
    knowledge = river_knowledge()
    grammar = build_grammar(knowledge)
    config = GMRConfig(population_size=4, max_generations=1, max_size=14)
    rng = random.Random(SEED)
    chosen = []
    while len(chosen) < N_CANDIDATES:
        individual = random_individual(grammar, knowledge, config, rng)
        for __ in range(rng.randrange(3)):
            child = subtree_mutation(individual, grammar, config, rng)
            if child is not None:
                individual = child
        chosen.append(individual.phenotype(task.state_names, task.var_order))
    return chosen


def replay(streams, cuts) -> tuple[list, float]:
    """Consume each stream up to its cut; return outcomes and seconds."""
    outcomes = []
    started = time.perf_counter()
    for make_stream, cut in zip(streams, cuts):
        values = []
        error = None
        stream = make_stream()
        try:
            for value in stream:
                values.append(value)
                if len(values) == cut:
                    break
        except Exception as caught:  # noqa: BLE001 - compared below
            error = (type(caught), str(caught))
        stream.close()
        outcomes.append((values, error))
    return outcomes, time.perf_counter() - started


def test_network_kernel_speedup(benchmark):
    task = load_dataset(n_years=3, seed=7, train_years=2).river_task("train")
    models = candidates(task)
    cuts = [CUT_DAYS[k % len(CUT_DAYS)] for k in range(len(models))]
    network = [
        (lambda m=m, p=p: task.error_stream(m, p)) for m, p in models
    ]
    stepped = [
        (lambda m=m, p=p: task.stepped_errors(m, p)) for m, p in models
    ]
    # Warm both arms' kernels, mixing plans and generated loops.
    replay(network, cuts)
    replay(stepped, cuts)

    def measure():
        best_network = best_stepped = float("inf")
        for __ in range(ROUNDS):
            network_out, seconds = replay(network, cuts)
            best_network = min(best_network, seconds)
            stepped_out, seconds = replay(stepped, cuts)
            best_stepped = min(best_stepped, seconds)
        return network_out, stepped_out, best_network, best_stepped

    network_out, stepped_out, network_s, stepped_s = benchmark.pedantic(
        measure, rounds=1, iterations=1
    )

    def bits(outcomes):
        return [
            ([struct.pack("<d", value) for value in values], error)
            for values, error in outcomes
        ]

    assert bits(network_out) == bits(stepped_out)
    days = sum(len(values) for values, __ in network_out)
    raised = sum(error is not None for __, error in network_out)
    assert days > 0
    speedup = stepped_s / network_s
    payload = {
        "seed": SEED,
        "candidates": len(models),
        "cut_days": list(CUT_DAYS),
        "days_replayed": days,
        "raised": raised,
        "stepped_ms_per_evaluation": 1e3 * stepped_s / len(models),
        "network_ms_per_evaluation": 1e3 * network_s / len(models),
        "stepped_us_per_day": 1e6 * stepped_s / days,
        "network_us_per_day": 1e6 * network_s / days,
        "speedup": speedup,
    }
    with open(BENCH_JSON, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
    assert speedup >= SPEEDUP_TARGET, (
        f"expected >= {SPEEDUP_TARGET}x over the steps() stream, "
        f"got {speedup:.2f}x"
    )
