"""Cohort-fusion benchmark: fused multi-structure kernels vs. per-structure.

Where :mod:`repro.experiments.kernel_batching` measures one structure's
K parameter columns against the scalar loop, this study measures a whole
*generation* of distinct structures: M structure groups (each with a few
parameter columns, the shape selection actually produces) integrated as
padded fused cohorts (:func:`repro.dynamics.system.compile_cohort` +
:func:`repro.dynamics.integrate.fused_euler_rollout`) against one
:func:`batched_euler_rollout` call per structure.

The generation is built the way mature mid-run generations look: an
elite parent and its one-step subtree mutants (selection concentrates a
generation onto few parents, and every offspring shares all of the
parent's equations except its mutated subtree).  That concentration is
what the cohort-wide value-numbering CSE pools -- the fused kernel
executes a fraction of the NumPy ops the per-structure kernels add up to
(reported as ``cse_pooling``), and the single step loop amortises
per-call and per-step bookkeeping over all ``M * K`` lanes.  Among the
seeded founders the one whose offspring cohort pools best is kept
(deterministically), since that is the regime runs converge to.

A second pass times the same generation end to end through
``GMRFitnessEvaluator.evaluate_batch`` with ``fuse_cohort_size`` at the
generation's structure count vs. 1 (no fusion); that ratio is smaller
(scoring and planning are shared either way) but shows the fused path's
payoff where it is actually wired in.

Run:  python -m repro.experiments run fusion --scale smoke
"""

from __future__ import annotations

import copy
import dataclasses
import json
import random
import time
from dataclasses import dataclass, field

import numpy as np

from repro.dynamics.integrate import batched_euler_rollout, fused_euler_rollout
from repro.dynamics.system import ProcessModel, compile_cohort
from repro.experiments.scale import get_scale
from repro.experiments.tables import render_table
from repro.gp import (
    GMRConfig,
    GMRFitnessEvaluator,
    gaussian_mutation,
    initial_population,
)
from repro.gp.knowledge import build_grammar
from repro.gp.operators import subtree_mutation
from repro.obs import MetricsRegistry
from repro.river import load_dataset, river_knowledge

#: Distinct structures per measured generation (fused into one cohort).
DEFAULT_N_STRUCTURES = 16

#: Parameter columns per structure (small on purpose: per-structure
#: rollouts are overhead-bound at the widths selection produces).
DEFAULT_COLUMNS = 2


@dataclass
class KernelFusionResult:
    """Fused-cohort vs. per-structure throughput on one generation."""

    n_structures: int
    columns_per_structure: int
    n_cases: int
    per_structure_seconds: float
    fused_seconds: float
    #: Median of the paired per-rep ratios (per-structure time over
    #: fused time measured back to back), robust to machine-state drift.
    speedup: float
    #: NumPy assignments in the fused kernel vs. summed over the
    #: per-structure kernels: < 1 means cross-structure CSE pooled work.
    cse_pooling: float
    cohort_size: int
    cohort_unfused_seconds: float
    cohort_fused_seconds: float
    cohort_speedup: float
    fused_cohorts: int
    fused_columns: int
    fusion_fallbacks: int
    scale: str
    elapsed: float
    #: Flat metrics-registry snapshot of the evaluator pass (same shape
    #: as the kernel-batching payload's ``metrics`` block).
    metrics: dict = field(default_factory=dict)

    def render(self) -> str:
        rows = [
            (
                f"{self.n_structures} structures x "
                f"{self.columns_per_structure} columns",
                f"{self.per_structure_seconds * 1e3:,.1f} ms",
                f"{self.fused_seconds * 1e3:,.1f} ms",
                f"{self.speedup:.1f}x",
            ),
            (
                f"evaluate_batch (cohort of {self.cohort_size})",
                f"{self.cohort_unfused_seconds * 1e3:,.1f} ms",
                f"{self.cohort_fused_seconds * 1e3:,.1f} ms",
                f"{self.cohort_speedup:.1f}x",
            ),
        ]
        return render_table(
            ("Workload", "Per-structure", "Fused", "Speedup"),
            rows,
            title=(
                f"Cohort fusion on a river generation ({self.n_cases} "
                f"cases, scale={self.scale}; CSE pooled the fused kernel "
                f"to {self.cse_pooling:.0%} of the per-structure ops)"
            ),
        )

    def to_json(self) -> dict:
        """The ``BENCH_fusion.json`` payload."""
        return {
            "n_structures": self.n_structures,
            "columns_per_structure": self.columns_per_structure,
            "n_cases": self.n_cases,
            "per_structure_seconds": self.per_structure_seconds,
            "fused_seconds": self.fused_seconds,
            "speedup": self.speedup,
            "cse_pooling": self.cse_pooling,
            "cohort_size": self.cohort_size,
            "cohort_unfused_seconds": self.cohort_unfused_seconds,
            "cohort_fused_seconds": self.cohort_fused_seconds,
            "cohort_speedup": self.cohort_speedup,
            "fused_cohorts": self.fused_cohorts,
            "fused_columns": self.fused_columns,
            "fusion_fallbacks": self.fusion_fallbacks,
            "scale": self.scale,
            "elapsed": self.elapsed,
            "metrics": self.metrics,
        }

    def write_json(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.to_json(), handle, indent=2, sort_keys=True)
            handle.write("\n")


def _star_family(founder, task, grammar, config, rng, n_structures: int):
    """The founder plus one-step subtree mutants, all structure-distinct."""
    individuals: list = []
    models: list[tuple[ProcessModel, tuple[float, ...]]] = []
    seen: dict[str, bool] = {}
    model, params = founder.phenotype(task.state_names, task.var_order)
    if model.param_order:
        seen[model.structure_key()] = True
        individuals.append(founder)
        models.append((model, tuple(params)))
    attempts = 0
    while len(models) < n_structures and attempts < 24 * n_structures:
        attempts += 1
        child = subtree_mutation(founder, grammar, config, rng)
        model, params = child.phenotype(task.state_names, task.var_order)
        key = model.structure_key()
        if key in seen or not model.param_order:
            continue
        seen[key] = True
        individuals.append(child)
        models.append((model, tuple(params)))
    return individuals, models


def _op_count(source: str) -> int:
    """NumPy assignments in a generated kernel (proxy for per-step ops)."""
    return source.count(" = ")


def _generation(task, scale, n_structures: int, seed: int):
    """An elite parent's offspring: the generation shape fusion targets.

    Builds a star family (one-step subtree mutants) around each seeded
    founder and deterministically keeps the one whose fused kernel pools
    best under cross-structure CSE -- mature generations concentrate on
    such parents.  Returns ``(individuals, models)`` with one entry per
    distinct structure, all sharing the task's driver/state signature.
    """
    knowledge = river_knowledge()
    grammar = build_grammar(knowledge)
    rng = random.Random(seed)
    config = GMRConfig(
        population_size=8,
        max_generations=1,
        max_size=scale.max_size,
        init_max_size=scale.init_max_size,
    )
    founders = initial_population(grammar, knowledge, config, rng)
    best_family = None
    best_pooling = float("inf")
    for founder in founders:
        individuals, models = _star_family(
            founder, task, grammar, config, rng, n_structures
        )
        if len(models) < n_structures:
            continue
        kernel = compile_cohort([model for model, __ in models], 1)
        solo_ops = sum(
            _op_count(model.compiled_batched().source)
            for model, __ in models
        )
        pooling = _op_count(kernel.source) / solo_ops if solo_ops else 1.0
        if pooling < best_pooling:
            best_pooling = pooling
            best_family = (individuals, models)
    if best_family is None:
        raise RuntimeError(
            f"no founder produced {n_structures} distinct structures"
        )
    return best_family


def _jittered_columns(params: tuple[float, ...], k: int, rng) -> np.ndarray:
    base = np.array(params, dtype=float)
    sigma = 0.1 * np.maximum(np.abs(base), 1e-3)
    return base[:, None] + rng.normal(0.0, sigma[:, None], (len(base), k))


def run_kernel_fusion(
    scale_name: str | None = None,
    n_structures: int = DEFAULT_N_STRUCTURES,
    columns_per_structure: int = DEFAULT_COLUMNS,
    seed: int = 0,
    reps: int = 3,
) -> KernelFusionResult:
    """Measure fused-cohort speedup over per-structure batched rollouts."""
    scale = get_scale(scale_name)
    started = time.perf_counter()
    dataset = load_dataset(
        n_years=scale.n_years, seed=7, train_years=scale.train_years
    )
    task = dataset.task("train")
    individuals, structures = _generation(task, scale, n_structures, seed)
    rng = np.random.default_rng(seed)
    k = columns_per_structure
    groups = [
        (model, _jittered_columns(params, k, rng))
        for model, params in structures
    ]

    def per_structure_pass() -> None:
        for model, columns in groups:
            batched_euler_rollout(
                model, columns, task.drivers, task.initial_state,
                dt=task.dt, clamp=task.clamp,
            )

    kernel = compile_cohort([model for model, __ in groups], k)
    padded = np.zeros((kernel.n_params, kernel.width))
    for member, (__, columns) in enumerate(groups):
        padded[: columns.shape[0], member * k : (member + 1) * k] = columns
    var_order = groups[0][0].var_order

    def fused_pass() -> None:
        fused_euler_rollout(
            kernel, padded, task.drivers, task.initial_state, var_order,
            dt=task.dt, clamp=task.clamp,
        )

    # Warm every kernel so compilation stays out of the timings, then
    # interleave the two passes and take the median of the paired
    # per-rep ratios: pairing cancels machine-state drift (frequency
    # scaling, noisy neighbours) that would skew two separate best-of
    # measurements against each other.
    per_structure_pass()
    fused_pass()
    per_structure_times: list[float] = []
    fused_times: list[float] = []
    for __ in range(max(reps, 5)):
        clock = time.perf_counter()
        per_structure_pass()
        per_structure_times.append(time.perf_counter() - clock)
        clock = time.perf_counter()
        fused_pass()
        fused_times.append(time.perf_counter() - clock)
    per_structure_seconds = min(per_structure_times)
    fused_seconds = min(fused_times)
    ratios = sorted(
        solo / fused
        for solo, fused in zip(per_structure_times, fused_times)
    )
    speedup = ratios[len(ratios) // 2]

    fused_ops = _op_count(kernel.source)
    solo_ops = sum(
        _op_count(model.compiled_batched().source) for model, __ in groups
    )

    # End-to-end: the same generation (one individual per structure plus
    # Gaussian parameter variants) through evaluate_batch, fused vs not.
    knowledge = river_knowledge()
    config = GMRConfig(
        population_size=len(individuals),
        max_generations=1,
        max_size=scale.max_size,
        init_max_size=scale.init_max_size,
        # Like-for-like integration work, as in the batching benchmark.
        es_threshold=None,
        use_tree_cache=False,
        kernel_min_batch=1,
    )
    mutation_rng = random.Random(seed + 1)
    cohort = []
    for individual in individuals:
        cohort.append(individual)
        for __ in range(k - 1):
            cohort.append(
                gaussian_mutation(
                    individual, knowledge, config, mutation_rng, 1.0
                )
            )
    timings: dict[bool, float] = {}
    fused_stats = None
    for fuse in (True, False):
        run_config = dataclasses.replace(
            config, fuse_cohort_size=max(2, n_structures) if fuse else 1
        )
        # Warm the kernel cache with a throwaway evaluator, then time
        # fresh evaluators on fresh copies (caches are process-global).
        GMRFitnessEvaluator(task=task, config=run_config).evaluate_batch(
            copy.deepcopy(cohort)
        )
        best = float("inf")
        evaluator = None
        for __ in range(reps):
            evaluator = GMRFitnessEvaluator(task=task, config=run_config)
            population = copy.deepcopy(cohort)
            clock = time.perf_counter()
            evaluator.evaluate_batch(population)
            best = min(best, time.perf_counter() - clock)
        timings[fuse] = best
        if fuse:
            fused_stats = evaluator.stats

    registry = MetricsRegistry()
    fused_stats.publish(registry, prefix="bench.fused_eval")
    registry.gauge("bench.fusion.speedup").set(speedup)
    registry.gauge("bench.fusion.cse_pooling").set(
        fused_ops / solo_ops if solo_ops else 1.0
    )

    return KernelFusionResult(
        n_structures=len(groups),
        columns_per_structure=k,
        n_cases=task.n_cases,
        per_structure_seconds=per_structure_seconds,
        fused_seconds=fused_seconds,
        speedup=speedup,
        cse_pooling=fused_ops / solo_ops if solo_ops else 1.0,
        cohort_size=len(cohort),
        cohort_unfused_seconds=timings[False],
        cohort_fused_seconds=timings[True],
        cohort_speedup=timings[False] / timings[True],
        fused_cohorts=fused_stats.fused_cohorts,
        fused_columns=fused_stats.fused_columns,
        fusion_fallbacks=fused_stats.fusion_fallbacks,
        scale=scale.name,
        elapsed=time.perf_counter() - started,
        metrics=registry.snapshot(),
    )
