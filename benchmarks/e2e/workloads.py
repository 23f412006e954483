"""The four seeded GMR workloads and one timed rep of each.

A *rep* builds a workload's engine (timed as set-up), runs it over a
few GP seeds with a :class:`GenerationClock` on the engine's public
progress hook, re-scores the rep's champion through the interpreter
oracle, and returns a JSON-ready record.  With
``traced=True`` the rep runs under :class:`spans.LayerProbe` and the
record also carries per-layer numbers and the spans.

Run as a script, this module performs one rep in a fresh process and
prints the record as one JSON line; ``run.py`` drives it that way, so
every rep starts from cold caches as a user's run does.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import shutil
import statistics
import sys
import tempfile
import time
from contextlib import contextmanager
from dataclasses import asdict, astuple, replace
from pathlib import Path
from typing import Callable, Iterator

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import repro  # noqa: E402

if not Path(repro.__file__).resolve().is_relative_to(SRC):
    raise ImportError(f"repro imported from {repro.__file__}, expected it under {SRC}")

from calib import calib_slice  # noqa: E402
from repro.gp import (  # noqa: E402
    CampaignBudget,
    EvaluationStats,
    GMRConfig,
    GMREngine,
    GMRFitnessEvaluator,
    RunGovernor,
    run_campaign,
)
from repro.gp.governor import STOP_GENERATIONS  # noqa: E402
from repro.river import load_dataset, river_knowledge  # noqa: E402
from spans import LayerProbe, SpanRecorder  # noqa: E402

#: Knobs every workload shares.
COMMON = dict(max_size=20, init_max_size=8, local_search_steps=3, n_workers=1)

#: Slices run back to back when a clock starts; the first of them pay
#: for cold caches, and their median brackets the set-up.
WARM_SLICES = 3

#: Where campaign checkpoints and traces go while a rep runs (inside
#: the checkout; removed when the rep ends).
WORK_ROOT = HERE / ".work"


class GenerationClock:
    """Set-up and generation wall times, bracketed by calibration slices.

    :meth:`progress` is the engine's progress hook: it closes the
    generation that just ended, runs one slice (excluded from every
    timed interval) and opens the next generation.  ``gens`` holds one
    ``[generation, raw_s, slice_before_ms, slice_after_ms]`` row each.
    """

    def __init__(self, origin: float) -> None:
        self.origin = origin
        self.slices: list[float] = []
        self.in_slices = 0.0
        self.gens: list[list[float]] = []
        self.setup_raw_s = 0.0
        self.setup_calib_ms = 0.0
        self._checksum: float | None = None
        self._mark = 0.0
        for __ in range(WARM_SLICES):
            self._slice()

    def _slice(self) -> float:
        started = time.perf_counter()
        ms, checksum = calib_slice()
        if self._checksum is None:
            self._checksum = checksum
        elif checksum != self._checksum:
            raise RuntimeError("calibration slice changed its result")
        self.slices.append(ms)
        self.in_slices += time.perf_counter() - started
        return ms

    def built(self) -> None:
        """The engine is built: close set-up and open generation 0."""
        self.setup_raw_s = time.perf_counter() - self.origin - self.in_slices
        self.setup_calib_ms = statistics.median(self.slices[-WARM_SLICES:])
        self._mark = time.perf_counter()

    def progress(self, generation: int, record: object = None) -> None:
        raw = time.perf_counter() - self._mark
        before = self.slices[-1]
        self.gens.append([generation, raw, before, self._slice()])
        self._mark = time.perf_counter()


class _Window:
    """The probed interval of a rep: its probe and its slice-free wall time."""

    def __init__(self, probe: LayerProbe | None) -> None:
        self.probe = probe
        self.wall_s = 0.0


@contextmanager
def _probed(traced: bool, clock: GenerationClock) -> Iterator[_Window]:
    window = _Window(LayerProbe(SpanRecorder()) if traced else None)
    if window.probe is not None:
        window.probe.install()
    started, sliced = time.perf_counter(), clock.in_slices
    try:
        yield window
    finally:
        window.wall_s = time.perf_counter() - started - (clock.in_slices - sliced)
        if window.probe is not None:
            window.probe.uninstall()


def _oracle_failures(task, config: GMRConfig, results) -> list[str]:
    """The rep's champion, re-scored by the interpreter, must match its fitness.

    The oracle runs without compilation, short-circuiting, tree cache or
    triage, so it shares none of the speed-ups with the scored run.
    """
    oracle_config = replace(
        config,
        use_compilation=False,
        es_threshold=None,
        use_tree_cache=False,
        static_triage=False,
    )
    result = min(results, key=lambda result: result.best_fitness)
    champion = result.best
    if not champion.fully_evaluated:
        return [f"seed {result.seed}: champion fitness is an ES estimate"]
    rescored = GMRFitnessEvaluator(task=task, config=oracle_config).evaluate(
        champion.copy()
    )
    if not math.isclose(rescored, result.best_fitness, rel_tol=1e-9, abs_tol=0.0):
        return [
            f"seed {result.seed}: oracle RMSE {rescored!r} != "
            f"best_rmse {result.best_fitness!r}"
        ]
    return []


def _record(
    name: str,
    seeds: list[int],
    clock: GenerationClock,
    engine: GMREngine,
    results: list,
    window: _Window,
    failures: list[str],
    trace_bytes: int = 0,
) -> dict:
    """The JSON-ready record of one rep."""
    failures = failures + _oracle_failures(engine.task, engine.config, results)
    stats = EvaluationStats.merge_all(result.stats for result in results)
    record = {
        "workload": name,
        "seeds": seeds,
        "traced": window.probe is not None,
        "setup_raw_s": clock.setup_raw_s,
        "setup_calib_ms": clock.setup_calib_ms,
        "gens": clock.gens,
        "wall_s": window.wall_s,
        "evaluations": stats.evaluations,
        "history": [
            [result.seed, [astuple(entry) for entry in result.history]]
            for result in results
        ],
        "best_rmse": min(result.best_fitness for result in results),
        "failures": failures,
        "stats": asdict(stats),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if window.probe is not None:
        layers = window.probe.metrics(stats, window.wall_s)
        layers["trace.bytes"] = trace_bytes
        record["layers"] = layers
        record["spans"] = window.probe.recorder.spans
    return record


def _engine_runs(
    name: str,
    engine: GMREngine,
    seeds: list[int],
    clock: GenerationClock,
    traced: bool,
) -> dict:
    """A serial mini-campaign: one ``engine.run`` per seed, in one process."""
    clock.built()
    engine.progress = clock.progress
    with _probed(traced, clock) as window:
        results = [engine.run(seed=seed) for seed in seeds]
    return _record(name, seeds, clock, engine, results, window, [])


def river_scalar(
    seeds: list[int],
    clock: GenerationClock,
    traced: bool = False,
    population: int = 32,
    generations: int = 3,
) -> dict:
    """Per-individual scalar path: compiled kernel, ES early exit, tree cache.

    Vector kernels see only generation 0, so a vector-path change must
    not move this workload.
    """
    config = GMRConfig(
        population_size=population, max_generations=generations, **COMMON
    )
    engine = GMREngine.for_domain("river", config)
    return _engine_runs("river-scalar", engine, seeds, clock, traced)


def river_vector(
    seeds: list[int],
    clock: GenerationClock,
    traced: bool = False,
    population: int = 24,
    generations: int = 3,
) -> dict:
    """Batched offspring and 8 Gaussian proposals: the batched/fused path.

    About 80% of evaluations are scored from vector rollouts, and ES
    stays on, so full-horizon integration waste shows.
    """
    config = GMRConfig(
        population_size=population,
        max_generations=generations,
        eval_batch_size=24,
        gaussian_proposals=8,
        **COMMON,
    )
    engine = GMREngine.for_domain("river", config)
    return _engine_runs("river-vector", engine, seeds, clock, traced)


def river_network(
    seeds: list[int],
    clock: GenerationClock,
    traced: bool = False,
    population: int = 16,
    generations: int = 2,
) -> dict:
    """The paper's network-coupled task (Table 5, Figs. 10-11).

    Its duck-typed task bypasses every vector kernel and the generic
    integrator and runs through ``repro.river.simulator``.
    """
    task = load_dataset(n_years=3, seed=7, train_years=2).river_task("train")
    config = GMRConfig(
        population_size=population, max_generations=generations, **COMMON
    )
    engine = GMREngine(river_knowledge(), task, config)
    return _engine_runs("river-network", engine, seeds, clock, traced)


#: Generations phase 1 of the campaign runs before its budget stops it.
PHASE1_GENERATIONS = 2


def sir_campaign(
    seeds: list[int],
    clock: GenerationClock,
    traced: bool = False,
    population: int = 24,
    generations: int = 4,
) -> dict:
    """A checkpointed, traced SIR campaign stopped by budget, then resumed.

    Phase 1 runs each seed under a two-generation budget (one campaign
    per seed: a serial campaign stops at its first budget stop); phase 2
    re-invokes the campaign over all seeds without a budget and resumes
    each from its envelope.  Adds checkpoint writes, the retention ring,
    the JSONL trace and resume reads beside evaluation, on a second
    domain shape with extreme ES (step fraction about 0.05).
    """
    config = GMRConfig(
        population_size=population,
        max_generations=generations,
        eval_batch_size=24,
        gaussian_proposals=4,
        static_triage=True,
        checkpoint_every=1,
        checkpoint_keep=2,
        **COMMON,
    )
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="sir-", dir=WORK_ROOT))
    try:
        checkpoints, traces = work / "checkpoints", work / "traces"
        engine = GMREngine.for_domain(
            "sir",
            config,
            trace_dir=traces,
            governor=RunGovernor(
                budget=CampaignBudget(max_generations=PHASE1_GENERATIONS)
            ),
        )
        clock.built()
        engine.progress = clock.progress
        failures: list[str] = []
        with _probed(traced, clock) as window:
            for seed in seeds:
                stopped = run_campaign(
                    engine, 1, base_seed=seed, max_workers=1,
                    checkpoint_dir=checkpoints,
                )
                if stopped.failed or stopped.stop_reason != STOP_GENERATIONS:
                    failures.append(
                        f"phase 1 seed {seed} stopped with "
                        f"{stopped.stop_reason!r} ({len(stopped.failed)} failed)"
                    )
            engine.governor = None
            final = run_campaign(
                engine, len(seeds), base_seed=seeds[0], max_workers=1,
                checkpoint_dir=checkpoints,
            )
        failures += [failure.describe() for failure in final.failed]
        if final.stop_reason is not None or len(final.completed) != len(seeds):
            failures.append(f"phase 2 ended with {final.stop_reason!r}")
        trace_bytes = sum(path.stat().st_size for path in traces.glob("*.jsonl"))
        return _record(
            "sir-campaign", seeds, clock, engine, final.completed, window,
            failures, trace_bytes,
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:  # another rep's directory is still there
            pass


#: Workload name -> rep function ``(seeds, clock, traced, **size) -> record``.
WORKLOADS: dict[str, Callable[..., dict]] = {
    "river-scalar": river_scalar,
    "river-vector": river_vector,
    "river-network": river_network,
    "sir-campaign": sir_campaign,
}

#: GP seeds one rep runs.  An evaluation's cost swings with where ES
#: cuts it, so generation times differ by 10-20% from one GP seed to
#: the next; only more work per run narrows that.  These counts keep a
#: rep at three to five seconds, so a run makes several reps (set-up is
#: their median) and wastes little of its time budget on the last one.
SEEDS_PER_REP = {
    "river-scalar": 4,
    "river-vector": 1,
    "river-network": 3,
    "sir-campaign": 3,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one rep in this process.")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument(
        "--seeds", required=True, help="comma-separated GP seeds, run in order"
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--origin",
        type=float,
        required=True,
        help="time.perf_counter() of the parent when it started this process",
    )
    args = parser.parse_args(argv)
    clock = GenerationClock(args.origin)
    seeds = [int(seed) for seed in args.seeds.split(",")]
    record = WORKLOADS[args.workload](seeds, clock, traced=bool(args.trace))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
