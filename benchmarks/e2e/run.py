"""End-to-end GMR generation benchmark: four seeded workloads.

Run from the repository root, in one of two ways:

``python benchmarks/e2e/run.py --seed 0 [--reps 5] [--out BENCH_e2e.json]``
    All four workloads, ``--reps`` reps each, interleaved round-robin so
    a slow host phase hits every workload alike; then the replays of
    each workload (below) and the Fig. 10 ablation.  Prints every
    end-to-end and per-layer metric with its unit, checks the outputs,
    writes the payload (with the per-rep values) and exits 1 if a check
    failed.

``python benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1``
    One workload: reps until ``S`` seconds are used (at least
    ``MIN_REPS``), then the replays.  The last line of standard output
    is one JSON object: ``correct``, ``attempted`` and ``failed``
    (generations) and the end-to-end metrics (``--trace 0``) or the
    per-layer metrics (``--trace 1``) named in ``BENCHMARK.json``.

A *replay* re-runs the first GP seed of the first rep in a new process
and must reproduce its history exactly.  There is an untraced replay,
and with per-layer numbers also a traced one: the per-layer numbers come
from it, and its slowdown against the untraced replay is the tracing
overhead.

Every rep runs in a fresh serial subprocess (``workloads.py``), so at
most two processes are alive.  Timings are calibration-normalised
ref-seconds (see ``calib.py``).
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

import workloads  # noqa: E402  (fails outside a checkout with src/)
from calib import CALIB_REF_MS  # noqa: E402

#: The benchmark's declared metrics (names, units, directions, bounds).
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Search-outcome numbers the full mode also prints per workload; they
#: must not move at all for the same seed, so they carry no bound.
EXACT_UNITS = {"best_rmse": "rmse", "failed_frac": "frac"}

#: Reps a one-workload run makes however slow the host is (set-up time is
#: their median).
MIN_REPS = 3

#: A rep that runs longer than this is killed and the run fails.
REP_TIMEOUT_S = 120


class RepError(RuntimeError):
    """A rep's process failed or printed no record."""


def rep_seeds(seed: int, rep: int, workload: str) -> list[int]:
    """GP seeds of rep ``rep`` under ``--seed``; no two reps share one."""
    count = workloads.SEEDS_PER_REP[workload]
    first = 1000 * seed + rep * count
    return list(range(first, first + count))


def run_rep(workload: str, seeds: list[int], traced: bool) -> dict:
    """One rep in a fresh process; its record plus ``rep_s``, its wall time."""
    origin = time.perf_counter()
    command = [
        sys.executable, str(HERE / "workloads.py"),
        "--workload", workload,
        "--seeds", ",".join(map(str, seeds)),
        "--trace", str(int(traced)),
        "--origin", repr(origin),
    ]
    try:
        proc = subprocess.run(
            command, stdout=subprocess.PIPE, text=True, timeout=REP_TIMEOUT_S
        )
    except subprocess.TimeoutExpired as error:
        raise RepError(f"{workload} rep of seeds {seeds} timed out") from error
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RepError(
            f"{workload} rep of seeds {seeds} exited with {proc.returncode}"
        )
    record = json.loads(lines[-1])
    record["rep_s"] = time.perf_counter() - origin
    return record


def ref_seconds(gen: list[float]) -> float:
    """A generation's wall time at reference host speed."""
    __, raw_s, before_ms, after_ms = gen
    return raw_s * CALIB_REF_MS / ((before_ms + after_ms) / 2.0)


def end_to_end(reps: list[dict]) -> dict[str, float]:
    """The bounded end-to-end metrics of a set of reps.

    ``gen_s`` is the mean over the generations >= 1 of every rep
    (generation 0 builds and scores the seed population): once host
    speed is calibrated out, the mean over all pooled generations moves
    less between seed sets than their median.  ``evals_per_s`` divides
    all Algorithm 1 evaluations by the ref-seconds of all generations;
    ``setup_s`` and ``peak_rss_mb`` are medians over the reps.
    """
    gens = [ref_seconds(gen) for rep in reps for gen in rep["gens"]]
    later = [
        ref_seconds(gen) for rep in reps for gen in rep["gens"] if gen[0] >= 1
    ]
    return {
        "setup_s": statistics.median(
            rep["setup_raw_s"] * CALIB_REF_MS / rep["setup_calib_ms"] for rep in reps
        ),
        "gen_s": statistics.fmean(later),
        "evals_per_s": sum(rep["evaluations"] for rep in reps) / sum(gens),
        "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in reps),
    }


def diagnostics(reps: list[dict], replay: dict, traced: dict) -> dict[str, float]:
    """The benchmark's own per-layer numbers (``bench.*``)."""
    later = [gen for rep in reps for gen in rep["gens"] if gen[0] >= 1]
    replay_s = sum(ref_seconds(gen) for gen in replay["gens"])
    traced_s = sum(ref_seconds(gen) for gen in traced["gens"])
    return {
        "bench.calib_ms": statistics.median(
            gen[3] for rep in reps for gen in rep["gens"]
        ),
        "bench.raw_gen_s": statistics.median(gen[1] for gen in later),
        "bench.gen_samples": len(later),
        "bench.trace_overhead_frac": traced_s / replay_s - 1.0,
    }


def check(reps: list[dict], replays: list[dict]) -> tuple[list[str], int]:
    """Failed checks, and the generations they fail.

    Every rep's own checks (oracle re-score, campaign stop reasons) must
    pass, and every replay must reproduce its seed's history in the first
    rep exactly: each generation's best and mean fitness, champion size
    and evaluation count.
    """
    first = dict(reps[0]["history"])
    failures: list[str] = []
    failed_gens = 0
    for rep, replayed in [(rep, False) for rep in reps] + [(rep, True) for rep in replays]:
        messages = [f"seeds {rep['seeds']}: {message}" for message in rep["failures"]]
        if replayed:
            messages += [
                f"replay of seed {seed} differs from its first run"
                for seed, history in rep["history"]
                if first.get(seed) != history
            ]
        if messages:
            failed_gens += len(rep["gens"])
            failures += messages
    return failures, failed_gens


def replay_seeds(seed: int, workload: str) -> list[int]:
    """The replays' seed: the first of the first rep."""
    return rep_seeds(seed, 0, workload)[:1]


def per_layer(reps: list[dict], replay: dict, traced: dict) -> dict[str, float]:
    """Every per-layer metric: the traced replay's layers plus ``bench.*``."""
    return {**traced["layers"], **diagnostics(reps, replay, traced)}


def declared(values: dict[str, float], section: str) -> dict[str, dict]:
    """``values`` restricted to, and ordered as, ``BENCHMARK.json[section]``."""
    return {
        metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
        for metric in SPEC[section]
    }


def print_metrics(workload: str, metrics: dict[str, dict]) -> None:
    for name, metric in metrics.items():
        print(f"{workload:14s} {name:32s} {metric['value']!r} {metric['unit']}")


def measure_workload(workload: str, seed: int, seconds: float, traced: bool) -> int:
    """One workload for ``seconds``, then the replays; prints the result line."""
    started = time.perf_counter()
    reps: list[dict] = []
    while len(reps) < MIN_REPS or (
        time.perf_counter() - started + statistics.median(rep["rep_s"] for rep in reps)
        <= seconds
    ):
        reps.append(run_rep(workload, rep_seeds(seed, len(reps), workload), False))
    replays = [run_rep(workload, replay_seeds(seed, workload), False)]
    if traced:
        replays.append(run_rep(workload, replay_seeds(seed, workload), True))
    failures, failed_gens = check(reps, replays)
    if traced:
        metrics = declared(per_layer(reps, *replays), "per_layer")
    else:
        metrics = declared(end_to_end(reps), "end_to_end")
    print_metrics(workload, metrics)
    for failure in failures:
        print(f"FAILED {workload}: {failure}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": sum(len(rep["gens"]) for rep in reps + replays),
        "failed": failed_gens,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if not failures else 1


def fig10_ablation() -> dict[str, float]:
    """Fig. 10 speed-ups (each vs. no speed-up technique), smoke scale."""
    from repro.experiments.fig10 import run_fig10

    speedup = run_fig10("smoke").speedup
    return {
        "ablation.rc_speedup": speedup["RC"],
        "ablation.tc_speedup": speedup["TC"],
        "ablation.es_speedup": speedup["ES"],
        "ablation.all_speedup": speedup["TC+ES+RC"],
    }


def compact_spans(spans: list[list]) -> dict:
    """Spans as ``[name index, parent, start_us, duration_us]`` rows."""
    names: dict[str, int] = {}
    rows = [
        [names.setdefault(name, len(names)), parent, round(start * 1e6), round(duration * 1e6)]
        for name, parent, start, duration in spans
    ]
    return {"names": list(names), "rows": rows}


def measure_all(seed: int, n_reps: int, out: Path) -> int:
    """Full mode: every workload, round-robin reps, replays, ablation."""
    names = list(workloads.WORKLOADS)
    reps: dict[str, list[dict]] = {name: [] for name in names}
    for rep in range(n_reps):
        for name in names:
            reps[name].append(run_rep(name, rep_seeds(seed, rep, name), False))
    replays = {
        name: [
            run_rep(name, replay_seeds(seed, name), traced) for traced in (False, True)
        ]
        for name in names
    }
    ablation = fig10_ablation()
    payload: dict = {
        "seed": seed,
        "reps": n_reps,
        "calib_ref_ms": CALIB_REF_MS,
        "workloads": {},
    }
    any_failed = False
    for name in names:
        failures, failed_gens = check(reps[name], replays[name])
        attempted = sum(len(rep["gens"]) for rep in reps[name] + replays[name])
        any_failed |= bool(failures)
        per_rep = [end_to_end([rep]) for rep in reps[name]]
        bounded = declared(end_to_end(reps[name]), "end_to_end")
        for metric, entry in bounded.items():
            entry["reps"] = [values[metric] for values in per_rep]
        exact = {
            "best_rmse": {
                "value": min(rep["best_rmse"] for rep in reps[name]),
                "unit": EXACT_UNITS["best_rmse"],
                "reps": [rep["best_rmse"] for rep in reps[name]],
            },
            "failed_frac": {
                "value": failed_gens / attempted,
                "unit": EXACT_UNITS["failed_frac"],
            },
        }
        layers = declared(per_layer(reps[name], *replays[name]), "per_layer")
        if name == "river-network":
            layers.update(
                {metric: {"value": value, "unit": "x"} for metric, value in ablation.items()}
            )
        print_metrics(name, {**bounded, **exact})
        print_metrics(name, layers)
        for failure in failures:
            print(f"FAILED {name}: {failure}", file=sys.stderr)
        payload["workloads"][name] = {
            "seeds_per_rep": workloads.SEEDS_PER_REP[name],
            "end_to_end": {**bounded, **exact},
            "per_layer": layers,
            "failures": failures,
            "spans": compact_spans(replays[name][1]["spans"]),
        }
    out.write_text(json.dumps(payload, separators=(",", ":")) + "\n")
    print(f"wrote {out}")
    return 1 if any_failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end GMR generation benchmark (see module docstring)."
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reps", type=int, default=5)
    parser.add_argument("--out", type=Path, default=Path("BENCH_e2e.json"))
    args = parser.parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so subprocess.run kills and reaps the
    # running rep instead of leaving it orphaned.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.workload is not None:
        return measure_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    if args.reps < 1:
        parser.error("--reps must be at least 1")
    return measure_all(args.seed, args.reps, args.out)


if __name__ == "__main__":
    sys.exit(main())
