"""Compare a fresh ``BENCH_e2e.json`` with the committed baseline.

``python benchmarks/e2e/bench_diff.py BENCH_e2e.json [benchmarks/e2e/baseline.json]``

For every workload and end-to-end metric of ``BENCHMARK.json`` it
reports both medians, the quartiles of the per-rep values and the
median ratio (new / baseline).  When both payloads ran the same
``--seed`` and rep count, rep ``i`` of one ran exactly the GP seeds of
rep ``i`` of the other, so the ratio is the median of the paired per-rep
ratios -- pairing cancels the seed-to-seed differences in work; otherwise
it is the ratio of the medians.

Verdicts, per metric and workload:

* ``unresolved`` -- the noise exceeds the metric's bound, and not every
  new rep reads better than every baseline rep.  The noise is the
  spread (quartile distance over median) of the paired ratios, or
  without pairing the larger per-rep spread of the two sides;
* ``REGRESSION`` -- worse than the baseline by more than the bound;
* ``better`` / ``within bound`` otherwise.

``best_rmse`` must not get worse and ``failed_frac`` must stay 0 (both
exact).  Exit status 1 means at least one regression.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC_PATH = HERE.parents[1] / "BENCHMARK.json"


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile (one value: all three)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, mid, high = statistics.quantiles(values, n=4)
    return low, mid, high


def spread(values: list[float]) -> float:
    """Quartile distance as a share of the median."""
    low, mid, high = quartiles(values)
    return (high - low) / abs(mid) if mid else float("inf")


def compare_metric(
    new: list[float], base: list[float], better: str, bound: float, paired: bool
) -> tuple[float, str]:
    """``(ratio, verdict)`` of one metric on one workload."""
    if paired:
        ratios = [n / b for n, b in zip(new, base)]
        change, noise = statistics.median(ratios), spread(ratios)
    else:
        change = statistics.median(new) / statistics.median(base)
        noise = max(spread(new), spread(base))
    worse_by = change - 1.0 if better == "lower" else 1.0 - change
    if better == "lower":
        all_better = max(new) < min(base)
    else:
        all_better = min(new) > max(base)
    if noise > bound and not all_better:
        return change, "unresolved"
    if worse_by > bound:
        return change, "REGRESSION"
    if worse_by < -bound or all_better:
        return change, "better"
    return change, "within bound"


def diff(new: dict, base: dict, spec: dict) -> tuple[list[str], int]:
    """Report lines and the number of regressions."""
    paired = new["seed"] == base["seed"] and new["reps"] == base["reps"]
    lines = [
        f"ratio = new / baseline, {'paired per rep' if paired else 'of medians'}"
        f" (seed {new['seed']} x{new['reps']} vs seed {base['seed']} x{base['reps']})",
        f"{'workload':14s} {'metric':12s} {'baseline q1/med/q3':>30s} "
        f"{'new q1/med/q3':>30s} {'ratio':>7s}  verdict",
    ]
    regressions = 0
    for workload, base_entry in base["workloads"].items():
        new_entry = new["workloads"].get(workload)
        if new_entry is None:
            lines.append(f"{workload:14s} missing from the new payload")
            regressions += 1
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            base_reps = base_entry["end_to_end"][name]["reps"]
            new_reps = new_entry["end_to_end"][name]["reps"]
            change, verdict = compare_metric(
                new_reps, base_reps, metric["better"], metric["bound"], paired
            )
            regressions += verdict == "REGRESSION"
            lines.append(
                f"{workload:14s} {name:12s} "
                f"{'/'.join(f'{v:.4g}' for v in quartiles(base_reps)):>30s} "
                f"{'/'.join(f'{v:.4g}' for v in quartiles(new_reps)):>30s} "
                f"{change:7.3f}  {verdict} (bound {metric['bound']:g})"
            )
        new_best = new_entry["end_to_end"]["best_rmse"]["value"]
        base_best = base_entry["end_to_end"]["best_rmse"]["value"]
        if paired and new_best != base_best:
            verdict = "REGRESSION" if new_best > base_best else "changed"
            regressions += verdict == "REGRESSION"
            lines.append(
                f"{workload:14s} best_rmse    {base_best!r} -> {new_best!r}  {verdict}"
            )
        failed = new_entry["end_to_end"]["failed_frac"]["value"]
        if failed:
            regressions += 1
            lines.append(f"{workload:14s} failed_frac  {failed!r}  REGRESSION")
    return lines, regressions


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("new", type=Path)
    parser.add_argument("baseline", type=Path, nargs="?", default=HERE / "baseline.json")
    args = parser.parse_args(argv)
    spec = json.loads(SPEC_PATH.read_text())
    lines, regressions = diff(
        json.loads(args.new.read_text()), json.loads(args.baseline.read_text()), spec
    )
    print("\n".join(lines))
    print(f"{regressions} regression(s)")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
