"""Command-line interface for the experiment runners.

Usage::

    python -m repro.experiments list
    python -m repro.experiments run table5 [--scale bench|full|smoke]
    python -m repro.experiments run all --scale bench
    python -m repro.experiments run table5 --checkpoint-dir ckpt/
    python -m repro.experiments run table5 --trace-dir traces/
    python -m repro.experiments run table5 --domain sir
    python -m repro.experiments run table5 --static-triage
    python -m repro.experiments run table5 --budget-wall-clock 3600 \
        --checkpoint-dir ckpt/ --checkpoint-keep 3

``--budget-wall-clock`` / ``--budget-evaluations`` /
``--budget-generations`` bound the GMR campaign's resources (see
:class:`repro.gp.governor.CampaignBudget`): the campaign stops cleanly
at the first generation boundary past a ceiling, leaving resumable
checkpoints, and also finishes its in-flight generation and exits
cleanly on SIGTERM/SIGINT.  Re-running the same command with a larger
budget (and the same ``--checkpoint-dir``) continues where it stopped,
bit-identically with an uninterrupted run.  ``--checkpoint-keep N``
retains the newest N snapshots per run so a corrupted snapshot falls
back to its predecessor instead of restarting the run.

``--static-triage`` enables the GMR engine's semantic pre-evaluation
triage (interval analysis proves candidates divergent before they are
compiled; see :mod:`repro.lint.triage`).  Results are bit-identical
with or without it -- only the amount of skipped work differs.

``--domain`` runs the method comparison on any registered domain
(:mod:`repro.domains`) instead of the river case study; non-river
domains compare the seed model, the calibration baselines, and the
revision methods.

``--checkpoint-dir`` makes the long GP campaigns fault tolerant: runs
persist results and mid-run snapshots there, so re-invoking the same
command after a crash resumes instead of starting over.

``--trace-dir`` records one JSONL trace per GP run (plus a campaign
trace) there; inspect with ``python -m repro.obs report <file>``.
Tracing is observational only -- traced results are bit-identical to
untraced ones.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.experiments import REGISTRY

#: Experiments whose runners accept a scale argument.
_SCALED = {
    "table5", "fig9", "fig10", "fig11", "scaling", "case-study",
}

#: Experiments whose runners accept a checkpoint directory.
_RESUMABLE = {"table5", "scaling"}

#: Experiments whose runners accept a trace directory.
_TRACEABLE = {"table5", "scaling"}

#: Experiments whose runners accept a domain selection.
_DOMAINAL = {"table5"}

#: Experiments whose runners accept the static-triage switch.
_TRIAGEABLE = {"table5"}

#: Experiments whose runners accept resource budgets / retention knobs.
_BUDGETABLE = {"table5"}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.experiments",
        description="Regenerate the paper's tables and figures.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    subparsers.add_parser("list", help="list available experiments")
    runner = subparsers.add_parser("run", help="run one experiment (or 'all')")
    runner.add_argument("experiment", help="experiment id, or 'all'")
    runner.add_argument(
        "--scale",
        default=None,
        help="compute scale: smoke, bench (default), or full",
    )
    runner.add_argument(
        "--checkpoint-dir",
        default=None,
        help=(
            "directory for run checkpoints/results; re-running with the "
            "same directory resumes interrupted GP campaigns "
            "(table5 and scaling only)"
        ),
    )
    runner.add_argument(
        "--trace-dir",
        default=None,
        help=(
            "directory for JSONL run traces (repro.obs); one file per "
            "GP run, inspect with 'python -m repro.obs report' "
            "(table5 and scaling only)"
        ),
    )
    runner.add_argument(
        "--static-triage",
        action="store_true",
        help=(
            "enable the engine's semantic pre-evaluation triage "
            "(bit-identical results, skips provably divergent "
            "candidates; table5 only)"
        ),
    )
    runner.add_argument(
        "--domain",
        default=None,
        help=(
            "registered domain to run on (river, lotka_volterra, sir, "
            "or a third-party registration; table5 only)"
        ),
    )
    runner.add_argument(
        "--budget-wall-clock",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "stop the GP campaign once a run's elapsed wall-clock "
            "crosses this many seconds (table5 only)"
        ),
    )
    runner.add_argument(
        "--budget-evaluations",
        type=int,
        default=None,
        metavar="N",
        help=(
            "stop the GP campaign once a run has spent N fitness "
            "evaluations (table5 only)"
        ),
    )
    runner.add_argument(
        "--budget-generations",
        type=int,
        default=None,
        metavar="N",
        help=(
            "stop the GP campaign after N generations per run "
            "(table5 only)"
        ),
    )
    runner.add_argument(
        "--checkpoint-keep",
        type=int,
        default=1,
        metavar="N",
        help=(
            "retain the newest N checkpoint snapshots per run; a "
            "corrupted snapshot falls back to its predecessor on "
            "resume (table5 only)"
        ),
    )
    args = parser.parse_args(argv)

    if args.command == "list":
        width = max(len(key) for key in REGISTRY)
        for key, (description, __) in REGISTRY.items():
            print(f"{key.ljust(width)}  {description}")
        return 0

    targets = list(REGISTRY) if args.experiment == "all" else [args.experiment]
    for target in targets:
        if target not in REGISTRY:
            print(f"unknown experiment {target!r}; try 'list'", file=sys.stderr)
            return 2
        __, run = REGISTRY[target]
        kwargs = {}
        if args.checkpoint_dir is not None and target in _RESUMABLE:
            # With 'all', keep each experiment's snapshots separate.
            kwargs["checkpoint_dir"] = (
                os.path.join(args.checkpoint_dir, target)
                if len(targets) > 1
                else args.checkpoint_dir
            )
        if args.trace_dir is not None and target in _TRACEABLE:
            kwargs["trace_dir"] = (
                os.path.join(args.trace_dir, target)
                if len(targets) > 1
                else args.trace_dir
            )
        if args.domain is not None:
            if target not in _DOMAINAL:
                print(
                    f"--domain is not supported by {target!r} "
                    f"(only: {', '.join(sorted(_DOMAINAL))})",
                    file=sys.stderr,
                )
                return 2
            kwargs["domain"] = args.domain
        if args.static_triage:
            if target not in _TRIAGEABLE:
                print(
                    f"--static-triage is not supported by {target!r} "
                    f"(only: {', '.join(sorted(_TRIAGEABLE))})",
                    file=sys.stderr,
                )
                return 2
            kwargs["static_triage"] = True
        budgeted = (
            args.budget_wall_clock is not None
            or args.budget_evaluations is not None
            or args.budget_generations is not None
        )
        if budgeted or args.checkpoint_keep != 1:
            if target not in _BUDGETABLE:
                print(
                    f"--budget-*/--checkpoint-keep are not supported by "
                    f"{target!r} (only: {', '.join(sorted(_BUDGETABLE))})",
                    file=sys.stderr,
                )
                return 2
            from repro.gp import CampaignBudget

            if budgeted:
                kwargs["budget"] = CampaignBudget(
                    max_wall_clock=args.budget_wall_clock,
                    max_evaluations=args.budget_evaluations,
                    max_generations=args.budget_generations,
                )
            kwargs["checkpoint_keep"] = args.checkpoint_keep
        if target in _SCALED:
            result = run(args.scale, **kwargs)
        else:
            result = run()
        print(result.render())
        print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
