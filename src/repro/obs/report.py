"""Render a recorded trace into a per-generation table and JSON summary.

``python -m repro.obs report run.jsonl`` reads a JSONL trace written by
:class:`~repro.obs.trace.JsonlSink` and reconstructs what the run did:
one row per generation (best/mean fitness, cumulative evaluations, and
the engine phase breakdown), plus run-level headlines (seed, resume
points, checkpoints written, evaluation-batch traffic, and the fitness
cases simulated against those Algorithm 1 counted).  Because
``generation`` events carry the exact floats the engine recorded,
the reconstruction is exact: the report's per-generation best fitness
equals ``RunResult.history`` bit for bit (asserted by
``tests/obs/test_report.py``).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.obs.trace import TraceEvent, read_trace

#: Engine phase fields surfaced as table columns, in display order.
PHASE_FIELDS = (
    "select_time",
    "evaluate_time",
    "local_search_time",
    "checkpoint_time",
)


@dataclass(frozen=True)
class GenerationRow:
    """One generation as reconstructed from its trace event."""

    generation: int
    best_fitness: float
    mean_fitness: float
    best_size: int
    evaluations: int
    phases: dict[str, float] = field(default_factory=dict)


@dataclass
class TraceReport:
    """Everything the report renders, reconstructed from one trace."""

    generations: list[GenerationRow]
    runs: list[dict[str, Any]]
    checkpoints: int
    retries: list[dict[str, Any]]
    evaluation_batches: int
    batch_wall_time: float
    n_events: int
    heartbeats: int = 0
    degradations: list[dict[str, Any]] = field(default_factory=list)
    stops: list[dict[str, Any]] = field(default_factory=list)

    @property
    def best_fitness_by_generation(self) -> dict[int, float]:
        """Per-generation best fitness; later duplicates (a crashed
        segment replayed after resume) keep the last recording."""
        return {
            row.generation: row.best_fitness for row in self.generations
        }

    @property
    def steps(self) -> tuple[int, int] | None:
        """``(steps_evaluated, steps_integrated)`` over the trace's seeds.

        Run end events carry the evaluator's cumulative counts, so a
        resumed run's end event supersedes its earlier segments': the
        last run record per seed counts.  None when no run end event
        carries the counts (traces from before they were recorded).
        """
        last: dict[Any, tuple[int, int]] = {}
        for run in self.runs:
            if "steps_evaluated" in run and "steps_integrated" in run:
                last[run.get("seed")] = (
                    run["steps_evaluated"],
                    run["steps_integrated"],
                )
        if not last:
            return None
        return (
            sum(counted for counted, __ in last.values()),
            sum(integrated for __, integrated in last.values()),
        )

    def to_json(self) -> dict[str, Any]:
        steps = self.steps
        return {
            "n_events": self.n_events,
            "steps_evaluated": steps[0] if steps else None,
            "steps_integrated": steps[1] if steps else None,
            "runs": self.runs,
            "checkpoints": self.checkpoints,
            "retries": self.retries,
            "evaluation_batches": self.evaluation_batches,
            "batch_wall_time": self.batch_wall_time,
            "heartbeats": self.heartbeats,
            "degradations": self.degradations,
            "stops": self.stops,
            "generations": [
                {
                    "generation": row.generation,
                    "best_fitness": row.best_fitness,
                    "mean_fitness": row.mean_fitness,
                    "best_size": row.best_size,
                    "evaluations": row.evaluations,
                    **{
                        name: row.phases[name]
                        for name in PHASE_FIELDS
                        if name in row.phases
                    },
                }
                for row in self.generations
            ],
        }

    def render_json(self) -> str:
        return json.dumps(self.to_json(), indent=2, sort_keys=True)

    def render_text(self) -> str:
        lines: list[str] = []
        for run in self.runs:
            descriptor = (
                f"run seed={run.get('seed')}"
                f"{' (resumed)' if run.get('resumed') else ''}"
                f" from generation {run.get('start_generation')}"
            )
            if "best_fitness" in run:
                descriptor += (
                    f" -> best {run['best_fitness']:.6g} after "
                    f"{run.get('evaluations', 0)} evaluations"
                )
            lines.append(descriptor)
        lines.append(
            f"{self.checkpoints} checkpoint(s), "
            f"{len(self.retries)} campaign retrie(s), "
            f"{self.evaluation_batches} evaluation batch(es) "
            f"({self.batch_wall_time:.3f}s evaluator wall time)"
        )
        steps = self.steps
        if steps is not None:
            counted, integrated = steps
            line = (
                f"steps: {integrated} integrated vs {counted} counted "
                "by Algorithm 1"
            )
            if counted:
                line += f" ({integrated / counted:.2f}x)"
            lines.append(line)
        for retry in self.retries:
            lines.append(
                f"  retry: seed {retry.get('seed')} attempt "
                f"{retry.get('attempt')} after {retry.get('error_type')}"
            )
        if self.heartbeats:
            lines.append(f"{self.heartbeats} heartbeat(s)")
        for stop in self.stops:
            lines.append(
                f"  stop: {stop.get('reason')} at generation "
                f"{stop.get('generation')}"
            )
        for degradation in self.degradations:
            descriptor = f"  degradation: {degradation.get('what')}"
            if degradation.get("error_type"):
                descriptor += f" after {degradation['error_type']}"
            lines.append(descriptor)
        if self.generations:
            header = (
                "gen",
                "best",
                "mean",
                "size",
                "evals",
                "select",
                "evaluate",
                "local",
            )
            rows = [
                (
                    str(row.generation),
                    f"{row.best_fitness:.6g}",
                    f"{row.mean_fitness:.6g}",
                    str(row.best_size),
                    str(row.evaluations),
                    f"{row.phases.get('select_time', 0.0):.3f}",
                    f"{row.phases.get('evaluate_time', 0.0):.3f}",
                    f"{row.phases.get('local_search_time', 0.0):.3f}",
                )
                for row in self.generations
            ]
            widths = [
                max(len(header[i]), *(len(row[i]) for row in rows))
                for i in range(len(header))
            ]
            lines.append(
                "  ".join(
                    name.rjust(width) for name, width in zip(header, widths)
                )
            )
            for row in rows:
                lines.append(
                    "  ".join(
                        cell.rjust(width)
                        for cell, width in zip(row, widths)
                    )
                )
        else:
            lines.append("no generation events in trace")
        return "\n".join(lines)


def build_report(events: Sequence[TraceEvent]) -> TraceReport:
    """Fold a validated event stream into a :class:`TraceReport`."""
    generations: dict[int, GenerationRow] = {}
    runs: dict[int, dict[str, Any]] = {}
    run_order: list[int] = []
    retries: list[dict[str, Any]] = []
    degradations: list[dict[str, Any]] = []
    stops: list[dict[str, Any]] = []
    checkpoints = 0
    batches = 0
    batch_wall = 0.0
    heartbeats = 0
    for event in events:
        if event.kind == "generation":
            if event.phase == "end":
                continue  # span ends carry only duration
            fields = event.fields
            # A generation replayed after a crash/resume overwrites the
            # interrupted segment's recording: last write wins.
            generations[fields["generation"]] = GenerationRow(
                generation=fields["generation"],
                best_fitness=fields["best_fitness"],
                mean_fitness=fields["mean_fitness"],
                best_size=fields["best_size"],
                evaluations=fields["evaluations"],
                phases={
                    name: fields[name]
                    for name in PHASE_FIELDS
                    if name in fields
                },
            )
        elif event.kind == "run":
            record = runs.get(event.span)
            if record is None:
                record = {}
                runs[event.span] = record
                run_order.append(event.span)
            record.update(event.fields)
        elif event.kind == "checkpoint":
            checkpoints += 1
        elif event.kind == "campaign_retry":
            retries.append(dict(event.fields))
        elif event.kind == "evaluation_batch":
            batches += 1
            batch_wall += event.fields.get("wall_time", 0.0)
        elif event.kind == "heartbeat":
            heartbeats += 1
        elif event.kind == "degradation":
            degradations.append(dict(event.fields))
        elif event.kind == "run_stop":
            stops.append(dict(event.fields))
    return TraceReport(
        generations=[generations[g] for g in sorted(generations)],
        runs=[runs[span] for span in run_order],
        checkpoints=checkpoints,
        retries=retries,
        evaluation_batches=batches,
        batch_wall_time=batch_wall,
        n_events=len(events),
        heartbeats=heartbeats,
        degradations=degradations,
        stops=stops,
    )


def report_from_file(path: str | os.PathLike[str]) -> TraceReport:
    """Read, validate, and fold a JSONL trace file."""
    return build_report(read_trace(path))
