"""Trace report: reconstruction from event streams and the CLI."""

from __future__ import annotations

import json

import pytest

from repro.obs import (
    JsonlSink,
    MemorySink,
    Tracer,
    build_report,
    report_from_file,
)
from repro.obs.__main__ import main


def _record_run(tracer: Tracer) -> None:
    """A miniature but fully-formed run trace."""
    with tracer.span(
        "run", seed=3, resumed=False, start_generation=0
    ) as span:
        for generation, best in enumerate((9.0, 4.0, 1.0)):
            tracer.point(
                "evaluation_batch",
                size=6,
                wall_time=0.25,
                cache_hits=1,
            )
            tracer.point(
                "generation",
                generation=generation,
                best_fitness=best,
                mean_fitness=best + 1.0,
                best_size=5,
                evaluations=(generation + 1) * 6,
                evaluate_time=0.2,
            )
        tracer.point("checkpoint", generation=2, path="run.ckpt")
        tracer.end_span_fields(
            "run", span, best_fitness=1.0, generations=3, evaluations=18
        )


@pytest.fixture()
def recorded():
    sink = MemorySink()
    _record_run(Tracer(sink))
    return sink.events


class TestBuildReport:
    def test_generations_reconstructed_exactly(self, recorded):
        report = build_report(recorded)
        assert report.best_fitness_by_generation == {0: 9.0, 1: 4.0, 2: 1.0}
        assert [row.evaluations for row in report.generations] == [6, 12, 18]
        assert report.generations[0].phases["evaluate_time"] == 0.2

    def test_run_summary_merges_begin_and_end(self, recorded):
        report = build_report(recorded)
        (run,) = report.runs
        assert run["seed"] == 3
        assert run["resumed"] is False
        assert run["best_fitness"] == 1.0
        assert run["evaluations"] == 18

    def test_counts(self, recorded):
        report = build_report(recorded)
        assert report.checkpoints == 1
        assert report.evaluation_batches == 3
        assert report.batch_wall_time == pytest.approx(0.75)
        assert report.retries == []
        assert report.n_events == len(recorded)

    def test_duplicate_generations_keep_last(self, recorded):
        sink = MemorySink()
        tracer = Tracer(sink)
        _record_run(tracer)
        # A replayed segment after resume re-records generation 2.
        tracer.point(
            "generation",
            generation=2,
            best_fitness=0.5,
            mean_fitness=1.0,
            best_size=5,
            evaluations=18,
        )
        report = build_report(sink.events)
        assert report.best_fitness_by_generation[2] == 0.5
        assert [row.generation for row in report.generations] == [0, 1, 2]

    def test_render_text_and_json(self, recorded):
        report = build_report(recorded)
        text = report.render_text()
        assert "seed=3" in text
        assert "1 checkpoint(s)" in text
        payload = json.loads(report.render_json())
        assert [g["best_fitness"] for g in payload["generations"]] == [
            9.0,
            4.0,
            1.0,
        ]

    def test_trace_without_step_counts_has_no_steps_line(self, recorded):
        report = build_report(recorded)
        assert report.steps is None
        assert "integrated vs" not in report.render_text()
        payload = report.to_json()
        assert payload["steps_evaluated"] is None
        assert payload["steps_integrated"] is None

    def test_integrated_vs_counted_line(self):
        sink = MemorySink()
        tracer = Tracer(sink)
        # Seed 3 stops and resumes: its second end event is cumulative
        # and supersedes the first.  Seed 4 runs once.
        for seed, resumed, counted, integrated in (
            (3, False, 100, 250),
            (3, True, 180, 400),
            (4, False, 20, 50),
        ):
            with tracer.span(
                "run", seed=seed, resumed=resumed, start_generation=0
            ) as span:
                tracer.end_span_fields(
                    "run",
                    span,
                    steps_evaluated=counted,
                    steps_integrated=integrated,
                )
        report = build_report(sink.events)
        assert report.steps == (200, 450)
        assert (
            "steps: 450 integrated vs 200 counted by Algorithm 1 (2.25x)"
            in report.render_text().splitlines()
        )
        payload = json.loads(report.render_json())
        assert payload["steps_evaluated"] == 200
        assert payload["steps_integrated"] == 450


class TestCli:
    def _trace_file(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with JsonlSink(path) as sink:
            _record_run(Tracer(sink))
        return path

    def test_report_from_file_round_trips(self, tmp_path):
        report = report_from_file(self._trace_file(tmp_path))
        assert report.best_fitness_by_generation == {0: 9.0, 1: 4.0, 2: 1.0}

    def test_cli_renders_table(self, tmp_path, capsys):
        assert main(["report", str(self._trace_file(tmp_path))]) == 0
        out = capsys.readouterr().out
        assert "seed=3" in out
        assert "gen" in out

    def test_cli_json_parses(self, tmp_path, capsys):
        assert main(["report", "--json", str(self._trace_file(tmp_path))]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["checkpoints"] == 1

    def test_cli_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "nope.jsonl")]) == 2
        assert "no such trace" in capsys.readouterr().err
