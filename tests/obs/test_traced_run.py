"""End-to-end tracing acceptance: observation must not perturb the run.

The acceptance criteria of the observability layer:

* a traced seeded run is *bit-identical* to an untraced one (tracing
  consumes no RNG and touches no result value);
* ``python -m repro.obs report`` reconstructs per-generation best
  fitness exactly from the recorded trace;
* a crash/resume stitches one well-formed trace file with strictly
  increasing sequence numbers;
* campaign-level spans and retries are recorded without changing
  campaign results.
"""

from __future__ import annotations

import pytest

from repro.gp.checkpoint import load_checkpoint
from repro.gp.engine import GMREngine, run_many
from repro.gp.resilience import FailurePolicy, run_campaign
from repro.obs import JsonlSink, MemorySink, Tracer, build_report, read_trace
from repro.obs.report import report_from_file
from tests.faults import FaultInjectingEngine, FaultPlan


def histories(result):
    return [record.best_fitness for record in result.history]


class SimulatedCrash(RuntimeError):
    pass


def crash_at(generation: int):
    def progress(g, record):
        if g == generation:
            raise SimulatedCrash(f"crashed at generation {g}")

    return progress


class TestTracedEqualsUntraced:
    def test_traced_run_is_bit_identical(self, make_engine, toy_task, tmp_path):
        untraced = make_engine(max_generations=3).run(seed=11)

        engine = make_engine(max_generations=3)
        engine.tracer = Tracer(JsonlSink(tmp_path / "run.jsonl"))
        traced = engine.run(seed=11)
        engine.tracer.close()

        assert histories(traced) == histories(untraced)
        assert traced.best_fitness == untraced.best_fitness
        assert traced.best.describe(toy_task.state_names) == (
            untraced.best.describe(toy_task.state_names)
        )
        assert traced.best.size == untraced.best.size
        assert traced.stats.evaluations == untraced.stats.evaluations
        assert traced.stats.cache_hits == untraced.stats.cache_hits
        assert traced.stats.short_circuits == untraced.stats.short_circuits

    def test_trace_dir_spawns_per_seed_files(self, make_engine, tmp_path):
        engine = make_engine(max_generations=2)
        engine.trace_dir = tmp_path
        engine.run(seed=4)
        engine.run(seed=5)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "run-4.jsonl",
            "run-5.jsonl",
        ]

    def test_memory_sink_records_nested_structure(self, make_engine):
        sink = MemorySink()
        engine = make_engine(max_generations=2)
        engine.tracer = Tracer(sink)
        engine.run(seed=0)
        kinds = {event.kind for event in sink.events}
        assert {"run", "generation", "evaluation_batch"} <= kinds
        run_begin = sink.events[0]
        assert run_begin.kind == "run"
        assert run_begin.fields == {
            "seed": 0,
            "resumed": False,
            "start_generation": 0,
        }
        seqs = [event.seq for event in sink.events]
        assert seqs == sorted(set(seqs))


class TestReportExactness:
    def test_report_reconstructs_best_fitness_exactly(
        self, make_engine, tmp_path
    ):
        engine = make_engine(max_generations=4)
        engine.trace_dir = tmp_path
        result = engine.run(seed=7)
        report = report_from_file(tmp_path / "run-7.jsonl")
        expected = {
            record.generation: record.best_fitness
            for record in result.history
        }
        assert report.best_fitness_by_generation == expected
        (run,) = report.runs
        assert run["best_fitness"] == result.best_fitness
        assert run["evaluations"] == result.stats.evaluations
        assert run["steps_evaluated"] == result.stats.steps_evaluated
        assert run["steps_integrated"] == result.stats.steps_integrated
        assert report.steps == (
            result.stats.steps_evaluated,
            result.stats.steps_integrated,
        )
        assert "integrated vs" in report.render_text()

    def test_phase_times_recorded_per_generation(self, make_engine, tmp_path):
        engine = make_engine(max_generations=2)
        engine.trace_dir = tmp_path
        engine.run(seed=1)
        report = report_from_file(tmp_path / "run-1.jsonl")
        for row in report.generations:
            assert row.phases.get("evaluate_time", 0.0) >= 0.0
            # Phase totals partition the generation's timed wall clock,
            # so they are individually finite and non-negative.
            assert all(value >= 0.0 for value in row.phases.values())


class TestResumeStitching:
    def test_resumed_trace_extends_interrupted_one(
        self, make_engine, tmp_path
    ):
        trace_path = tmp_path / "run.jsonl"
        ckpt_path = tmp_path / "run.ckpt"

        full = make_engine(checkpoint_every=1, max_generations=4).run(seed=9)

        engine = make_engine(checkpoint_every=1, max_generations=4)
        engine.tracer = Tracer(JsonlSink(trace_path))
        with pytest.raises(SimulatedCrash):
            engine.run(seed=9, checkpoint_path=ckpt_path, progress=crash_at(2))
        engine.tracer.close()
        checkpoint = load_checkpoint(ckpt_path)
        assert checkpoint.trace_seq > 0

        resumer = make_engine(checkpoint_every=1, max_generations=4)
        resumer.tracer = Tracer(JsonlSink(trace_path))
        resumed = resumer.run(resume_from=ckpt_path)
        resumer.tracer.close()

        assert histories(resumed) == histories(full)

        events = read_trace(trace_path)
        seqs = [event.seq for event in events]
        assert seqs == sorted(set(seqs)), "stitched seqs must increase"
        resumed_begins = [
            event
            for event in events
            if event.kind == "run"
            and event.phase == "begin"
            and event.fields.get("resumed")
        ]
        assert len(resumed_begins) == 1
        assert resumed_begins[0].fields["start_generation"] > 0
        # The stitched trace still reconstructs the full history exactly.
        report = build_report(events)
        assert report.best_fitness_by_generation == {
            record.generation: record.best_fitness
            for record in full.history
        }
        # Step counts come from the resumed run's cumulative end event.
        assert report.steps == (
            resumed.stats.steps_evaluated,
            resumed.stats.steps_integrated,
        )


class TestCampaignTracing:
    def test_campaign_span_and_results_unchanged(self, make_engine, tmp_path):
        reference = run_many(
            make_engine(max_generations=2), 2, base_seed=0
        )

        sink = MemorySink()
        tracer = Tracer(sink)
        outcome = run_campaign(
            make_engine(max_generations=2),
            2,
            base_seed=0,
            max_workers=1,
            tracer=tracer,
        )
        assert outcome.ok
        assert [r.best_fitness for r in outcome.results()] == [
            r.best_fitness for r in reference
        ]
        campaign_events = [e for e in sink.events if e.kind == "campaign"]
        assert campaign_events[0].fields == {"n_seeds": 2, "mode": "collect"}
        # The outcome event carries the tallies; the span's closing
        # event carries only its duration.
        (outcome_event,) = [
            e for e in campaign_events if "completed" in e.fields
        ]
        assert outcome_event.phase == "end"
        assert outcome_event.fields["completed"] == 2
        assert outcome_event.fields["failed"] == 0

    def test_retry_emits_campaign_retry_event(self, make_engine, tmp_path):
        ledger = tmp_path / "ledger"
        ledger.mkdir()
        engine = make_engine(
            engine_cls=FaultInjectingEngine,
            engine_kwargs={
                "plan": FaultPlan(fail_seed_attempts={1: 1}),
                "attempt_dir": str(ledger),
            },
            max_generations=2,
        )
        sink = MemorySink()
        outcome = run_campaign(
            engine,
            2,
            base_seed=0,
            max_workers=1,
            policy=FailurePolicy.retrying(max_attempts=2, backoff_base=0.0),
            tracer=Tracer(sink),
        )
        assert outcome.ok
        retries = [e for e in sink.events if e.kind == "campaign_retry"]
        assert len(retries) == 1
        assert retries[0].fields["seed"] == 1
        assert retries[0].fields["attempt"] == 1
        assert retries[0].fields["error_type"] == "InjectedFault"

    def test_serial_and_pooled_retry_events_carry_the_same_fields(
        self, make_engine, tmp_path, monkeypatch
    ):
        monkeypatch.delenv("REPRO_MAX_WORKERS", raising=False)
        policy = FailurePolicy.retrying(max_attempts=2, backoff_base=0.001)
        fields = {}
        for workers in (1, 2):
            ledger = tmp_path / f"ledger-{workers}"
            ledger.mkdir()
            engine = make_engine(
                engine_cls=FaultInjectingEngine,
                engine_kwargs={
                    "plan": FaultPlan(fail_seed_attempts={1: 1}),
                    "attempt_dir": str(ledger),
                },
                max_generations=2,
            )
            sink = MemorySink()
            outcome = run_campaign(
                engine,
                2,
                base_seed=0,
                max_workers=workers,
                policy=policy,
                tracer=Tracer(sink),
            )
            assert outcome.ok
            (retry,) = [e for e in sink.events if e.kind == "campaign_retry"]
            fields[workers] = retry.fields
        assert fields[1] == fields[2]
        assert fields[1]["delay"] == policy.retry.delay(1, 1)
