"""Observability of governed runs: heartbeats, stops, degradations.

The governor's trace surface follows the layer's prime directive --
observation must not perturb the run -- so a governed, traced run stays
bit-identical to an ungoverned, untraced one, while the trace records
liveness (``heartbeat``), why a run ended early (``run_stop``), and
every rung the degradation ladder descended (``degradation``).
"""

from __future__ import annotations

from repro.gp.governor import CampaignBudget, RunGovernor
from repro.obs import MemorySink, Tracer, build_report
from tests.faults import fail_first_rollouts


def histories(result):
    return [record.best_fitness for record in result.history]


def kinds(sink, kind):
    return [event for event in sink.events if event.kind == kind]


def governed(engine, *, budget=None, heartbeat_every=1):
    engine.governor = RunGovernor(
        budget=budget, heartbeat_every=heartbeat_every
    )
    return engine


class TestHeartbeat:
    def test_heartbeat_per_generation_by_default(self, make_engine):
        engine = governed(make_engine(max_generations=3))
        sink = MemorySink()
        engine.tracer = Tracer(sink)
        engine.run(seed=4)
        beats = kinds(sink, "heartbeat")
        # One per completed generation boundary: 0 through 3.
        assert [event.fields["generation"] for event in beats] == [0, 1, 2, 3]
        assert all(event.fields["evaluations"] > 0 for event in beats)
        assert all(event.fields["elapsed"] >= 0.0 for event in beats)

    def test_heartbeat_cadence_is_configurable(self, make_engine):
        engine = governed(make_engine(max_generations=4), heartbeat_every=2)
        sink = MemorySink()
        engine.tracer = Tracer(sink)
        engine.run(seed=4)
        beats = kinds(sink, "heartbeat")
        assert [event.fields["generation"] for event in beats] == [0, 2, 4]

    def test_heartbeat_disabled_at_zero(self, make_engine):
        engine = governed(make_engine(max_generations=2), heartbeat_every=0)
        sink = MemorySink()
        engine.tracer = Tracer(sink)
        engine.run(seed=4)
        assert kinds(sink, "heartbeat") == []

    def test_no_governor_means_no_heartbeats(self, make_engine):
        engine = make_engine(max_generations=2)
        sink = MemorySink()
        engine.tracer = Tracer(sink)
        engine.run(seed=4)
        assert kinds(sink, "heartbeat") == []


class TestStopEvents:
    def test_budget_stop_emits_run_stop_event(self, make_engine):
        engine = governed(
            make_engine(max_generations=3),
            budget=CampaignBudget(max_generations=1),
        )
        sink = MemorySink()
        engine.tracer = Tracer(sink)
        result = engine.run(seed=4)
        stops = kinds(sink, "run_stop")
        assert len(stops) == 1
        assert stops[0].fields["reason"] == result.stop_reason
        assert stops[0].fields["generation"] == len(result.history) - 1
        # The enclosing run span carries the stop reason too.
        run_ends = [
            event
            for event in sink.events
            if event.kind == "run" and event.phase == "end"
        ]
        assert run_ends[0].fields["stop_reason"] == result.stop_reason

    def test_completed_run_emits_no_stop_event(self, make_engine):
        engine = governed(make_engine(max_generations=2))
        sink = MemorySink()
        engine.tracer = Tracer(sink)
        engine.run(seed=4)
        assert kinds(sink, "run_stop") == []


class TestDegradationEvents:
    def test_kernel_fallback_emits_degradation_event(
        self, make_engine, monkeypatch
    ):
        engine = make_engine(max_generations=2, eval_batch_size=6)
        fail_first_rollouts(monkeypatch, 1)
        sink = MemorySink()
        engine.tracer = Tracer(sink)
        engine.run(seed=4)
        events = kinds(sink, "degradation")
        assert len(events) == 1
        assert events[0].fields["what"] == "kernel_scalar_fallback"
        assert events[0].fields["error_type"] == "InjectedFault"


class TestGovernedReport:
    def test_report_folds_governor_events(self, make_engine, monkeypatch):
        engine = governed(
            make_engine(max_generations=3, eval_batch_size=6),
            budget=CampaignBudget(max_generations=2),
        )
        fail_first_rollouts(monkeypatch, 1)
        sink = MemorySink()
        engine.tracer = Tracer(sink)
        result = engine.run(seed=4)

        report = build_report(sink.events)
        assert report.heartbeats == len(result.history)
        assert [stop["reason"] for stop in report.stops] == [
            result.stop_reason
        ]
        assert [d["what"] for d in report.degradations] == [
            "kernel_scalar_fallback"
        ]

        payload = report.to_json()
        assert payload["heartbeats"] == report.heartbeats
        assert payload["stops"] == report.stops
        assert payload["degradations"] == report.degradations

        text = report.render_text()
        assert "heartbeat" in text
        assert result.stop_reason in text
        assert "kernel_scalar_fallback" in text


class TestGovernedBitIdentity:
    def test_governed_traced_run_matches_plain_run(self, make_engine):
        plain = make_engine(max_generations=3).run(seed=11)

        engine = governed(make_engine(max_generations=3))
        sink = MemorySink()
        engine.tracer = Tracer(sink)
        observed = engine.run(seed=11)

        assert histories(observed) == histories(plain)
        assert observed.best_fitness == plain.best_fitness
        assert observed.stats.evaluations == plain.stats.evaluations
        assert observed.stats.cache_hits == plain.stats.cache_hits
        assert observed.stats.full_evaluations == plain.stats.full_evaluations
