"""Trace layer: event schemas, sinks, span nesting, JSONL round-trips.

The schemas are a closed contract: the property tests below generate
arbitrary on-schema events and hold :func:`validate_event` to accepting
exactly those, and the tracer tests check the structural invariants
every consumer relies on -- strictly increasing sequence numbers,
unique span ids, correct parentage.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, strategies as st

from repro.obs import (
    EVENT_SCHEMAS,
    NULL_TRACER,
    ROOT_SPAN,
    JsonlSink,
    MemorySink,
    NullSink,
    TraceEvent,
    TraceSchemaError,
    Tracer,
    read_trace,
    validate_event,
)

_VALUE_STRATEGIES = {
    int: st.integers(min_value=-(2**31), max_value=2**31),
    float: st.floats(allow_nan=False, allow_infinity=False, width=32),
    str: st.text(max_size=20),
    bool: st.booleans(),
}


def _fields_strategy(kind: str):
    """All required fields plus an arbitrary subset of optional ones."""
    schema = EVENT_SCHEMAS[kind]
    required = {
        name: _VALUE_STRATEGIES[type_] for name, type_ in schema.required.items()
    }
    optional = {
        name: st.none() | _VALUE_STRATEGIES[type_]
        for name, type_ in schema.optional.items()
    }
    return st.fixed_dictionaries(required, optional=optional).map(
        lambda fields: {k: v for k, v in fields.items() if v is not None}
    )


@st.composite
def on_schema_events(draw):
    kind = draw(st.sampled_from(sorted(EVENT_SCHEMAS)))
    return TraceEvent(
        seq=draw(st.integers(min_value=0, max_value=2**31)),
        kind=kind,
        phase=draw(st.sampled_from(["begin", "point"])),
        t=draw(st.floats(min_value=0, allow_nan=False, allow_infinity=False)),
        span=draw(st.integers(min_value=0, max_value=2**31)),
        parent=draw(st.integers(min_value=ROOT_SPAN, max_value=2**31)),
        fields=draw(_fields_strategy(kind)),
    )


class TestSchemas:
    @given(on_schema_events())
    def test_on_schema_events_validate(self, event):
        validate_event(event)

    @given(on_schema_events())
    def test_json_round_trip_preserves_events(self, event):
        clone = TraceEvent.from_json(json.loads(json.dumps(event.to_json())))
        assert clone == event

    @given(on_schema_events(), st.text(min_size=1, max_size=20))
    def test_unknown_field_rejected(self, event, name):
        if name in EVENT_SCHEMAS[event.kind].allowed():
            return
        bad = TraceEvent(**{**event.to_json(), "fields": {**event.fields, name: 1}})
        with pytest.raises(TraceSchemaError, match="unexpected field"):
            validate_event(bad)

    def test_unknown_kind_rejected(self):
        event = TraceEvent(0, "nope", "point", 0.0, 0, ROOT_SPAN, {})
        with pytest.raises(TraceSchemaError, match="unknown event kind"):
            validate_event(event)

    def test_unknown_phase_rejected(self):
        event = TraceEvent(
            0, "phase", "middle", 0.0, 0, ROOT_SPAN, {"name": "x"}
        )
        with pytest.raises(TraceSchemaError, match="phase"):
            validate_event(event)

    def test_missing_required_field_rejected_on_begin_and_point(self):
        for phase in ("begin", "point"):
            event = TraceEvent(0, "phase", phase, 0.0, 0, ROOT_SPAN, {})
            with pytest.raises(TraceSchemaError, match="missing required"):
                validate_event(event)

    def test_end_events_may_omit_required_fields(self):
        validate_event(
            TraceEvent(0, "phase", "end", 0.0, 0, ROOT_SPAN, {"duration": 0.1})
        )

    def test_bool_is_not_an_int(self):
        event = TraceEvent(
            0, "checkpoint", "point", 0.0, 0, ROOT_SPAN, {"generation": True}
        )
        with pytest.raises(TraceSchemaError, match="expected int, got bool"):
            validate_event(event)

    def test_int_is_accepted_as_float(self):
        validate_event(
            TraceEvent(
                0,
                "evaluation_batch",
                "point",
                0.0,
                0,
                ROOT_SPAN,
                {"size": 3, "wall_time": 1},
            )
        )

    def test_negative_seq_and_span_rejected(self):
        good = {"name": "x"}
        with pytest.raises(TraceSchemaError, match="negative seq"):
            validate_event(
                TraceEvent(-1, "phase", "point", 0.0, 0, ROOT_SPAN, good)
            )
        with pytest.raises(TraceSchemaError, match="negative span"):
            validate_event(
                TraceEvent(0, "phase", "point", 0.0, -1, ROOT_SPAN, good)
            )


class TestSinks:
    def test_null_sink_discards(self):
        tracer = Tracer(NullSink())
        tracer.point("phase", name="x")
        assert not tracer.enabled
        assert NULL_TRACER.enabled is False

    def test_memory_sink_ring_buffer(self):
        sink = MemorySink(maxlen=2)
        tracer = Tracer(sink)
        for index in range(5):
            tracer.point("checkpoint", generation=index)
        kept = [event.fields["generation"] for event in sink.events]
        assert kept == [3, 4]

    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlSink(path) as sink:
            tracer = Tracer(sink)
            with tracer.span("run", seed=1, resumed=False, start_generation=0):
                tracer.point("checkpoint", generation=0, path="x.ckpt")
        events = read_trace(path)
        assert [e.kind for e in events] == ["run", "checkpoint", "run"]
        assert [e.seq for e in events] == [0, 1, 2]
        assert events[1].parent == events[0].span

    def test_jsonl_appends_across_sinks(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlSink(path) as sink:
            Tracer(sink).point("checkpoint", generation=0)
        with JsonlSink(path) as sink:
            tracer = Tracer(sink)
            tracer.advance_to(1)
            tracer.point("checkpoint", generation=1)
        events = read_trace(path)
        assert [e.seq for e in events] == [0, 1]

    def test_torn_final_line_ignored(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlSink(path) as sink:
            Tracer(sink).point("checkpoint", generation=0)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"seq": 1, "kind": "check')  # interrupted write
        events = read_trace(path)
        assert len(events) == 1

    def test_malformed_interior_line_raises(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("not json\n")
            handle.write(
                json.dumps(
                    TraceEvent(
                        0, "checkpoint", "point", 0.0, 0, ROOT_SPAN,
                        {"generation": 0},
                    ).to_json()
                )
                + "\n"
            )
        with pytest.raises(json.JSONDecodeError):
            read_trace(path)


class TestTracer:
    def test_span_nesting_parents(self):
        sink = MemorySink()
        tracer = Tracer(sink)
        with tracer.span(
            "run", seed=0, resumed=False, start_generation=0
        ) as run_span:
            with tracer.span("phase", name="evaluate") as phase_span:
                tracer.point("evaluation_batch", size=4)
        by_kind = {event.kind: event for event in sink.events}
        assert by_kind["phase"].parent == run_span
        assert by_kind["evaluation_batch"].parent == phase_span
        # The end events re-parent to the enclosing span, not themselves.
        ends = [event for event in sink.events if event.phase == "end"]
        assert [event.parent for event in ends] == [run_span, ROOT_SPAN]
        assert all(
            "duration" in event.fields and event.fields["duration"] >= 0.0
            for event in ends
        )

    def test_sequence_numbers_strictly_increase(self):
        sink = MemorySink()
        tracer = Tracer(sink)
        with tracer.span("run", seed=0, resumed=False, start_generation=0):
            for generation in range(3):
                tracer.point("checkpoint", generation=generation)
        seqs = [event.seq for event in sink.events]
        assert seqs == sorted(set(seqs))

    def test_span_ids_unique(self):
        sink = MemorySink()
        tracer = Tracer(sink)
        with tracer.span("run", seed=0, resumed=False, start_generation=0):
            tracer.point("checkpoint", generation=0)
            with tracer.span("phase", name="evaluate"):
                pass
        begins = [e for e in sink.events if e.phase in ("begin", "point")]
        spans = [event.span for event in begins]
        assert len(spans) == len(set(spans))

    def test_end_span_fields_attaches_late_outcome(self):
        sink = MemorySink()
        tracer = Tracer(sink)
        with tracer.span(
            "run", seed=0, resumed=False, start_generation=0
        ) as span:
            tracer.end_span_fields("run", span, best_fitness=1.5)
        late = sink.events[1]
        assert late.phase == "end"
        assert late.span == span
        assert late.fields == {"best_fitness": 1.5}

    def test_advance_to_never_rewinds(self):
        tracer = Tracer(MemorySink())
        tracer.advance_to(10)
        tracer.advance_to(3)
        assert tracer.seq == 10
        event = tracer.point("checkpoint", generation=0)
        assert event.seq == 10
        assert event.span >= 10

    def test_absorb_remaps_spans_and_reparents(self):
        worker_sink = MemorySink()
        worker = Tracer(worker_sink)
        with worker.span("phase", name="chunk"):
            worker.point("evaluation_batch", size=2)

        sink = MemorySink()
        parent = Tracer(sink)
        with parent.span(
            "run", seed=0, resumed=False, start_generation=0
        ) as run_span:
            merged = parent.absorb(worker_sink.events)
        assert len(merged) == 3
        # Worker roots hang off the current span; nesting is preserved.
        chunk_begin = merged[0]
        assert chunk_begin.parent == run_span
        assert merged[1].parent == chunk_begin.span
        # Ids were remapped into the parent tracer's space: no collisions.
        all_spans = {run_span} | {event.span for event in merged}
        seqs = [event.seq for event in sink.events]
        assert seqs == sorted(set(seqs))
        assert len(all_spans) == 3  # run + chunk span + batch point

    def test_absorbed_events_keep_fields(self):
        worker_sink = MemorySink()
        Tracer(worker_sink).point(
            "evaluation_batch", size=7, cache_hits=2, step_time=0.5
        )
        parent_sink = MemorySink()
        Tracer(parent_sink).absorb(worker_sink.events)
        (event,) = parent_sink.events
        assert event.fields["size"] == 7
        assert event.fields["cache_hits"] == 2
        assert event.fields["step_time"] == 0.5
