"""Structured tracing for GMR runs: typed events, spans, pluggable sinks.

A trace is an ordered stream of :class:`TraceEvent` records emitted by a
:class:`Tracer`.  Every event carries a monotonically increasing sequence
number, a monotonic timestamp, a span id, and its parent span id, so a
consumer can reconstruct both the wall-clock timeline and the nesting
structure (run > generation > phase > evaluation batch) without any
global state.  Event *kinds* are closed: each kind declares a schema
(:data:`EVENT_SCHEMAS`) naming its required and optional fields with
their types, and :func:`validate_event` rejects anything off-schema --
the property tests in ``tests/obs`` hold every emitted event to it.

Three sinks cover the deployment spectrum:

* :class:`NullSink` -- the default; tracing costs one attribute check.
* :class:`MemorySink` -- an in-memory ring buffer (bounded by
  ``maxlen``) for tests and worker-side collection.
* :class:`JsonlSink` -- one JSON object per line, appended to a file.
  Each event is rendered to a complete line and written in a single
  call on a file opened in append mode, so concurrent writers and
  crash-interrupted runs never interleave partial records; a resumed
  run appends to the same file instead of truncating it.

Tracing never feeds back into the run: no RNG is consumed, no result
value is touched, so a traced seeded run is bit-identical to an
untraced one (asserted end-to-end by ``tests/obs/test_traced_run.py``).
"""

from __future__ import annotations

import json
import os
import time
from collections import deque
from dataclasses import dataclass, field
from contextlib import contextmanager
from typing import Any, Iterable, Iterator, Sequence

#: Event lifecycle markers: spans emit ``begin``/``end`` pairs, moments
#: emit a single ``point``.
PHASES = ("begin", "end", "point")

#: Span id used as the parent of root spans.
ROOT_SPAN = -1


class TraceSchemaError(ValueError):
    """An event does not conform to its declared schema."""


@dataclass(frozen=True)
class TraceEvent:
    """One record of a trace stream.

    Attributes:
        seq: Position in the stream (0-based, strictly increasing).
        kind: Event kind, one of :data:`EVENT_SCHEMAS`' keys.
        phase: ``begin``/``end`` for spans, ``point`` for moments.
        t: Monotonic timestamp (``time.perf_counter`` seconds).
        span: Id of the span this event belongs to (point events get
            their own id).
        parent: Id of the enclosing span, or :data:`ROOT_SPAN`.
        fields: Kind-specific payload, schema-checked JSON scalars.
    """

    seq: int
    kind: str
    phase: str
    t: float
    span: int
    parent: int
    fields: dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> dict[str, Any]:
        return {
            "seq": self.seq,
            "kind": self.kind,
            "phase": self.phase,
            "t": self.t,
            "span": self.span,
            "parent": self.parent,
            "fields": dict(self.fields),
        }

    @classmethod
    def from_json(cls, payload: dict[str, Any]) -> "TraceEvent":
        return cls(
            seq=payload["seq"],
            kind=payload["kind"],
            phase=payload["phase"],
            t=payload["t"],
            span=payload["span"],
            parent=payload["parent"],
            fields=dict(payload.get("fields", {})),
        )


@dataclass(frozen=True)
class EventSchema:
    """Field contract of one event kind.

    ``required`` fields must be present on ``begin``/``point`` events;
    ``optional`` fields may appear on any event.  ``end`` events always
    additionally carry ``duration`` (seconds) and may repeat any field.
    Types are spelled as ``int``/``float``/``str``/``bool``; a ``float``
    slot accepts ints too, an ``int`` slot does not accept bools.
    """

    required: dict[str, type] = field(default_factory=dict)
    optional: dict[str, type] = field(default_factory=dict)

    def allowed(self) -> dict[str, type]:
        merged = dict(self.required)
        merged.update(self.optional)
        merged.setdefault("duration", float)
        return merged


#: The closed set of event kinds and their field contracts.
EVENT_SCHEMAS: dict[str, EventSchema] = {
    # One evolutionary run (span).  ``resumed`` marks checkpoint resumes;
    # ``start_generation`` is 0 for fresh runs.  ``stop_reason`` appears
    # on the end event of a governed run that stopped early.  The step
    # counts are the evaluator's cumulative ``EvaluationStats``: fitness
    # cases Algorithm 1 counted, and rows actually simulated.
    "run": EventSchema(
        required={"seed": int, "resumed": bool, "start_generation": int},
        optional={
            "best_fitness": float,
            "generations": int,
            "evaluations": int,
            "stop_reason": str,
            "steps_evaluated": int,
            "steps_integrated": int,
        },
    ),
    # One completed generation (point), emitted with its record.
    "generation": EventSchema(
        required={
            "generation": int,
            "best_fitness": float,
            "mean_fitness": float,
            "best_size": int,
            "evaluations": int,
        },
        optional={
            "best_fully_evaluated": bool,
            "select_time": float,
            "evaluate_time": float,
            "local_search_time": float,
            "checkpoint_time": float,
        },
    ),
    # A named engine or evaluator phase (span).
    "phase": EventSchema(required={"name": str}),
    # One evaluator cohort evaluation (point).
    "evaluation_batch": EventSchema(
        required={"size": int},
        optional={
            "cache_hits": int,
            "wall_time": float,
            "compile_time": float,
            "step_time": float,
        },
    ),
    # A run snapshot written to disk (point).
    "checkpoint": EventSchema(
        required={"generation": int},
        optional={"path": str, "seconds": float, "trace_seq": int},
    ),
    # A campaign of seeded runs (span).
    "campaign": EventSchema(
        required={"n_seeds": int, "mode": str},
        optional={"completed": int, "failed": int},
    ),
    # A seed failed and re-enters the next campaign round (point).
    "campaign_retry": EventSchema(
        required={"seed": int, "attempt": int, "error_type": str, "delay": float},
    ),
    # Periodic liveness signal from a governed run (point): a stalled
    # campaign stops emitting these, a slow one keeps emitting them.
    "heartbeat": EventSchema(
        required={"generation": int, "evaluations": int, "elapsed": float},
    ),
    # A governed run stopped early -- budget exhausted or cooperative
    # signal shutdown (point).  ``reason`` is machine-readable, e.g.
    # ``budget:generations`` or ``signal:SIGTERM``.
    "run_stop": EventSchema(
        required={"reason": str, "generation": int},
        optional={"evaluations": int, "elapsed": float},
    ),
    # The degradation ladder engaged (point): a broken process pool
    # fell back to serial evaluation.  Results are unchanged; only the
    # execution strategy degraded.
    "degradation": EventSchema(
        required={"what": str},
        optional={"error_type": str, "detail": str},
    ),
}


def _type_ok(value: Any, expected: type) -> bool:
    if expected is bool:
        return isinstance(value, bool)
    if expected is int:
        return isinstance(value, int) and not isinstance(value, bool)
    if expected is float:
        return (
            isinstance(value, (int, float)) and not isinstance(value, bool)
        )
    return isinstance(value, expected)


def validate_event(event: TraceEvent) -> None:
    """Raise :class:`TraceSchemaError` unless ``event`` is on-schema."""
    schema = EVENT_SCHEMAS.get(event.kind)
    if schema is None:
        raise TraceSchemaError(
            f"unknown event kind {event.kind!r}; "
            f"known: {sorted(EVENT_SCHEMAS)}"
        )
    if event.phase not in PHASES:
        raise TraceSchemaError(
            f"{event.kind}: phase {event.phase!r} not in {PHASES}"
        )
    if event.seq < 0:
        raise TraceSchemaError(f"{event.kind}: negative seq {event.seq}")
    if event.span < 0:
        raise TraceSchemaError(f"{event.kind}: negative span {event.span}")
    if event.parent < ROOT_SPAN:
        raise TraceSchemaError(
            f"{event.kind}: parent {event.parent} below ROOT_SPAN"
        )
    allowed = schema.allowed()
    for name, value in event.fields.items():
        expected = allowed.get(name)
        if expected is None:
            raise TraceSchemaError(
                f"{event.kind}: unexpected field {name!r}; "
                f"allowed: {sorted(allowed)}"
            )
        if not _type_ok(value, expected):
            raise TraceSchemaError(
                f"{event.kind}.{name}: expected {expected.__name__}, "
                f"got {type(value).__name__} ({value!r})"
            )
    if event.phase in ("begin", "point"):
        missing = [
            name for name in schema.required if name not in event.fields
        ]
        if missing:
            raise TraceSchemaError(
                f"{event.kind}: missing required field(s) {missing}"
            )


class TraceSink:
    """Destination for trace events.  Subclasses override :meth:`emit`."""

    def emit(self, event: TraceEvent) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def close(self) -> None:
        """Release resources (no-op for in-memory sinks)."""


class NullSink(TraceSink):
    """Discards every event; the default-off sink."""

    def emit(self, event: TraceEvent) -> None:
        pass


class MemorySink(TraceSink):
    """Keeps the last ``maxlen`` events in memory (None = unbounded)."""

    def __init__(self, maxlen: int | None = None) -> None:
        self._events: deque[TraceEvent] = deque(maxlen=maxlen)

    @property
    def events(self) -> list[TraceEvent]:
        return list(self._events)

    def emit(self, event: TraceEvent) -> None:
        self._events.append(event)

    def clear(self) -> None:
        self._events.clear()


class JsonlSink(TraceSink):
    """Appends one JSON object per event to a file.

    The file is opened in append mode and each event is written as one
    complete line in a single call, so a crash never leaves a partial
    record ahead of the write position and a resumed run extends the
    trace its interrupted predecessor started.
    """

    def __init__(self, path: str | os.PathLike[str]) -> None:
        self.path = os.fspath(path)
        directory = os.path.dirname(self.path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        _repair_tail(self.path)
        #: Highest sequence number already in the file (-1 when empty).
        #: A tracer writing here resumes numbering after it, so appended
        #: segments keep strictly increasing seqs even for events the
        #: interrupted run emitted after its last checkpoint.
        self.last_seq = scan_last_seq(self.path)
        self._handle = open(self.path, "a", encoding="utf-8")

    def emit(self, event: TraceEvent) -> None:
        self._handle.write(json.dumps(event.to_json()) + "\n")
        self._handle.flush()

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


#: Block size for the backwards tail scan of :func:`scan_last_seq`.
_TAIL_BLOCK = 64 * 1024


def _repair_tail(path: str | os.PathLike[str]) -> None:
    """Make a trace file safe to append to after an unclean death.

    A killed writer can leave the file without a trailing newline.  If
    the unterminated tail parses as JSON it is a complete event whose
    newline never landed -- terminate it so the next append starts a
    fresh line.  If it does not parse it is a torn fragment -- truncate
    it, exactly as every reader already ignores it.  Appending onto the
    tail unrepaired would weld two events into one corrupt line.
    """
    try:
        handle = open(path, "r+b")
    except OSError:
        return
    with handle:
        size = handle.seek(0, os.SEEK_END)
        if size == 0:
            return
        handle.seek(size - 1)
        if handle.read(1) == b"\n":
            return
        # Walk back block-wise to the last newline (usually in the
        # final block); everything after it is the unterminated tail.
        position = size
        newline_at = -1
        while position > 0 and newline_at < 0:
            step = min(_TAIL_BLOCK, position)
            position -= step
            handle.seek(position)
            block = handle.read(step)
            index = block.rfind(b"\n")
            if index >= 0:
                newline_at = position + index
        handle.seek(newline_at + 1)
        tail = handle.read()
        try:
            json.loads(tail.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError):
            handle.truncate(newline_at + 1)
            return
        handle.seek(0, os.SEEK_END)
        handle.write(b"\n")
        handle.flush()
        os.fsync(handle.fileno())


def _last_seq_in(buffer: bytes, complete: bool) -> int | None:
    """Newest parseable ``seq`` in a tail ``buffer`` of a trace file.

    ``complete`` says the buffer starts at the beginning of the file;
    otherwise its first line fragment may be the torn tail of a line
    whose head lies earlier in the file, so it is skipped.
    """
    lines = buffer.split(b"\n")
    candidates = lines if complete else lines[1:]
    for line in reversed(candidates):
        line = line.strip()
        if not line:
            continue
        try:
            return int(json.loads(line.decode("utf-8"))["seq"])
        except (
            json.JSONDecodeError,
            UnicodeDecodeError,
            KeyError,
            TypeError,
            ValueError,
        ):
            continue  # torn line from an interrupted writer
    return None


def scan_last_seq(path: str | os.PathLike[str]) -> int:
    """Highest sequence number recorded in a trace file (-1 when none).

    Reads fixed-size blocks backwards from the end of the file, so the
    cost is proportional to the tail, not to the trace: a status poll
    against a multi-gigabyte campaign trace touches a few kilobytes.
    A torn final line from an interrupted writer is skipped, exactly as
    :func:`read_trace` skips it.
    """
    try:
        handle = open(path, "rb")
    except OSError:
        return -1
    with handle:
        handle.seek(0, os.SEEK_END)
        position = handle.tell()
        buffer = b""
        while position > 0:
            step = min(_TAIL_BLOCK, position)
            position -= step
            handle.seek(position)
            buffer = handle.read(step) + buffer
            seq = _last_seq_in(buffer, complete=position == 0)
            if seq is not None:
                return seq
        return -1


def iter_trace(
    path: str | os.PathLike[str], start_seq: int = 0
) -> Iterator[TraceEvent]:
    """Stream a JSONL trace file as validated events, one at a time.

    Unlike loading the whole file, this holds one line in memory at a
    time, so following a multi-gigabyte campaign trace costs O(1)
    memory.  Events with ``seq`` below ``start_seq`` are skipped (after
    parsing), which is how incremental consumers -- the serve layer's
    progress endpoint, ``watch``-style pollers -- resume from a cursor.

    Torn-tail tolerance matches :func:`read_trace`: a final line that is
    unterminated or malformed (the writer died mid-append, or is still
    appending) ends the stream silently; a malformed line *followed by
    more lines* raises, because that means the file is not a trace.  An
    unterminated final line that parses cleanly is a complete event
    whose newline has not landed yet, and is yielded.  A missing file
    raises :class:`FileNotFoundError`, matching :func:`read_trace`;
    pollers that may race the writer's first append should check for
    the file (or use :class:`TraceFollower`, which tolerates it).
    """
    with open(path, encoding="utf-8") as handle:
        line = handle.readline()
        while line:
            terminated = line.endswith("\n")
            next_line = handle.readline() if terminated else ""
            stripped = line.strip()
            if stripped:
                try:
                    payload = json.loads(stripped)
                except json.JSONDecodeError:
                    if not next_line:
                        return  # torn final line from an interrupted writer
                    raise
                event = TraceEvent.from_json(payload)
                validate_event(event)
                if event.seq >= start_seq:
                    yield event
            line = next_line


def read_trace(path: str | os.PathLike[str]) -> list[TraceEvent]:
    """Load a JSONL trace file back into events (schema-checked).

    A trailing partial line (the process died mid-write on a filesystem
    without atomic appends) is ignored; a malformed line elsewhere
    raises, because it means the file is not a trace.  Built on
    :func:`iter_trace`; prefer that for large traces.
    """
    return list(iter_trace(path))


class TraceFollower:
    """Incremental reader of a live JSONL trace (cursor + byte offset).

    Each :meth:`poll` returns the events appended since the previous
    poll.  Only newline-terminated lines are consumed: a torn tail that
    a concurrent writer is still flushing stays unread until its
    newline lands, so a live follower never misparses a half-written
    record and never loses the writer's span context -- the events it
    has already returned always form a complete, validated prefix of
    the trace.  A missing file simply means no events yet.

    The ``start_seq`` cursor additionally filters by sequence number,
    so a follower attached to a stitched resume trace can skip the
    segment it already consumed in a previous process lifetime.
    """

    def __init__(
        self, path: str | os.PathLike[str], start_seq: int = 0
    ) -> None:
        self.path = os.fspath(path)
        self._offset = 0
        self._next_seq = start_seq

    @property
    def next_seq(self) -> int:
        """Sequence cursor: the smallest seq a future poll may return."""
        return self._next_seq

    def poll(self) -> list[TraceEvent]:
        """Events appended (and newline-terminated) since the last poll."""
        try:
            handle = open(self.path, "rb")
        except OSError:
            return []
        events: list[TraceEvent] = []
        with handle:
            handle.seek(self._offset)
            for raw in handle:
                if not raw.endswith(b"\n"):
                    break  # torn tail: the writer is mid-append
                self._offset += len(raw)
                stripped = raw.strip()
                if not stripped:
                    continue
                payload = json.loads(stripped.decode("utf-8"))
                event = TraceEvent.from_json(payload)
                validate_event(event)
                if event.seq >= self._next_seq:
                    self._next_seq = event.seq + 1
                    events.append(event)
        return events


class Tracer:
    """Emits schema-checked events into a sink, tracking span nesting.

    One tracer serves one thread of execution (the GMR engine is
    single-threaded per run; worker processes build their own).  Spans
    opened with :meth:`span` nest via an explicit stack, so every event
    knows its parent without the caller threading ids around.
    """

    def __init__(self, sink: TraceSink | None = None) -> None:
        self.sink = sink if sink is not None else NullSink()
        self._seq = 0
        self._next_span = 0
        self._stack: list[int] = []
        # Appending to an existing JSONL trace: continue its numbering.
        last_seq = getattr(self.sink, "last_seq", None)
        if last_seq is not None:
            self.advance_to(last_seq + 1)

    @property
    def enabled(self) -> bool:
        """False for the null sink -- lets hot paths skip field packing."""
        return not isinstance(self.sink, NullSink)

    @property
    def seq(self) -> int:
        """Sequence number the next event will carry."""
        return self._seq

    def advance_to(self, seq: int) -> None:
        """Fast-forward the sequence counter (checkpoint resume).

        A resumed run continues numbering where the interrupted run's
        last snapshot left off, so a stitched-together JSONL trace keeps
        strictly increasing sequence numbers across process lifetimes.
        """
        self._seq = max(self._seq, seq)
        self._next_span = max(self._next_span, seq)

    def _emit(
        self, kind: str, phase: str, span: int, fields: dict[str, Any]
    ) -> TraceEvent:
        parent = self._stack[-1] if self._stack else ROOT_SPAN
        event = TraceEvent(
            seq=self._seq,
            kind=kind,
            phase=phase,
            t=time.perf_counter(),
            span=span,
            parent=parent,
            fields=fields,
        )
        validate_event(event)
        self._seq += 1
        self.sink.emit(event)
        return event

    def point(self, kind: str, **fields: Any) -> TraceEvent:
        """Emit a point event under the current span."""
        span = self._next_span
        self._next_span += 1
        return self._emit(kind, "point", span, fields)

    @contextmanager
    def span(self, kind: str, **fields: Any) -> Iterator[int]:
        """Open a span: emits ``begin`` now and ``end`` (with
        ``duration``) when the block exits, even on exceptions."""
        span = self._next_span
        self._next_span += 1
        begin = self._emit(kind, "begin", span, fields)
        self._stack.append(span)
        try:
            yield span
        finally:
            self._stack.pop()
            self._emit(
                kind,
                "end",
                span,
                {"duration": time.perf_counter() - begin.t},
            )

    def end_span_fields(self, kind: str, span: int, **fields: Any) -> None:
        """Emit an extra ``end``-phase event for a span with late fields.

        Some span outcomes (a run's final best fitness) are only known
        after the span body; this attaches them without holding the
        context manager open across return statements.
        """
        self._emit(kind, "end", span, fields)

    def absorb(
        self,
        events: Sequence[TraceEvent] | Iterable[TraceEvent],
        parent: int | None = None,
    ) -> list[TraceEvent]:
        """Re-emit foreign events (a worker's chunk trace) locally.

        Span ids are remapped into this tracer's id space and root
        events are re-parented under ``parent`` (default: the current
        span), so merged traces stay well-formed: unique span ids,
        strictly increasing sequence numbers, correct nesting.
        """
        if parent is None:
            parent = self._stack[-1] if self._stack else ROOT_SPAN
        remap: dict[int, int] = {}
        merged: list[TraceEvent] = []
        for event in events:
            local_span = remap.get(event.span)
            if local_span is None:
                local_span = self._next_span
                self._next_span += 1
                remap[event.span] = local_span
            local_parent = (
                parent
                if event.parent == ROOT_SPAN
                else remap.get(event.parent, parent)
            )
            absorbed = TraceEvent(
                seq=self._seq,
                kind=event.kind,
                phase=event.phase,
                t=event.t,
                span=local_span,
                parent=local_parent,
                fields=dict(event.fields),
            )
            validate_event(absorbed)
            self._seq += 1
            self.sink.emit(absorbed)
            merged.append(absorbed)
        return merged

    def close(self) -> None:
        self.sink.close()


#: Module-level convenience: a tracer that drops everything.
NULL_TRACER = Tracer(NullSink())
