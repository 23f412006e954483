"""Run observability: structured tracing, metrics, and phase profiling.

Three small, dependency-free pieces that the GP engine, fitness
evaluator, parallel backends, and campaign runner publish into:

- :mod:`repro.obs.trace` -- typed trace events with parent spans and
  pluggable sinks (null / in-memory ring buffer / JSONL file).
- :mod:`repro.obs.metrics` -- a registry of counters, gauges, and
  histograms with deterministic JSON snapshots.
- :mod:`repro.obs.profile` -- scoped phase timers whose totals
  partition wall time by construction.

Tracing is strictly observational: it never consumes RNG, never feeds
back into evolution, and a traced seeded run is bit-identical to an
untraced one (``tests/obs/test_trace_determinism.py``).  Render a
recorded trace with ``python -m repro.obs report run.jsonl``.
"""

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    MetricTypeError,
)
from repro.obs.profile import PhaseProfile
from repro.obs.report import TraceReport, build_report, report_from_file
from repro.obs.trace import (
    EVENT_SCHEMAS,
    NULL_TRACER,
    ROOT_SPAN,
    JsonlSink,
    MemorySink,
    NullSink,
    TraceEvent,
    TraceFollower,
    Tracer,
    TraceSchemaError,
    TraceSink,
    iter_trace,
    read_trace,
    scan_last_seq,
    validate_event,
)

__all__ = [
    "EVENT_SCHEMAS",
    "NULL_TRACER",
    "ROOT_SPAN",
    "Counter",
    "Gauge",
    "Histogram",
    "JsonlSink",
    "MemorySink",
    "MetricTypeError",
    "MetricsRegistry",
    "NullSink",
    "PhaseProfile",
    "TraceEvent",
    "TraceFollower",
    "TraceReport",
    "TraceSchemaError",
    "TraceSink",
    "Tracer",
    "build_report",
    "iter_trace",
    "read_trace",
    "report_from_file",
    "scan_last_seq",
    "validate_event",
]
