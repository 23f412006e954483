"""A lightweight metrics registry: counters, gauges, histograms.

Observability producers across the stack (:class:`~repro.gp.fitness.
EvaluationStats`, the :class:`~repro.lru.CacheStats` of every memo,
campaign results, the benchmarks) publish their numbers *into* a
:class:`MetricsRegistry` through ``publish``/``publish_metrics`` methods
instead of each inventing ad-hoc result fields.  A registry snapshot is
a flat ``{name: value}`` mapping that serialises straight into the
``BENCH_*.json`` baselines and the trace report's JSON summary.

Registries are created by their callers, in-memory, with no background
thread and no lock; counts made in worker processes travel back inside
the stats objects' merge paths, not through a shared registry.  Stats
dataclasses declare each counter once, as a field, and derive their
``merge`` and ``publish`` from that declaration (:func:`merge_fields`,
:func:`publish_fields`).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from typing import Any, Iterator


class MetricTypeError(TypeError):
    """A metric name was re-registered as a different instrument type."""


@dataclass
class Counter:
    """A monotonically increasing count (evaluations, cache hits...)."""

    name: str
    value: int = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        self.value += amount


@dataclass
class Gauge:
    """A point-in-time measurement (cache size, batch fill, speedup)."""

    name: str
    value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def add(self, amount: float) -> None:
        self.value += float(amount)


@dataclass
class Histogram:
    """A streaming summary of observations (fitness per generation).

    Keeps count/sum/min/max/sum-of-squares -- enough for mean and
    population standard deviation without storing samples.
    """

    name: str
    count: int = 0
    total: float = 0.0
    total_sq: float = 0.0
    minimum: float = math.inf
    maximum: float = -math.inf

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        self.total_sq += value * value
        self.minimum = min(self.minimum, value)
        self.maximum = max(self.maximum, value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @property
    def stddev(self) -> float:
        if self.count == 0:
            return 0.0
        variance = self.total_sq / self.count - self.mean**2
        return math.sqrt(max(0.0, variance))

    def summary(self) -> dict[str, float]:
        if self.count == 0:
            return {"count": 0}
        return {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "stddev": self.stddev,
            "min": self.minimum,
            "max": self.maximum,
        }


@dataclass
class MetricsRegistry:
    """Get-or-create registry of named instruments.

    Names are dotted paths (``eval.cache_hits``, ``kernel.speedup.k64``);
    re-requesting a name returns the same instrument, and requesting it
    as a different type raises :class:`MetricTypeError` -- silent
    shadowing is how dashboards lie.
    """

    _metrics: dict[str, Counter | Gauge | Histogram] = field(
        default_factory=dict
    )

    def _get(self, name: str, cls: type) -> Any:
        instrument = self._metrics.get(name)
        if instrument is None:
            instrument = cls(name=name)
            self._metrics[name] = instrument
        elif type(instrument) is not cls:
            raise MetricTypeError(
                f"{name!r} is a {type(instrument).__name__}, "
                f"requested as {cls.__name__}"
            )
        return instrument

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def __iter__(self) -> Iterator[Counter | Gauge | Histogram]:
        for name in sorted(self._metrics):
            yield self._metrics[name]

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def snapshot(self) -> dict[str, Any]:
        """Flat ``{name: value}`` view, deterministically ordered.

        Counters and gauges map to their value; histograms map to their
        summary dict.  Key order is sorted, so serialised snapshots are
        stable across runs and dict-iteration order.
        """
        out: dict[str, Any] = {}
        for instrument in self:
            if isinstance(instrument, Histogram):
                out[instrument.name] = instrument.summary()
            else:
                out[instrument.name] = instrument.value
        return out

    def render_json(self) -> str:
        return json.dumps(self.snapshot(), indent=2, sort_keys=True)

    def clear(self) -> None:
        self._metrics.clear()


def merge_fields(left: Any, right: Any) -> Any:
    """A new stats dataclass holding ``left + right`` field by field."""
    return type(left)(
        **{
            f.name: getattr(left, f.name) + getattr(right, f.name)
            for f in fields(left)
        }
    )


def publish_fields(stats: Any, registry: MetricsRegistry, prefix: str) -> None:
    """Publish every field of a stats dataclass as ``prefix.<field>``.

    ``float`` fields (timers) add to gauges; every other field is a count
    and increments a counter.
    """
    for f in fields(stats):
        value = getattr(stats, f.name)
        if f.type in (float, "float"):
            registry.gauge(f"{prefix}.{f.name}").add(value)
        else:
            registry.counter(f"{prefix}.{f.name}").inc(value)
