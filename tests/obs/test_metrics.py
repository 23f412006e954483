"""Metrics registry: instruments, type safety, snapshots, publishers."""

from __future__ import annotations

import dataclasses
import json
import math
import pickle

import pytest

from repro.gp.fitness import EvaluationStats
from repro.lru import LRU, CacheStats
from repro.obs import Counter, Gauge, MetricsRegistry, MetricTypeError


class TestInstruments:
    def test_counter_increments(self):
        registry = MetricsRegistry()
        counter = registry.counter("evals")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_counter_rejects_decrease(self):
        counter = MetricsRegistry().counter("evals")
        with pytest.raises(ValueError, match="cannot decrease"):
            counter.inc(-1)

    def test_gauge_set_and_add(self):
        gauge = MetricsRegistry().gauge("fill")
        gauge.set(0.5)
        gauge.add(0.25)
        assert gauge.value == 0.75

    def test_histogram_summary(self):
        histogram = MetricsRegistry().histogram("fitness")
        for value in (1.0, 2.0, 3.0):
            histogram.observe(value)
        summary = histogram.summary()
        assert summary["count"] == 3
        assert summary["mean"] == 2.0
        assert summary["min"] == 1.0
        assert summary["max"] == 3.0
        assert summary["stddev"] == pytest.approx(math.sqrt(2.0 / 3.0))

    def test_empty_histogram_summary(self):
        assert MetricsRegistry().histogram("empty").summary() == {"count": 0}


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")

    def test_type_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(MetricTypeError):
            registry.gauge("x")
        with pytest.raises(MetricTypeError):
            registry.histogram("x")

    def test_snapshot_is_flat_and_sorted(self):
        registry = MetricsRegistry()
        registry.gauge("b").set(2.0)
        registry.counter("a").inc()
        registry.histogram("c").observe(1.0)
        snapshot = registry.snapshot()
        assert list(snapshot) == sorted(snapshot)
        assert snapshot["a"] == 1
        assert snapshot["b"] == 2.0
        assert snapshot["c"]["count"] == 1

    def test_render_json_parses(self):
        registry = MetricsRegistry()
        registry.counter("a").inc(3)
        assert json.loads(registry.render_json())["a"] == 3


class TestPublishers:
    def test_evaluation_stats_publish(self):
        stats = EvaluationStats()
        stats.evaluations = 10
        stats.cache_hits = 4
        stats.wall_time = 1.5
        registry = MetricsRegistry()
        stats.publish(registry)
        snapshot = registry.snapshot()
        assert snapshot["eval.evaluations"] == 10
        assert snapshot["eval.cache_hits"] == 4
        assert snapshot["eval.wall_time"] == 1.5

    def test_publish_accumulates_across_runs(self):
        registry = MetricsRegistry()
        for __ in range(2):
            stats = EvaluationStats()
            stats.evaluations = 5
            stats.publish(registry)
        assert registry.snapshot()["eval.evaluations"] == 10

    def test_cache_stats_publish(self):
        stats = CacheStats(hits=3, misses=2, evictions=1)
        registry = MetricsRegistry()
        stats.publish(registry, prefix="tree_cache")
        snapshot = registry.snapshot()
        assert snapshot["tree_cache.hits"] == 3
        assert snapshot["tree_cache.misses"] == 2
        assert snapshot["tree_cache.evictions"] == 1

    def test_kernel_cache_stats_publish(self):
        # The counters an LRU keeps are the ones it publishes.
        kernels = LRU(1)
        for key in "aab":
            if kernels.get(key) is None:
                kernels.put(key, key)
        registry = MetricsRegistry()
        kernels.stats.publish(registry, prefix="kc")
        snapshot = registry.snapshot()
        assert snapshot["kc.hits"] == 1
        assert snapshot["kc.misses"] == 2
        assert snapshot["kc.evictions"] == 1


STATS_CLASSES = [EvaluationStats, CacheStats]


def distinct_instance(cls, scale):
    """An instance with a different value in every field.

    Values follow each field's default type, so a counter added to the
    declaration later is covered without editing these tests.
    """
    values = {}
    for index, f in enumerate(dataclasses.fields(cls), start=1):
        if isinstance(f.default, float):
            values[f.name] = index * scale * 0.5
        else:
            values[f.name] = index * scale
    return cls(**values)


@pytest.mark.parametrize(
    "cls",
    [cls for cls in STATS_CLASSES if hasattr(cls, "merge")],
    ids=lambda c: c.__name__,
)
def test_merge_sums_every_field(cls):
    left, right = distinct_instance(cls, 1), distinct_instance(cls, 100)
    merged = left.merge(right)
    assert type(merged) is cls
    for f in dataclasses.fields(cls):
        expected = getattr(left, f.name) + getattr(right, f.name)
        assert getattr(merged, f.name) == expected, f.name


@pytest.mark.parametrize("cls", STATS_CLASSES, ids=lambda c: c.__name__)
class TestDeclarationCoverage:
    """Every declared field is published and pickled."""

    def test_publish_registers_one_instrument_per_field(self, cls):
        stats = distinct_instance(cls, 3)
        registry = MetricsRegistry()
        stats.publish(registry, prefix="p")
        instruments = {instrument.name: instrument for instrument in registry}
        assert sorted(instruments) == sorted(
            f"p.{f.name}" for f in dataclasses.fields(cls)
        )
        for f in dataclasses.fields(cls):
            instrument = instruments[f"p.{f.name}"]
            expected = Gauge if isinstance(f.default, float) else Counter
            assert type(instrument) is expected, f.name
            assert instrument.value == getattr(stats, f.name)

    def test_pickle_round_trip_keeps_every_field(self, cls):
        stats = distinct_instance(cls, 7)
        clone = pickle.loads(pickle.dumps(stats))
        for f in dataclasses.fields(cls):
            assert getattr(clone, f.name) == getattr(stats, f.name), f.name
