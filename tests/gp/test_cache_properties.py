"""Property-based tests for the bounded LRU behind every memo, keyed
as the fitness tree cache keys it.

Invariants (run through ``hypothesis`` when available, with seeded
random loops as the fallback so the properties are always exercised):

* the cache never holds more than ``max_entries`` entries, the eviction
  counter accounts exactly for the overflow, and re-putting a present
  key does not refresh its recency;
* tree-cache keys are exact: a parameter vector bumped in its 13th
  significant digit (below any 12-digit rounding) is a different key and
  misses, while an equal vector hits;
* hit + miss counters always sum to the number of lookups;
* a stored ``None`` is a hit, not a miss.
"""

from __future__ import annotations

import math
import random

from repro.lru import LRU, CacheStats

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - the container ships hypothesis
    HAVE_HYPOTHESIS = False


def tree_key(structure: str, params) -> tuple:
    """The evaluator's tree-cache key: structure key and exact values."""
    return (structure, tuple(params))


def on_key_grid(value: float, digits: int = 10) -> float:
    """Snap a float to a coarse significant-digit grid.

    A grid value bumped in its 13th significant digit stays inside one
    12-digit rounding cell, so a key that rounded parameters to 12
    digits would hit; the exactness property is then deterministic
    rather than probabilistic.
    """
    return float(format(value, f".{digits}g"))


def bump_13th_digit(value: float) -> float:
    """``value`` plus one unit in its 13th significant digit."""
    unit = 10.0 ** (math.floor(math.log10(abs(value))) - 12)
    return value + math.copysign(unit, value)


def check_bounded_eviction(keys: list[int], max_entries: int) -> None:
    # Model-based: a shadow FIFO dict predicts size, eviction count, and
    # surviving contents; the cache must never exceed max_entries.
    cache = LRU(max_entries)
    shadow: dict = {}
    expected_evictions = 0
    for index, raw in enumerate(keys):
        key = tree_key(f"s{raw}", (float(raw),))
        if key in shadow:
            shadow[key] = float(index)
        else:
            if len(shadow) >= max_entries:
                oldest = next(iter(shadow))
                del shadow[oldest]
                expected_evictions += 1
            shadow[key] = float(index)
        cache.put(key, float(index))
        assert len(cache) <= max_entries
    assert cache.stats.evictions == expected_evictions
    assert len(cache) == len(shadow)
    for key, value in shadow.items():
        assert cache.get(key) == value


def check_key_exactness(structure: str, values: list[float]) -> None:
    grid = [on_key_grid(value) for value in values]
    base = tree_key(structure, grid)
    cache = LRU(8)
    cache.put(base, 1.0)
    assert cache.get(tree_key(structure, list(grid))) == 1.0
    for index, value in enumerate(grid):
        if value == 0.0:
            continue
        bumped = list(grid)
        bumped[index] = bump_13th_digit(value)
        assert format(bumped[index], ".12g") == format(value, ".12g")
        assert cache.get(tree_key(structure, bumped)) is None
    assert cache.stats.hits == 1
    # The structure is part of the key.
    assert tree_key(structure + "'", grid) != base


def check_counter_sum(operations: list[tuple[bool, int]]) -> None:
    cache = LRU(16)
    lookups = 0
    for is_get, raw in operations:
        key = tree_key("s", (float(raw),))
        if is_get:
            cache.get(key)
            lookups += 1
        else:
            cache.put(key, float(raw))
    assert cache.stats.lookups == lookups
    assert cache.stats.hits + cache.stats.misses == lookups
    assert 0 <= cache.stats.hits <= lookups
    assert cache.stats.hit_rate <= 1.0


if HAVE_HYPOTHESIS:

    @settings(max_examples=200, deadline=None)
    @given(
        keys=st.lists(st.integers(min_value=0, max_value=30), max_size=60),
        max_entries=st.integers(min_value=1, max_value=8),
    )
    def test_eviction_is_bounded(keys, max_entries):
        check_bounded_eviction(keys, max_entries)

    @settings(max_examples=200, deadline=None)
    @given(
        structure=st.text(
            alphabet="BVx+*/-", min_size=1, max_size=12
        ),
        values=st.lists(
            st.floats(
                min_value=1e-6,
                max_value=1e6,
                allow_nan=False,
                allow_infinity=False,
            ).map(lambda v: v - 5e5),
            min_size=1,
            max_size=6,
        ),
    )
    def test_key_misses_beyond_twelve_digits(structure, values):
        check_key_exactness(structure, values)

    @settings(max_examples=200, deadline=None)
    @given(
        operations=st.lists(
            st.tuples(st.booleans(), st.integers(min_value=0, max_value=20)),
            max_size=80,
        )
    )
    def test_counters_sum_to_lookups(operations):
        check_counter_sum(operations)


class TestSeededFallback:
    """Seeded random loops covering the same properties (always run)."""

    def test_eviction_is_bounded(self):
        for seed in range(50):
            rng = random.Random(seed)
            keys = [rng.randrange(30) for __ in range(rng.randrange(60))]
            check_bounded_eviction(keys, rng.randrange(1, 9))

    def test_key_misses_beyond_twelve_digits(self):
        for seed in range(50):
            rng = random.Random(seed)
            values = [
                rng.uniform(-1e6, 1e6) or 1.0
                for __ in range(rng.randrange(1, 7))
            ]
            check_key_exactness(f"s{seed}", values)

    def test_counters_sum_to_lookups(self):
        for seed in range(50):
            rng = random.Random(seed)
            operations = [
                (rng.random() < 0.5, rng.randrange(20))
                for __ in range(rng.randrange(80))
            ]
            check_counter_sum(operations)


class TestCacheStatsUnits:
    def test_hit_rate_empty(self):
        assert CacheStats().hit_rate == 0.0

    def test_update_of_existing_key_does_not_evict(self):
        cache = LRU(2)
        key = tree_key("s", (1.0,))
        cache.put(key, 1.0)
        cache.put(key, 2.0)
        assert len(cache) == 1
        assert cache.stats.evictions == 0
        assert cache.get(key) == 2.0


class TestStoredNone:
    """The triage hull memo stores ``None`` verdicts: they must read as
    hits, never as misses that rebuild."""

    def test_get_tells_a_stored_none_from_a_miss(self):
        cache = LRU(2)
        missing = object()
        cache.put("k", None)
        assert cache.get("k", missing) is None
        assert cache.get("other", missing) is missing
        assert (cache.stats.hits, cache.stats.misses) == (1, 1)

    def test_get_or_build_builds_a_none_once(self):
        cache = LRU(2)
        builds = []
        for __ in range(3):
            assert cache.get_or_build("k", lambda: builds.append(1)) is None
        assert len(builds) == 1
        assert (cache.stats.hits, cache.stats.misses) == (2, 1)
