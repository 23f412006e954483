"""Tree caching of fitness evaluations (Section III-D).

Evaluation results are cached keyed on the *canonical* model structure
plus the (rounded) parameter values, so re-evaluating an algebraically
identical individual is a dictionary lookup.  Canonicalising the structure
first -- the paper's "algebraically simplifying the trees before they are
evaluated" -- is what lifts the hit rate above exact-duplicate matching.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Hashable, Iterable, Sequence

from repro.obs.metrics import MetricsRegistry, merge_fields, publish_fields

#: Cache keys round parameter values to this many significant digits, so
#: float noise below evaluation precision does not fragment entries.
PARAM_KEY_DIGITS = 12


@dataclass
class CacheStats:
    """Hit/miss counters for a tree cache."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        if self.lookups == 0:
            return 0.0
        return self.hits / self.lookups

    def merge(self, other: "CacheStats") -> "CacheStats":
        """Counter-wise sum with ``other`` (fan-in of per-worker caches)."""
        return merge_fields(self, other)

    @classmethod
    def merge_all(cls, parts: "Iterable[CacheStats]") -> "CacheStats":
        """Merge any number of per-worker cache statistics."""
        total = cls()
        for part in parts:
            total = total.merge(part)
        return total

    def publish(
        self, registry: MetricsRegistry, prefix: str = "tree_cache"
    ) -> None:
        """Publish the counters into a :class:`repro.obs.MetricsRegistry`."""
        publish_fields(self, registry, prefix)


@dataclass
class TreeCache:
    """A bounded LRU cache from evaluation keys to fitness values.

    Lookups refresh an entry's recency, so over a long campaign the
    structures the search keeps revisiting stay resident while one-off
    evaluations age out; the capacity (``GMRConfig.tree_cache_size``
    when built by an evaluator) bounds memory instead of letting the
    cache grow for the whole run.  ``stats.evictions`` counts entries
    dropped at capacity.
    """

    max_entries: int = 200_000
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        if self.max_entries < 1:
            raise ValueError("TreeCache needs max_entries >= 1")
        self._entries: OrderedDict[Hashable, float] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    @staticmethod
    def make_key(structure_key: str, params: Sequence[float]) -> Hashable:
        """Build a cache key from a structure key and parameter values."""
        rounded = tuple(
            float(format(value, f".{PARAM_KEY_DIGITS}g")) for value in params
        )
        return (structure_key, rounded)

    def get(self, key: Hashable) -> float | None:
        """Look up a fitness; updates hit/miss statistics and recency."""
        value = self._entries.get(key)
        if value is None:
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return value

    def peek(self, key: Hashable) -> float | None:
        """Look up a fitness without touching statistics or recency.

        Used by batch planning to decide which cohort members need a
        simulation column; the authoritative (stats-counting) ``get``
        still happens later, in cohort order.
        """
        return self._entries.get(key)

    def put(self, key: Hashable, fitness: float) -> None:
        """Store a fitness, evicting the least recently used when full.

        Re-putting an existing key updates its value in place without
        refreshing recency (only lookups count as use).
        """
        if key in self._entries:
            self._entries[key] = fitness
            return
        if len(self._entries) >= self.max_entries:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
        self._entries[key] = fitness

    def clear(self) -> None:
        self._entries.clear()
