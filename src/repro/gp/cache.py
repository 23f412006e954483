"""Tree caching of fitness evaluations (Section III-D).

Evaluation results are cached keyed on the exact model structure plus
the exact parameter values, so re-evaluating an individual seen
before is a dictionary lookup.  The paper also simplifies trees before
keying them to lift the hit rate; here the key is the tree that is
compiled and interpreted, so a cached result is the one the individual
itself would compute (simplifying rewrites and commutative reordering can
change the last bits, or a NaN, of a result).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Hashable, Iterable, Sequence

from repro.obs.metrics import MetricsRegistry, merge_fields, publish_fields

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
        """Build a cache key from a structure key
        (:meth:`~repro.dynamics.system.ProcessModel.structure_key`, exact
        up to ``Ext`` markers) and the parameter values unrounded, so
        vectors that differ in any digit are different keys."""
        return (structure_key, tuple(params))

    def get(self, key: Hashable) -> float | None:
        """Look up a fitness; updates hit/miss statistics and recency."""
        value = self._entries.get(key)
        if value is None:
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return value

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
