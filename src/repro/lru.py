"""The one bounded memo of the evaluation stack, and its counters.

Every memo an evaluation goes through is an :class:`LRU`: the tree
cache of fitness values (Section III-D, held by
:class:`~repro.gp.fitness.GMRFitnessEvaluator` and sized by
``GMRConfig.tree_cache_size``), the process-global kernel table
(:data:`repro.expr.compile.KERNEL_CACHE`), the phenotype memo and its
fragment table (:mod:`repro.gp.phenotype`) and the static-triage hull
memo (:mod:`repro.lint.triage`).  Lookups refresh an entry's recency, so
the structures a search keeps revisiting stay resident while one-off
entries age out, and the capacity bounds memory over a long campaign.

This module imports nothing of :mod:`repro.expr` or :mod:`repro.gp`, so
both can import it.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Hashable

from repro.obs.metrics import MetricsRegistry, publish_fields

#: The default :meth:`LRU.get_or_build` looks up with: no stored value
#: is it, so a stored ``None`` is a hit.
_MISSING = object()


@dataclass
class CacheStats:
    """Hit/miss/eviction counters of an :class:`LRU`."""

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

    def publish(self, registry: MetricsRegistry, prefix: str) -> None:
        """Publish the counters into a :class:`repro.obs.MetricsRegistry`."""
        publish_fields(self, registry, prefix)


class LRU:
    """A map of at most ``max_entries`` entries that evicts the least
    recently used one.

    :meth:`get` counts a hit or a miss in :attr:`stats` and refreshes a
    hit's recency.  :meth:`put` of a new key at capacity evicts the
    least recently used entry and counts it in ``stats.evictions``;
    re-putting a present key replaces its value in place without
    refreshing its recency (only lookups count as use).  A stored
    ``None`` is a value like any other: :meth:`get` tells it from a miss
    by its ``default``, and :meth:`get_or_build` builds only on a miss.
    """

    def __init__(self, max_entries: int) -> None:
        if max_entries < 1:
            raise ValueError("LRU needs max_entries >= 1")
        self.max_entries = max_entries
        self.stats = CacheStats()
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Hashable, default: Any = None) -> Any:
        """The value stored under ``key``, or ``default`` on a miss."""
        value = self._entries.get(key, _MISSING)
        if value is _MISSING:
            self.stats.misses += 1
            return default
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return value

    def put(self, key: Hashable, value: Any) -> None:
        """Store ``value`` under ``key``, evicting the least recently
        used entry when a new key finds the map full."""
        entries = self._entries
        if key in entries:
            entries[key] = value
            return
        if len(entries) >= self.max_entries:
            entries.popitem(last=False)
            self.stats.evictions += 1
        entries[key] = value

    def get_or_build(self, key: Hashable, build: Callable[[], Any]) -> Any:
        """The value stored under ``key``, built and stored on a miss."""
        value = self.get(key, _MISSING)
        if value is _MISSING:
            value = build()
            self.put(key, value)
        return value

    def clear(self) -> None:
        """Drop every entry; the counters keep counting."""
        self._entries.clear()
