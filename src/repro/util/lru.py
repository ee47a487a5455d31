"""Generic thread-safe LRU machinery: the one cache constructor.

Three caches are instances of :class:`LRUCache`, an ``OrderedDict`` in
LRU discipline under one lock, with hit/miss/eviction counters:

* the engine's group cache (:data:`repro.core.engine.GROUP_CACHE_ENTRIES`
  entries, each one group's plan and executable), entry-count bounded;
* the serving layer's structural plan cache
  (``AggregateServer.plan_cache``, ``BatchFingerprint → CompiledBatch``),
  entry-count bounded — compiled batches are pure structure, so neither
  cache's entries go stale and eviction only bounds memory;
* the materialized :class:`~repro.serve.viewcache.ViewCache`, byte
  bounded.

:class:`LRUCache` is bounded by **entry count** (``capacity``), by
**total weight** (``max_weight``, with a caller-supplied weight per
entry — bytes, for the view cache), or both. Hits refresh recency;
inserts evict from the cold end until both bounds hold.

All operations are O(1) under the lock except the bulk removals
(:meth:`LRUCache.remove_where`), which are O(entries) and exist for
version-wide invalidation.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable

from repro.util.errors import PlanError


@dataclass(frozen=True)
class CacheStats:
    """Counters of one LRU cache at a point in time.

    ``hits`` / ``misses`` count ``get`` outcomes, ``evictions`` counts
    entries dropped from the cold end on insert (bound enforcement only —
    explicit removals and version invalidations are not evictions);
    ``entries`` / ``capacity`` describe entry-count occupancy and
    ``weight`` / ``max_weight`` weighted occupancy (bytes, for the view
    cache; both 0/None for purely count-bounded caches).
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    entries: int = 0
    capacity: int = 0
    weight: int = 0
    max_weight: int | None = None

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when none yet)."""
        return self.hits / self.lookups if self.lookups else 0.0


class LRUCache:
    """Thread-safe LRU mapping with count and/or weight bounds.

    ``capacity`` bounds the number of entries (None = unbounded by
    count); ``max_weight`` bounds the sum of per-entry weights passed to
    :meth:`put` (None = unbounded by weight). At least one bound must be
    given. An entry heavier than ``max_weight`` on its own is admitted
    and immediately evicted — the bound always holds after ``put``.
    """

    def __init__(
        self, capacity: int | None = None, max_weight: int | None = None
    ) -> None:
        if capacity is None and max_weight is None:
            raise PlanError("LRUCache needs a capacity or a max_weight bound")
        if capacity is not None and (not isinstance(capacity, int) or capacity < 1):
            raise PlanError(
                f"LRUCache capacity must be an integer >= 1, got {capacity!r}"
            )
        if max_weight is not None and (
            not isinstance(max_weight, int) or max_weight < 0
        ):
            raise PlanError(
                f"LRUCache max_weight must be an integer >= 0, got {max_weight!r}"
            )
        self._capacity = capacity
        self._max_weight = max_weight
        self._entries: "OrderedDict[object, object]" = OrderedDict()
        self._weights: dict = {}
        self._weight = 0
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    @property
    def capacity(self) -> int | None:
        return self._capacity

    @property
    def max_weight(self) -> int | None:
        return self._max_weight

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key) -> bool:
        with self._lock:
            return key in self._entries

    def get(self, key):
        """The cached value, refreshed to most-recently-used; None on miss."""
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return value

    def put(self, key, value, weight: int = 0) -> None:
        """Insert (or refresh) an entry, evicting from the cold end if full.

        Racing puts of the same key are benign: the last write wins and
        both values remain individually valid (holders keep references).
        """
        with self._lock:
            self._weight -= self._weights.pop(key, 0)
            self._entries[key] = value
            self._entries.move_to_end(key)
            self._weights[key] = weight
            self._weight += weight
            while self._entries and (
                (self._capacity is not None and len(self._entries) > self._capacity)
                or (self._max_weight is not None and self._weight > self._max_weight)
            ):
                cold, _ = self._entries.popitem(last=False)
                self._weight -= self._weights.pop(cold, 0)
                self._evictions += 1

    def remove_where(self, predicate: Callable[[object], bool]) -> int:
        """Drop every entry whose key matches; returns how many (O(entries)).

        Exists for exact invalidation — dirty view keys, dead snapshot
        versions — and therefore does not count toward ``evictions``.
        """
        with self._lock:
            dead = [key for key in self._entries if predicate(key)]
            for key in dead:
                del self._entries[key]
                self._weight -= self._weights.pop(key, 0)
            return len(dead)

    def keys(self) -> list:
        """A point-in-time list of keys, coldest first (no recency effect)."""
        with self._lock:
            return list(self._entries)

    def items(self) -> list:
        """A point-in-time list of ``(key, value)`` pairs, coldest first."""
        with self._lock:
            return list(self._entries.items())

    def clear(self) -> None:
        """Drop every entry (stats counters are kept)."""
        with self._lock:
            self._entries.clear()
            self._weights.clear()
            self._weight = 0

    def stats(self) -> CacheStats:
        """A consistent point-in-time snapshot of the counters."""
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                entries=len(self._entries),
                capacity=self._capacity or 0,
                weight=self._weight,
                max_weight=self._max_weight,
            )
