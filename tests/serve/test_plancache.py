"""The plan cache's semantics: an entry-bounded ``LRUCache``.

``AggregateServer.plan_cache`` is ``LRUCache(capacity=...)``; these are the
count-bound cases the weight-bound LRU tests in ``test_viewcache.py`` do
not cover: hit/miss counters, count eviction, overwrites, ``clear`` and
capacity validation."""

import pytest

from repro.serve import LRUCache
from repro.serve.fingerprint import BatchFingerprint
from repro.util.errors import PlanError


def _fp(tag):
    return BatchFingerprint(key=("test", tag))


def test_get_put_and_counters():
    cache = LRUCache(capacity=4)
    assert cache.get(_fp(1)) is None  # miss
    cache.put(_fp(1), "compiled-1")
    assert cache.get(_fp(1)) == "compiled-1"  # hit
    stats = cache.stats()
    assert (stats.hits, stats.misses, stats.evictions) == (1, 1, 0)
    assert stats.entries == 1 and stats.capacity == 4
    assert stats.lookups == 2 and stats.hit_rate == 0.5


def test_lru_eviction_drops_the_coldest_entry():
    cache = LRUCache(capacity=2)
    cache.put(_fp("a"), "A")
    cache.put(_fp("b"), "B")
    assert cache.get(_fp("a")) == "A"  # refresh a → b is now coldest
    cache.put(_fp("c"), "C")  # evicts b
    assert cache.get(_fp("b")) is None
    assert cache.get(_fp("a")) == "A"
    assert cache.get(_fp("c")) == "C"
    stats = cache.stats()
    assert stats.evictions == 1
    assert stats.entries == 2
    assert len(cache) == 2


def test_put_refreshes_recency_and_overwrites():
    cache = LRUCache(capacity=2)
    cache.put(_fp("a"), "A")
    cache.put(_fp("b"), "B")
    cache.put(_fp("a"), "A2")  # overwrite refreshes a → b coldest
    cache.put(_fp("c"), "C")
    assert cache.get(_fp("a")) == "A2"
    assert cache.get(_fp("b")) is None
    assert _fp("c") in cache and _fp("b") not in cache


def test_hit_rate_zero_before_any_lookup():
    assert LRUCache(capacity=32).stats().hit_rate == 0.0


def test_clear_keeps_counters():
    cache = LRUCache(capacity=2)
    cache.put(_fp("a"), "A")
    cache.get(_fp("a"))
    cache.clear()
    assert len(cache) == 0
    assert cache.get(_fp("a")) is None
    stats = cache.stats()
    assert stats.hits == 1 and stats.misses == 1


def test_capacity_validated():
    with pytest.raises(PlanError, match="capacity"):
        LRUCache(capacity=0)
