"""Materialized-view cache behaviour: sharing, bounds, GC, delta routing.

Differential contract (ISSUE acceptance): every cache-seeded run must be
bit-exact against a cache-off oracle server receiving the same requests
and deltas, with ``LMFAO_DEBUG=1`` arming the engine's run-consistency
checks. Lifecycle contract: entries respect the byte bound,
die with their snapshot version (no orphans — also asserted session-wide
by the conftest leak fixture), and a commit carries an entry to the
successor exactly when its delta leaves the entry's subtree untouched.
"""

import pytest

from repro.core import EngineConfig
from repro.paper import FAVORITA_TREE
from repro.query import Aggregate, Op, Predicate, Query, QueryBatch
from repro.serve import AggregateServer, LRUCache
from repro.util.errors import PlanError


def _batch(names=("q_stores", "q_items"), t=5.0):
    """Two group-by queries with a root-local (Sales) predicate: every
    leaf-relation view is constant-free, so rebinding and renaming both
    keep all subtree identities."""
    return QueryBatch(
        [
            Query(
                names[0],
                group_by=("store",),
                aggregates=(Aggregate.count(),),
                where=(Predicate("units", Op.LE, t),),
            ),
            Query(
                names[1],
                group_by=("item",),
                aggregates=(Aggregate.sum("units"),),
                where=(Predicate("units", Op.LE, t),),
            ),
        ]
    )


def _groups(run):
    return {name: result.groups for name, result in run.results.items()}


def _config():
    return EngineConfig(join_tree_edges=FAVORITA_TREE)


@pytest.fixture()
def oracle_server(favorita_db):
    """The cache-off differential oracle (explicit bytes beat any
    LMFAO_TEST_VIEWCACHE override)."""
    with AggregateServer(favorita_db, _config(), view_cache_bytes=0) as server:
        yield server


@pytest.fixture()
def cached_server(favorita_db):
    with AggregateServer(
        favorita_db, _config(), view_cache_bytes=32 * 1024 * 1024
    ) as server:
        yield server


# ------------------------------------------------------------ seeding + hits
def test_cross_fingerprint_requests_share_views(
    cached_server, oracle_server, monkeypatch
):
    """A plan-cache *miss* can still be a view-cache *hit*: renamed queries
    change the batch fingerprint but not the subtree view identities, so
    the second request skips every leaf group and stays bit-exact."""
    monkeypatch.setenv("LMFAO_DEBUG", "1")
    cold = cached_server.run(_batch(("u1a", "u1b")))
    assert cold.skipped_groups == ()
    warm = cached_server.run(_batch(("u2a", "u2b")))
    assert warm.skipped_groups != ()
    assert "compile" in warm.timings  # renamed → genuinely a plan-cache miss
    oracle = oracle_server.run(_batch(("u2a", "u2b")))
    assert _groups(warm) == _groups(oracle)
    stats = cached_server.stats()
    assert stats.view_cache is not None
    assert stats.view_cache.hits > 0
    assert stats.plan_cache.hits == 0  # sharing happened below the plan cache


def test_same_fingerprint_warm_run_skips_all_view_groups(cached_server):
    cached_server.run(_batch())
    warm = cached_server.run(_batch())
    assert "compile" not in warm.timings
    assert warm.skipped_groups != ()
    # every skipped group is absent from per-group accounting
    for name in warm.skipped_groups:
        assert name not in warm.group_times


def test_rebound_constants_still_hit_subtree_views(cached_server, oracle_server):
    """The root-local predicate keeps leaf views constant-free: a new
    threshold rebinds the plan *and* still seeds from the cache."""
    cached_server.run(_batch(t=5.0))
    warm = cached_server.run(_batch(t=9.0))
    assert warm.skipped_groups != ()
    assert _groups(warm) == _groups(oracle_server.run(_batch(t=9.0)))


def test_disabled_cache_never_seeds(favorita_db):
    with AggregateServer(favorita_db, _config(), view_cache_bytes=0) as server:
        server.run(_batch())
        warm = server.run(_batch())
        assert warm.skipped_groups == ()
        assert server.stats().view_cache is None
        assert "views=off" in repr(server)


def test_invalid_view_cache_bytes_rejected(favorita_db):
    with pytest.raises(PlanError, match="view_cache_bytes"):
        AggregateServer(favorita_db, _config(), view_cache_bytes=-1)
    with pytest.raises(PlanError, match="view_cache_bytes"):
        AggregateServer(favorita_db, _config(), view_cache_bytes="lots")


# ----------------------------------------------------------------- byte bound
def test_byte_bound_holds_and_evicts_cold_entries(favorita_db):
    with AggregateServer(
        favorita_db, _config(), view_cache_bytes=4096
    ) as server:
        for group_by in [("store",), ("item",), ("family",), ("class",)]:
            server.run(
                QueryBatch(
                    [Query("q", group_by=group_by, aggregates=(Aggregate.count(),))]
                )
            )
            stats = server.stats().view_cache
            assert stats.weight <= stats.max_weight == 4096
        assert server.stats().view_cache.evictions > 0


# ------------------------------------------------------------- delta routing
def test_root_relation_delta_dirties_no_leaf_views(
    cached_server, oracle_server, monkeypatch
):
    """Sales is the join-tree root: its tuples feed no leaf-relation view,
    so a Sales-only delta carries the whole cache forward untouched."""
    monkeypatch.setenv("LMFAO_DEBUG", "1")
    cached_server.run(_batch(("u1a", "u1b")))
    before = len(cached_server.view_cache)
    sales = cached_server.engine.db.relation("Sales")
    delta = {"Sales": [sales.row(0), sales.row(1)]}
    version = cached_server.apply(inserts=delta)
    oracle_server.apply(inserts=delta)
    assert len(cached_server.view_cache.entries_at(version)) == before
    warm = cached_server.run(_batch(("u2a", "u2b")))
    assert warm.skipped_groups != ()
    assert _groups(warm) == _groups(oracle_server.run(_batch(("u2a", "u2b"))))


@pytest.mark.parametrize("kind", ["deletes", "inserts"])
def test_delete_delta_invalidates_exactly_the_dirty_views(
    kind, cached_server, oracle_server, monkeypatch
):
    """A commit carries or drops, whatever the delta: entries whose subtree
    contains the changed relation die (an insert-only delta is no
    exception), every other entry is carried as the same data object —
    and the next request recomputes only the dirty subtree, bit-exactly."""
    monkeypatch.setenv("LMFAO_DEBUG", "1")
    cached_server.run(_batch(("u1a", "u1b")))
    old = cached_server.view_cache.entries_at(
        cached_server.engine.snapshot().version
    )
    dirty_before = [e for _, e in old if "Items" in e.subtree]
    clean_before = [e for _, e in old if "Items" not in e.subtree]
    assert dirty_before and clean_before
    items = cached_server.engine.db.relation("Items")
    delta = {kind: {"Items": [items.row(0)]}}
    version = cached_server.apply(**delta)
    oracle_server.apply(**delta)
    after = [e for _, e in cached_server.view_cache.entries_at(version)]
    assert not any("Items" in e.subtree for e in after)
    carried = {e.identity: e.data for e in after}
    assert len(carried) == len(clean_before)
    for entry in clean_before:
        assert carried[entry.identity] is entry.data
    warm = cached_server.run(_batch(("u2a", "u2b")))
    # the clean leaf groups still skip; the Items group re-runs
    assert warm.skipped_groups != ()
    assert not any("Items" in name for name in warm.skipped_groups)
    assert _groups(warm) == _groups(oracle_server.run(_batch(("u2a", "u2b"))))


# ------------------------------------------------------------------ lifetime
def test_entries_die_with_their_snapshot_version(cached_server):
    """No cached view outlives its unpinned version: once a successor is
    installed and the predecessor loses its last pin, the reclaim hook
    drops every entry keyed at it."""
    cached_server.run(_batch())
    sales = cached_server.engine.db.relation("Sales")
    version = cached_server.apply(inserts={"Sales": [sales.row(0)]})
    # version 0 is superseded and unpinned: only the successor's entries
    # may remain, and the no-orphans invariant holds
    assert cached_server.view_cache.versions() <= {version}
    cached_server.view_cache.check_no_orphans()


def test_close_unhooks_the_cache(favorita_db):
    server = AggregateServer(
        favorita_db, _config(), view_cache_bytes=32 * 1024 * 1024
    )
    server.run(_batch())
    store = server.engine._snapshots
    hook = server._view_reclaim_hook
    assert hook is not None
    server.close()
    assert server._view_reclaim_hook is None
    # removing twice is a no-op, not an error
    store.remove_reclaim_hook(hook)


# ----------------------------------------------------- LRU weight-mode unit
def test_lru_weight_mode_evicts_cold_until_under_bound():
    lru = LRUCache(max_weight=100)
    lru.put("a", 1, weight=40)
    lru.put("b", 2, weight=40)
    assert lru.get("a") == 1  # refresh a: b is now coldest
    lru.put("c", 3, weight=40)
    assert "b" not in lru and "a" in lru and "c" in lru
    assert lru.stats().weight == 80
    assert lru.stats().evictions == 1


def test_lru_weight_mode_oversized_entry_cannot_break_the_bound():
    lru = LRUCache(max_weight=100)
    lru.put("a", 1, weight=60)
    lru.put("big", 2, weight=500)
    assert lru.stats().weight <= 100


def test_lru_remove_where_is_not_an_eviction():
    lru = LRUCache(max_weight=100)
    lru.put(("k", 0), 1, weight=10)
    lru.put(("k", 1), 2, weight=10)
    removed = lru.remove_where(lambda key: key[1] == 0)
    assert removed == 1
    assert lru.stats().evictions == 0
    assert lru.stats().weight == 10
