"""Materialized-view cache behaviour: sharing, bounds, GC, delta routing.

Differential contract (ISSUE acceptance): every cache-seeded run must be
bit-exact against a cache-off oracle server receiving the same requests
and deltas, with ``LMFAO_DEBUG=1`` arming the maintainer's internal
consistency checks. Lifecycle contract: entries respect the byte bound,
die with their snapshot version (no orphans — also asserted session-wide
by the conftest leak fixture), survive insert-only deltas in place, and
are invalidated exactly when their subtree is dirtied by anything else.
"""

import numpy as np
import pytest

from repro.core import EngineConfig, LMFAO
from repro.paper import FAVORITA_TREE
from repro.query import Aggregate, Op, Predicate, Query, QueryBatch
from repro.serve import AggregateServer, LRUCache
from repro.serve.fingerprint import view_identities
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
def test_insert_only_delta_keeps_cache_warm_in_place(
    cached_server, oracle_server, monkeypatch
):
    """Insert-only deltas must not cold-start the cache: clean-subtree
    entries are carried to the successor version, the dirtied leaf view is
    refreshed through the O(|delta|) numeric path, and a renamed request
    still skips every leaf group — bit-exact against the oracle server
    that replayed the same delta."""
    monkeypatch.setenv("LMFAO_DEBUG", "1")
    cached_server.run(_batch(("u1a", "u1b")))
    before = len(cached_server.view_cache)
    assert before > 0
    items = cached_server.engine.db.relation("Items")
    delta = {"Items": [items.row(0)]}
    version = cached_server.apply(inserts=delta)
    oracle_server.apply(inserts=delta)
    # every entry survived to the successor: carried (clean subtree) or
    # numerically refreshed (the Items view), none invalidated
    assert len(cached_server.view_cache.entries_at(version)) == before
    refreshed = [
        entry
        for _, entry in cached_server.view_cache.entries_at(version)
        if "Items" in entry.subtree
    ]
    assert refreshed, "the dirtied Items view must be refreshed, not dropped"
    warm = cached_server.run(_batch(("u2a", "u2b")))
    assert warm.snapshot_version == version
    assert warm.skipped_groups != ()
    assert _groups(warm) == _groups(oracle_server.run(_batch(("u2a", "u2b"))))


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


def test_delete_delta_invalidates_exactly_the_dirty_views(
    cached_server, oracle_server, monkeypatch
):
    """Deletes cannot be folded in place: entries whose subtree contains
    the deleted relation die, every other entry is carried — and the next
    request recomputes only the dirty subtree, bit-exactly."""
    monkeypatch.setenv("LMFAO_DEBUG", "1")
    cached_server.run(_batch(("u1a", "u1b")))
    old = cached_server.view_cache.entries_at(
        cached_server.engine.snapshot().version
    )
    dirty_before = [e for _, e in old if "Items" in e.subtree]
    clean_before = [e for _, e in old if "Items" not in e.subtree]
    assert dirty_before and clean_before
    items = cached_server.engine.db.relation("Items")
    delta = {"Items": [items.row(0)]}
    version = cached_server.apply(deletes=delta)
    oracle_server.apply(deletes=delta)
    after = cached_server.view_cache.entries_at(version)
    assert not any("Items" in e.subtree for _, e in after)
    assert len(after) == len(clean_before)
    warm = cached_server.run(_batch(("u2a", "u2b")))
    # the clean leaf groups still skip; the Items group re-runs
    assert warm.skipped_groups != ()
    assert not any("Items" in name for name in warm.skipped_groups)
    assert _groups(warm) == _groups(oracle_server.run(_batch(("u2a", "u2b"))))


def _leaf_filtered_batch(names, t):
    """Both queries filter on the *leaf* relation Items: the indicator
    lands in the Items views, so their contents depend on ``t``."""
    where = (Predicate("class", Op.LE, t),)
    return QueryBatch(
        [
            Query(names[0], group_by=("store",),
                  aggregates=(Aggregate.count(),), where=where),
            Query(names[1], group_by=("item",),
                  aggregates=(Aggregate.sum("units"),), where=where),
        ]
    )


def test_numeric_refresh_uses_rebound_indicator_constants(
    favorita_db, monkeypatch
):
    """An insert-only delta to a view's home relation after a plan-cache
    rebind: the refreshed entry must apply the indicator constants it was
    *materialized* with (the request's, not the cached compilation's),
    serve results equal to a cache-off oracle, and hold exactly the data
    a maintained handle computes for the same delta — both go through
    :func:`repro.incremental.rules.numeric_delta_run`."""
    monkeypatch.setenv("LMFAO_DEBUG", "1")
    items = favorita_db.relation("Items")
    classes = items.column("class")

    def row_of_class(value):
        return items.row(int(np.flatnonzero(classes == value)[0]))

    # class 2 passes both constants, class 3 only the re-bound one (a
    # refresh under the compiled constant would zero it), class 4 neither
    delta = {"Items": [row_of_class(2), row_of_class(3), row_of_class(4)]}
    names = ("qa", "qb")
    with AggregateServer(
        favorita_db, _config(), view_cache_bytes=32 * 1024 * 1024
    ) as cached, AggregateServer(
        favorita_db, _config(), view_cache_bytes=0
    ) as oracle, LMFAO(favorita_db, _config()) as engine:
        cached.run(_leaf_filtered_batch(names, 2.0))  # compiles class <= 2
        rebound = cached.run(_leaf_filtered_batch(names, 3.0))  # re-bound
        assert "compile" not in rebound.timings
        handle = engine.maintain(_leaf_filtered_batch(names, 3.0))

        version = cached.apply(inserts=delta)
        oracle.apply(inserts=delta)
        outcome = handle.apply(inserts=delta)
        assert outcome.groups_numeric > 0

        identities = view_identities(handle.compiled)
        refreshed = {
            entry.identity: entry.data
            for _, entry in cached.view_cache.entries_at(version)
            if entry.node == "Items"
        }
        maintained = {
            identities[name]: data
            for name, data in handle.view_store().items()
            if handle.compiled.view_plan.views[name].source == "Items"
        }
        shared = refreshed.keys() & maintained.keys()
        assert shared, "the re-bound Items view must be refreshed in place"
        for identity in shared:
            assert refreshed[identity] == maintained[identity]

        warm = cached.run(_leaf_filtered_batch(names, 3.0))
        assert warm.skipped_groups != ()
        assert _groups(warm) == _groups(
            oracle.run(_leaf_filtered_batch(names, 3.0))
        )


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


def test_lru_peek_does_not_touch_counters_or_recency():
    lru = LRUCache(max_weight=100)
    lru.put("a", 1, weight=10)
    lru.put("b", 2, weight=10)
    assert lru.peek("a") == 1
    assert lru.peek("missing") is None
    stats = lru.stats()
    assert stats.hits == 0 and stats.misses == 0
