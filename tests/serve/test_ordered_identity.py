"""Ordering in the serving identities: fingerprints, bind, view cache.

``order_by``/``limit`` change no plan, no generated source and no view's
contents: an ordered query runs the same compiled groups as its
unordered twin and is ranked once, by the result finisher
(:func:`repro.core.engine._to_query_result`), from the request's own
query. So ordering is *not* structure: batches differing only in it
share one fingerprint (one compilation in the plan cache) and one set of
view identities (one set of cached views), and ``bind_batch`` binds any
ordering onto a cached compilation. Ordering is part of the *request*
identity only, which keeps in-flight coalescing from handing one
request's ranking to another. Every case is checked bit-exactly — rank
and tie order included — against a cache-off oracle server.
"""

from __future__ import annotations

import threading

from repro.core import EngineConfig, LMFAO
from repro.paper import FAVORITA_TREE
from repro.query import Aggregate, OrderSpec, Query, QueryBatch
from repro.serve import AggregateServer
from repro.serve.fingerprint import batch_fingerprint, view_identities


def _config():
    return EngineConfig(join_tree_edges=FAVORITA_TREE)


def _batch(names=("q_stores", "q_items"), order=None, limit=None, ordered=0):
    """Two favorita group-bys; ``order``/``limit`` applied to query
    ``ordered`` (the first by default; the second has the more groups)."""
    orders = [(None, None), (None, None)]
    orders[ordered] = (order, limit)
    return QueryBatch(
        [
            Query(
                names[0],
                group_by=("store",),
                aggregates=(Aggregate.count(),),
                order_by=orders[0][0],
                limit=orders[0][1],
            ),
            Query(
                names[1],
                group_by=("item",),
                aggregates=(Aggregate.sum("units"),),
                order_by=orders[1][0],
                limit=orders[1][1],
            ),
        ]
    )


def _groups_ordered(run):
    return {
        name: list(result.groups.items()) for name, result in run.results.items()
    }


#: one structure, five orderings of its item query
_VARIANTS = {
    "plain": {},
    "top3": {"order": OrderSpec(descending=True), "limit": 3},
    "top5": {"order": OrderSpec(descending=True), "limit": 5},
    "bottom3": {"order": OrderSpec(descending=False), "limit": 3},
    "ranked": {"order": OrderSpec(descending=True)},
}


def _variant(name):
    return _batch(ordered=1, **_VARIANTS[name])


def _servers(favorita_db):
    return (
        AggregateServer(favorita_db, _config(), view_cache_bytes=32 * 1024 * 1024),
        AggregateServer(favorita_db, _config(), view_cache_bytes=0),
    )


def test_orderings_share_one_fingerprint_and_one_set_of_views(favorita_db):
    engine = LMFAO(favorita_db, _config())
    keys = {
        name: batch_fingerprint(_variant(name), engine.tree, engine.config)
        for name in _VARIANTS
    }
    assert len({fingerprint for fingerprint, _ in keys.values()}) == 1
    # the request identity still tells every ordering apart
    assert len({request for _, request in keys.values()}) == len(_VARIANTS)
    # independent compiles (fresh engines, no shared group cache) build
    # equal plans and name every view alike
    compiles = {
        name: LMFAO(favorita_db, _config()).compile(_variant(name))
        for name in _VARIANTS
    }
    plain = compiles["plain"]
    for compiled in compiles.values():
        assert compiled.plans == plain.plans
        assert view_identities(compiled) == view_identities(plain)

    cached, oracle = _servers(favorita_db)
    with cached, oracle:
        for name in _VARIANTS:
            run = cached.run(_variant(name))
            assert _groups_ordered(run) == _groups_ordered(
                oracle.run(_variant(name))
            ), name
        stats = cached.stats()
        assert (stats.plan_cache.misses, stats.plan_cache.hits) == (
            1, len(_VARIANTS) - 1
        )


def test_a_larger_limit_bound_onto_a_cached_smaller_one_ranks_by_its_own(
    favorita_db,
):
    cached, oracle = _servers(favorita_db)
    with cached, oracle:
        cold = cached.run(_variant("top3"))
        warm = cached.run(_variant("top5"))
        assert "compile" not in warm.timings
        assert warm.compiled.plans is cold.compiled.plans
        assert warm.compiled.batch.query("q_items").limit == 5
        assert len(cold["q_items"].groups) == 3
        assert len(warm["q_items"].groups) == 5
        assert _groups_ordered(warm) == _groups_ordered(oracle.run(_variant("top5")))
        assert _groups_ordered(cold) == _groups_ordered(oracle.run(_variant("top3")))


def test_an_ordered_request_is_seeded_by_its_unordered_twin(favorita_db):
    cached, oracle = _servers(favorita_db)
    with cached, oracle:
        cached.run(_variant("plain"))
        for name in ("top3", "ranked"):
            ordered = cached.run(_variant(name))
            assert ordered.skipped_groups != ()
            assert _groups_ordered(ordered) == _groups_ordered(
                oracle.run(_variant(name))
            ), name


def test_cache_seeded_ordered_runs_bit_exact(favorita_db, monkeypatch):
    monkeypatch.setenv("LMFAO_DEBUG", "1")
    batch = _batch(order=OrderSpec(descending=True), limit=3)
    with AggregateServer(
        favorita_db, _config(), view_cache_bytes=32 * 1024 * 1024
    ) as cached, AggregateServer(
        favorita_db, _config(), view_cache_bytes=0
    ) as oracle:
        cold = cached.run(batch)
        assert cold.skipped_groups == ()
        warm = cached.run(batch)
        assert warm.skipped_groups != ()  # seeded below the ordered root
        want = _groups_ordered(oracle.run(batch))
        assert _groups_ordered(cold) == want
        assert _groups_ordered(warm) == want
        # ordered queries are never themselves seeded: their producer
        # executes (and records a decision) even when warm
        compiled = warm.compiled
        producer = compiled.group_plan.groups[compiled.producers["q_stores"]]
        assert producer.name in warm.decisions
        assert producer.name not in warm.skipped_groups


def test_inflight_requests_differing_only_in_limit_never_coalesce(favorita_db):
    cached, oracle = _servers(favorita_db)
    with cached, oracle:
        gate = threading.Event()
        real = cached._execute_pinned

        def gated(*args, **kwargs):
            gate.wait(timeout=60)
            return real(*args, **kwargs)

        cached._execute_pinned = gated
        try:
            top3 = cached.submit(_variant("top3"))
            top5 = cached.submit(_variant("top5"))
            top3_again = cached.submit(_variant("top3"))
        finally:
            gate.set()
        assert top3 is not top5
        assert top3_again is top3
        for name, future in (("top3", top3), ("top5", top5)):
            run = future.result(timeout=60)
            assert run.compiled.batch.query("q_items") == _variant(name).query(
                "q_items"
            )
            assert _groups_ordered(run) == _groups_ordered(
                oracle.run(_variant(name))
            ), name
        stats = cached.stats()
        assert (stats.submitted, stats.coalesced) == (2, 1)
