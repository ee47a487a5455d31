"""Ordering in the serving identities: fingerprints, bind, view cache.

A top-k result *contains different rows* than its unordered twin, so
order specs are literal structure everywhere identity is decided:
batches differing only in ``order_by``/``limit`` must fingerprint apart
(no plan-cache sharing), ``bind_batch`` must refuse to rebind across an
order divergence, and the views feeding an ordered query must carry the
order profile in their :class:`ViewIdentity` (no view-cache sharing with
unordered or different-k requests) — while purely unordered batches keep
byte-identical signatures, so nothing previously cacheable got split.
Cache-seeded ordered runs must stay bit-exact against a cache-off oracle
server, rank and tie order included.
"""

from __future__ import annotations

import pytest

from repro.core import EngineConfig, LMFAO
from repro.paper import FAVORITA_TREE
from repro.query import Aggregate, OrderSpec, Query, QueryBatch
from repro.serve import AggregateServer
from repro.serve.fingerprint import batch_fingerprint, bind_batch, view_identities
from repro.util.errors import PlanError


def _config():
    return EngineConfig(join_tree_edges=FAVORITA_TREE)


def _batch(names=("q_stores", "q_items"), order=None, limit=None):
    """Two favorita group-bys; ``order``/``limit`` applied to the first."""
    return QueryBatch(
        [
            Query(
                names[0],
                group_by=("store",),
                aggregates=(Aggregate.count(),),
                order_by=order,
                limit=limit,
            ),
            Query(
                names[1],
                group_by=("item",),
                aggregates=(Aggregate.sum("units"),),
            ),
        ]
    )


def _groups_ordered(run):
    return {
        name: list(result.groups.items()) for name, result in run.results.items()
    }


def test_order_spec_is_literal_fingerprint_structure(favorita_db):
    engine = LMFAO(favorita_db, _config())
    tree, config = engine.tree, engine.config
    plain, _ = batch_fingerprint(_batch(), tree, config)
    ordered, _ = batch_fingerprint(
        _batch(order=OrderSpec(descending=True), limit=3), tree, config
    )
    ordered_again, _ = batch_fingerprint(
        _batch(order=OrderSpec(descending=True), limit=3), tree, config
    )
    other_k, _ = batch_fingerprint(
        _batch(order=OrderSpec(descending=True), limit=5), tree, config
    )
    other_dir, _ = batch_fingerprint(
        _batch(order=OrderSpec(descending=False), limit=3), tree, config
    )
    unlimited, _ = batch_fingerprint(
        _batch(order=OrderSpec(descending=True)), tree, config
    )
    assert ordered == ordered_again
    assert len({plain, ordered, other_k, other_dir, unlimited}) == 5


def test_bind_batch_refuses_order_divergence(favorita_db):
    engine = LMFAO(favorita_db, _config())
    compiled = engine.compile(_batch(order=OrderSpec(descending=True), limit=3))
    # same order: binds fine
    bind_batch(compiled, _batch(order=OrderSpec(descending=True), limit=3))
    with pytest.raises(PlanError, match="diverged structurally"):
        bind_batch(compiled, _batch(order=OrderSpec(descending=True), limit=5))
    with pytest.raises(PlanError, match="diverged structurally"):
        bind_batch(compiled, _batch())


def test_view_identities_carry_the_order_profile(favorita_db):
    engine = LMFAO(favorita_db, _config())
    plain = view_identities(engine.compile(_batch()))
    plain_again = view_identities(engine.compile(_batch()))
    ordered = view_identities(
        engine.compile(_batch(order=OrderSpec(descending=True), limit=3))
    )
    other_k = view_identities(
        engine.compile(_batch(order=OrderSpec(descending=True), limit=5))
    )
    # unordered signatures are untouched: recompiling yields the same keys
    assert plain == plain_again
    assert set(plain) == set(ordered) == set(other_k)
    # at least the ordered query's feeding views split from the plain and
    # from the different-k identities
    assert any(plain[name] != ordered[name] for name in plain)
    assert any(ordered[name] != other_k[name] for name in ordered)
    # q_items is untouched by q_stores' order spec only where its subtree
    # is disjoint; identity never *collides* across specs anywhere
    for name in plain:
        if ordered[name] != plain[name]:
            assert ordered[name] != other_k[name]


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


def test_ordered_and_unordered_requests_never_share_views(favorita_db):
    with AggregateServer(
        favorita_db, _config(), view_cache_bytes=32 * 1024 * 1024
    ) as server:
        server.run(_batch())
        ordered = server.run(_batch(order=OrderSpec(descending=True), limit=3))
        # nothing seeded: every identity differs from the unordered run's
        assert ordered.skipped_groups == ()
