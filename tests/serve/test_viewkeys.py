"""Per-view identity semantics: what shares, what partitions, what leaks.

The contract under test (docs/serving.md §View cache): a view's cache
identity is its canonical subtree structure plus bound constants plus
execution profile — independent of the *batch* it was compiled in
(query names, sibling queries) and of every run-time scheduling knob
(``adaptive``, ``workers``, ``partitions``, decisions). Snapshot version
then partitions otherwise-equal identities into distinct cache keys.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings

from repro.core import EngineConfig, LMFAO
from repro.paper import FAVORITA_TREE
from repro.query import Aggregate, Op, Predicate, Query, QueryBatch
from repro.serve import ViewKey, bind_batch, view_identities

from tests.strategies import instances

_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def _compile(db, batch, **config_kwargs):
    engine = LMFAO(db, EngineConfig(**config_kwargs))
    return engine.compile(batch)


def _rename(batch: QueryBatch, suffix: str) -> QueryBatch:
    return QueryBatch(
        [
            Query(
                name=q.name + suffix,
                group_by=q.group_by,
                aggregates=q.aggregates,
                where=q.where,
            )
            for q in batch
        ]
    )


# ------------------------------------------------------- cross-batch sharing
@given(instances())
@_SETTINGS
def test_query_names_never_enter_view_identities(instance):
    """Distinct batch fingerprints, same work: renaming every query gives a
    different plan-cache key but the identical multiset of view identities
    — the property the cross-request cache's hit path rests on."""
    base = _compile(instance.db, instance.batch)
    renamed = _compile(instance.db, _rename(instance.batch, "_other"))
    ids_a = sorted(i.key for i in view_identities(base).values())
    ids_b = sorted(i.key for i in view_identities(renamed).values())
    assert ids_a == ids_b


@given(instances(max_queries=2))
@_SETTINGS
def test_adding_a_query_preserves_existing_subtree_identities(instance):
    """Overlapping-but-distinct batches share subtree keys: growing the
    batch with an unrelated count query keeps every identity the original
    compilation produced. The two *deliberately* batch-sensitive layers
    are pinned off: cross-query view merging (a merged view absorbs the
    new query's aggregates and so correctly gets a fresh identity — it
    computes different work) and multi-output grouping (a group absorbing
    the new query's views may re-order its shared scan, which correctly
    enters the execution profile — float accumulation order changes).
    With both off, every per-query view is batch-independent: root
    assignment is per-query and orders depend only on the view and data,
    so identities must survive batch growth verbatim."""
    base = _compile(
        instance.db, instance.batch, merge_views=False, multi_output=False
    )
    grown_batch = QueryBatch(
        list(instance.batch) + [Query(name="Qextra", aggregates=(Aggregate.count(),))]
    )
    grown = _compile(
        instance.db, grown_batch, merge_views=False, multi_output=False
    )
    base_ids = {i.key for i in view_identities(base).values()}
    grown_ids = {i.key for i in view_identities(grown).values()}
    missing = base_ids - grown_ids
    assert not missing


# ------------------------------------------------- constants partition keys
def _favorita_batch(t: float, names=("Q1", "Q2")) -> QueryBatch:
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


def test_root_local_rebinding_shares_every_subtree_identity(favorita_db):
    """``units`` lives on the Sales root, so its indicator never descends
    into subtree views: rebinding the threshold keeps all identities."""
    engine = LMFAO(favorita_db, EngineConfig(join_tree_edges=FAVORITA_TREE))
    cached = engine.compile(_favorita_batch(5.0))
    cold = view_identities(cached)
    warm = view_identities(bind_batch(cached, _favorita_batch(9.0)))
    assert cold == warm
    assert len(cold) >= 2


def test_subtree_predicate_rebinding_partitions_exactly_its_views(favorita_db):
    """A predicate over a non-root attribute pushes into the views above
    its home relation: rebinding it must change exactly the identities
    whose subtree contains that relation, and no others."""
    engine = LMFAO(favorita_db, EngineConfig(join_tree_edges=FAVORITA_TREE))

    def batch(t):
        return QueryBatch(
            [
                Query(
                    "Q1",
                    group_by=("store",),
                    aggregates=(Aggregate.count(),),
                    where=(Predicate("family", Op.LE, t),),
                ),
                Query(
                    "Q2",
                    group_by=("store",),
                    aggregates=(Aggregate.sum("units"),),
                ),
            ]
        )

    cached = engine.compile(batch(1.0))
    signatures = cached.view_plan.view_signatures()
    home = {
        name
        for name, q in cached.view_plan.views.items()
        if "Items" in signatures[name].subtree
    }
    cold = view_identities(cached)
    warm = view_identities(bind_batch(cached, batch(3.0)))
    changed = {name for name in cold if cold[name] != warm[name]}
    assert changed, "rebinding a pushed-down constant must move some keys"
    assert changed <= home, (
        f"rebinding leaked into views not above Items: {changed - home}"
    )


def test_snapshot_version_partitions_otherwise_equal_keys(favorita_db):
    engine = LMFAO(favorita_db, EngineConfig(join_tree_edges=FAVORITA_TREE))
    compiled = engine.compile(_favorita_batch(5.0))
    identity = next(iter(view_identities(compiled).values()))
    assert ViewKey(identity, 0) == ViewKey(identity, 0)
    assert ViewKey(identity, 0) != ViewKey(identity, 1)
    assert hash(ViewKey(identity, 0)) != hash(ViewKey(identity, 1))


# -------------------------------------------------- scheduling never leaks
@given(instances())
@_SETTINGS
def test_scheduling_knobs_never_leak_into_view_identities(instance):
    """adaptive / workers / partitions / parallel_threshold steer *how* a
    plan runs, never *what* it computes — identities must be invariant.
    (Backend choice legitimately enters the execution profile, because it
    changes float accumulation order; it is pinned here.)"""
    baseline = _compile(instance.db, instance.batch, backend="python")
    tuned = _compile(
        instance.db,
        instance.batch,
        backend="python",
        adaptive=False,
        workers=4,
        partitions=4,
        parallel_threshold=0,
    )
    assert view_identities(baseline) == view_identities(tuned)
