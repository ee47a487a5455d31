"""The engine's group cache: a repeated group is planned once per engine.

:meth:`repro.core.engine.LMFAO.compile` keys each group on its exact
structural content (:func:`repro.core.engine._group_key`) and reuses the
cached plan and executable on a hit. These tests pin what a hit must
equal — a fresh :func:`~repro.core.decompose.decompose_group` of the same
group and order, and a fresh engine's compile after a commit reorders a
group — and that the cache stays within
:data:`~repro.core.engine.GROUP_CACHE_ENTRIES` under never-repeating
constants.
"""

from __future__ import annotations

import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repro.core import EngineConfig, LMFAO
from repro.core.decompose import decompose_group
from repro.core.engine import GROUP_CACHE_ENTRIES
from repro.data import Attribute, Relation, RelationSchema
from repro.data.catalog import Database
from repro.incremental import normalize_deltas
from repro.query import Aggregate, Query, QueryBatch
from repro.query.predicates import Op, Predicate
from repro.util.errors import CyclicSchemaError, PlanError

from tests.strategies import instances


def _assert_fresh(engine: LMFAO, compiled) -> None:
    """Every plan of ``compiled`` equals a fresh decomposition, and each
    executable runs its own plan."""
    for group, order, plan, executable in zip(
        compiled.group_plan.groups, compiled.orders, compiled.plans,
        compiled.executables,
    ):
        assert plan == decompose_group(
            group, order, factorize=engine.config.factorize
        )
        assert executable.plan is plan


@given(instance=instances())
@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_hits_equal_a_fresh_decomposition(instance):
    try:
        engine = LMFAO(instance.db, EngineConfig())
    except CyclicSchemaError:
        pytest.skip("generated schema had a disconnected join graph")
    first = engine.compile(instance.batch)
    _assert_fresh(engine, first)
    # the same batch again: every group hits, and shares the first's
    # plan and executable objects
    again = engine.compile(instance.batch)
    _assert_fresh(engine, again)
    assert engine._group_cache.stats().hits >= again.num_groups > 0
    assert all(a is b for a, b in zip(again.plans, first.plans))
    assert all(a is b for a, b in zip(again.executables, first.executables))
    # batches sharing subtrees with it: any hit still equals a fresh plan
    queries = list(instance.batch)
    for part in (queries[:1], queries[::-1]):
        _assert_fresh(engine, engine.compile(QueryBatch(part)))


_C = Attribute.categorical
_F = Attribute.continuous


def _reorder_db() -> Database:
    sales = Relation(
        RelationSchema("S", (_C("a"), _C("b"), _F("x"))),
        {
            "a": [0, 1, 2, 0, 1, 2],
            "b": [0, 1, 2, 3, 4, 5],
            "x": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
        },
    )
    return Database([sales], name="reorder")


def _reorder_batch() -> QueryBatch:
    return QueryBatch([
        Query("q", group_by=("a", "b"), aggregates=(
            Aggregate.count(), Aggregate.sum("x"),
        )),
    ])


def test_a_commit_that_reorders_a_group_recompiles_it():
    # a and b tie on use, so the larger domain leads; the commit grows a
    # past b, which reorders the group over S
    engine = LMFAO(_reorder_db())
    before = engine.compile(_reorder_batch())
    rows = 20
    engine.commit(normalize_deltas(engine.db, {"S": {
        "a": np.arange(10, 10 + rows), "b": np.zeros(rows, dtype=np.int64),
        "x": np.ones(rows),
    }}, None))
    after = engine.compile(_reorder_batch())
    fresh = LMFAO(engine.db).compile(_reorder_batch())
    assert after.plans == fresh.plans
    assert [o.relation_levels for o in after.orders] == [
        o.relation_levels for o in fresh.orders
    ]
    assert [p.order for p in after.plans] != [p.order for p in before.plans]
    _assert_fresh(engine, after)
    # and the reordered plans execute to the fresh engine's results
    got = engine.execute(after).results["q"].groups
    assert got == LMFAO(engine.db).execute(fresh).results["q"].groups


def test_never_repeating_constants_stay_within_the_bound():
    engine = LMFAO(_reorder_db())
    cache = engine._group_cache
    for constant in range(2000):
        engine.compile(QueryBatch([
            Query(
                "q", group_by=("a",), aggregates=(Aggregate.sum("x"),),
                where=(Predicate("x", Op.LE, float(constant)),),
            ),
        ]))
        assert len(cache) <= GROUP_CACHE_ENTRIES
    stats = cache.stats()
    assert stats.entries == GROUP_CACHE_ENTRIES
    assert stats.evictions == stats.misses - GROUP_CACHE_ENTRIES > 0


def test_debug_checks_every_hit(monkeypatch):
    # under LMFAO_DEBUG a hit is decomposed again: a cached plan that no
    # longer matches its group is refused
    monkeypatch.setenv("LMFAO_DEBUG", "1")
    engine = LMFAO(_reorder_db())
    engine.compile(_reorder_batch())
    (key,) = engine._group_cache.keys()
    plan, executable = engine._group_cache.get(key)
    engine._group_cache.put(key, (replace(plan, row_products=()), executable))
    with pytest.raises(PlanError, match="group cache hit"):
        engine.compile(_reorder_batch())


def test_pool_threads_share_one_cache(favorita_db):
    # eight threads compile overlapping batches on one engine, as the
    # server's pool does: every plan still equals a fresh decomposition,
    # every run equals a sequential engine's, and the cache holds each
    # group shape once
    from repro.paper import FAVORITA_TREE, example_queries

    config = EngineConfig(join_tree_edges=FAVORITA_TREE)
    batches = [example_queries(), QueryBatch(list(example_queries())[:2])]
    expected = [LMFAO(favorita_db, config).run(b).results for b in batches]
    engine = LMFAO(favorita_db, config)
    errors: list = []
    barrier = threading.Barrier(8, timeout=30)

    def compile_and_run(slot: int) -> None:
        try:
            barrier.wait()
            for round_ in range(5):
                which = (slot + round_) % len(batches)
                compiled = engine.compile(batches[which])
                _assert_fresh(engine, compiled)
                got = engine.execute(compiled).results
                for name, want in expected[which].items():
                    assert dict(got[name].groups) == dict(want.groups)
        except Exception as error:  # reported by the main thread
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [
            threading.Thread(target=compile_and_run, args=(slot,))
            for slot in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    fresh = LMFAO(favorita_db, config)
    for batch in batches:
        fresh.compile(batch)
    assert set(engine._group_cache.keys()) == set(fresh._group_cache.keys())
