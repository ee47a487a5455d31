"""The correctness anchor: LMFAO == brute force on random instances.

Hypothesis generates tree-shaped databases and sum-product batches; the
engine (in several configurations, including every ablation) must agree
exactly with evaluation over the materialised join. A served grid pins
the result contract between the default backend and generated Python.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings

from repro.core import EngineConfig, LMFAO
from repro.query import OrderSpec, QueryBatch, parse_query
from repro.serve import AggregateServer
from repro.util.errors import CyclicSchemaError

from tests.helpers import assert_results_equal, oracle
from tests.strategies import instances

_SETTINGS = dict(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def _check(instance, config: EngineConfig) -> None:
    try:
        engine = LMFAO(instance.db, config)
    except CyclicSchemaError:
        pytest.skip("generated schema had a disconnected join graph")
    run = engine.run(instance.batch)
    join = instance.db.materialize_join()
    for query in instance.batch:
        assert_results_equal(run.results[query.name], oracle(join, query))


@given(instance=instances())
@settings(**_SETTINGS)
def test_engine_matches_oracle(instance):
    _check(instance, EngineConfig())


@given(instance=instances())
@settings(**_SETTINGS)
def test_engine_without_view_merging(instance):
    _check(instance, EngineConfig(merge_views=False))


@given(instance=instances())
@settings(**_SETTINGS)
def test_engine_without_multi_output(instance):
    _check(instance, EngineConfig(multi_output=False))


@given(instance=instances())
@settings(**_SETTINGS)
def test_engine_without_factorization(instance):
    _check(instance, EngineConfig(factorize=False))


@given(instance=instances())
@settings(**_SETTINGS)
def test_engine_single_root(instance):
    _check(instance, EngineConfig(single_root="auto"))


@given(instance=instances())
@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
def test_engine_all_optimisations_off(instance):
    _check(
        instance,
        EngineConfig(
            merge_views=False,
            multi_output=False,
            factorize=False,
            share_scan_terms=False,
            single_root="auto",
        ),
    )


# ------------------------------------------------- served result contract
def _served_batch(first: str, second: str, txns: float, price: float) -> QueryBatch:
    where = f"txns <= {txns} AND price <= {price}"
    board = parse_query(
        f"SELECT store, item, SUM(units) FROM D WHERE {where} GROUP BY store, item",
        "board",
    )
    return QueryBatch([
        parse_query(
            f"SELECT {first}, SUM(1), SUM(units), SUM(units*units) FROM D "
            f"WHERE {where} GROUP BY {first}",
            "first",
        ),
        parse_query(
            f"SELECT {second}, SUM(units) FROM D WHERE {where} GROUP BY {second}",
            "second",
        ),
        dataclasses.replace(
            board,
            order_by=OrderSpec(agg_index=0, descending=True, partition_by=("store",)),
            limit=3,
        ),
    ])


def test_default_server_matches_generated_python(favorita_db):
    """The default backend against ``backend="python"``, through servers.

    Unordered results are bags: equal as mappings, their row order is the
    backend's. Ordered results are ranked identically, row for row. The
    data is integer-valued, so the sums are bit-exact.
    """
    grid = [
        ("family", "city", 1500.0, 45.0),
        ("cluster", "perishable", 1200.0, 40.0),
        ("stype", "class", 1800.0, 50.0),
        ("family", "city", 1100.0, 38.0),  # a plan-cache hit, rebound
    ]
    with AggregateServer(favorita_db) as default, AggregateServer(
        favorita_db, EngineConfig(backend="python")
    ) as python:
        for params in grid:
            batch = _served_batch(*params)
            got = default.run(batch).results
            want = python.run(batch).results
            assert want["board"].groups, params
            for name in ("first", "second"):
                assert got[name].groups == want[name].groups, (params, name)
            assert got["board"].ranked() == want["board"].ranked(), params
