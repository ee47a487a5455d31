"""The correctness anchor: LMFAO == brute force on random instances.

Hypothesis generates tree-shaped databases and sum-product batches; the
engine (in several configurations, including every ablation) must agree
exactly with evaluation over the materialised join.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings

from repro.core import EngineConfig, LMFAO
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
