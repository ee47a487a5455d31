"""C backend: differential equality with the Python backend."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repro.core import EngineConfig, LMFAO, cbackend
from repro.core.cbackend import gcc_available, supports_plan
from repro.core.lowering import MODE_HASH, emission_mode
from repro.core.runtime import ArrayViewData
from repro.ml import covariance_batch
from repro.ml.features import favorita_features, retailer_features
from repro.paper import EXAMPLE_ROOTS, FAVORITA_TREE, example_queries
from repro.util.errors import CyclicSchemaError, PlanError

from tests.helpers import assert_results_equal, walk_all
from tests.strategies import instances

pytestmark = pytest.mark.skipif(not gcc_available(), reason="gcc not on PATH")


def _compare_backends(db, batch, **config):
    python_run = LMFAO(db, EngineConfig(**config)).run(batch)
    c_run = LMFAO(db, EngineConfig(backend="c", **config)).run(batch)
    for name in python_run.results:
        assert_results_equal(
            c_run.results[name], python_run.results[name], rel_tol=1e-9
        )
    return c_run


def test_paper_example_fully_native(favorita_db):
    run = _compare_backends(
        favorita_db,
        example_queries(),
        join_tree_edges=FAVORITA_TREE,
        root_override=EXAMPLE_ROOTS,
    )
    assert all(g.backend != "python" for g in run.compiled.executables)


def test_covariance_batch_native(favorita_db):
    batch = covariance_batch(favorita_features(favorita_db))
    run = _compare_backends(favorita_db, batch, join_tree_edges=FAVORITA_TREE)
    # carried-block plans (two-categorical queries) must also be native
    assert all(g.backend != "python" for g in run.compiled.executables)


def test_float_keys_fall_back_to_numpy(retailer_db):
    """Rk-means-style float group-bys compile to NumPy, never Python."""
    from repro.query import Aggregate, Query, QueryBatch

    batch = QueryBatch(
        [Query("hist", group_by=("prize",), aggregates=(Aggregate.count(),))]
    )
    run = _compare_backends(retailer_db, batch)
    backends = [decision["backend"] for decision in run.decisions.values()]
    assert set(backends) <= {"c", "numpy"}, backends
    assert "numpy" in backends, backends


def test_where_predicates_native(favorita_db):
    from repro.query import Aggregate, Op, Predicate, Query, QueryBatch

    batch = QueryBatch(
        [
            Query(
                "w",
                group_by=("store",),
                aggregates=(Aggregate.sum("units"),),
                where=(Predicate("promo", Op.EQ, 1.0),),
            )
        ]
    )
    _compare_backends(favorita_db, batch, join_tree_edges=FAVORITA_TREE)


def test_supports_plan_checks_kinds(favorita_db):
    engine = LMFAO(favorita_db, EngineConfig(join_tree_edges=FAVORITA_TREE))
    compiled = engine.compile(example_queries())
    kinds = {
        attr: favorita_db.schema.attribute_kind(attr).value
        for attr in favorita_db.schema.all_attributes
    }
    assert all(supports_plan(plan, kinds) for plan in compiled.plans)
    # degrade one kind: plans touching it must be rejected
    kinds["item"] = "continuous"
    assert not all(supports_plan(plan, kinds) for plan in compiled.plans)


def test_c_sources_kept_for_inspection(favorita_db):
    engine = LMFAO(
        favorita_db, EngineConfig(join_tree_edges=FAVORITA_TREE, backend="c")
    )
    compiled = engine.compile(example_queries())
    native = [g for g in compiled.executables if g.backend == "c"]
    assert native
    assert all("int32_t lmfao_run_g" in g.source for g in native)


def _tiny_first_tables(monkeypatch) -> tuple[list, list]:
    """Give every group's first attempt the smallest output tables (4 rows),
    so a hash emission with more keys overflows and is retried larger.
    Returns the overflowing groups' names and the ``(plan, outputs)`` of
    every attempt that succeeded."""
    real = cbackend.CCompiledGroup._attempt
    overflows, collected = [], []

    def spy(self, *args):
        *rest, boost = args
        outputs = real(self, *rest, boost / 2**30 if boost == 1 else boost)
        if outputs is None:
            overflows.append(self.plan.group_name)
        else:
            collected.append((self.plan, outputs))
        return outputs

    monkeypatch.setattr(cbackend.CCompiledGroup, "_attempt", spy)
    return overflows, collected


def test_hash_overflow_retry_keeps_dense_rows(favorita_db, monkeypatch):
    overflows, collected = _tiny_first_tables(monkeypatch)
    batch = covariance_batch(favorita_features(favorita_db))
    config = dict(
        join_tree_edges=FAVORITA_TREE, workers=1, partitions=1, executor="thread"
    )
    run = _compare_backends(favorita_db, batch, **config)
    assert all(g.backend != "python" for g in run.compiled.executables)
    assert overflows
    hashed = 0
    for plan, outputs in collected:
        for emission in plan.emissions:
            if emission_mode(emission) != MODE_HASH:
                continue
            hashed += 1
            data = outputs[emission.artifact]
            n = len(data.key_columns[0])
            matrix = data.value_matrix
            assert matrix.shape == (n, emission.width)
            assert matrix.base is None or matrix.base.nbytes == matrix.nbytes
    assert hashed


def _hash_outputs(db, batch, backend: str, **config) -> dict[str, ArrayViewData]:
    """Every hash emission's output of one sequential, unpartitioned walk."""
    engine = LMFAO(db, EngineConfig(
        backend=backend, executor="thread", workers=1, partitions=1, **config
    ))
    compiled = engine.compile(batch)
    run = walk_all(engine, compiled)
    stores = {**run.view_data, **run.query_raw}
    return {
        emission.artifact: stores[emission.artifact]
        for plan in compiled.plans
        for emission in plan.emissions
        if emission_mode(emission) == MODE_HASH
    }


def test_hash_rows_come_out_in_scan_order(favorita_db, monkeypatch):
    """A C hash emission's rows are its keys in first-seen trie-scan order
    (the order generated Python's dicts keep), byte for byte the same
    whatever size its first table had."""
    batch = covariance_batch(favorita_features(favorita_db))
    normal = _hash_outputs(favorita_db, batch, "c", join_tree_edges=FAVORITA_TREE)
    scanned = _hash_outputs(
        favorita_db, batch, "python", join_tree_edges=FAVORITA_TREE
    )
    overflows, _collected = _tiny_first_tables(monkeypatch)
    retried = _hash_outputs(favorita_db, batch, "c", join_tree_edges=FAVORITA_TREE)
    assert overflows
    assert normal and normal.keys() == retried.keys() == scanned.keys()
    for artifact, view in normal.items():
        again, python = retried[artifact], scanned[artifact]
        assert len(view.key_columns) == len(again.key_columns)
        for column, same, first_seen in zip(
            view.key_columns, again.key_columns, python.key_columns
        ):
            assert column.dtype == same.dtype
            assert column.tobytes() == same.tobytes()
            assert np.array_equal(column, first_seen), artifact
        assert view.value_matrix.tobytes() == again.value_matrix.tobytes()
        np.testing.assert_allclose(
            view.value_matrix, python.value_matrix, rtol=1e-9, atol=0.0
        )


@pytest.mark.parametrize("database", ["favorita_db", "retailer_db"])
def test_hash_tables_fit_their_keys_first_time(database, request, monkeypatch):
    """A hash emission's first table holds its key bound, so a group whose
    bounds are all under the cap never overflows; and every bound holds."""
    db = request.getfixturevalue(database)
    if database == "favorita_db":
        batch = covariance_batch(favorita_features(db))
        config = dict(join_tree_edges=FAVORITA_TREE)
    else:
        batch = covariance_batch(retailer_features(db))
        config = {}
    real = cbackend.CCompiledGroup._attempt
    attempts = []

    def spy(self, *args):
        outputs = real(self, *args)
        *_rest, bounds, boost = args
        attempts.append((self.plan, bounds, boost, outputs))
        return outputs

    monkeypatch.setattr(cbackend.CCompiledGroup, "_attempt", spy)
    LMFAO(db, EngineConfig(backend="c", executor="thread", **config)).run(batch)
    hashed = [attempt for attempt in attempts if attempt[1]]
    assert hashed
    for plan, bounds, boost, outputs in hashed:
        if max(bounds.values()) <= cbackend._KEY_CAP:
            assert boost == 1 and outputs is not None, plan.group_name
        if outputs is None:
            continue
        for index, bound in bounds.items():
            assert len(outputs[plan.emissions[index].artifact]) <= bound


@given(instance=instances())
@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_c_backend_matches_python_on_random_instances(instance):
    try:
        _compare_backends(instance.db, instance.batch)
    except CyclicSchemaError:
        pytest.skip("generated schema had a disconnected join graph")
