"""C backend: differential equality with the Python backend."""

import pytest
from hypothesis import HealthCheck, given, settings

from repro.core import EngineConfig, LMFAO, cbackend
from repro.core.cbackend import gcc_available, supports_plan
from repro.core.lowering import MODE_HASH, base_emission_mode
from repro.ml import covariance_batch
from repro.ml.features import favorita_features
from repro.paper import EXAMPLE_ROOTS, FAVORITA_TREE, example_queries
from repro.util.errors import CyclicSchemaError, PlanError

from tests.helpers import assert_results_equal
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


def test_hash_overflow_retry_keeps_dense_rows(favorita_db, monkeypatch):
    """Every group's first attempt gets the smallest output tables (4 rows),
    so a hash emission with more keys overflows and is retried larger."""
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
            if base_emission_mode(emission) != MODE_HASH:
                continue
            hashed += 1
            data = outputs[emission.artifact]
            n = len(data.key_columns[0])
            matrix = data.value_matrix
            assert matrix.shape == (n, emission.width)
            assert matrix.base is None or matrix.base.nbytes == matrix.nbytes
    assert hashed


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
