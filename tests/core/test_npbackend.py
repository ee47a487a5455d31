"""NumPy backend: differential equality with the Python backend."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repro.core import EngineConfig, LMFAO
from repro.core.npbackend import NumpyCompiledGroup, supports_plan
from repro.core.runtime import ArrayViewData, as_mapping, view_columns
from repro.data import Attribute, Database, Relation, RelationSchema
from repro.paper import EXAMPLE_ROOTS, FAVORITA_TREE, example_queries
from repro.query import Aggregate, Factor, Op, Predicate, Query, QueryBatch
from repro.query.functions import identity
from repro.util.errors import CyclicSchemaError, PlanError

from tests.helpers import assert_results_equal, numpy_outputs_columnar
from tests.strategies import instances

_C = Attribute.categorical
_F = Attribute.continuous


def _compare_backends(db, batch, **config):
    python_run = LMFAO(db, EngineConfig(backend="python", **config)).run(batch)
    with numpy_outputs_columnar():
        numpy_run = LMFAO(db, EngineConfig(backend="numpy", **config)).run(batch)
    for name in python_run.results:
        assert_results_equal(
            numpy_run.results[name], python_run.results[name], rel_tol=1e-9
        )
    return numpy_run


def _integer_db(n=4000, seed=11):
    """Integer-valued star schema: float64 arithmetic is exact on it."""
    rng = np.random.default_rng(seed)
    fact = Relation(
        RelationSchema("Fact", (_C("k"), _C("g"), _C("h"), _F("x"))),
        {
            "k": rng.integers(0, 40, n),
            "g": rng.integers(0, 6, n),
            "h": rng.integers(0, 4, n),
            "x": rng.integers(-4, 9, n).astype(float),
        },
    )
    dim = Relation(
        RelationSchema("Dim", (_C("k"), _C("w"), _F("z"))),
        {
            "k": np.arange(40),
            "w": rng.integers(0, 5, 40),
            "z": rng.integers(1, 6, 40).astype(float),
        },
    )
    return Database([fact, dim])


def _integer_batch():
    """Scalar + aligned + hash emissions, cross-node group-bys, a filter."""
    return QueryBatch(
        [
            Query("total", aggregates=(
                Aggregate((Factor("x", identity),)), Aggregate.count(),
            )),
            Query("by_g", group_by=("g",), aggregates=(
                Aggregate((Factor("x", identity), Factor("z", identity))),
            )),
            Query("by_h", group_by=("h",), aggregates=(
                Aggregate((Factor("x", identity),)), Aggregate.count(),
            )),
            Query("by_gh", group_by=("g", "h"), aggregates=(
                Aggregate((Factor("x", identity),)),
            )),
            Query("by_w", group_by=("w",), aggregates=(
                Aggregate((Factor("x", identity),)),
            )),
            # cross-node group-by: the Dim view carries w into Fact's plan,
            # so every test running this batch exercises a carried block
            Query("by_gw", group_by=("g", "w"), aggregates=(
                Aggregate((Factor("x", identity),)), Aggregate.count(),
            )),
            Query("filtered", group_by=("g",), aggregates=(
                Aggregate.count(),
            ), where=(Predicate("h", Op.EQ, 1),)),
        ]
    )


def test_paper_example_fully_vectorized(favorita_db):
    run = _compare_backends(
        favorita_db,
        example_queries(),
        join_tree_edges=FAVORITA_TREE,
        root_override=EXAMPLE_ROOTS,
    )
    assert all(g.backend != "python" for g in run.compiled.executables)


def test_carried_blocks_run_natively(favorita_db):
    """Two-categorical covariance queries carry attributes across nodes.

    These were the last whole-group fallback class; since the CSR
    entry-list lowering they run vectorized end-to-end, bit-compatible
    with the interpreted oracle.
    """
    from repro.ml import covariance_batch
    from repro.ml.features import favorita_features

    batch = covariance_batch(favorita_features(favorita_db))
    run = _compare_backends(favorita_db, batch, join_tree_edges=FAVORITA_TREE)
    assert all(g.backend != "python" for g in run.compiled.executables)
    carried = [p for p in run.compiled.plans if p.carried_blocks]
    assert carried and all(supports_plan(p) for p in carried)
    NumpyCompiledGroup(carried[0])  # constructs without PlanError


def test_supports_plan_accepts_figure3_style_carried_plans(favorita_db):
    """Cross-node group-bys over the paper schema decompose into plans
    with carried blocks — previously rejected, now first-class."""
    batch = QueryBatch(
        [
            Query("stores_by_class", group_by=("store", "class"), aggregates=(
                Aggregate.sum("units"), Aggregate.count(),
            )),
        ]
    )
    engine = LMFAO(
        favorita_db, EngineConfig(backend="numpy", join_tree_edges=FAVORITA_TREE)
    )
    compiled = engine.compile(batch)
    assert any(plan.carried_blocks for plan in compiled.plans)
    assert all(supports_plan(plan) for plan in compiled.plans)
    assert all(g.backend != "python" for g in compiled.executables)


def test_float_keys_run_natively(retailer_db):
    """Float group-bys (rejected by the C backend) stay vectorized."""
    batch = QueryBatch(
        [Query("hist", group_by=("prize",), aggregates=(Aggregate.count(),))]
    )
    run = _compare_backends(retailer_db, batch)
    assert all(g.backend != "python" for g in run.compiled.executables)


def test_bit_exact_on_integer_data():
    db = _integer_db()
    batch = _integer_batch()
    base = LMFAO(db, EngineConfig(backend="python", workers=1, partitions=1)).run(
        batch
    )
    run = LMFAO(db, EngineConfig(backend="numpy", workers=1, partitions=1)).run(
        batch
    )
    for name in base.results:
        assert run.results[name].groups == base.results[name].groups, name


@pytest.mark.parametrize("workers,partitions", [(1, 3), (4, 1), (4, 4)])
def test_bit_exact_partitioned(workers, partitions):
    db = _integer_db()
    batch = _integer_batch()
    base = LMFAO(db, EngineConfig(backend="python", workers=1, partitions=1)).run(
        batch
    )
    run = LMFAO(
        db,
        EngineConfig(
            backend="numpy",
            workers=workers,
            partitions=partitions,
            parallel_threshold=0,
        ),
    ).run(batch)
    for name in base.results:
        assert run.results[name].groups == base.results[name].groups, name


@pytest.mark.parametrize("partitions", [1, 3])
def test_incremental_maintenance_bit_compatible(partitions):
    """Inserts (numeric path) and deletes (rescan) through the backend."""
    db = _integer_db()
    batch = _integer_batch()
    config = EngineConfig(
        backend="numpy", partitions=partitions, parallel_threshold=0
    )
    handle = LMFAO(db, config).maintain(batch)
    handle.apply(inserts={"Fact": [(1, 2, 3, 4.0), (3, 1, 0, -2.0)]})
    recomputed = handle.recompute()
    for name in recomputed.results:
        assert handle[name].groups == recomputed.results[name].groups, name
    handle.apply(deletes={"Fact": [(1, 2, 3, 4.0)]})
    recomputed = handle.recompute()
    for name in recomputed.results:
        assert handle[name].groups == recomputed.results[name].groups, name


def test_empty_relation():
    db = _integer_db(n=0)
    batch = _integer_batch()
    base = LMFAO(db, EngineConfig(backend="python")).run(batch)
    run = LMFAO(db, EngineConfig(backend="numpy")).run(batch)
    for name in base.results:
        assert run.results[name].groups == base.results[name].groups, name


# ------------------------------------------------------------------ grouper


def _sampled_rows(rng, columns: list[np.ndarray], n: int) -> list[np.ndarray]:
    """``n`` rows drawn with replacement from the distinct tuples of
    ``columns``, so groups repeat and first occurrences matter."""
    picks = rng.integers(0, len(columns[0]), n)
    return [column[picks] for column in columns]


def _grouper_columns(branch: str) -> list[np.ndarray]:
    rng = np.random.default_rng(5)
    n, pool = 5000, 3000
    if branch == "dense":  # small categorical codes
        columns = [rng.integers(0, 40, pool), rng.integers(-3, 20, pool)]
    elif branch == "packed":  # a wide int and a float key
        columns = [rng.integers(0, 10**9, pool), rng.normal(size=pool)]
    else:  # five wide ints: comp * n would overflow int64
        columns = [rng.integers(0, 10**9, pool) for _ in range(5)]
    return _sampled_rows(rng, columns, n)


@pytest.mark.parametrize("branch", ["dense", "packed", "argsort"])
def test_group_codes_match_np_unique(branch):
    """Every branch of the one grouper assigns ``np.unique``'s ids (key
    order), group count and first occurrences."""
    from repro.core.runtime import _CODE_LIMIT, _composite_codes, _group_codes

    columns = _grouper_columns(branch)
    _comp, space, n = _composite_codes(columns)
    dense_cut, packed_cut = max(4 * n, 1024), _CODE_LIMIT // n
    taken = (
        "dense" if space <= dense_cut
        else "packed" if space < packed_cut
        else "argsort"
    )
    assert taken == branch, (space, dense_cut, packed_cut)
    rows = np.column_stack([column.astype(np.float64) for column in columns])
    _keys, first, inverse = np.unique(
        rows, axis=0, return_index=True, return_inverse=True
    )
    ids, num_keys, first_index = _group_codes(columns)
    assert num_keys == len(first) < n
    assert np.array_equal(ids, inverse.reshape(-1))
    assert np.array_equal(first_index, first)


def test_wide_key_spaces_bit_exact_vs_python():
    """Group-bys whose key code space is far beyond the dense presence
    scan — two int keys spanning ~1e9 and a float key — group through the
    sort branch and stay bit-exact against the Python backend."""
    rng = np.random.default_rng(17)
    pool, n = 2500, 6000
    g, h, f, x = _sampled_rows(
        rng,
        [
            rng.integers(0, 10**9, pool),
            rng.integers(-(10**9), 0, pool),
            rng.normal(size=pool),
            rng.integers(-4, 9, pool).astype(float),
        ],
        n,
    )
    db = Database([
        Relation(
            RelationSchema("Wide", (_C("g"), _C("h"), _F("f"), _F("x"))),
            {"g": g, "h": h, "f": f, "x": x},
        )
    ])
    sums = (Aggregate((Factor("x", identity),)), Aggregate.count())
    batch = QueryBatch([
        Query("by_g", group_by=("g",), aggregates=sums),
        Query("by_gh", group_by=("g", "h"), aggregates=sums),
        Query("by_hf", group_by=("h", "f"), aggregates=sums),
        Query("by_ghf", group_by=("g", "h", "f"), aggregates=sums),
    ])
    base = LMFAO(db, EngineConfig(backend="python", workers=1, partitions=1)).run(
        batch
    )
    for partitions in (1, 3):
        run = LMFAO(
            db,
            EngineConfig(
                backend="numpy", workers=1, partitions=partitions,
                parallel_threshold=0,
            ),
        ).run(batch)
        for name in base.results:
            assert run.results[name].groups == base.results[name].groups, (
                name, partitions,
            )


# ------------------------------------------------- carried-block edge cases


def _carried_star(fact_keys, dim_keys, dim_rows_per_key=1, n=500, seed=3):
    """A 2-node star whose cross-node batch always has a carried block.

    ``fact_keys``/``dim_keys`` control the semi-join overlap; duplicated
    dim keys control the carried entry-segment lengths.
    """
    rng = np.random.default_rng(seed)
    fact = Relation(
        RelationSchema("Fact", (_C("k"), _C("g"), _F("x"))),
        {
            "k": rng.choice(fact_keys, n) if len(fact_keys) else np.empty(0),
            "g": rng.integers(0, 5, n),
            "x": rng.integers(-3, 8, n).astype(float),
        } if len(fact_keys) else {"k": [], "g": [], "x": []},
    )
    dim_k = np.repeat(np.asarray(dim_keys, dtype=np.int64), dim_rows_per_key)
    dim = Relation(
        RelationSchema("Dim", (_C("k"), _C("w"), _F("z"))),
        {
            "k": dim_k,
            "w": rng.integers(0, 4, len(dim_k)),
            "z": rng.integers(1, 5, len(dim_k)).astype(float),
        },
    )
    return Database([fact, dim])


def _carried_batch():
    """Cross-node group-bys: every keyed plan probes a carried view."""
    return QueryBatch(
        [
            Query("by_gw", group_by=("g", "w"), aggregates=(
                Aggregate((Factor("x", identity),)), Aggregate.count(),
            )),
            Query("by_gw_z", group_by=("g", "w"), aggregates=(
                Aggregate((Factor("x", identity), Factor("z", identity))),
            )),
            Query("total", aggregates=(Aggregate((Factor("x", identity),)),)),
        ]
    )


def _assert_carried_native(db, batch, **config):
    run = _compare_backends(db, batch, **config)
    assert any(p.carried_blocks for p in run.compiled.plans)
    assert all(g.backend != "python" for g in run.compiled.executables)
    return run


def test_carried_empty_view():
    """A carried view with zero entries: every probe misses, no crash."""
    _assert_carried_native(
        _carried_star(fact_keys=np.arange(10), dim_keys=[]), _carried_batch()
    )


def test_carried_all_probe_misses():
    """Disjoint join keys: the alive mask dies at the bind level for every
    run, so carried expansions see only zero-count segments."""
    run = _assert_carried_native(
        _carried_star(fact_keys=np.arange(100, 110), dim_keys=np.arange(10)),
        _carried_batch(),
    )
    assert run.results["by_gw"].groups == {}


def test_carried_one_entry_segments():
    """Unique dim keys: every carried entry segment has exactly one entry."""
    _assert_carried_native(
        _carried_star(fact_keys=np.arange(20), dim_keys=np.arange(20)),
        _carried_batch(),
    )


def test_carried_multi_entry_segments():
    """Duplicated dim keys: segments of width > 1, accumulation in
    entry-list order."""
    _assert_carried_native(
        _carried_star(fact_keys=np.arange(12), dim_keys=np.arange(12),
                      dim_rows_per_key=4),
        _carried_batch(),
    )


def test_carried_empty_fact():
    """An empty trie under a carried plan: zero runs to expand."""
    _assert_carried_native(
        _carried_star(fact_keys=np.empty(0, dtype=np.int64),
                      dim_keys=np.arange(4), n=0),
        _carried_batch(),
    )


def test_carried_two_blocks_nested_expansion():
    """Two carried views keyed in one emission: the cross-product
    expansion nests entry loops two deep, in block-index order."""
    rng = np.random.default_rng(9)
    n, nk = 2000, 40
    fact = Relation(
        RelationSchema("Fact", (_C("k"), _C("j"), _C("g"), _F("x"))),
        {
            "k": rng.integers(0, nk, n),
            "j": rng.integers(0, nk, n),
            "g": rng.integers(0, 5, n),
            "x": rng.integers(-3, 7, n).astype(float),
        },
    )
    d1 = Relation(
        RelationSchema("D1", (_C("k"), _C("w"), _F("z"))),
        {
            "k": rng.integers(0, nk, 120),
            "w": rng.integers(0, 4, 120),
            "z": rng.integers(1, 5, 120).astype(float),
        },
    )
    d2 = Relation(
        RelationSchema("D2", (_C("j"), _C("v"), _F("u"))),
        {
            "j": rng.integers(0, nk, 90),
            "v": rng.integers(0, 3, 90),
            "u": rng.integers(1, 6, 90).astype(float),
        },
    )
    db = Database([fact, d1, d2])
    batch = QueryBatch(
        [
            Query("wv", group_by=("w", "v"), aggregates=(
                Aggregate((Factor("x", identity),)), Aggregate.count(),
            )),
            Query("gwv", group_by=("g", "w", "v"), aggregates=(
                Aggregate((Factor("z", identity), Factor("u", identity))),
            )),
        ]
    )
    run = _compare_backends(db, batch)
    assert any(len(p.carried_blocks) > 1 for p in run.compiled.plans)
    assert all(g.backend != "python" for g in run.compiled.executables)
    base = LMFAO(db, EngineConfig(backend="python")).run(batch)
    for name in base.results:
        assert run.results[name].groups == base.results[name].groups, name


@pytest.mark.parametrize("workers,partitions", [(1, 3), (4, 1), (4, 4)])
def test_carried_bit_exact_partitioned(workers, partitions):
    """Carried plans through the partition/merge path, single-run edges
    included (partitions > distinct level-0 runs of the small trie)."""
    db = _carried_star(fact_keys=np.arange(8), dim_keys=np.arange(6),
                       dim_rows_per_key=2)
    batch = _carried_batch()
    base = LMFAO(db, EngineConfig(backend="python", workers=1, partitions=1)).run(
        batch
    )
    run = LMFAO(
        db,
        EngineConfig(
            backend="numpy",
            workers=workers,
            partitions=partitions,
            parallel_threshold=0,
        ),
    ).run(batch)
    assert all(g.backend != "python" for g in run.compiled.executables)
    for name in base.results:
        assert run.results[name].groups == base.results[name].groups, name


def test_outputs_keep_columnar_arrays():
    """Non-scalar emissions come back as ArrayViewData with intact arrays."""
    from repro.core.runtime import node_trie

    db = _integer_db()
    engine = LMFAO(db, EngineConfig(backend="numpy"))
    compiled = engine.compile(_integer_batch())
    index = next(
        i
        for i, plan in enumerate(compiled.plans)
        if compiled.executables[i].backend == "numpy"
        and any(e.group_by for e in plan.emissions)
        and not plan.bindings
    )
    plan = compiled.plans[index]
    trie = node_trie(db, plan.node, plan.order, {})
    outputs = compiled.executables[index].execute(
        trie, {}, {}, compiled.functions
    )
    keyed = [e.artifact for e in plan.emissions if e.group_by]
    assert keyed
    for name in keyed:
        data = outputs[name]
        assert isinstance(data, ArrayViewData)
        rebuilt = ArrayViewData.from_arrays(data.key_columns, data.value_matrix)
        assert as_mapping(rebuilt) == as_mapping(data)


def test_missing_view_data_raises(favorita_db, favorita_engine):
    compiled = favorita_engine.compile(example_queries())
    plan = next(p for p in compiled.plans if p.bindings and supports_plan(p))
    group = NumpyCompiledGroup(plan)
    with pytest.raises(PlanError):
        group.prepare_bindings({}, {})


def test_array_view_data_roundtrip():
    """Columns → dict (:func:`as_mapping`) → columns (:func:`view_columns`)
    gives back the same rows in the same order."""
    data = ArrayViewData.from_arrays(
        [np.array([3, 1, 2])], np.array([[1.0], [2.0], [3.0]])
    )
    assert as_mapping(data) == {3: [1.0], 1: [2.0], 2: [3.0]}
    keys, values = view_columns(as_mapping(data), ("a",), 1)
    assert keys[0].tolist() == [3, 1, 2] and values.tolist() == [[1.0], [2.0], [3.0]]
    multi = ArrayViewData.from_arrays(
        [np.array([1, 1]), np.array([4, 5])], np.array([[1.0, 0.0], [0.5, 2.0]])
    )
    assert as_mapping(multi) == {(1, 4): [1.0, 0.0], (1, 5): [0.5, 2.0]}
    keys, values = view_columns(as_mapping(multi), ("a", "b"), 2)
    assert [k.tolist() for k in keys] == [[1, 1], [4, 5]]
    assert values.tolist() == [[1.0, 0.0], [0.5, 2.0]]


@given(instance=instances())
@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_numpy_backend_matches_python_on_random_instances(instance):
    try:
        _compare_backends(instance.db, instance.batch)
    except CyclicSchemaError:
        pytest.skip("generated schema had a disconnected join graph")
