"""NumPy backend: differential equality with the Python backend."""

import ctypes
import math
import subprocess
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import EngineConfig, LMFAO
from repro.core import cbackend
from repro.core.cbackend import CCompiledGroup
from repro.core.npbackend import NumpyCompiledGroup, supports_plan
from repro.core.plan import ViewBinding
from repro.core.runtime import (
    ArrayViewData,
    _BindingTable,
    _CarriedTable,
    as_mapping,
    view_columns,
)
from repro.data import Attribute, Database, Relation, RelationSchema
from repro.data.keycodes import _CODE_LIMIT, KeyIndex, _dense_codes, _dense_enough
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
    from repro.data.keycodes import _composite_codes, _group_codes

    columns = _grouper_columns(branch)
    _comp, coder = _composite_codes(columns)
    space, n = coder.space, len(columns[0])
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
        trie, {}, compiled.functions
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


# ------------------------------------------------------------------- probes

#: producer key kinds of the probe property, by the coding they take:
#: offsets (narrow, negative), sorted uniques (wide, float), and seven
#: ~1024-wide offset columns whose code space passes ``_CODE_LIMIT``
_PROBE_KINDS = ("narrow", "negative", "wide", "float", "code-limit")


def _probe_rows(rng, kind: str, width: int, size: int) -> np.ndarray:
    """At least ``size`` rows of ``width`` key values of one kind."""
    shape = (4 * size, width)
    if kind == "narrow":
        return rng.integers(0, 50, shape)
    if kind == "negative":
        return rng.integers(-60, -5, shape)
    if kind == "wide":
        return rng.integers(-10**12, 10**12, shape)
    if kind == "float":
        return rng.normal(size=shape) * 1e3
    return rng.integers(1, 1023, shape)


def _distinct_rows(rows: np.ndarray, size: int) -> np.ndarray:
    _, first = np.unique(rows, axis=0, return_index=True)
    return rows[np.sort(first)][:size]


def _probe_columns(rng, keys: list[np.ndarray], n: int) -> list[np.ndarray]:
    """``n`` probe rows over the producer's key columns: whole producer
    keys (hits) and, per column, producer values (so tuples the producer
    lacks), absent values inside the range, and values below ``lo`` and
    above ``lo + span``."""
    m = len(keys[0])
    whole = rng.integers(0, m, n)
    columns = []
    for column in keys:
        lo, hi = column.min(), column.max()
        if column.dtype.kind == "f":
            inside = rng.normal(size=n) * 1e3
            below, above = lo - 1.5 - rng.random(n), hi + 0.5 + rng.random(n)
        else:
            inside = rng.integers(lo, hi + 1, n)
            below = lo - rng.integers(1, 10**6, n)
            above = hi + rng.integers(1, 10**6, n)
        pick = rng.integers(0, 5, n)
        probe = np.where(
            pick == 0, column[rng.integers(0, m, n)],
            np.where(pick == 1, inside, np.where(pick == 2, below, above)),
        )
        hit = rng.random(n) < 0.5
        columns.append(np.where(hit, column[whole], probe).astype(column.dtype))
    return columns


def _probe_case(rng, kind: str, carried: bool):
    """A producer view (key columns in a shuffled group-by, plus a carried
    column when ``carried``), its consumer binding and probe columns."""
    width = 7 if kind == "code-limit" else int(rng.integers(1, 4))
    size = int(rng.integers(1, 60))
    pool = _distinct_rows(_probe_rows(rng, kind, width, size), size)
    if kind == "code-limit":  # the span ends: 1024 offsets a column, 1024**7 > 2**62
        pool = np.vstack([np.zeros(width, int), np.full(width, 1023), pool])
    names = [f"k{c}" for c in range(width)]
    if carried:  # every pool key, some repeated; distinct (key, carried) tuples
        picks = np.concatenate([
            np.arange(len(pool)), rng.integers(0, len(pool), 2 * len(pool))
        ])
        rng.shuffle(picks)
        entries = len(picks)
        rows = np.column_stack([pool[picks], rng.integers(0, 8, entries)])
        rows = _distinct_rows(rows.astype(pool.dtype), entries)
        key_rows, carried_column = rows[:, :width], rows[:, width].astype(np.int64)
    else:
        key_rows, carried_column = pool, None
    group_by = list(names) + (["c"] if carried else [])
    rng.shuffle(group_by)
    key = tuple(rng.permutation(names))
    columns = {
        name: np.ascontiguousarray(key_rows[:, c]) for c, name in enumerate(names)
    }
    if carried:
        columns["c"] = carried_column
    agg_width = int(rng.integers(1, 3))
    # integer-valued floats: any summation order is exact
    values = rng.integers(-50, 50, (len(key_rows), agg_width)).astype(np.float64)
    view = ArrayViewData.from_arrays([columns[a] for a in group_by], values)
    binding = ViewBinding(
        view="V", num_aggregates=agg_width, key=key,
        key_levels=tuple(range(width)), bind_level=width - 1,
        carried=("c",) if carried else (),
    )
    keys = [columns[a] for a in key]
    probes = _probe_columns(rng, keys, int(rng.integers(1, 200)))
    return view, tuple(group_by), binding, keys, probes


def _assert_same_tables(a, b) -> None:
    """Two binding tables of one class with equal arrays, key indexes and
    recorded codings (a count cached on first read aside)."""
    assert type(a) is type(b)
    for left, right in ((vars(a), vars(b)), (vars(a.keys), vars(b.keys))):
        built = left.keys() - {"carried_counts"}
        assert built == right.keys() - {"carried_counts"}
        for name in built - {"keys"}:  # the key indexes are the second pair
            value, other = left[name], right[name]
            if name == "coder":
                assert value.space == other.space
                assert len(value.steps) == len(other.steps)
                for (densify, coding), (densify2, coding2) in zip(
                    value.steps, other.steps
                ):
                    assert (densify, coding.card, coding.lo) == (
                        densify2, coding2.card, coding2.lo
                    )
                    assert (coding.uniques is None) == (coding2.uniques is None)
                    assert coding.uniques is None or _same(
                        coding.uniques, coding2.uniques
                    )
            elif isinstance(value, list):
                assert len(value) == len(other), name
                assert all(_same(x, y) for x, y in zip(value, other)), name
            elif isinstance(value, np.ndarray):
                assert _same(value, other), name
            else:
                assert value == other, name


def _tuples(columns: list[np.ndarray]) -> list[tuple]:
    return list(zip(*(column.tolist() for column in columns)))


def _same(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)


@given(seed=st.integers(0, 2**31 - 1), kind=st.sampled_from(_PROBE_KINDS),
       carried=st.booleans())
@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_binding_tables_match_a_dict_lookup(seed, kind, carried):
    """A scalar table's found mask and value rows, and a carried table's
    key rows, entry segments, entry order and sub-sums equal a dict-lookup
    oracle, for keys coded by offset or by uniques, one to three columns
    and a seven-column key whose code space passes ``_CODE_LIMIT``; probe
    columns mix hits, absent values and values on either side of the
    producer's range. C's binding preparation returns the tables NumPy's
    returns. No input array changes."""
    rng = np.random.default_rng(seed)
    view, group_by, binding, keys, probes = _probe_case(rng, kind, carried)
    before = [a.copy() for a in (*view.key_columns, view.value_matrix, *probes)]
    values = view.value_matrix
    key_tuples, probe_tuples = _tuples(keys), _tuples(probes)
    if kind == "code-limit":
        space = math.prod(_dense_codes(column)[1].card for column in keys)
        assert space >= _CODE_LIMIT
    if not carried:
        rows = {key: row for row, key in enumerate(key_tuples)}
        want_found = np.array([key in rows for key in probe_tuples])
        want_rows = np.array([rows.get(key, 0) for key in probe_tuples])
        table = _BindingTable(binding, group_by, view)
        got, found = table.probe(probes)
        assert _same(found, want_found)
        assert np.array_equal(got[found], values[want_rows[found]])
        # a scalar view's keys are distinct: within the presence-scan
        # bound the table skips the grouping and key id i is row i, and
        # it finds what a grouped index finds
        grouped = KeyIndex(keys)
        if _dense_enough(grouped.coder.space, len(key_tuples)):
            assert _same(table.keys.first_index, np.arange(len(key_tuples)))
        else:
            assert _same(table.keys.first_index, grouped.first_index)
        grouped_key, grouped_found = grouped.lookup(probes)
        assert _same(grouped_found, found)
        assert np.array_equal(
            values[grouped.first_index[grouped_key[found]]], got[found]
        )
    else:
        carried_column = view.key_columns[group_by.index("c")]
        order = sorted(range(len(key_tuples)), key=key_tuples.__getitem__)
        distinct = sorted(set(key_tuples))
        rank = {key: i for i, key in enumerate(distinct)}
        counts = [key_tuples.count(key) for key in distinct]
        table = _CarriedTable(binding, group_by, view)
        key_row, found = table.probe(probes)
        assert _same(found, np.array([key in rank for key in probe_tuples]))
        assert [key_row[i] for i in np.flatnonzero(found)] == [
            rank[probe_tuples[i]] for i in np.flatnonzero(found)
        ]
        assert table.num_keys == len(distinct)
        assert table.entry_offsets.tolist() == np.cumsum([0] + counts).tolist()
        assert _same(table.carried_columns[0], carried_column[order])
        assert _same(table.agg_matrix, values[order])
        want_subsums = np.array(
            [values[[i for i in order if key_tuples[i] == key]].sum(axis=0)
             for key in distinct]
        )
        assert np.array_equal(table.subsums, want_subsums)
        assert table.carried_counts == (len(np.unique(carried_column)),)
    # C probes the tables NumPy builds: same classes, same arrays
    plan = SimpleNamespace(bindings=(binding,), emissions=())
    numpy_tables = NumpyCompiledGroup.prepare_bindings(
        SimpleNamespace(plan=plan), {"V": view}, {"V": group_by}
    )
    c_tables = CCompiledGroup(plan, "unused", [], "").prepare_bindings(
        {"V": view}, {"V": group_by}
    )
    _assert_same_tables(c_tables["V"], numpy_tables["V"])
    _assert_same_tables(numpy_tables["V"], table)
    after = [*view.key_columns, view.value_matrix, *probes]
    assert all(_same(a, b) for a, b in zip(after, before))


#: probes every row of a key matrix through the prelude's one lookup
_LOOKUP_ROWS = r"""
void lookup_rows(const int64_t* ix, const int64_t* kt, const int64_t* keys,
                 int64_t n, int64_t width, int64_t* out) {
    for (int64_t r = 0; r < n; r++) out[r] = lmfao_lookup(ix, kt, keys + r * width);
}
"""


@pytest.fixture(scope="module")
def c_lookup(tmp_path_factory):
    """``KeyIndex`` lookups through the generated code's ``lmfao_lookup``:
    key ids, ``-1`` for a miss."""
    if not cbackend.gcc_available():
        pytest.skip("gcc not on PATH")
    path = tmp_path_factory.mktemp("lookup") / "lookup.so"
    subprocess.run(
        ["gcc", *cbackend.CFLAGS, "-x", "c", "-o", str(path), "-"],
        input=cbackend._PRELUDE + _LOOKUP_ROWS, text=True, check=True,
    )
    fn = ctypes.CDLL(str(path)).lookup_rows
    fn.restype = None
    fn.argtypes = [ctypes.c_void_p] * 3 + [ctypes.c_int64] * 2 + [ctypes.c_void_p]

    def lookup(keys: KeyIndex, probes: list[np.ndarray]) -> np.ndarray:
        descriptor = cbackend._index_descriptor(keys)
        table = keys.key_comp if keys.table is None else keys.table
        rows = np.ascontiguousarray(np.column_stack(probes), dtype=np.int64)
        out = np.empty(len(rows), dtype=np.int64)
        fn(descriptor.ctypes.data, table.ctypes.data, rows.ctypes.data,
           len(rows), rows.shape[1], out.ctypes.data)
        return out

    return lookup


def test_c_lookup_matches_key_index(c_lookup):
    """C's one binding lookup finds what :meth:`KeyIndex.lookup` finds,
    with the same key ids, over every integer probe kind — offset and
    uniques codings, the densify step past ``_CODE_LIMIT``, the
    direct-address table and the binary search — for scalar and carried
    tables, an empty producer and probes that all miss."""
    seen = set()
    for kind in [kind for kind in _PROBE_KINDS if kind != "float"]:
        for seed in range(20):
            rng = np.random.default_rng(seed)
            for carried in (False, True):
                view, group_by, binding, keys, probes = _probe_case(rng, kind, carried)
                table_cls = _CarriedTable if carried else _BindingTable
                empty = ArrayViewData.from_arrays(
                    [column[:0] for column in view.key_columns], view.value_matrix[:0]
                )
                for producer in (view, empty):
                    index = table_cls(binding, group_by, producer).keys
                    key, found = index.lookup(probes)
                    # the probes that miss, and one above every producer key
                    misses = [
                        np.append(column[~found], key_column.max() + 1)
                        for column, key_column in zip(probes, keys)
                    ]
                    assert not index.lookup(misses)[1].any()
                    assert _same(c_lookup(index, probes), np.where(found, key, -1))
                    assert (c_lookup(index, misses) == -1).all()
                    seen.add("direct" if index.table is not None else "search")
                    for densify, coding in index.coder.steps:
                        seen.add("densify" if densify else "column")
                        seen.add("offset" if coding.uniques is None else "uniques")
                    if index.num_keys == 0:
                        seen.add("empty")
    assert seen == {
        "direct", "search", "densify", "column", "offset", "uniques", "empty"
    }
