"""C backend: differential equality with the Python backend."""

import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repro.core import EngineConfig, LMFAO, cbackend
from repro.core.cbackend import gcc_available, supports_plan
from repro.core.lowering import MODE_HASH, emission_mode
from repro.core.runtime import ArrayViewData
from repro.data.catalog import Database
from repro.data.relation import Relation
from repro.data.schema import Attribute, RelationSchema
from repro.data.types import AttributeKind
from repro.ml import covariance_batch
from repro.ml.features import favorita_features, retailer_features
from repro.paper import EXAMPLE_ROOTS, FAVORITA_TREE, example_queries
from repro.query import Aggregate, Query, QueryBatch
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
    """Give every group's first attempt the smallest hash tables (4 rows),
    so a hash-addressed emission with more keys overflows and is retried
    larger. Returns the overflowing groups' names and the ``(plan,
    outputs)`` of every attempt that succeeded."""
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


def _spread(db: Database, stride: int, shift: int = 0) -> Database:
    """``db`` with every categorical value ``v`` stored as ``v * stride +
    shift``: an increasing map, so the joins, the trie scan order and the
    distinct counts stay, and only the key spans grow."""
    relations = []
    for relation in db.relations:
        columns = {
            attr.name: relation.column(attr.name).astype(np.int64) * stride + shift
            if attr.kind is AttributeKind.CATEGORICAL
            else relation.column(attr.name)
            for attr in relation.schema
        }
        relations.append(Relation(relation.schema, columns))
    return Database(relations, name=db.name)


@pytest.fixture(scope="module")
def sparse_favorita(favorita_db):
    """Favorita with key spans far above the direct-address bound, so every
    C hash emission keyed by them hashes."""
    return _spread(favorita_db, 1_000_003)


def _addressing(monkeypatch) -> list[tuple[int, int]]:
    """Records ``(direct, hashed)`` emission counts of every C call."""
    real = cbackend.CCompiledGroup.key_spaces
    calls = []

    def spy(self, trie, tables):
        bounds, direct = real(self, trie, tables)
        calls.append((len(direct), len(bounds) - len(direct)))
        return bounds, direct

    monkeypatch.setattr(cbackend.CCompiledGroup, "key_spaces", spy)
    return calls


def test_hash_overflow_retry_keeps_dense_rows(sparse_favorita, monkeypatch):
    calls = _addressing(monkeypatch)
    overflows, collected = _tiny_first_tables(monkeypatch)
    batch = covariance_batch(favorita_features(sparse_favorita))
    config = dict(
        join_tree_edges=FAVORITA_TREE, workers=1, partitions=1, executor="thread"
    )
    run = _compare_backends(sparse_favorita, batch, **config)
    assert all(g.backend != "python" for g in run.compiled.executables)
    assert sum(hashed for _direct, hashed in calls)
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


def _hash_outputs(db, batch, backend: str, partitions: int = 1,
                  **config) -> dict[str, ArrayViewData]:
    """Every hash emission's output of one walk (sequential, unless
    ``partitions`` forces a fan-out)."""
    engine = LMFAO(db, EngineConfig(
        backend=backend, executor="thread", workers=partitions,
        partitions=partitions, parallel_threshold=0, adaptive=False, **config
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


def _assert_same_rows(one: dict, other: dict) -> None:
    """Equal outputs, byte for byte: keys, dtypes, values, row order."""
    assert one.keys() == other.keys()
    for artifact, view in one.items():
        again = other[artifact]
        assert len(view.key_columns) == len(again.key_columns), artifact
        for column, same in zip(view.key_columns, again.key_columns):
            assert column.dtype == same.dtype, artifact
            assert column.tobytes() == same.tobytes(), artifact
        assert view.value_matrix.tobytes() == again.value_matrix.tobytes(), artifact


def test_hash_rows_come_out_in_scan_order(sparse_favorita, monkeypatch):
    """A C hash emission's rows are its keys in first-seen trie-scan order
    (the order generated Python's dicts keep), byte for byte the same
    whatever size its first table had."""
    batch = covariance_batch(favorita_features(sparse_favorita))
    config = dict(join_tree_edges=FAVORITA_TREE)
    calls = _addressing(monkeypatch)
    normal = _hash_outputs(sparse_favorita, batch, "c", **config)
    assert sum(hashed for _direct, hashed in calls)
    scanned = _hash_outputs(sparse_favorita, batch, "python", **config)
    overflows, _collected = _tiny_first_tables(monkeypatch)
    retried = _hash_outputs(sparse_favorita, batch, "c", **config)
    assert overflows
    assert normal
    _assert_same_rows(normal, retried)
    assert normal.keys() == scanned.keys()
    for artifact, view in normal.items():
        python = scanned[artifact]
        for column, first_seen in zip(view.key_columns, python.key_columns):
            assert np.array_equal(column, first_seen), artifact
        np.testing.assert_allclose(
            view.value_matrix, python.value_matrix, rtol=1e-9, atol=0.0
        )


def _grid_db(stride: int, shift: int, s_rows: int) -> Database:
    """``R(k, a, x)`` and ``S(k, c, y)``: ``a`` takes 300 distinct values,
    ``c`` 4, both ``stride`` apart from ``shift``; ``S`` may be empty."""
    rng = np.random.default_rng(17)
    r = Relation(
        RelationSchema("R", (
            Attribute.categorical("k"), Attribute.categorical("a"),
            Attribute.continuous("x"),
        )),
        {
            "k": rng.integers(0, 20, 900),
            "a": rng.permutation(np.arange(900) % 300) * stride + shift,
            "x": rng.integers(-3, 7, 900).astype(float),
        },
    )
    s = Relation(
        RelationSchema("S", (
            Attribute.categorical("k"), Attribute.categorical("c"),
            Attribute.continuous("y"),
        )),
        {
            "k": rng.integers(0, 20, s_rows),
            "c": rng.integers(0, 4, s_rows) * stride + shift,
            "y": rng.integers(-2, 6, s_rows).astype(float),
        },
    )
    return Database([r, s], name="grid")


def _grid_batch() -> QueryBatch:
    count, x, y = Aggregate.count(), Aggregate.sum("x"), Aggregate.sum("y")
    return QueryBatch([
        Query("qa", group_by=("a",), aggregates=(count, x)),
        Query("qk", group_by=("k",), aggregates=(count, y)),
        Query("qc", group_by=("c",), aggregates=(y, x)),
        Query("qac", group_by=("a", "c"), aggregates=(count, x, y)),
    ])


@pytest.mark.parametrize("partitions", [1, 2])
@pytest.mark.parametrize(
    "stride, shift, s_rows, expect",
    [
        (1, 0, 120, "direct"),  # dense spans, one carried key part
        (1, -5000, 120, "direct"),  # negative keys
        (4, 0, 120, "both"),  # a's span 1197 within 4 x 300: direct
        (5, 0, 120, "both"),  # 1496 above it: hashed, c's still direct
        (1_000_003, -7, 120, "hash"),  # sparse: every span above the bound
        (1, 0, 0, "direct"),  # S empty: empty views and carried columns
    ],
)
def test_direct_rows_equal_hashed_rows(
    stride, shift, s_rows, expect, partitions, monkeypatch
):
    """Direct-addressed and hashed C outputs are equal row for row, in
    order, and equal generated Python's, on both sides of the bound."""
    db, batch = _grid_db(stride, shift, s_rows), _grid_batch()
    calls = _addressing(monkeypatch)
    chosen = _hash_outputs(db, batch, "c", partitions)
    direct = sum(d for d, _hashed in calls)
    hashed = sum(h for _direct, h in calls)
    assert chosen
    if expect == "direct":
        assert direct and not hashed
    elif expect == "hash":
        assert hashed and not direct
    else:
        assert direct and hashed
    calls.clear()
    monkeypatch.setattr(cbackend, "_dense_enough", lambda space, n: False)
    forced = _hash_outputs(db, batch, "c", partitions)
    assert calls and not sum(d for d, _hashed in calls)
    _assert_same_rows(chosen, forced)
    python = _hash_outputs(db, batch, "python", partitions)
    assert python.keys() == chosen.keys()
    for artifact, view in chosen.items():
        for column, want in zip(view.key_columns, python[artifact].key_columns):
            assert np.array_equal(column, want), artifact
        np.testing.assert_allclose(
            view.value_matrix, python[artifact].value_matrix, rtol=1e-9, atol=1e-12
        )


def test_share_scan_terms_reaches_c(favorita_db):
    """``share_scan_terms=False`` emits C without hoisted ``t<n>`` consts,
    and its results equal generated Python's."""
    batch = covariance_batch(favorita_features(favorita_db))
    hoisted = re.compile(r"const double t\d+ = ")
    sources = {}
    for share in (True, False):
        run = _compare_backends(
            favorita_db, batch, join_tree_edges=FAVORITA_TREE,
            share_scan_terms=share,
        )
        native = [g for g in run.compiled.executables if g.backend == "c"]
        assert native
        sources[share] = [bool(hoisted.search(g.source)) for g in native]
    assert any(sources[True])
    assert not any(sources[False])


def test_direct_rows_past_a_low_bound_are_retried(monkeypatch):
    """A direct output whose key bound is too low returns at the first key
    past its rows, and the retry grows them: the outputs equal those of a
    run with the true bounds, row for row."""
    db, batch = _grid_db(1, 0, 120), _grid_batch()
    honest = _hash_outputs(db, batch, "c")
    real = cbackend.CCompiledGroup.key_spaces

    def low(self, trie, tables):
        bounds, direct = real(self, trie, tables)
        return {i: 1 if i in direct else b for i, b in bounds.items()}, direct

    monkeypatch.setattr(cbackend.CCompiledGroup, "key_spaces", low)
    # the debug check would (rightly) reject the lowered bounds
    monkeypatch.setattr(cbackend, "debug_checks_enabled", lambda: False)
    overflows, _collected = _tiny_first_tables(monkeypatch)
    _assert_same_rows(honest, _hash_outputs(db, batch, "c"))
    assert overflows


def _share_db(layout: str) -> Database:
    """``F(a, b, c, x)`` with children ``D1(a, b, y)`` and ``D2(a, b, z)``,
    whose views ``F`` probes at one level with one key ``(a, b)``. ``D1``
    holds every key of a 12 x 9 grid; ``D2`` holds the same keys
    (``shared``: one index), the grid less its inner keys with ``b = 4``
    (``holed``: the same spans, so one coding, and another index), a
    prefix of it (``prefix``: another coding). In ``sparse`` both hold
    108 keys that take 108 values in each column instead, a key space of
    108² (binary-searched). ``F``'s keys are drawn from ``D1``'s."""
    rng = np.random.default_rng(5)
    if layout == "sparse":
        grid = np.array([np.arange(108), np.arange(108) * 7 % 108])
    else:
        grid = np.array([(a, b) for a in range(12) for b in range(9)]).T
    d2 = {
        "shared": grid, "sparse": grid, "prefix": grid[:, :60],
        "holed": grid[:, (grid[1] != 4) | (grid[0] == 0) | (grid[0] == 11)],
    }[layout]

    def relation(name, columns, continuous):
        schema = RelationSchema(name, tuple(
            Attribute.continuous(attr) if attr in continuous
            else Attribute.categorical(attr)
            for attr in columns
        ))
        return Relation(schema, columns)

    def child(name, keys, value):
        return relation(name, {
            "a": keys[0], "b": keys[1],
            value: rng.integers(-2, 5, keys.shape[1]).astype(float),
        }, {value})

    rows = 400
    drawn = rng.integers(0, 108, rows)
    fact = relation("F", {
        "a": grid[0][drawn],
        "b": grid[1][drawn],
        "c": rng.integers(0, 5, rows),
        "x": rng.integers(-3, 7, rows).astype(float),
    }, {"x"})
    return Database([fact, child("D1", grid, "y"), child("D2", d2, "z")], name="share")


@pytest.mark.parametrize("layout, shares, one_index", [
    ("shared", True, True), ("holed", True, False), ("prefix", False, False),
    ("sparse", False, True),
])
def test_a_level_key_coded_once_reads_each_bindings_table(
    layout, shares, one_index, monkeypatch
):
    """A binding probed after another at one level with one key reads its
    own table at the first's code when both indexes address their keys
    directly in one coding (a shared direct index included), else looks
    the key up itself (a shared binary-searched index included); either
    way its results equal generated Python's."""
    real = cbackend._shares_coding
    seen = []

    def spy(keys, leader, descriptors):
        chosen = real(keys, leader, descriptors)
        seen.append((chosen, keys is leader))
        return chosen

    monkeypatch.setattr(cbackend, "_shares_coding", spy)
    db = _share_db(layout)
    batch = QueryBatch([
        Query("qy", group_by=("c",), aggregates=(Aggregate.count(), Aggregate.sum("y"))),
        Query("qz", group_by=("c",), aggregates=(Aggregate.sum("z"), Aggregate.sum("x"))),
    ])
    config = dict(
        join_tree_edges=(("F", "D1"), ("F", "D2")), executor="thread",
        workers=1, partitions=1,
    )
    native = LMFAO(db, EngineConfig(backend="c", **config)).run(batch)
    python = LMFAO(db, EngineConfig(backend="python", **config)).run(batch)
    assert all(g.backend == "c" for g in native.compiled.executables)
    assert seen == [(shares, one_index)]
    for name, want in python.results.items():
        assert_results_equal(native.results[name], want, rel_tol=1e-12)


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
