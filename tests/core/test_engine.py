"""Engine behaviours: caching, parallelism, config knobs, results."""

import dataclasses
import gc
import weakref

import pytest

from repro.core import EngineConfig, LMFAO
from repro.core.cbackend import gcc_available
from repro.core.engine import _debug_check_run_consistency, _to_query_result
from repro.core.runtime import ArrayViewData, as_mapping
from repro.data import AttributeKind
from repro.paper import FAVORITA_TREE, example_queries
from repro.query import Aggregate, Op, OrderSpec, Predicate, Query, QueryBatch
from repro.util.errors import PlanError, QueryError

from tests.helpers import assert_results_equal, mapping_built, oracle, walk_all


def test_run_results_match_oracle(favorita_db, favorita_engine, favorita_join):
    run = favorita_engine.run(example_queries())
    for query in example_queries():
        assert_results_equal(run.results[query.name], oracle(favorita_join, query))


def _filtered_batch(threshold: float) -> QueryBatch:
    where = (Predicate("units", Op.GT, threshold),)
    return QueryBatch([
        Query("total", aggregates=(Aggregate.sum("units"),), where=where),
        Query("per_store", group_by=("store",),
              aggregates=(Aggregate.count(),), where=where),
    ])


def test_trie_cache_reused_across_runs(favorita_engine):
    favorita_engine.run(example_queries())
    cached = len(favorita_engine.snapshot().tries)
    favorita_engine.run(example_queries())
    assert len(favorita_engine.snapshot().tries) == cached
    # WHERE constants are indicator factors, never trie filters: a batch
    # differing only in them reuses every trie
    favorita_engine.run(_filtered_batch(2.0))
    cached = len(favorita_engine.snapshot().tries)
    favorita_engine.run(_filtered_batch(5.0))
    assert len(favorita_engine.snapshot().tries) == cached


def test_dropped_engine_is_freed_without_the_cyclic_collector(favorita_db):
    """The snapshot store's reclaim hook holds its engine weakly: dropping
    the last reference frees the engine, its snapshot and its tries by
    reference counting alone."""
    gc.disable()
    try:
        engine = LMFAO(favorita_db, EngineConfig(join_tree_edges=FAVORITA_TREE))
        engine.run(example_queries())
        snapshot = engine.snapshot()
        trie = next(iter(snapshot.tries.values()))
        refs = {
            "engine": weakref.ref(engine),
            "snapshot": weakref.ref(snapshot),
            "trie": weakref.ref(trie),
        }
        del engine, snapshot, trie
        assert [name for name, ref in refs.items() if ref() is not None] == []
    finally:
        gc.enable()


def test_compile_once_execute_many(favorita_db, favorita_engine):
    compiled = favorita_engine.compile(example_queries())
    first = favorita_engine.execute(compiled)
    second = favorita_engine.execute(compiled)
    for name in first.results:
        assert first.results[name].groups == second.results[name].groups


def test_parallel_workers_agree_with_sequential(favorita_db):
    batch = example_queries()
    sequential = LMFAO(
        favorita_db, EngineConfig(join_tree_edges=FAVORITA_TREE)
    ).run(batch)
    parallel = LMFAO(
        favorita_db, EngineConfig(join_tree_edges=FAVORITA_TREE, workers=4)
    ).run(batch)
    for name in sequential.results:
        assert sequential.results[name].groups == parallel.results[name].groups


def test_partitioned_execution_agrees_with_sequential(favorita_db):
    """Domain parallelism: partitioned runs match the unpartitioned run."""
    batch = example_queries()
    base = LMFAO(
        favorita_db,
        EngineConfig(join_tree_edges=FAVORITA_TREE, workers=1, partitions=1),
    ).run(batch)
    for workers in (1, 4):
        for partitions in (2, 5):
            run = LMFAO(
                favorita_db,
                EngineConfig(
                    join_tree_edges=FAVORITA_TREE,
                    workers=workers,
                    partitions=partitions,
                    parallel_threshold=0,
                ),
            ).run(batch)
            for name in base.results:
                assert_results_equal(run.results[name], base.results[name])


def test_partitioned_execution_is_deterministic(favorita_db):
    """Partials merge in partition order: results do not depend on workers."""
    batch = example_queries()
    runs = [
        LMFAO(
            favorita_db,
            EngineConfig(
                join_tree_edges=FAVORITA_TREE,
                workers=workers,
                partitions=3,
                parallel_threshold=0,
            ),
        ).run(batch)
        for workers in (1, 2, 4)
    ]
    for name in runs[0].results:
        for other in runs[1:]:
            assert runs[0].results[name].groups == other.results[name].groups


def test_below_threshold_runs_unpartitioned(favorita_db):
    """Small tries skip fan-out; a huge threshold must equal partitions=1."""
    batch = example_queries()
    base = LMFAO(
        favorita_db,
        EngineConfig(join_tree_edges=FAVORITA_TREE, workers=1, partitions=1),
    ).run(batch)
    run = LMFAO(
        favorita_db,
        EngineConfig(
            join_tree_edges=FAVORITA_TREE,
            workers=1,
            partitions=8,
            parallel_threshold=10**9,
        ),
    ).run(batch)
    for name in base.results:
        assert run.results[name].groups == base.results[name].groups


def test_failing_group_propagates_from_parallel_scheduler(favorita_db, monkeypatch):
    """A group exception must surface promptly, not deadlock the wait loop."""
    from repro.core.cbackend import CCompiledGroup
    from repro.core.codegen import CompiledGroup
    from repro.core.npbackend import NumpyCompiledGroup

    def boom(*args, **kwargs):
        raise RuntimeError("injected group failure")

    # every backend's compiled group fails where the group step calls it
    for group_class in (CompiledGroup, NumpyCompiledGroup, CCompiledGroup):
        monkeypatch.setattr(group_class, "execute", boom)
    engine = LMFAO(
        favorita_db, EngineConfig(join_tree_edges=FAVORITA_TREE, workers=4)
    )
    with pytest.raises(RuntimeError, match="injected group failure"):
        engine.run(example_queries())


def test_failing_prepare_propagates_from_parallel_scheduler(favorita_db, monkeypatch):
    """Failures in the trie/partitioning stage propagate too."""
    def boom(*args, **kwargs):
        raise ValueError("injected prepare failure")

    import repro.core.engine as engine_module

    engine = LMFAO(
        favorita_db, EngineConfig(join_tree_edges=FAVORITA_TREE, workers=2)
    )
    monkeypatch.setattr(engine_module, "node_trie", boom)
    with pytest.raises(ValueError, match="injected prepare failure"):
        engine.run(example_queries())


@pytest.mark.parametrize(
    "field, value, fragment",
    [
        ("workers", 0, "EngineConfig.workers must be an integer >= 1"),
        ("workers", -3, "EngineConfig.workers must be an integer >= 1"),
        ("partitions", 0, "EngineConfig.partitions must be an integer >= 1"),
        ("partitions", -1, "EngineConfig.partitions must be an integer >= 1"),
        (
            "parallel_threshold",
            -5,
            "EngineConfig.parallel_threshold must be an integer >= 0",
        ),
        ("backend", "rust", "EngineConfig.backend must be one of"),
        ("backend", None, "EngineConfig.backend must be one of"),
    ],
)
def test_execution_config_validation(favorita_db, field, value, fragment):
    """Every validation error names the offending config key and value."""
    from repro.util.errors import PlanError

    with pytest.raises(PlanError, match=fragment) as exc:
        LMFAO(favorita_db, EngineConfig(**{field: value}))
    assert repr(value) in str(exc.value)


def test_single_root_ablation_matches(favorita_db, favorita_join):
    batch = example_queries()
    run = LMFAO(
        favorita_db,
        EngineConfig(join_tree_edges=FAVORITA_TREE, single_root="Sales"),
    ).run(batch)
    for query in batch:
        assert_results_equal(run.results[query.name], oracle(favorita_join, query))
    assert set(run.compiled.roots.values()) == {"Sales"}


def test_single_root_auto_picks_largest(favorita_db):
    engine = LMFAO(
        favorita_db, EngineConfig(join_tree_edges=FAVORITA_TREE, single_root="auto")
    )
    compiled = engine.compile(example_queries())
    assert set(compiled.roots.values()) == {"Sales"}


def test_single_root_unknown_raises(favorita_db):
    from repro.util.errors import PlanError

    engine = LMFAO(
        favorita_db, EngineConfig(join_tree_edges=FAVORITA_TREE, single_root="Nope")
    )
    with pytest.raises(PlanError, match=r"EngineConfig\.single_root 'Nope'"):
        engine.compile(example_queries())


def test_timings_and_group_times_populated(favorita_engine):
    run = favorita_engine.run(example_queries())
    assert set(run.timings) >= {"compile", "execute", "collect"}
    assert run.total_time > 0
    assert len(run.group_times) == run.compiled.num_groups


def test_run_consistency_check_raises_a_typed_error(favorita_engine):
    # a typed error, not an assert: ``python -O`` must not drop the check
    run = favorita_engine.run(example_queries())
    _debug_check_run_consistency(run)
    dropped = sorted(run.decisions)[0]
    missing = {k: v for k, v in run.decisions.items() if k != dropped}
    with pytest.raises(PlanError, match=dropped):
        _debug_check_run_consistency(dataclasses.replace(run, decisions=missing))


def test_generated_source_accessible(favorita_engine):
    compiled = favorita_engine.compile(example_queries())
    for i in range(compiled.num_groups):
        source = compiled.generated_source(i)
        assert source.startswith("# generated multi-output plan")
        assert "def _run_group" in source


def test_empty_batch_query_on_empty_relation():
    """A database whose fact table is empty yields empty grouped results."""
    import numpy as np

    from repro.data import Attribute, Database, Relation, RelationSchema

    C = Attribute.categorical
    r1 = Relation(RelationSchema("A", (C("k"), C("v"))), {"k": [], "v": []})
    r2 = Relation(RelationSchema("B", (C("k"), C("w"))), {"k": [1], "w": [2]})
    db = Database([r1, r2])
    run = LMFAO(db).run(
        QueryBatch([Query("q", group_by=("w",), aggregates=(Aggregate.count(),))])
    )
    assert run.results["q"].groups == {}


def test_scalar_query_on_empty_join_returns_zero():
    from repro.data import Attribute, Database, Relation, RelationSchema

    C = Attribute.categorical
    r1 = Relation(RelationSchema("A", (C("k"),)), {"k": []})
    r2 = Relation(RelationSchema("B", (C("k"),)), {"k": [1]})
    db = Database([r1, r2])
    run = LMFAO(db).run(QueryBatch([Query("q", aggregates=(Aggregate.count(),))]))
    assert run.results["q"].scalar() == 0.0


def _raw_stores(db, batch, backend, **config) -> dict:
    """Every query's raw (unfinished) store after one walk of ``batch``."""
    engine = LMFAO(db, EngineConfig(
        backend=backend, executor="thread", workers=1, partitions=1, **config
    ))
    return walk_all(engine, engine.compile(batch)).query_raw


def _empty_fact_db():
    from repro.data import Attribute, Database, Relation, RelationSchema

    C = Attribute.categorical
    return Database([
        Relation(RelationSchema("A", (C("k"), C("v"))), {"k": [], "v": []}),
        Relation(RelationSchema("B", (C("k"), C("w"))), {"k": [1], "w": [2]}),
    ])


_COLLECTED = QueryBatch([
    Query("store_family", group_by=("store", "family"), aggregates=(
        Aggregate.count(), Aggregate.sum("units"),
    )),
    Query("store_txns", group_by=("store", "txns"), aggregates=(
        Aggregate.sum("units"),
    )),
    Query("price", group_by=("price",), aggregates=(Aggregate.count(),)),
    Query("total", aggregates=(Aggregate.sum("units"), Aggregate.count())),
    Query(
        "top_items", group_by=("store", "item"), aggregates=(Aggregate.sum("units"),),
        order_by=OrderSpec(agg_index=0, descending=True, partition_by=("store",)),
        limit=2,
    ),
])


def test_run_columns_are_the_rows_of_groups(favorita_db):
    """``RunResult.columns`` hands out the store each unordered result was
    finished from, row for row; an ordered query's store is unranked, so
    asking for it is an error."""
    run = LMFAO(favorita_db, EngineConfig(join_tree_edges=FAVORITA_TREE)).run(
        _COLLECTED
    )
    for query in _COLLECTED:
        if query.order_by is not None:
            with pytest.raises(QueryError, match="ordered"):
                run.columns(query.name)
            continue
        view = run.columns(query.name)
        keys = zip(*(c.tolist() for c in view.key_columns)) if view.key_columns \
            else [()] * len(view)
        rows = list(zip(keys, map(tuple, view.value_matrix.tolist())))
        assert rows == list(run.results[query.name].groups.items()), query.name


@pytest.mark.parametrize(
    "backend",
    [
        "numpy",
        pytest.param(
            "c", marks=pytest.mark.skipif(not gcc_available(), reason="needs gcc")
        ),
    ],
)
def test_columnar_collect_equals_the_dict_path(favorita_db, backend):
    """Every raw store is a view, collected off its arrays — its dict
    stays unbuilt — into its rows' keys (as tuples), key types, row order
    and values; scalar, empty and ordered results included."""
    raw = _raw_stores(favorita_db, _COLLECTED, backend, join_tree_edges=FAVORITA_TREE)
    raw.update(_raw_stores(
        _empty_fact_db(),
        QueryBatch([Query("empty", group_by=("w",), aggregates=(Aggregate.count(),))]),
        backend,
    ))
    queries = [*_COLLECTED, Query("empty", group_by=("w",))]
    python = LMFAO(
        favorita_db, EngineConfig(backend="python", join_tree_edges=FAVORITA_TREE)
    ).run(_COLLECTED).results
    for query in queries:
        store = raw[query.name]
        assert isinstance(store, ArrayViewData), query.name
        got = _to_query_result(query, store)
        assert not mapping_built(store), query.name
        if query.order_by is None:
            want = [
                (key if isinstance(key, tuple) else (key,), tuple(values))
                for key, values in as_mapping(store).items()
            ]
        else:  # ranked: the order every backend's finisher gives
            want = list(python[query.name].groups.items())
        assert list(got.groups.items()) == want, query.name
        key_types = [tuple(map(type, key)) for key in got.groups]
        if query.name == "empty":
            assert got.groups == {}
            continue
        kinds = tuple(
            float
            if favorita_db.schema.attribute_kind(a) is AttributeKind.CONTINUOUS
            else int
            for a in query.group_by
        )
        assert set(key_types) <= {kinds}, query.name
        # whole-unit sums and counts: exact on every backend
        assert got.groups == python[query.name].groups, query.name
