"""Ordered differential grids: engine vs the independent ranking oracle.

The correctness anchor of the ordered-emission layer: for any generated
instance (adversarial tie distributions, ``k ∈ {0, 1, small, > group}``,
empty partitions — see :func:`tests.strategies.ordered_instances`), the
engine's finished results must match :func:`tests.oracle.ordered_oracle`
**as a sequence** — same rows, same rank order, same tie order — and
every point of the execution grid ``{python, numpy, c} × {thread,
process} × partitions`` must be bit-identical to the sequential Python
baseline — dict outputs reach the finisher through the one dict →
columns conversion, native columnar outputs with their own arrays.
Integer-valued data makes float64 exact, so
any divergence is a real kernel or merge bug, never numeric noise.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repro.core import EngineConfig, LMFAO
from repro.core.cbackend import gcc_available
from repro.data import Attribute, Database, Relation, RelationSchema
from repro.query import Aggregate, Factor, OrderSpec, Query, QueryBatch
from repro.query.functions import identity
from repro.util.errors import CyclicSchemaError

from tests.helpers import assert_results_equal
from tests.oracle import assert_ordered_equal, ordered_oracle
from tests.strategies import ordered_instances

_SETTINGS = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

_GRID = [(1, 2), (4, 1), (4, 5)]


def _oracle_checked_baseline(instance):
    """Sequential Python run, each query checked against the oracle."""
    try:
        engine = LMFAO(
            instance.db,
            EngineConfig(workers=1, partitions=1, parallel_threshold=0),
        )
    except CyclicSchemaError:
        pytest.skip("generated schema had a disconnected join graph")
    baseline = engine.execute(engine.compile(instance.batch))
    join = instance.db.materialize_join()
    for query in instance.batch:
        if query.is_ordered:
            assert_ordered_equal(
                baseline.results[query.name], ordered_oracle(join, query)
            )
        else:
            from tests.helpers import oracle

            assert_results_equal(baseline.results[query.name], oracle(join, query))
    return baseline


def _ranked_or_bag(result):
    return (
        list(result.groups.items())
        if result.query.is_ordered
        else result.groups
    )


def _grid_matches_baseline(instance, backend: str) -> None:
    baseline = _oracle_checked_baseline(instance)
    config = EngineConfig(
        backend=backend, workers=1, partitions=1, parallel_threshold=0
    )
    runner = LMFAO(instance.db, config)
    compiled = runner.compile(instance.batch)
    grid = _GRID if backend == "python" else [(1, 1), *_GRID]
    for workers, partitions in grid:
        runner.config = replace(config, workers=workers, partitions=partitions)
        run = runner.execute(compiled)
        for name, expected in baseline.results.items():
            assert _ranked_or_bag(run.results[name]) == _ranked_or_bag(expected), (
                f"{backend} backend, workers={workers}, "
                f"partitions={partitions}: {name} diverged"
            )


@given(instance=ordered_instances())
@settings(max_examples=20, **_SETTINGS)
def test_ordered_python_grid_vs_oracle(instance):
    _grid_matches_baseline(instance, "python")


@given(instance=ordered_instances())
@settings(max_examples=10, **_SETTINGS)
def test_ordered_numpy_grid_vs_oracle(instance):
    _grid_matches_baseline(instance, "numpy")


@pytest.mark.skipif(not gcc_available(), reason="gcc not on PATH")
@given(instance=ordered_instances())
@settings(max_examples=6, **_SETTINGS)
def test_ordered_c_grid_vs_oracle(instance):
    _grid_matches_baseline(instance, "c")


# ------------------------------------------------------- fixed process grid


def _star_instance(n=3000, seed=13):
    _C = Attribute.categorical
    _F = Attribute.continuous
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
    db = Database([fact, dim])
    batch = QueryBatch(
        [
            Query(
                "topk_gh",
                group_by=("g", "h"),
                aggregates=(
                    Aggregate((Factor("x", identity),)),
                    Aggregate.count(),
                ),
                order_by=OrderSpec(
                    agg_index=0, descending=True, partition_by=("g",)
                ),
                limit=2,
            ),
            Query(
                "topk_gw",  # carried block: w rides in from Dim
                group_by=("g", "w"),
                aggregates=(Aggregate((Factor("x", identity),)),),
                order_by=OrderSpec(agg_index=0, descending=False),
                limit=3,
            ),
            Query(
                "plain_h",
                group_by=("h",),
                aggregates=(Aggregate.count(),),
            ),
        ]
    )
    return db, batch


@pytest.mark.parametrize("backend", ["python", "numpy"])
def test_ordered_process_executor_bit_exact(backend):
    """The multiprocess executor point of the ordered grid."""
    db, batch = _star_instance()
    baseline = LMFAO(
        db, EngineConfig(workers=1, partitions=1, parallel_threshold=0)
    ).run(batch)
    join = db.materialize_join()
    for query in batch:
        if query.is_ordered:
            assert_ordered_equal(
                baseline.results[query.name], ordered_oracle(join, query)
            )
    engine = LMFAO(
        db,
        EngineConfig(
            backend=backend,
            executor="process",
            workers=3,
            partitions=4,
            parallel_threshold=0,
        ),
    )
    try:
        run = engine.run(batch)
        for name, expected in baseline.results.items():
            assert _ranked_or_bag(run.results[name]) == _ranked_or_bag(expected)
    finally:
        engine.close()
