"""Differential bit-exactness of parallel execution on random instances.

The anchor property of the domain-parallel layer: for any tree-shaped
schema, any data and any sum-product batch, every point of the execution
grid ``{python, numpy, c} × {workers} × {partitions}`` must produce
**bit-for-bit** the same result dictionaries as the sequential Python
baseline (``backend="python", workers=1, partitions=1``; non-Python
backends are additionally checked at ``1 × 1``). The generated instances
are integer-valued
(see ``tests/strategies.py``), so float64 arithmetic is exact and
reassociation by partitioning cannot introduce drift — any difference is a
real merge or scheduling bug, never numeric noise.

``parallel_threshold=0`` forces fan-out even on tiny tries, which drags the
corner cases through the merge path: empty relations (empty partitions
cannot exist — ``TrieIndex.partitions`` never returns one — but empty
*tries* take the unsplittable path), single-run level-0 tries, and
partition counts exceeding the run count.

Since the carried-block lowering, the grid also runs **carried plans**
natively on the NumPy backend instead of falling back per group:
``carried_instances`` guarantees a cross-node group-by (hence a carried
block) in every generated batch, and the carried grid test asserts no
silent fallback happened.

The multiprocess executor extends the matrix along a second axis:
``{thread, process} × {python, numpy, c} × partitions``. The process
points run trie partitions in worker processes over shared-memory
segments (:mod:`repro.core.mpexec`) with local-combine-then-tree-reduce
merging — and must still be bit-identical to the sequential Python
baseline, including carried-heavy plans, empty relations and partition
counts exceeding the level-0 run count. Process engines are always
closed so the session-wide shared-memory leak fixture stays green.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings

from repro.core import EngineConfig, LMFAO
from repro.core.cbackend import gcc_available
from repro.util.errors import CyclicSchemaError

from tests.helpers import numpy_outputs_columnar
from tests.strategies import carried_instances, instances

_SETTINGS = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

_GRID = [
    (workers, partitions)
    for workers in (1, 4)
    for partitions in (1, 2, 5)
    if (workers, partitions) != (1, 1)
]


def _grid_matches_sequential_python(instance, backend: str) -> None:
    # Pin the baseline to truly sequential execution: the CI parallel leg
    # rewrites EngineConfig *defaults* (see tests/conftest.py), and the
    # anchor property must stay "grid vs sequential", not "grid vs grid".
    try:
        engine = LMFAO(
            instance.db,
            EngineConfig(workers=1, partitions=1, parallel_threshold=0),
        )
    except CyclicSchemaError:
        pytest.skip("generated schema had a disconnected join graph")
    baseline = engine.execute(engine.compile(instance.batch))

    config = EngineConfig(
        backend=backend, workers=1, partitions=1, parallel_threshold=0
    )
    runner = LMFAO(instance.db, config)
    compiled = runner.compile(instance.batch)
    # for non-Python backends the sequential 1×1 point is itself a
    # cross-backend differential check, so include it in the grid
    grid = _GRID if backend == "python" else [(1, 1), *_GRID]
    for workers, partitions in grid:
        runner.config = replace(config, workers=workers, partitions=partitions)
        with numpy_outputs_columnar():
            run = runner.execute(compiled)
        for name, expected in baseline.results.items():
            got = run.results[name]
            assert got.groups == expected.groups, (
                f"{backend} backend, workers={workers}, partitions={partitions}: "
                f"{name} diverged from the sequential Python baseline"
            )


@given(instance=instances())
@settings(max_examples=25, **_SETTINGS)
def test_python_grid_bit_exact(instance):
    _grid_matches_sequential_python(instance, "python")


@given(instance=instances())
@settings(max_examples=12, **_SETTINGS)
def test_numpy_grid_bit_exact(instance):
    _grid_matches_sequential_python(instance, "numpy")


@pytest.mark.skipif(not gcc_available(), reason="gcc not on PATH")
@given(instance=instances())
@settings(max_examples=8, **_SETTINGS)
def test_c_grid_bit_exact(instance):
    _grid_matches_sequential_python(instance, "c")


@given(instance=carried_instances())
@settings(max_examples=10, **_SETTINGS)
def test_numpy_grid_bit_exact_carried(instance):
    """Carried plans through the whole grid, natively — no fallbacks."""
    _grid_matches_sequential_python(instance, "numpy")
    try:
        compiled = LMFAO(
            instance.db, EngineConfig(backend="numpy")
        ).compile(instance.batch)
    except CyclicSchemaError:  # pragma: no cover - 2-relation star is a tree
        pytest.skip("generated schema had a disconnected join graph")
    assert any(plan.carried_blocks for plan in compiled.plans)
    assert compiled.native_group_count == compiled.num_groups


@pytest.mark.skipif(not gcc_available(), reason="gcc not on PATH")
@given(instance=carried_instances())
@settings(max_examples=5, **_SETTINGS)
def test_c_grid_bit_exact_carried(instance):
    """The C backend still falls back per group on carried plans; the
    grid stays bit-exact through the mixed native/Python execution."""
    _grid_matches_sequential_python(instance, "c")


# --------------------------------------------------------------- edge corners


def test_forced_strategy_edge_geometries():
    """Deterministic corners through the NumPy grouper at forced fan-out:
    an empty relation (zero grouped items), a single-key group-by (one
    group), and a partition count beyond the run count."""
    from repro.data import Attribute, Database, Relation, RelationSchema
    from repro.query import Aggregate, Query, QueryBatch

    C = Attribute.categorical
    batch = QueryBatch(
        [Query("q", group_by=("g",), aggregates=(Aggregate.count(),))]
    )
    for k, g in (
        ([], []),                          # empty relation
        ([1, 1, 2, 2], [3, 3, 3, 3]),      # single group key
        ([1, 1, 2, 2, 3, 3], [0, 1] * 3),  # 3 runs < 4 partitions
    ):
        fact = Relation(RelationSchema("A", (C("k"), C("g"))), {"k": k, "g": g})
        dim = Relation(
            RelationSchema("B", (C("k"), C("w"))),
            {"k": [1, 2, 3], "w": [5, 6, 7]},
        )
        db = Database([fact, dim])
        base = LMFAO(db, EngineConfig(workers=1, partitions=1)).run(batch)
        run = LMFAO(
            db,
            EngineConfig(
                backend="numpy", workers=1, partitions=4,
                parallel_threshold=0, executor="thread",
            ),
        ).run(batch)
        assert run.results["q"].groups == base.results["q"].groups, (
            f"k={k!r} g={g!r}"
        )


# ---------------------------------------------------------- process executor

_PROCESS_PARTITIONS = (2, 5)


def _process_grid_matches_sequential_python(instance, backend: str) -> None:
    """Every ``executor="process"`` grid point vs the sequential oracle.

    One 2-worker pool per instance (spawning processes per point would
    dominate the test); the partition axis varies per execute, which is
    how the engine reads it. The engine is closed afterwards so worker
    pools and shared-memory segments never outlive the example.
    """
    try:
        engine = LMFAO(
            instance.db,
            EngineConfig(workers=1, partitions=1, parallel_threshold=0),
        )
    except CyclicSchemaError:
        pytest.skip("generated schema had a disconnected join graph")
    baseline = engine.execute(engine.compile(instance.batch))

    config = EngineConfig(
        backend=backend, executor="process", workers=2, partitions=2,
        parallel_threshold=0,
    )
    runner = LMFAO(instance.db, config)
    try:
        compiled = runner.compile(instance.batch)
        for partitions in _PROCESS_PARTITIONS:
            runner.config = replace(config, partitions=partitions)
            run = runner.execute(compiled)
            for name, expected in baseline.results.items():
                got = run.results[name]
                assert got.groups == expected.groups, (
                    f"{backend} backend, executor=process, workers=2, "
                    f"partitions={partitions}: {name} diverged from the "
                    f"sequential Python baseline"
                )
    finally:
        runner.close()


@given(instance=instances())
@settings(max_examples=6, **_SETTINGS)
def test_process_python_grid_bit_exact(instance):
    _process_grid_matches_sequential_python(instance, "python")


@given(instance=instances())
@settings(max_examples=4, **_SETTINGS)
def test_process_numpy_grid_bit_exact(instance):
    _process_grid_matches_sequential_python(instance, "numpy")


@pytest.mark.skipif(not gcc_available(), reason="gcc not on PATH")
@given(instance=instances())
@settings(max_examples=3, **_SETTINGS)
def test_process_c_grid_bit_exact(instance):
    """Workers recompile the C groups locally (per-process warm-up)."""
    _process_grid_matches_sequential_python(instance, "c")


@given(instance=carried_instances())
@settings(max_examples=3, **_SETTINGS)
def test_process_numpy_grid_bit_exact_carried(instance):
    """Carried-heavy plans through the multiprocess merge, natively."""
    _process_grid_matches_sequential_python(instance, "numpy")


def test_process_grid_covers_empty_and_unsplittable():
    """Corner geometry under the process executor: an empty relation and a
    single-run level 0 both take the in-process fallback (nothing to
    ship), partition counts beyond the run count clamp — all bit-exact."""
    from repro.data import Attribute, Database, Relation, RelationSchema
    from repro.query import Aggregate, Query, QueryBatch

    C = Attribute.categorical
    batch = QueryBatch(
        [Query("q", group_by=("g",), aggregates=(Aggregate.count(),))]
    )
    for k, g in (
        ([], []),                       # empty relation
        ([1] * 9, [0, 1, 2] * 3),       # single level-0 run
        ([1, 1, 2, 2, 3, 3], [0, 1] * 3),  # 3 runs < 5 partitions
    ):
        fact = Relation(RelationSchema("A", (C("k"), C("g"))), {"k": k, "g": g})
        dim = Relation(
            RelationSchema("B", (C("k"), C("w"))),
            {"k": [1, 2, 3], "w": [5, 6, 7]},
        )
        db = Database([fact, dim])
        base = LMFAO(db, EngineConfig(workers=1, partitions=1)).run(batch)
        with LMFAO(
            db,
            EngineConfig(
                executor="process", workers=4, partitions=5,
                parallel_threshold=0,
            ),
        ) as runner:
            run = runner.run(batch)
        assert run.results["q"].groups == base.results["q"].groups


def test_process_executor_actually_ships_partitions():
    """A splittable trie under ``executor="process"`` really exports a
    shared-memory segment (the offload is not silently falling back)."""
    from repro.data import Attribute, Database, Relation, RelationSchema
    from repro.query import Aggregate, Query, QueryBatch

    C = Attribute.categorical
    fact = Relation(
        RelationSchema("A", (C("k"), C("g"))),
        {"k": [0, 0, 1, 1, 2, 2, 3, 3], "g": [0, 1] * 4},
    )
    db = Database([fact])
    batch = QueryBatch(
        [Query("q", group_by=("g",), aggregates=(Aggregate.count(),))]
    )
    with LMFAO(
        db,
        EngineConfig(
            executor="process", workers=2, partitions=2, parallel_threshold=0
        ),
    ) as runner:
        base = LMFAO(db, EngineConfig()).run(batch)
        run = runner.run(batch)
        assert run.results["q"].groups == base.results["q"].groups
        assert runner._process_executor().segment_names()


def test_grid_covers_single_run_level0():
    """A fact table with a constant join key yields a single level-0 run."""
    from repro.data import Attribute, Database, Relation, RelationSchema
    from repro.query import Aggregate, Query, QueryBatch

    C = Attribute.categorical
    fact = Relation(
        RelationSchema("A", (C("k"), C("g"))),
        {"k": [1] * 12, "g": [0, 1, 2] * 4},
    )
    dim = Relation(RelationSchema("B", (C("k"), C("w"))), {"k": [1, 2], "w": [5, 6]})
    db = Database([fact, dim])
    batch = QueryBatch(
        [Query("q", group_by=("g",), aggregates=(Aggregate.count(),))]
    )
    base = LMFAO(db, EngineConfig(workers=1, partitions=1)).run(batch)
    run = LMFAO(
        db, EngineConfig(workers=4, partitions=4, parallel_threshold=0)
    ).run(batch)
    assert run.results["q"].groups == base.results["q"].groups
    assert run.results["q"].groups != {}
