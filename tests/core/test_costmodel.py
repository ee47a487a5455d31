"""Unit tests for the cost-based adaptive execution layer.

The model (:mod:`repro.core.costmodel`) treats the config's execution
knobs as advisory upper bounds: partition fan-out is gated on rows *per
partition* and capped at real concurrency, and ``backend="auto"`` fixes a
backend per group at compile. These tests pin the decision rules themselves plus the
recorded regression the model exists to fix (partitions=4 slower than
sequential).
"""

from __future__ import annotations

import pytest

from repro.core import EngineConfig, LMFAO
from repro.core import costmodel
from repro.core.costmodel import (
    SMALL_TRIE_ROWS,
    effective_concurrency,
    effective_partitions,
    native_worthwhile,
)
from repro.core.cbackend import gcc_available
from repro.core.runtime import partition_tries
from repro.data import Attribute, Database, Relation, RelationSchema
from repro.data.trie import TrieIndex
from repro.paper import FAVORITA_TREE, example_queries
from repro.query import Aggregate, Query, QueryBatch
from repro.serve.fingerprint import batch_fingerprint
from repro.util.errors import PlanError

C = Attribute.categorical


def _single_relation_setup(rows: int = 10_000):
    """A 10k-row single-relation instance: the recorded misplan geometry
    (rows > parallel_threshold, but rows // threshold == 1)."""
    fact = Relation(
        RelationSchema("A", (C("k"), C("g"))),
        {"k": list(range(rows)), "g": [i % 7 for i in range(rows)]},
    )
    db = Database([fact])
    batch = QueryBatch(
        [Query("q", group_by=("g",), aggregates=(Aggregate.count(),))]
    )
    return db, fact, batch


# ------------------------------------------------------------- partitioning


def test_effective_partitions_gates_on_rows_per_partition():
    # the recorded misplan: 10k rows, default 8192 threshold, partitions=4
    # used to split into four ~2.5k-row slices; now it stays sequential.
    assert effective_partitions(10_000, 4, 8192) == 1
    assert effective_partitions(20_000, 4, 8192) == 2
    assert effective_partitions(40_000, 4, 8192) == 4
    assert effective_partitions(1_000_000, 4, 8192) == 4  # capped at config


def test_effective_partitions_zero_threshold_forces_fanout():
    # threshold == 0 is the escape hatch the differential grids pin: full
    # fan-out regardless of rows or concurrency.
    assert effective_partitions(10, 4, 0) == 4
    assert effective_partitions(10, 4, 0, concurrency=1) == 4


def test_effective_partitions_caps_at_concurrency():
    assert effective_partitions(1_000_000, 8, 8192, concurrency=2) == 2
    assert effective_partitions(1_000_000, 8, 8192, concurrency=1) == 1
    assert effective_partitions(1_000_000, 8, 8192, concurrency=16) == 8


def test_effective_partitions_trivial_cases():
    assert effective_partitions(1_000_000, 1, 8192) == 1
    assert effective_partitions(0, 4, 8192) == 1


def test_partition_tries_midsize_trie_runs_unpartitioned():
    """Satellite regression: ``partitions=4`` on a mid-size trie degrades
    to a single partition under the default threshold (rows per partition
    below the gate), while ``threshold=0`` still forces the fan-out."""
    db, fact, batch = _single_relation_setup()
    compiled = LMFAO(db, EngineConfig()).compile(batch)
    plan = compiled.plans[0]
    trie = TrieIndex(fact, plan.order)
    assert plan.partition_safe
    assert len(partition_tries(plan, trie, 4, 8192)) == 1
    assert len(partition_tries(plan, trie, 4, 0)) == 4
    # per-partition gate passes at threshold=2048, but one usable thread
    # means fan-out only adds merge work — the concurrency cap wins.
    assert len(partition_tries(plan, trie, 4, 2048)) == 4
    assert len(partition_tries(plan, trie, 4, 2048, concurrency=1)) == 1


def test_engine_run_records_partition_downgrade():
    """End-to-end over the engine: the run's decision record shows the
    advisory ``partitions=4`` downgraded to 1 on the misplan geometry and
    honoured under the forced-fan-out escape hatch."""
    db, _fact, batch = _single_relation_setup()
    # knobs pinned: the CI legs rewrite EngineConfig defaults
    config = EngineConfig(
        workers=1, partitions=4, parallel_threshold=8192,
        backend="numpy", executor="thread",
    )
    run = LMFAO(db, config).run(batch)
    assert run.decisions
    assert all(d["partitions"] == 1 for d in run.decisions.values())
    forced = LMFAO(
        db,
        EngineConfig(
            workers=1, partitions=4, parallel_threshold=0,
            backend="numpy", executor="thread",
        ),
    ).run(batch)
    assert any(d["partitions"] == 4 for d in forced.decisions.values())
    assert forced.results["q"].groups == run.results["q"].groups


def test_effective_concurrency_gil_and_cores():
    # pure Python under the thread executor is GIL-serialised (both knobs
    # pinned: the CI legs rewrite the EngineConfig defaults)
    assert effective_concurrency(
        EngineConfig(workers=8, backend="python", executor="thread")
    ) == 1
    cores = costmodel.usable_cores()
    assert effective_concurrency(
        EngineConfig(workers=8, backend="numpy", executor="thread")
    ) == min(8, cores)
    assert (
        effective_concurrency(EngineConfig(workers=2, executor="process"))
        == min(2, cores)
    )


# ------------------------------------------------------------ backend choice


def test_choose_backend_thresholds():
    # the row cut gates which groups get a C candidate at compile; the
    # others compile to NumPy
    assert not native_worthwhile(SMALL_TRIE_ROWS - 1)
    assert native_worthwhile(SMALL_TRIE_ROWS)


def test_auto_backend_runs_and_records_choice():
    db, _fact, batch = _single_relation_setup()
    baseline = LMFAO(
        db, EngineConfig(workers=1, partitions=1, backend="python")
    ).run(batch)
    run = LMFAO(
        db,
        EngineConfig(
            workers=1, partitions=1, backend="auto", executor="thread"
        ),
    ).run(batch)
    assert run.results["q"].groups == baseline.results["q"].groups
    assert run.decisions
    for decision in run.decisions.values():
        # 10k rows is past the small-trie cut: a native backend runs it
        assert decision["backend"] in {"numpy", "c"}


@pytest.mark.parametrize(
    "backend",
    [
        "python",
        "numpy",
        pytest.param(
            "c", marks=pytest.mark.skipif(not gcc_available(), reason="needs gcc")
        ),
        "auto",
    ],
)
def test_runs_record_the_backend_fixed_at_compile(favorita_db, backend):
    engine = LMFAO(favorita_db, EngineConfig(
        join_tree_edges=FAVORITA_TREE, backend=backend, executor="thread",
    ))
    compiled = engine.compile(example_queries())
    run = engine.execute(compiled)
    assert len(run.decisions) == compiled.num_groups
    for index, group in enumerate(compiled.group_plan.groups):
        assert run.decisions[group.name]["backend"] == (
            compiled.executables[index].backend
        ), group.name


def test_auto_backend_validation():
    with pytest.raises(PlanError, match="adaptive"):
        EngineConfig(backend="auto", adaptive=False).validate()
    with pytest.raises(PlanError, match="process"):
        EngineConfig(backend="auto", executor="process").validate()


# ------------------------------------------------------- fingerprint hygiene


def test_strategy_never_enters_structural_fingerprints():
    """Execution decisions come from the data (the backend from the
    compile snapshot, the partition count per run); they must not shift
    the serving layer's plan-cache key (the config itself, including
    ``adaptive``, does enter it)."""
    config = EngineConfig(backend="auto", executor="thread")
    fingerprints, backends = set(), set()
    for rows in (64, 10_000):
        db, _fact, batch = _single_relation_setup(rows=rows)
        engine = LMFAO(db, config)
        run = engine.run(batch)
        backends.update(d["backend"] for d in run.decisions.values())
        fingerprints.add(batch_fingerprint(batch, engine.tree, engine.config)[0])
    assert len(backends) == 2  # tiny trie on NumPy, the large one on C
    assert len(fingerprints) == 1
    adaptive_off = LMFAO(
        db,
        EngineConfig(backend="numpy", executor="thread", adaptive=False),
    )
    assert (
        batch_fingerprint(batch, adaptive_off.tree, adaptive_off.config)[0]
        not in fingerprints
    )
