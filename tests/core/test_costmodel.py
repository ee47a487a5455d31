"""Unit tests for the cost-based adaptive execution layer.

The model (:mod:`repro.core.costmodel`) treats the config's execution
knobs as advisory upper bounds: partition fan-out is gated on rows *per
partition* and capped at real concurrency, hash emissions may switch to
sort-based grouping, and ``backend="auto"`` picks a backend per group.
These tests pin the decision rules themselves plus the two recorded
regressions the model exists to fix (BENCH_parallel.json: partitions=4
slower than sequential; carried plans stuck on dense-key grouping).
"""

from __future__ import annotations

import pytest

from repro.core import EngineConfig, LMFAO
from repro.core import costmodel
from repro.core.costmodel import (
    MIN_SORT_ITEMS,
    SMALL_TRIE_ROWS,
    TrieStats,
    choose_backend,
    effective_concurrency,
    effective_partitions,
    emission_strategy,
    forced_strategy,
)
from repro.core.plan import Emission, EmissionSlot, KeyPart
from repro.core.runtime import partition_tries
from repro.data import Attribute, Database, Relation, RelationSchema
from repro.data.trie import TrieIndex
from repro.query import Aggregate, Query, QueryBatch
from repro.serve.fingerprint import batch_fingerprint
from repro.util.errors import PlanError

C = Attribute.categorical


@pytest.fixture(autouse=True)
def _unforced_model(monkeypatch):
    """These tests pin the model's *own* rules, so the tests-costmodel CI
    leg's global ``LMFAO_FORCE_STRATEGY`` must not leak in; the override
    behaviour itself is covered explicitly below (and the bit-exactness
    grids in test_parallel_properties.py force both paths)."""
    monkeypatch.delenv(costmodel.FORCE_STRATEGY_ENV, raising=False)


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


# --------------------------------------------------------- emission strategy


def _hash_emission(host_level: int, key_level: int) -> Emission:
    slot = EmissionSlot(
        slot=0,
        level=host_level,
        key_parts=(KeyPart("rel", key_level),),
        key_blocks=(),
        carried_factors=(),
        gamma=None,
        beta=None,
    )
    return Emission(
        artifact="V",
        kind="view",
        width=1,
        group_by=("x",),
        slots=(slot,),
        aligned=False,
    )


def test_emission_strategy_small_inputs_stay_on_hash():
    stats = TrieStats(rows=500, level_runs=(100, MIN_SORT_ITEMS - 1))
    assert emission_strategy(_hash_emission(1, 1), stats) == "hash"


def test_emission_strategy_nearly_unique_keys_sort():
    # no span statistics (None = unbounded): nearly-unique keys sort
    items = 4 * MIN_SORT_ITEMS
    stats = TrieStats(rows=items, level_runs=(items, items))
    assert emission_strategy(_hash_emission(1, 1), stats) == "sort"


def test_emission_strategy_repeating_keys_hash():
    items = 4 * MIN_SORT_ITEMS
    # key lives at level 0 with only 10 distinct runs: heavy repetition
    stats = TrieStats(rows=items, level_runs=(10, items))
    assert emission_strategy(_hash_emission(1, 0), stats) == "hash"


def test_emission_strategy_dense_code_space_stays_on_hash():
    """Nearly-unique keys alone are not enough: while the composite code
    space fits the hash grouper's O(n) presence scan, hash wins — sort
    needs the wide-key regime where hash degrades to a full sort."""
    items = 4 * MIN_SORT_ITEMS
    dense = TrieStats(
        rows=items,
        level_runs=(items, items),
        level_spans=(items, items),  # contiguous ints: span == distinct
    )
    assert emission_strategy(_hash_emission(1, 1), dense) == "hash"
    wide = TrieStats(
        rows=items,
        level_runs=(items, items),
        level_spans=(items, 1_000_000 * items),  # sparse ids
    )
    assert emission_strategy(_hash_emission(1, 1), wide) == "sort"
    floaty = TrieStats(
        rows=items,
        level_runs=(items, items),
        level_spans=(items, None),  # float keys: unbounded space
    )
    assert emission_strategy(_hash_emission(1, 1), floaty) == "sort"


def test_emission_strategy_non_hash_modes_ignore_the_model():
    items = 4 * MIN_SORT_ITEMS
    stats = TrieStats(rows=items, level_runs=(items, items))
    aligned = Emission(
        artifact="V", kind="view", width=1, group_by=("x",),
        slots=_hash_emission(1, 1).slots, aligned=True,
    )
    scalar = Emission(
        artifact="Q", kind="query", width=1, group_by=(),
        slots=_hash_emission(-1, 1).slots, aligned=False,
    )
    assert emission_strategy(aligned, stats) == "hash"
    assert emission_strategy(scalar, stats) == "hash"


def test_forced_strategy_env(monkeypatch):
    monkeypatch.delenv(costmodel.FORCE_STRATEGY_ENV, raising=False)
    assert forced_strategy() is None
    for value, expected in (("hash", "hash"), ("sort", "sort"), ("auto", None)):
        monkeypatch.setenv(costmodel.FORCE_STRATEGY_ENV, value)
        assert forced_strategy() == expected
    monkeypatch.setenv(costmodel.FORCE_STRATEGY_ENV, "bogus")
    with pytest.raises(PlanError, match="LMFAO_FORCE_STRATEGY"):
        forced_strategy()


def test_forced_strategy_overrides_the_model(monkeypatch):
    items = 4 * MIN_SORT_ITEMS
    sorty = TrieStats(rows=items, level_runs=(items, items))
    monkeypatch.setenv(costmodel.FORCE_STRATEGY_ENV, "hash")
    assert emission_strategy(_hash_emission(1, 1), sorty) == "hash"
    monkeypatch.setenv(costmodel.FORCE_STRATEGY_ENV, "sort")
    assert emission_strategy(_hash_emission(1, 1), sorty) == "sort"
    # ... but never touches non-grouping emissions
    scalar = Emission(
        artifact="Q", kind="query", width=1, group_by=(),
        slots=_hash_emission(-1, 1).slots, aligned=False,
    )
    assert emission_strategy(scalar, sorty) == "hash"


def test_run_decisions_pick_sort_for_high_cardinality_group_by():
    """A nearly-unique, *sparse-valued* group-by key on a large trie
    flips its emission to sort-based grouping on the NumPy backend (the
    wide value range pushes the composite code space out of the hash
    grouper's dense presence-scan regime) — and the outputs stay
    bit-identical to the sequential Python baseline."""
    rows = 6000
    fact = Relation(
        RelationSchema("A", (C("k"), C("g"), C("h"))),
        {
            "k": list(range(rows)),
            "g": [((i * 7) % rows) * 1_000_003 for i in range(rows)],
            "h": [((i * 13) % rows) * 1_000_033 for i in range(rows)],
        },
    )
    db = Database([fact])
    batch = QueryBatch([
        Query("q1", group_by=("g",), aggregates=(Aggregate.count(),)),
        Query("q2", group_by=("h",), aggregates=(Aggregate.count(),)),
    ])
    baseline = LMFAO(
        db, EngineConfig(workers=1, partitions=1, backend="python")
    ).run(batch)
    run = LMFAO(
        db,
        EngineConfig(
            workers=1, partitions=1, backend="numpy", executor="thread"
        ),
    ).run(batch)
    chosen = [
        strategy
        for decision in run.decisions.values()
        for strategy in decision["strategies"].values()
    ]
    assert "sort" in chosen, f"expected a sort-grouped emission, got {chosen}"
    for name in ("q1", "q2"):
        assert run.results[name].groups == baseline.results[name].groups


def test_adaptive_off_without_override_is_static_hash():
    db, _fact, batch = _single_relation_setup()
    run = LMFAO(
        db,
        EngineConfig(
            workers=1, partitions=1, backend="numpy",
            executor="thread", adaptive=False,
        ),
    ).run(batch)
    for decision in run.decisions.values():
        assert all(s == "hash" for s in decision["strategies"].values())


# ------------------------------------------------------------ backend choice


def test_choose_backend_thresholds():
    assert choose_backend(SMALL_TRIE_ROWS - 1, has_c=True) == "python"
    assert choose_backend(SMALL_TRIE_ROWS, has_c=True) == "c"
    assert choose_backend(SMALL_TRIE_ROWS, has_c=False) == "numpy"


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


def test_auto_backend_validation():
    with pytest.raises(PlanError, match="adaptive"):
        EngineConfig(backend="auto", adaptive=False).validate()
    with pytest.raises(PlanError, match="process"):
        EngineConfig(backend="auto", executor="process").validate()


# ------------------------------------------------------- fingerprint hygiene


def test_strategy_never_enters_structural_fingerprints(monkeypatch):
    """Execution-strategy decisions are re-decided per run; a forced
    strategy override must not shift the serving layer's plan-cache key
    (the config itself, including ``adaptive``, does enter it)."""
    db, _fact, batch = _single_relation_setup(rows=64)
    engine = LMFAO(
        db, EngineConfig(backend="numpy", executor="thread")
    )
    monkeypatch.delenv(costmodel.FORCE_STRATEGY_ENV, raising=False)
    base = batch_fingerprint(batch, engine.tree, engine.config)[0]
    for value in ("hash", "sort", "auto"):
        monkeypatch.setenv(costmodel.FORCE_STRATEGY_ENV, value)
        assert batch_fingerprint(batch, engine.tree, engine.config)[0] == base
    adaptive_off = LMFAO(
        db,
        EngineConfig(backend="numpy", executor="thread", adaptive=False),
    )
    assert (
        batch_fingerprint(batch, adaptive_off.tree, adaptive_off.config)[0]
        != base
    )
