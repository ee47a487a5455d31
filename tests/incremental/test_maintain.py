"""Differential correctness of incremental maintenance.

The oracle is always a from-scratch run over the current database
(:meth:`MaintainedBatch.recompute` builds a fresh engine: cold tries,
recompilation). In ``"rescan"`` mode the maintained state must be
*bit-for-bit* equal to recomputation; in ``"auto"`` mode the numeric
fast path introduces only float-associativity drift, checked with the
standard tolerance helper.
"""

import numpy as np
import pytest

from repro.core import EngineConfig, LMFAO
from repro.incremental.rules import merge_delta_outputs, same_rows
from repro.paper import FAVORITA_TREE, example_queries
from repro.query import Aggregate, Factor, Query, QueryBatch
from repro.util.errors import PlanError

from tests.helpers import assert_results_equal


def retailer_queries() -> QueryBatch:
    return QueryBatch(
        [
            Query("total", aggregates=(Aggregate.sum("inventoryunits"),)),
            Query(
                "by_locn",
                group_by=("locn",),
                aggregates=(Aggregate.sum("inventoryunits"), Aggregate.count()),
            ),
            Query(
                "by_category",
                group_by=("category",),
                aggregates=(
                    Aggregate.product((Factor("prize"), Factor("inventoryunits"))),
                ),
            ),
        ]
    )


def _sample_rows(rng, relation, count):
    count = min(count, relation.num_rows)
    picks = rng.choice(relation.num_rows, size=count, replace=False)
    return [relation.row(int(i)) for i in picks]


def _random_delta(rng, db, relation_names):
    """One random insert or delete batch against the current database."""
    name = relation_names[int(rng.integers(len(relation_names)))]
    relation = db.relation(name)
    rows = _sample_rows(rng, relation, int(rng.integers(1, 6)))
    if rng.random() < 0.5:
        return {"inserts": {name: rows}}
    return {"deletes": {name: rows}}


def _reachable(handle, relations):
    """``(groups, views)`` an update to ``relations`` can reach: the groups
    at a changed node, then every group consuming a view a reached group
    produces, transitively — the static upper bound on what an apply
    round runs and refreshes."""
    plans = handle.compiled.plans
    groups = {i for i, plan in enumerate(plans) if plan.node in relations}
    while True:
        views = {view for i in groups for view in plans[i].produced_views}
        more = {
            i for i, plan in enumerate(plans)
            if views.intersection(plan.consumed_views)
        }
        if more <= groups:
            return groups, views
        groups |= more


def _node_groups(handle, relation):
    return [plan for plan in handle.compiled.plans if plan.node == relation]


def _assert_exact(handle):
    fresh = handle.recompute()
    for name, result in handle.results.items():
        assert result.groups == fresh.results[name].groups, name


def _assert_close(handle):
    fresh = handle.recompute()
    for name, result in handle.results.items():
        assert_results_equal(result, fresh.results[name])


# ------------------------------------------------------------- initial state
def test_initial_results_match_run(favorita_engine):
    batch = example_queries()
    handle = favorita_engine.maintain(batch)
    base = favorita_engine.run(batch)
    for query in batch:
        assert handle.results[query.name].groups == base.results[query.name].groups


# ------------------------------------------------------ differential (exact)
def test_interleaved_updates_exact_rescan(favorita_db):
    engine = LMFAO(
        favorita_db,
        EngineConfig(join_tree_edges=FAVORITA_TREE, incremental_mode="rescan"),
    )
    handle = engine.maintain(example_queries())
    rng = np.random.default_rng(17)
    for _ in range(6):
        handle.apply(**_random_delta(rng, handle.database, ("Sales", "Items", "Oil")))
        _assert_exact(handle)


def test_interleaved_updates_exact_rescan_retailer(retailer_db):
    engine = LMFAO(retailer_db, EngineConfig(incremental_mode="rescan"))
    handle = engine.maintain(retailer_queries())
    rng = np.random.default_rng(23)
    for _ in range(6):
        handle.apply(
            **_random_delta(rng, handle.database, ("Inventory", "Item", "Weather"))
        )
        _assert_exact(handle)


# ------------------------------------------------- differential (auto/numeric)
def test_interleaved_updates_auto(favorita_db):
    engine = LMFAO(favorita_db, EngineConfig(join_tree_edges=FAVORITA_TREE))
    handle = engine.maintain(example_queries())
    rng = np.random.default_rng(5)
    numeric_rounds = 0
    for _ in range(8):
        outcome = handle.apply(
            **_random_delta(rng, handle.database, ("Sales", "Items", "Holidays"))
        )
        numeric_rounds += outcome.groups_numeric
        _assert_close(handle)
    assert numeric_rounds > 0  # the fast path actually engaged


def test_interleaved_updates_auto_retailer(retailer_db):
    engine = LMFAO(retailer_db)
    handle = engine.maintain(retailer_queries())
    rng = np.random.default_rng(41)
    for _ in range(6):
        handle.apply(
            **_random_delta(rng, handle.database, ("Inventory", "Location", "Item"))
        )
        _assert_close(handle)


def test_dangling_inserts(favorita_engine):
    """Inserted facts referencing absent dimension keys join to nothing."""
    handle = favorita_engine.maintain(example_queries())
    items = handle.database.relation("Items")
    missing_item = int(items.column("item").max()) + 10
    outcome = handle.apply(
        inserts={"Sales": [(1, 1, missing_item, 99.0, 0)]}
    )
    assert outcome.groups_numeric > 0
    _assert_close(handle)


def test_maintained_rows_equal_recompute_as_a_mapping(favorita_engine, favorita_db):
    """After an insert-only apply, a maintained query's rows come from the
    per-key delta merge and ascend by key, while a from-scratch run emits
    an aligned query in trie order. Group-by ``(item, date)`` over the
    Sales trie ``(date, item, store)`` is a case where the two orders
    differ; the row order of an unordered result is backend-defined, so
    the handle and ``recompute()`` are equal as mappings."""
    batch = QueryBatch([
        Query(
            "by_item_date",
            group_by=("item", "date"),
            aggregates=(Aggregate.count(), Aggregate.sum("units")),
        )
    ])
    handle = favorita_engine.maintain(batch)
    sales = favorita_db.relation("Sales")
    handle.apply(inserts={"Sales": [sales.row(i) for i in range(0, 40, 4)]})
    fresh = handle.recompute()
    got = handle.results["by_item_date"].groups
    assert dict(got) == dict(fresh.results["by_item_date"].groups)


# ------------------------------------------------------- parallel configurations
@pytest.mark.parametrize("workers, partitions", [(4, 1), (1, 4), (4, 4)])
def test_interleaved_updates_exact_rescan_parallel(favorita_db, workers, partitions):
    """Maintenance refreshes dirty groups through the partitioned path.

    Same update sequence as :func:`test_interleaved_updates_exact_rescan`;
    the maintained state must stay bit-for-bit equal to a from-scratch
    recompute under the *same* parallel configuration (the maintainer and
    the executor split tries at the same cut points and merge in the same
    partition order).
    """
    engine = LMFAO(
        favorita_db,
        EngineConfig(
            join_tree_edges=FAVORITA_TREE,
            incremental_mode="rescan",
            workers=workers,
            partitions=partitions,
            parallel_threshold=0,
        ),
    )
    handle = engine.maintain(example_queries())
    rng = np.random.default_rng(17)
    for _ in range(6):
        handle.apply(**_random_delta(rng, handle.database, ("Sales", "Items", "Oil")))
        _assert_exact(handle)


@pytest.mark.parametrize("workers, partitions", [(4, 1), (1, 4), (4, 4)])
def test_interleaved_updates_auto_parallel(favorita_db, workers, partitions):
    """The numeric fast path composes with partitioned execution."""
    engine = LMFAO(
        favorita_db,
        EngineConfig(
            join_tree_edges=FAVORITA_TREE,
            workers=workers,
            partitions=partitions,
            parallel_threshold=0,
        ),
    )
    handle = engine.maintain(example_queries())
    rng = np.random.default_rng(5)
    numeric_rounds = 0
    for _ in range(8):
        outcome = handle.apply(
            **_random_delta(rng, handle.database, ("Sales", "Items", "Holidays"))
        )
        numeric_rounds += outcome.groups_numeric
        _assert_close(handle)
    assert numeric_rounds > 0


def test_parallel_initial_state_matches_engine_run(favorita_db):
    """handle construction and engine.run agree under a parallel config."""
    config = EngineConfig(
        join_tree_edges=FAVORITA_TREE, workers=4, partitions=3, parallel_threshold=0
    )
    engine = LMFAO(favorita_db, config)
    batch = example_queries()
    handle = engine.maintain(batch)
    run = engine.run(batch)
    for query in batch:
        assert handle.results[query.name].groups == run.results[query.name].groups


# ------------------------------------------------------------------ edge cases
def test_empty_apply_is_noop(favorita_engine):
    handle = favorita_engine.maintain(example_queries())
    before = {name: dict(r.groups) for name, r in handle.results.items()}
    outcome = handle.apply(inserts={"Sales": []})
    assert outcome.relations_changed == ()
    assert outcome.groups_numeric == outcome.groups_rescanned == 0
    assert outcome.groups_skipped == 0
    assert outcome.refreshed_queries == ()
    for name, groups in before.items():
        assert handle.results[name].groups == groups


def test_delete_to_empty_group(favorita_engine):
    handle = favorita_engine.maintain(example_queries())
    sales = handle.database.relation("Sales")
    store = int(sales.column("store")[0])
    assert (store,) in handle.results["Q2"].groups
    outcome = handle.apply(deletes={"Sales": sales.column("store") == store})
    assert "Sales" in outcome.relations_changed
    assert (store,) not in handle.results["Q2"].groups
    _assert_exact(handle)


def test_leaf_vs_root_touch_different_slices(favorita_engine):
    handle = favorita_engine.maintain(example_queries())
    oil = handle.database.relation("Oil")
    sales = handle.database.relation("Sales")

    oil_out = handle.apply(inserts={"Oil": [oil.row(0)]})
    sales_out = handle.apply(inserts={"Sales": [sales.row(0)]})
    total = len(handle.compiled.plans)
    for outcome, relation in ((oil_out, "Oil"), (sales_out, "Sales")):
        ran = outcome.groups_numeric + outcome.groups_rescanned
        assert ran + outcome.groups_skipped == total
        groups, views = _reachable(handle, {relation})
        assert ran <= len(groups)
        assert set(outcome.refreshed_views) <= views
        assert outcome.groups_skipped > 0  # something was off the dirty path
    _assert_close(handle)


def test_delta_cutoff_stops_propagation(favorita_engine):
    handle = favorita_engine.maintain(example_queries())
    rows = _sample_rows(np.random.default_rng(3), handle.database.relation("Sales"), 4)
    # net-zero change: delete and re-insert the same tuples in one round
    outcome = handle.apply(inserts={"Sales": rows}, deletes={"Sales": rows})
    assert outcome.refreshed_views == ()
    assert outcome.refreshed_queries == ()
    # only the groups at the Sales node ran; consumers were cut off
    assert outcome.groups_rescanned == len(_node_groups(handle, "Sales"))
    _assert_exact(handle)


def test_strict_numeric_mode_accepts_inserts(favorita_engine):
    """The default ``"auto"`` mode takes the numeric step on every
    insert-only delta."""
    handle = favorita_engine.maintain(example_queries())
    sales = handle.database.relation("Sales")
    outcome = handle.apply(inserts={"Sales": [sales.row(0)]})
    # every changed-node group took the O(|Δ|) path; only downstream
    # propagation (consumers of the refreshed views) rescanned
    assert outcome.groups_numeric == len(_node_groups(handle, "Sales"))
    _assert_close(handle)


def test_failed_apply_leaves_state_untouched(favorita_engine):
    """A bad delta in a multi-relation apply must not half-commit."""
    handle = favorita_engine.maintain(example_queries())
    items = handle.database.relation("Items")
    before_rows = handle.database.relation("Items").num_rows
    with pytest.raises(Exception):
        handle.apply(
            inserts={"Items": [items.row(0)]},
            deletes={"Sales": [(999, 999, 999, 1.0, 0)]},  # not present
        )
    assert handle.database.relation("Items").num_rows == before_rows
    _assert_exact(handle)


def test_unknown_incremental_mode_rejected(favorita_db):
    engine = LMFAO(
        favorita_db,
        EngineConfig(join_tree_edges=FAVORITA_TREE, incremental_mode="bogus"),
    )
    # the message names the config key and the offending value, like every
    # other EngineConfig validation error
    with pytest.raises(
        PlanError, match=r"EngineConfig\.incremental_mode .*'bogus'"
    ):
        engine.maintain(example_queries())


def test_merge_delta_outputs_is_copy_on_write():
    """The numeric merge builds the successor version's artifact without
    touching the previous one: neither the target's dict, nor its stored
    value lists, nor its columns may change — readers pinned to the old
    version keep a coherent artifact while the new version is being built
    (snapshot isolation). The merged result is a new view."""
    from repro.core.runtime import ArrayViewData, as_mapping

    target = ArrayViewData.from_arrays(
        [np.array([1, 2])], np.array([[1.0], [2.0]])
    )
    old_list = as_mapping(target)[2]
    delta = ArrayViewData.from_arrays(
        [np.array([2, 3])], np.array([[5.0], [7.0]])
    )
    merged, changed = merge_delta_outputs(target, delta)
    assert changed
    assert as_mapping(merged) == {1: [1.0], 2: [7.0], 3: [7.0]}
    assert merged is not target
    # the previous version is untouched — dict, lists and arrays alike
    assert as_mapping(target) == {1: [1.0], 2: [2.0]}
    assert as_mapping(target)[2] is old_list and old_list == [2.0]
    assert target.key_columns[0].tolist() == [1, 2]
    assert target.value_matrix.tolist() == [[1.0], [2.0]]
    # the delta *source* is never mutated either
    assert as_mapping(delta) == {2: [5.0], 3: [7.0]}
    assert delta.value_matrix.tolist() == [[5.0], [7.0]]
    # a change is a new key (even all-zero) or a non-zero slot
    zero_old = ArrayViewData.from_arrays([np.array([2])], np.array([[0.0]]))
    zero_new = ArrayViewData.from_arrays([np.array([9])], np.array([[0.0]]))
    assert merge_delta_outputs(target, zero_old)[1] is False
    assert merge_delta_outputs(target, zero_new)[1] is True


def test_numeric_merge_never_leaks_desynced_arrays(favorita_db, monkeypatch):
    """End-to-end incremental guard under LMFAO_DEBUG with the NumPy
    backend: carried plans included, columnar views merged through the
    copy-on-write delta merge must give the recompute's results after
    init and every apply."""
    monkeypatch.setenv("LMFAO_DEBUG", "1")
    batch = QueryBatch(
        [
            Query("units_total", aggregates=(Aggregate.sum("units"),)),
            # cross-node group-by: carried block in the root plan
            Query("store_class", group_by=("store", "class"), aggregates=(
                Aggregate.sum("units"), Aggregate.count(),
            )),
        ]
    )
    engine = LMFAO(
        favorita_db,
        EngineConfig(join_tree_edges=FAVORITA_TREE, backend="numpy"),
    )
    handle = engine.maintain(batch)
    sales = favorita_db.relation("Sales")
    handle.apply(inserts={"Sales": [sales.row(0), sales.row(1)]})
    handle.apply(deletes={"Sales": [sales.row(0)]})
    recomputed = handle.recompute()
    for name in recomputed.results:
        assert_results_equal(handle[name], recomputed.results[name])


# ------------------------------------------------------------ dirty-path bound
def test_affected_views_cover_changed_view_names(favorita_db):
    # rescan mode keeps the state bit-exact, so a view off the static
    # dirty path can never spuriously report as refreshed
    engine = LMFAO(
        favorita_db,
        EngineConfig(join_tree_edges=FAVORITA_TREE, incremental_mode="rescan"),
    )
    handle = engine.maintain(example_queries())
    rng = np.random.default_rng(29)
    for relation in ("Sales", "Items", "Oil", "Holidays"):
        allowed = _reachable(handle, {relation})[1]
        delta = {
            "inserts": {
                relation: _sample_rows(rng, handle.database.relation(relation), 3)
            }
        }
        outcome = handle.apply(**delta)
        assert set(outcome.refreshed_views) <= allowed, relation



# ------------------------------------------------------- rounds on the walk
def _round_counters(outcome):
    return (
        outcome.refreshed_queries, outcome.refreshed_views,
        outcome.relations_changed, outcome.groups_numeric,
        outcome.groups_rescanned, outcome.groups_skipped, outcome.version,
    )


def test_rounds_on_the_thread_scheduler_match_the_serial_walk(
    favorita_db, monkeypatch
):
    """A maintained round is a run of the engine's DAG walk, so under
    ``workers > 1`` its commits go through the thread scheduler — and
    give bit for bit what the serial walk gives. Both handles split
    Sales-sized tries at the same literal fan-out (``adaptive=False``), so
    the only difference is who runs the group step's calls."""
    pooled: list[str] = []
    walk = LMFAO._walk_pooled

    def spy(self, run, skipped):
        pooled.append(type(run).__name__)
        return walk(self, run, skipped)

    monkeypatch.setattr(LMFAO, "_walk_pooled", spy)

    def handle(workers: int):
        config = EngineConfig(
            join_tree_edges=FAVORITA_TREE, executor="thread", workers=workers,
            partitions=2, parallel_threshold=0, adaptive=False,
        )
        return LMFAO(favorita_db, config).maintain(example_queries())

    serial, parallel = handle(1), handle(2)
    assert pooled == ["GroupRun"]  # the parallel handle's first walk
    rng = np.random.default_rng(41)
    rounds = 10
    for _ in range(rounds):
        delta = _random_delta(rng, serial.database, ("Sales", "Items", "Oil"))
        want, got = serial.apply(**delta), parallel.apply(**delta)
        assert _round_counters(got) == _round_counters(want)
        for name, result in want.results.items():
            assert list(got[name].groups.items()) == list(result.groups.items())
    # every commit of the parallel handle entered the pooled walk
    assert pooled == ["GroupRun"] + ["MaintainedRound"] * rounds


def test_a_round_checks_its_group_records_under_debug(favorita_engine, monkeypatch):
    """Under LMFAO_DEBUG a round, like a run, has one decision and one
    wall-clock entry for every group it stepped and neither for a group it
    did not; a round that breaks this raises and commits nothing."""
    from repro.incremental.maintain import MaintainedRound

    monkeypatch.setenv("LMFAO_DEBUG", "1")
    handle = favorita_engine.maintain(example_queries())
    sales = handle.database.relation("Sales")
    outcome = handle.apply(inserts={"Sales": [sales.row(0)]})
    assert outcome.groups_skipped > 0 and outcome.groups_numeric > 0
    step = MaintainedRound.step

    def leaky(self, index):
        stepped, trie = step(self, index)
        if not stepped:  # a skipped group that leaves a decision behind
            self.decisions[self.compiled.group_plan.groups[index].name] = {}
        return stepped, trie

    monkeypatch.setattr(MaintainedRound, "step", leaky)
    version = handle.version
    with pytest.raises(PlanError, match="decisions diverge"):
        handle.apply(inserts={"Sales": [sales.row(1)]})
    assert handle.version == version


def test_same_rows_compares_views_as_bags():
    """The rescan cutoff reads columns, not dicts, with the dicts'
    equality: rows in any order, ``-0.0 == 0.0``, and a NaN key or slot
    always a change."""
    from repro.core.runtime import ArrayViewData, as_mapping

    def view(keys, values):
        return ArrayViewData.from_arrays(
            [np.array(column) for column in keys], np.array(values, dtype=float)
        )

    old = view([[1, 2, 3], [0.5, 0.0, 7.0]], [[1.0, 2.0], [3.0, -0.0], [5.0, 6.0]])
    shuffled = view([[3, 1, 2], [7.0, 0.5, -0.0]], [[5.0, 6.0], [1.0, 2.0], [3.0, 0.0]])
    assert same_rows(old, shuffled) and same_rows(shuffled, old)
    assert as_mapping(old) == as_mapping(shuffled)
    for changed in (
        view([[1, 2, 4], [0.5, 0.0, 7.0]], [[1.0, 2.0], [3.0, 0.0], [5.0, 6.0]]),
        view([[1, 2, 3], [0.5, 0.0, 7.0]], [[1.0, 2.0], [3.0, 0.0], [5.0, 6.5]]),
        view([[1, 2], [0.5, 0.0]], [[1.0, 2.0], [3.0, 0.0]]),
    ):
        assert not same_rows(old, changed)
        assert as_mapping(old) != as_mapping(changed)
    keys, values = [[1, 2, 3], [0.5, 0.0, 7.0]], [[1.0, 2.0], [3.0, 0.0], [5.0, 6.0]]
    nan_slot = view(keys, [*values[:2], [5.0, np.nan]])
    nan_key = view([keys[0], [0.5, 0.0, np.nan]], values)
    assert same_rows(view(keys, values), view(keys, values))
    for view_with_nan in (nan_slot, nan_key):
        assert not same_rows(view_with_nan, view_with_nan)
    # scalar views: one row, no keys
    assert same_rows(view([], [[0.0, 1.0]]), view([], [[-0.0, 1.0]]))
    assert not same_rows(view([], [[np.nan]]), view([], [[np.nan]]))
    assert same_rows(view([[]], np.zeros((0, 1))), view([[]], np.zeros((0, 1))))
