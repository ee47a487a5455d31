"""Shared-memory lifecycle of the multiprocess executor.

The contract under test (see :mod:`repro.core.mpexec`):

* one segment per ``(snapshot version, trie)`` — created on first use,
  **reused** by every later run over the same version, and unlinked
  exactly once;
* closing the engine (or letting it be garbage-collected) unlinks every
  segment and leaves nothing in the process-wide registry or ``/dev/shm``;
* a segment lives exactly as long as its snapshot version: the engine's
  snapshot store is the one owner of that lifetime (the executor keeps no
  pins), so superseded versions are reclaimed once unpinned, while a
  version pinned through ``engine.pin_snapshot()`` survives concurrent
  ``apply`` — the run-during-apply guarantee;
* a closed executor exports nothing, and workers forget the warmed
  batches of garbage-collected compilations;
* a dying worker surfaces a clean :class:`PlanError` (never a hang) and
  the pool respawns transparently on next use.
"""

from __future__ import annotations

import gc
import multiprocessing
import os

import pytest

from repro.core import EngineConfig, LMFAO, mpexec
from repro.core.runtime import node_trie, trie_cache_key
from repro.data import Attribute, Database, Relation, RelationSchema
from repro.query import Aggregate, Op, Predicate, Query, QueryBatch
from repro.serve import AggregateServer
from repro.util.errors import PlanError

C = Attribute.categorical
X = Attribute.continuous

_PROCESS_CONFIG = EngineConfig(
    executor="process", workers=2, partitions=2, parallel_threshold=0
)


def _db(rows: int = 240) -> Database:
    sales = Relation(
        RelationSchema("Sales", (C("store"), C("item"), X("units"))),
        {
            "store": [i % 12 for i in range(rows)],
            "item": [i % 5 for i in range(rows)],
            "units": [float(i % 7) for i in range(rows)],
        },
    )
    return Database([sales])


def _batch() -> QueryBatch:
    return QueryBatch(
        [
            Query(
                "q",
                group_by=("store",),
                aggregates=(Aggregate.count(), Aggregate.sum("units")),
            )
        ]
    )


def _dev_shm_segments() -> set[str]:
    if not os.path.isdir("/dev/shm"):  # pragma: no cover - non-Linux
        return set()
    return {name for name in os.listdir("/dev/shm") if name.startswith("lmfao_")}


# ------------------------------------------------------------- segment reuse
def test_segments_created_once_per_version_and_reused():
    with LMFAO(_db(), _PROCESS_CONFIG) as engine:
        baseline = LMFAO(_db(), EngineConfig()).run(_batch())
        first = engine.run(_batch())
        executor = engine._process_executor()
        segments = executor.segment_names()
        assert len(segments) == 1  # one trie, one segment
        for _ in range(2):
            run = engine.run(_batch())
            assert run.results["q"].groups == baseline.results["q"].groups
        assert executor.segment_names() == segments  # reused, not re-exported
        assert first.results["q"].groups == baseline.results["q"].groups


def test_close_unlinks_every_segment():
    engine = LMFAO(_db(), _PROCESS_CONFIG)
    engine.run(_batch())
    executor = engine._process_executor()
    names = executor.segment_names()
    assert names
    assert set(names) <= set(mpexec.active_segment_names())
    assert set(names) <= _dev_shm_segments()
    engine.close()
    assert not set(names) & set(mpexec.active_segment_names())
    assert not set(names) & _dev_shm_segments()
    engine.close()  # idempotent


def test_garbage_collected_engine_unlinks_segments():
    engine = LMFAO(_db(), _PROCESS_CONFIG)
    engine.run(_batch())
    names = set(engine._process_executor().segment_names())
    assert names
    del engine
    gc.collect()
    assert not names & set(mpexec.active_segment_names())
    assert not names & _dev_shm_segments()


# ------------------------------------------------------- version pinning / GC
def test_superseded_version_collected_after_release():
    with LMFAO(_db(), _PROCESS_CONFIG) as engine:
        handle = engine.maintain(_batch())
        engine.run(_batch())  # export the current version's segments
        executor = engine._process_executor()
        old = set(executor.segment_names())
        assert old
        handle.apply(inserts={"Sales": [(1, 2, 3.0)]})
        engine.run(_batch())  # runs on the new version, then releases it
        current = set(executor.segment_names())
        assert not old & current, "superseded version's segments must be gone"
        assert current, "the new version has its own segments"
        oracle = LMFAO(engine.db, EngineConfig()).run(_batch())
        assert engine.run(_batch()).results["q"].groups == oracle.results["q"].groups


def test_pinned_version_survives_apply():
    """While a run holds a version pinned, installing a successor must not
    unlink the pinned version's segments (the mapped-trie guarantee)."""
    with LMFAO(_db(), _PROCESS_CONFIG) as engine:
        handle = engine.maintain(_batch())
        engine.run(_batch())  # export the current version's segments
        executor = engine._process_executor()
        old = set(executor.segment_names())
        assert old
        pinned = engine.pin_snapshot()  # what execute() does for the run
        try:
            handle.apply(inserts={"Sales": [(1, 2, 3.0)]})
            engine.run(_batch())  # new version exports; old one is pinned
            assert old <= set(executor.segment_names())
        finally:
            engine.release_snapshot(pinned.version)
        assert not old & set(executor.segment_names())


def test_closed_executor_exports_nothing():
    engine = LMFAO(_db(), _PROCESS_CONFIG)
    engine.run(_batch())
    executor = engine._process_executor()
    snapshot = engine.snapshot()
    plan = engine.compile(_batch()).plans[0]
    trie = node_trie(snapshot.db, plan.node, plan.order, snapshot.tries)
    engine.close()
    segments = mpexec.active_segment_names()
    with pytest.raises(PlanError, match="closed"):
        executor.export(
            snapshot.version + 1, trie_cache_key(plan.node, plan.order), [trie]
        )
    assert mpexec.active_segment_names() == segments


def test_recompute_closes_its_engine_without_waiting_for_gc():
    """``MaintainedBatch.recompute`` builds a throwaway engine; under the
    process executor that engine owns a worker pool and shm segments and
    sits in a reference cycle (snapshot-store reclaim hook → engine), so
    it must be closed on the way out, not left to a cyclic GC pass."""
    with LMFAO(_db(), _PROCESS_CONFIG) as engine:
        handle = engine.maintain(_batch())
        expected = engine.run(_batch()).results["q"].groups
        gc.collect()
        gc.disable()
        try:
            children = len(multiprocessing.active_children())
            segments = set(mpexec.active_segment_names())
            assert children and segments
            assert handle.recompute().results["q"].groups == expected
            assert len(multiprocessing.active_children()) == children
            assert set(mpexec.active_segment_names()) == segments
            assert segments <= _dev_shm_segments()
        finally:
            gc.enable()


# ------------------------------------------------------- merge determinism
def test_results_do_not_depend_on_worker_count():
    """The canonical chunk grid: merged float sums associate identically
    at every worker count (regression — per-worker chunking used to make
    ``workers=2`` and ``workers=4`` reassociate non-integral partials)."""
    rows = 240
    sales = Relation(
        RelationSchema("Sales", (C("store"), C("item"), X("units"))),
        {
            "store": [i % 12 for i in range(rows)],
            "item": [i % 5 for i in range(rows)],
            "units": [0.1 + (i % 7) / 3.0 for i in range(rows)],  # non-integral
        },
    )
    db = Database([sales])
    runs = []
    for workers in (1, 2, 4):
        with LMFAO(
            db,
            EngineConfig(
                executor="process", workers=workers, partitions=5,
                parallel_threshold=0,
            ),
        ) as engine:
            runs.append(engine.run(_batch()).results["q"].groups)
    assert runs[0] == runs[1] == runs[2]


# ------------------------------------------------------------ batch warm-up
def test_rebound_plan_cache_hits_warm_each_worker_once():
    """Every plan-cache hit executes its own rebound copy of the cached
    batch; the copies share the compiled plans, so a worker recompiles
    them once, not once per request."""

    def request(threshold: float) -> QueryBatch:
        return QueryBatch(
            [
                Query(
                    "q",
                    group_by=("store",),
                    aggregates=(Aggregate.count(), Aggregate.sum("units")),
                    where=(Predicate("units", Op.LE, threshold),),
                )
            ]
        )

    thresholds = (2.0, 3.0, 4.0, 5.0, 6.0)
    with AggregateServer(_db(), _PROCESS_CONFIG) as server:
        served = [server.run(request(t)) for t in thresholds]
        assert server.stats().plan_cache.hits == len(thresholds) - 1
        executor = server.engine._process_executor()
        assert executor._batch_counter == 1
        assert [len(keys) for keys in executor._warmed] == [1, 1]
    thread_config = EngineConfig(partitions=2, parallel_threshold=0)
    with AggregateServer(_db(), thread_config) as server:
        for threshold, run in zip(thresholds, served):
            oracle = server.run(request(threshold))
            assert run.results["q"].groups == oracle.results["q"].groups


def test_workers_forget_garbage_collected_batches():
    """A worker's warm cache is bounded by the live compilations: once a
    batch's group plan is collected, the next run tells every worker that
    warmed it to drop it."""
    with LMFAO(_db(), _PROCESS_CONFIG) as engine:
        executor = engine._process_executor()
        for threshold in range(20):
            batch = QueryBatch([
                Query(
                    "q",
                    group_by=("store",),
                    aggregates=(Aggregate.sum("units"),),
                    where=(Predicate("units", Op.LE, float(threshold)),),
                )
            ])
            engine.run(batch)
        assert executor._batch_counter == 20
        gc.collect()
        assert not executor._batch_keys  # every batch above is dead
        compiled = engine.compile(_batch())
        engine.execute(compiled)
        live = {executor._batch_key(compiled)}
        assert all(warmed <= live for warmed in executor._warmed)
        assert any(executor._warmed)


# ------------------------------------------------------------- worker crashes
def test_worker_death_raises_plan_error_not_hang():
    with LMFAO(_db(), _PROCESS_CONFIG) as engine:
        baseline = LMFAO(_db(), EngineConfig()).run(_batch())
        engine.run(_batch())
        executor = engine._process_executor()
        for proc in list(executor._procs):
            proc.kill()
        with pytest.raises(PlanError, match="worker process died"):
            engine.run(_batch())
        # the pool respawns transparently and the segments were kept
        run = engine.run(_batch())
        assert run.results["q"].groups == baseline.results["q"].groups
    assert not _dev_shm_segments() & set(mpexec.active_segment_names())


def test_worker_crash_leaks_no_segments():
    engine = LMFAO(_db(), _PROCESS_CONFIG)
    engine.run(_batch())
    executor = engine._process_executor()
    names = set(executor.segment_names())
    for proc in list(executor._procs):
        proc.kill()
    with pytest.raises(PlanError):
        engine.run(_batch())
    engine.close()
    assert not names & set(mpexec.active_segment_names())
    assert not names & _dev_shm_segments()


# ----------------------------------------------------------------- reporting
def test_worker_exception_carries_traceback():
    """An in-worker failure surfaces the worker's traceback, not a hang."""
    with LMFAO(_db(), _PROCESS_CONFIG) as engine:
        compiled = engine.compile(_batch())
        engine.run(_batch())
        executor = engine._process_executor()
        export = next(iter(executor._segments.values())).export
        index = next(
            i
            for i, plan in enumerate(compiled.plans)
            if mpexec.plan_function_names(plan)
        )
        with pytest.raises(PlanError, match="failed in a worker"):
            # an empty functions mapping cannot satisfy the plan — the
            # failure happens inside the worker and travels back whole
            executor.execute_group(compiled, index, export, {}, {}, {})
