"""The group-committed write path: queue semantics, crash containment,
backpressure, and snapshot GC under concurrent readers and writers.

Unit tests drive :class:`WriteQueue` against an instrumented commit
callback (gate it, fail it, count it) for deterministic group shapes;
integration tests drive :class:`AggregateServer` and assert the grouped
outcome bit-exact against a sequential one-delta-at-a-time oracle.
"""

import threading
import time

import numpy as np
import pytest

from repro.core import EngineConfig, LMFAO
from repro.data import Attribute, Relation, RelationSchema
from repro.incremental.delta import RelationDelta, normalize_deltas
from repro.paper import FAVORITA_TREE
from repro.query import Aggregate, Op, Predicate, Query, QueryBatch
from repro.serve import AggregateServer, WriteOverloadError, WriteQueue
from repro.util.errors import PlanError, SchemaError

_SCHEMA = RelationSchema("R", (Attribute.categorical("a"),))


def _ins(*values):
    """An insert-only delta map on the toy relation R."""
    return {
        "R": RelationDelta(
            relation="R", inserts=Relation.from_rows(_SCHEMA, [(v,) for v in values])
        )
    }


def _mask(*flags):
    return {"R": RelationDelta(relation="R", delete_mask=np.array(flags, dtype=bool))}


class _Committer:
    """Instrumented commit callback: gate it, fail it, record its groups."""

    def __init__(self):
        self.groups = []
        self.version = 0
        self.gate = threading.Event()
        self.gate.set()
        self.entered = threading.Event()
        self.fail_next = None

    def __call__(self, deltas):
        self.entered.set()
        assert self.gate.wait(timeout=30), "test gate never opened"
        if self.fail_next is not None:
            exc, self.fail_next = self.fail_next, None
            raise exc
        self.groups.append(deltas)
        self.version += 1
        return self.version, {}


# ------------------------------------------------------------ queue semantics
def test_queued_writes_commit_as_one_group():
    committer = _Committer()
    committer.gate.clear()
    queue = WriteQueue(committer, capacity=16)
    first = queue.submit(_ins(1))
    # once the committer is inside commit(), the first group is fixed at
    # exactly [first]; everything submitted now lands behind the gate
    assert committer.entered.wait(timeout=10)
    rest = [queue.submit(_ins(v)) for v in (2, 3, 4, 5)]
    committer.gate.set()
    queue.flush()
    assert first.result() == 1
    assert all(t.result() == 2 for t in rest)  # 4 writes, ONE transition
    stats = queue.stats()
    assert stats.enqueued == 5
    assert stats.committed_writes == 5
    assert stats.committed_groups == 2
    assert stats.largest_group == 4
    assert stats.queued == 0
    assert stats.last_committed_version == 2
    # the second commit saw the composed delta of all four writes
    assert committer.groups[1]["R"].num_inserts == 4
    queue.close()


def test_delete_mask_starts_a_new_group():
    committer = _Committer()
    committer.gate.clear()
    queue = WriteQueue(committer, capacity=16)
    queue.submit(_ins(1))
    assert committer.entered.wait(timeout=10)
    queue.submit(_ins(2))
    queue.submit(_mask(True))  # unmergeable onto the insert ahead of it
    queue.submit(_ins(3))  # ...but merges onto the mask entry
    committer.gate.set()
    queue.close(flush=True)
    assert [g["R"].num_inserts for g in committer.groups] == [1, 1, 1]
    assert committer.groups[2]["R"].delete_mask is not None
    assert queue.stats().committed_groups == 3


def test_commit_failure_fails_only_that_group_and_committer_survives():
    committer = _Committer()
    committer.fail_next = SchemaError("injected: delete of an absent tuple")
    queue = WriteQueue(committer, capacity=16)
    doomed = queue.submit(_ins(1))
    with pytest.raises(SchemaError, match="injected"):
        doomed.result(timeout=10)
    queue.flush()  # failed writes still count as finished: no hang
    survivor = queue.submit(_ins(2))
    assert survivor.result(timeout=10) == 1
    stats = queue.stats()
    assert stats.failed_writes == 1
    assert stats.committed_writes == 1
    queue.close()


def test_reject_policy_raises_typed_overload_without_enqueueing():
    committer = _Committer()
    committer.gate.clear()
    queue = WriteQueue(committer, capacity=1, policy="reject")
    held = queue.submit(_ins(1))
    assert committer.entered.wait(timeout=10)  # popped: the queue is empty
    queued = queue.submit(_ins(2))  # fills the single slot
    with pytest.raises(WriteOverloadError):
        queue.submit(_ins(3))
    committer.gate.set()
    queue.flush()
    assert held.result() == 1 and queued.result() == 2
    stats = queue.stats()
    assert stats.rejected_writes == 1
    assert stats.enqueued == 2  # the rejected write never entered the queue
    queue.close()


def test_coalesce_policy_merges_into_the_newest_entry():
    committer = _Committer()
    committer.gate.clear()
    queue = WriteQueue(committer, capacity=1, policy="coalesce")
    queue.submit(_ins(1))
    assert committer.entered.wait(timeout=10)
    tail = queue.submit(_ins(2))
    merged = [queue.submit(_ins(v)) for v in (3, 4)]  # full queue: merge
    committer.gate.set()
    queue.flush()
    assert tail.result() == 2
    assert all(t.result() == 2 for t in merged)
    stats = queue.stats()
    assert stats.coalesced_writes == 2
    assert stats.committed_groups == 2
    assert committer.groups[1]["R"].num_inserts == 3
    queue.close()


def test_flush_timeout_raises_and_later_flush_succeeds():
    committer = _Committer()
    committer.gate.clear()
    queue = WriteQueue(committer, capacity=4)
    ticket = queue.submit(_ins(1))
    with pytest.raises(TimeoutError):
        queue.flush(timeout=0.05)
    committer.gate.set()
    queue.flush(timeout=10)
    assert ticket.result() == 1
    queue.close()


def test_close_flush_false_discards_and_releases_every_waiter():
    committer = _Committer()
    committer.gate.clear()
    queue = WriteQueue(committer, capacity=16)
    inflight = queue.submit(_ins(1))
    assert committer.entered.wait(timeout=10)
    discarded = queue.submit(_ins(2))
    flush_error = []

    def flusher():
        try:
            queue.flush(timeout=30)
        except PlanError as exc:
            flush_error.append(exc)

    waiter = threading.Thread(target=flusher)
    waiter.start()
    closer = threading.Thread(target=queue.close, kwargs={"flush": False})
    closer.start()
    waiter.join(timeout=10)
    assert not waiter.is_alive(), "flush waiter hung through an aborting close"
    assert flush_error and "discarded" in str(flush_error[0])
    with pytest.raises(PlanError, match="discards queued writes"):
        discarded.result(timeout=10)
    # the group being committed right now always completes
    committer.gate.set()
    closer.join(timeout=10)
    assert not closer.is_alive()
    assert inflight.result(timeout=10) == 1
    assert queue.stats().failed_writes == 1
    queue.close()  # idempotent


def test_blocked_submitter_is_woken_and_refused_by_close():
    committer = _Committer()
    committer.gate.clear()
    queue = WriteQueue(committer, capacity=1)
    queue.submit(_ins(1))
    assert committer.entered.wait(timeout=10)
    queue.submit(_ins(2))  # queue now full: the next submit blocks
    errors = []

    def blocked_writer():
        try:
            queue.submit(_ins(3))
        except PlanError as exc:
            errors.append(exc)

    writer = threading.Thread(target=blocked_writer)
    writer.start()
    time.sleep(0.05)  # give the writer a chance to block on queue space
    closer = threading.Thread(target=queue.close, kwargs={"flush": False})
    closer.start()
    writer.join(timeout=10)
    assert not writer.is_alive(), "blocked submit hung through close"
    assert errors and "closed" in str(errors[0])
    committer.gate.set()
    closer.join(timeout=10)


def test_queue_validates_capacity_and_policy():
    with pytest.raises(PlanError, match="capacity"):
        WriteQueue(_Committer(), capacity=0)
    with pytest.raises(PlanError, match="policy"):
        WriteQueue(_Committer(), policy="drop")


# -------------------------------------------------------- server integration
def _batch(t_units=3.0, t_item=10.0):
    return QueryBatch(
        [
            Query(
                "scalar",
                aggregates=(Aggregate.sum("units"),),
                where=(Predicate("units", Op.LE, t_units),),
            ),
            Query(
                "by_store",
                group_by=("store",),
                aggregates=(Aggregate.sum("units"), Aggregate.count()),
                where=(
                    Predicate("units", Op.LE, t_units),
                    Predicate("item", Op.GE, t_item),
                ),
            ),
            Query(
                "cross",
                group_by=("store", "class"),
                aggregates=(Aggregate.count(),),
            ),
        ]
    )


def _groups(run):
    return {name: result.groups for name, result in run.results.items()}


def _final_oracle(db, batch, rounds, config):
    """Replay the deltas one at a time; the final state's from-scratch run."""
    current = db
    for inserts, deletes in rounds:
        for name, delta in normalize_deltas(current, inserts, deletes).items():
            current = current.with_relation(delta.apply_to(current.relation(name)))
    return current, _groups(LMFAO(current, config).run(batch))


def _configs():
    return {
        "thread": EngineConfig(join_tree_edges=FAVORITA_TREE),
        "process": EngineConfig(
            join_tree_edges=FAVORITA_TREE,
            executor="process",
            workers=2,
            partitions=2,
            parallel_threshold=0,
        ),
    }


@pytest.mark.parametrize("executor", ["thread", "process"])
def test_grouped_commits_bit_exact_vs_sequential_oracle(favorita_db, executor):
    """Force real grouping, then compare against one-delta-at-a-time replay.

    Favorita's units are integer-valued, so every SUM/COUNT is exact in
    float64 and "bit-exact" is well-defined regardless of how writes
    were grouped.
    """
    config = _configs()[executor]
    batch = _batch()
    sales = favorita_db.relation("Sales")
    rounds = [
        ({"Sales": [sales.row(0)]}, None),
        ({"Sales": [sales.row(1), sales.row(2)]}, None),
        (None, {"Sales": [sales.row(0)]}),  # cancels against round 1's insert
        ({"Sales": [sales.row(3)]}, None),
        (None, {"Sales": [sales.row(5)]}),  # a genuine base-relation delete
        ({"Sales": [sales.row(4)]}, None),
    ]
    _, oracle = _final_oracle(favorita_db, batch, rounds, config)
    with AggregateServer(favorita_db, config) as server:
        handle = server.maintain(batch)
        with server._commit_mutex:  # stall the committer mid-first-group
            tickets = [
                server.apply(inserts=inserts, deletes=deletes, sync=False)
                for inserts, deletes in rounds
            ]
        final_version = server.flush()
        versions = [t.result(timeout=30) for t in tickets]
        stats = server.stats()
        # every write committed, in strictly fewer transitions than writes
        assert stats.writes.committed_writes == len(rounds)
        assert stats.writes.committed_groups == final_version
        assert final_version < len(rounds)
        assert versions == sorted(versions)
        assert _groups(server.run(batch)) == oracle
        # the maintained handle was refreshed by those same group commits
        assert {n: r.groups for n, r in handle.results.items()} == oracle
        # no pins outstanding: GC keeps only the current version alive
        assert server.stats().live_snapshots == 1


def test_handle_writes_route_through_queue_and_refresh_every_handle(favorita_db):
    config = EngineConfig(join_tree_edges=FAVORITA_TREE)
    sales = favorita_db.relation("Sales")
    with AggregateServer(favorita_db, config) as server:
        first = server.maintain(_batch(3.0, 10.0))
        second = server.maintain(_batch(7.0, 25.0))
        outcome = first.apply(inserts={"Sales": [sales.row(0), sales.row(1)]})
        assert outcome.version == 1 == server.version
        # a plain server.apply also refreshes both handles
        assert server.apply(deletes={"Sales": [sales.row(0)]}) == 2
        current = server.engine.snapshot().db
        for handle, thresholds in ((first, (3.0, 10.0)), (second, (7.0, 25.0))):
            fresh = _groups(LMFAO(current, config).run(_batch(*thresholds)))
            assert {n: r.groups for n, r in handle.results.items()} == fresh


def test_concurrent_writers_serialise_without_version_conflicts(favorita_db):
    config = EngineConfig(join_tree_edges=FAVORITA_TREE)
    batch = _batch()
    sales = favorita_db.relation("Sales")
    rows = [sales.row(i) for i in range(20)]
    with AggregateServer(favorita_db, config) as server:
        handle = server.maintain(batch)
        errors = []
        writers_done = threading.Event()
        live_samples = []

        def writer(chunk):
            try:
                for row in chunk:
                    server.apply(inserts={"Sales": [row]})
            except Exception as exc:  # noqa: BLE001 — recorded for the assert
                errors.append(exc)

        def reader():
            try:
                while True:  # at least one sample, however fast the writers
                    server.run(batch)
                    live_samples.append(server.stats().live_snapshots)
                    if writers_done.is_set():
                        break
            except Exception as exc:  # noqa: BLE001 — recorded for the assert
                errors.append(exc)

        threads = [
            threading.Thread(target=writer, args=(rows[k * 5 : (k + 1) * 5],))
            for k in range(4)
        ]
        reader_thread = threading.Thread(target=reader)
        for t in [reader_thread, *threads]:
            t.start()
        for t in threads:
            t.join()
        writers_done.set()
        reader_thread.join()
        assert not errors  # no writer died on a version conflict
        # snapshot GC bounds the live versions by the readers (one pin
        # each) plus the current version and one in flight, not by the
        # 20 writes
        assert max(live_samples) <= 1 + 2
        server.flush()
        final = favorita_db.with_relation(
            sales.concat(Relation.from_rows(sales.schema, rows))
        )
        oracle = _groups(LMFAO(final, config).run(batch))
        assert _groups(server.run(batch)) == oracle
        assert {n: r.groups for n, r in handle.results.items()} == oracle
        assert 1 <= server.version <= len(rows)
        assert server.stats().writes.committed_writes == len(rows)


def test_commit_fault_leaves_server_on_last_good_version(favorita_db):
    config = EngineConfig(join_tree_edges=FAVORITA_TREE)
    batch = _batch()
    sales = favorita_db.relation("Sales")
    with AggregateServer(favorita_db, config) as server:
        baseline = _groups(server.run(batch))
        assert server.apply(inserts={"Sales": [sales.row(0)]}) == 1
        good = _groups(server.run(batch))

        # fault 1: a data fault — the staged delete cannot apply (far more
        # occurrences deleted than the relation holds), raising inside the
        # committer's staging step
        with pytest.raises(SchemaError):
            server.apply(deletes={"Sales": [sales.row(0)] * (sales.num_rows + 1)})
        assert server.version == 1
        assert _groups(server.run(batch)) == good != baseline

        # fault 2: an injected committer crash mid-group
        original = server._writes._commit
        state = {"failed": False}

        def flaky(deltas):
            if not state["failed"]:
                state["failed"] = True
                raise RuntimeError("injected maintenance bug")
            return original(deltas)

        server._writes._commit = flaky
        doomed = server.apply(inserts={"Sales": [sales.row(1)]}, sync=False)
        with pytest.raises(RuntimeError, match="injected"):
            doomed.result(timeout=30)
        server.flush()  # failed writes do not hang the durability point
        assert server.version == 1
        assert _groups(server.run(batch)) == good

        # the committer survived both faults: later writes commit normally
        assert server.apply(inserts={"Sales": [sales.row(2)]}) == 2
        assert server.stats().writes.failed_writes == 2


def test_reader_pin_keeps_version_and_segments_until_release(favorita_db):
    config = _configs()["process"]
    sales = favorita_db.relation("Sales")
    with AggregateServer(favorita_db, config) as server:
        server.run(_batch())  # exports version-0 trie segments
        executor = server.engine._process_executor()
        assert 0 in {key[0] for key in executor._segments}
        pinned = server.engine.pin_snapshot()
        for i in range(3):
            server.apply(inserts={"Sales": [sales.row(i)]})
        # v0 survives GC for the pinned reader; v1 and v2 were collected
        assert server.engine._snapshots.retained_versions() == [0, 3]
        assert 0 in {key[0] for key in executor._segments}
        assert server.stats().live_snapshots == 2
        server.engine.release_snapshot(pinned.version)
        assert server.engine._snapshots.retained_versions() == [3]
        # the reclaim hook dropped the dead version's shared-memory segments
        assert 0 not in {key[0] for key in executor._segments}
        assert server.stats().live_snapshots == 1


def test_server_write_policy_and_capacity_plumbing(favorita_db):
    config = EngineConfig(join_tree_edges=FAVORITA_TREE)
    sales = favorita_db.relation("Sales")
    with AggregateServer(
        favorita_db, config, write_capacity=1, write_policy="reject"
    ) as server:
        with server._commit_mutex:
            held = server.apply(inserts={"Sales": [sales.row(0)]}, sync=False)
            deadline = time.monotonic() + 10
            while server._writes.stats().queued and time.monotonic() < deadline:
                time.sleep(0.005)  # until the committer pops the first group
            queued = server.apply(inserts={"Sales": [sales.row(1)]}, sync=False)
            with pytest.raises(WriteOverloadError):
                server.apply(inserts={"Sales": [sales.row(2)]}, sync=False)
        assert server.flush() == 2
        assert held.result() == 1 and queued.result() == 2
        assert server.stats().writes.rejected_writes == 1


def test_empty_apply_short_circuits_without_a_committer(favorita_db):
    config = EngineConfig(join_tree_edges=FAVORITA_TREE)
    with AggregateServer(favorita_db, config) as server:
        sales = favorita_db.relation("Sales")
        assert server.apply() == 0
        assert server.apply(inserts={"Sales": []}) == 0
        mask = np.zeros(sales.num_rows, dtype=bool)
        ticket = server.apply(deletes={"Sales": mask}, sync=False)
        assert ticket.done() and ticket.result() == 0
        # the committer thread was never created, let alone woken
        assert server._writes._thread is None
        assert server.stats().writes.enqueued == 0


def test_close_flushes_queued_writes_and_is_idempotent(favorita_db):
    config = EngineConfig(join_tree_edges=FAVORITA_TREE)
    sales = favorita_db.relation("Sales")
    server = AggregateServer(favorita_db, config)
    with server._commit_mutex:  # stall commits so the queue fills up
        tickets = [
            server.apply(inserts={"Sales": [sales.row(i)]}, sync=False)
            for i in range(4)
        ]
        closers = [threading.Thread(target=server.close) for _ in range(2)]
        for t in closers:
            t.start()
        time.sleep(0.05)  # closers are draining; commits wait on the mutex
    for t in closers:
        t.join(timeout=30)
        assert not t.is_alive()
    # documented choice: close FLUSHES — every queued delta committed
    assert all(isinstance(t.result(timeout=10), int) for t in tickets)
    assert server.version >= 1
    with pytest.raises(PlanError, match="closed"):
        server.apply(inserts={"Sales": [sales.row(0)]})
    server.close()  # idempotent
