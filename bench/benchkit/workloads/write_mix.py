"""write_mix — small writes streaming beside reads on one ``AggregateServer``.

Why it exists: it exercises ``serve.writequeue``, ``incremental`` and
snapshot GC, and it uses the view cache the opposite way from
``serve_fanin`` — carry, refresh and invalidate across commits instead of
plain hits. A read-side caching gain that costs commits, or the reverse,
is visible here. One writer thread and one reader thread (the box has two
cores); two maintained handles ride every commit.
"""

from __future__ import annotations

import dataclasses
import threading
import time

import numpy as np

from benchkit import layers
from benchkit.workloads.base import Phase, Workload, result_rows
from repro import AggregateServer, LMFAO, QueryBatch, Relation, favorita, parse_query
from repro.query import OrderSpec

#: the writer waits for a ticket every this many writes, which bounds
#: how far it can run ahead of the committer
_TICKET_EVERY = 64

#: share of writes that delete rows inserted earlier; the rest insert
_DELETE_SHARE = 0.2

#: lowest thresholds the reader rotates through (see :func:`read_batch`)
_READ_CONSTANTS = tuple(float(c) for c in range(4, 12))

#: traced run only: the reader looks at the live-snapshot count this often
_STATS_EVERY = 8

#: engine-direct ``MaintainedBatch.apply`` calls of the incremental probe
_APPLY_PROBE_WRITES = 200


def dashboard_batch() -> QueryBatch:
    """The group-by dashboard kept maintained while writes stream."""
    return QueryBatch(
        [
            parse_query("SELECT SUM(units) FROM D", "total"),
            parse_query(
                "SELECT store, SUM(units), SUM(1) FROM D GROUP BY store", "by_store"
            ),
            parse_query(
                "SELECT family, SUM(units*units) FROM D GROUP BY family", "by_family"
            ),
        ]
    )


def board_batch() -> QueryBatch:
    """The ordered top-k board kept maintained while writes stream."""
    board = parse_query(
        "SELECT store, item, SUM(units) FROM D GROUP BY store, item", "top_items"
    )
    return QueryBatch(
        [
            dataclasses.replace(
                board,
                order_by=OrderSpec(agg_index=0, descending=True, partition_by=("store",)),
                limit=3,
            )
        ]
    )


def read_batch(constant: float) -> QueryBatch:
    """The reader's dashboard refresh: two group-bys at each of four thresholds.

    Eight queries, so that one read (tens of milliseconds) spans at least
    one group commit. A two-query read finishes either between commits
    or while one holds the interpreter lock, in roughly equal shares, and
    the median of that two-peaked distribution jumps between the peaks
    from run to run.
    """
    return QueryBatch(
        [
            parse_query(
                f"SELECT {attr}, SUM(units), SUM(1) FROM D "
                f"WHERE units <= {constant + 8.0 * step} GROUP BY {attr}",
                f"read_{attr}_{step}",
            )
            for step in range(4)
            for attr in ("store", "family")
        ]
    )


class WriteStream:
    """The seeded write sequence: 1-4 row Sales inserts, deletes of earlier ones.

    ``live`` holds the inserted rows not deleted again, so the database
    after the first *n* writes is the base plus ``live`` at that point —
    what the final check replays. Units stay whole numbers, so sums are
    exact in float64 whatever order rows are added in.
    """

    def __init__(self, db, seed: int) -> None:
        self._rng = np.random.default_rng(seed)
        self._sales = db.relation("Sales")
        self.live: list[tuple] = []

    def next_write(self) -> dict:
        """Keyword arguments of the next ``apply`` call."""
        rng = self._rng
        count = 1 + int(rng.integers(4))
        if self.live and rng.random() < _DELETE_SHARE:
            rows = []
            for _ in range(min(count, len(self.live))):
                pick = int(rng.integers(len(self.live)))
                self.live[pick], self.live[-1] = self.live[-1], self.live[pick]
                rows.append(self.live.pop())
            return {"deletes": {"Sales": rows}}
        rows = []
        for index in rng.integers(self._sales.num_rows, size=count).tolist():
            date, store, item, _units, promo = self._sales.row(index)
            rows.append((date, store, item, float(rng.integers(1, 40)), promo))
        self.live.extend(rows)
        return {"inserts": {"Sales": rows}}


class WriteMix(Workload):
    name = "write_mix"
    latency_of = "one reader server.run while writes stream"
    ops_of = "committed writes, first submit to flush() return"

    def __init__(self, seed: int, smoke: bool) -> None:
        super().__init__(seed, smoke)
        self.scale = 0.05 if smoke else 0.3
        self.server = None

    def setup(self, tracer) -> None:
        with tracer.span("data.generate"):
            self.db = favorita(scale=self.scale, seed=self.seed)
        self.server = AggregateServer(self.db)
        self.stream = WriteStream(self.db, self.seed)
        with tracer.span("setup.warmup"):
            self.dashboard = self.server.maintain(dashboard_batch())
            self.board = self.server.maintain(board_batch())
            for constant in _READ_CONSTANTS:
                self.server.run(read_batch(constant))

    # ------------------------------------------------------------------- phases
    def run_phase(self, seconds: float, tracer) -> Phase:
        phase = Phase()
        server = self.server
        stop = threading.Event()
        errors: list[str] = []
        reads: list[float] = []
        live_max = 1

        def reader() -> None:
            nonlocal live_max
            index = 0
            while not stop.is_set():
                batch = read_batch(_READ_CONSTANTS[index % len(_READ_CONSTANTS)])
                start = time.perf_counter()
                try:
                    with tracer.span("op", request=index) as op:
                        run = server.run(batch)
                        tracer.add_run_laps(
                            run, start, time.perf_counter(), op.id, index
                        )
                except Exception as exc:  # a failed read is a failed operation
                    errors.append(f"read failed: {exc!r}")
                    continue
                finally:
                    index += 1
                reads.append(time.perf_counter() - start)
                if tracer.enabled:
                    phase.counters.add(run)
                    if index % _STATS_EVERY == 0:
                        live_max = max(live_max, server.stats().live_snapshots)

        sync_s: list[float] = []
        before = server.stats()
        thread = threading.Thread(target=reader, name="bench-reader")
        thread.start()
        submitted = 0
        begin = time.perf_counter()
        deadline = begin + seconds
        try:
            while time.perf_counter() < deadline:
                write = self.stream.next_write()
                submitted += 1
                start = time.perf_counter()
                try:
                    with tracer.span("serve.apply", request=submitted):
                        ticket = server.apply(**write, sync=False)
                    if submitted % _TICKET_EVERY == 0:
                        ticket.result(timeout=120)
                        # this write's own submit-to-commit latency
                        sync_s.append(time.perf_counter() - start)
                except Exception as exc:  # refused or failed: a failed write
                    errors.append(f"write {submitted} failed: {exc!r}")
            with tracer.span("serve.flush"):
                server.flush(timeout=120)
            phase.wall_s = time.perf_counter() - begin
        finally:
            stop.set()
            thread.join(timeout=120)
        after = server.stats()

        committed = after.writes.committed_writes - before.writes.committed_writes
        groups = after.writes.committed_groups - before.writes.committed_groups
        lost = (
            after.writes.failed_writes - before.writes.failed_writes
            + after.writes.rejected_writes - before.writes.rejected_writes
        )
        if committed + lost != submitted:
            errors.append(f"{submitted} writes submitted, {committed} committed, {lost} lost")
        phase.latencies = reads
        phase.ops = committed
        phase.layer_ops = len(reads)  # the RunResult counters come from the reader
        phase.attempted = submitted + len(reads) + len(errors)
        phase.failed = len(errors)
        phase.notes += errors[:10]
        phase.notes.append(
            f"{len(reads)} reads beside {submitted} writes in {groups} commits"
        )
        phase.layer.update(layers.cache_metrics(before, after))
        phase.layer["serve.writes_per_commit"] = committed / max(1, groups)
        phase.layer["serve.write_failed"] = lost
        phase.layer["serve.live_snapshots_max"] = live_max
        phase.layer["serve.commit_s"] = sum(sync_s) / len(sync_s) if sync_s else 0.0
        return phase

    def check(self) -> tuple[int, int, list[str]]:
        """Served and maintained state equal a from-scratch run, bit for bit.

        The reference database is the base plus the write stream's
        surviving inserts — the result of applying the writes one at a
        time — under a fresh engine at the server's own (default) config.
        """
        sales = self.db.relation("Sales")
        final = self.db.with_relation(
            sales.concat(Relation.from_rows(sales.schema, self.stream.live))
        )
        oracle = LMFAO(final)
        failed = []
        for constant in _READ_CONSTANTS:
            batch = read_batch(constant)
            if result_rows(self.server.run(batch).results) != result_rows(
                oracle.run(batch).results
            ):
                failed.append(f"served read at units <= {constant} differs from scratch")
        for label, handle, batch in (
            ("dashboard", self.dashboard, dashboard_batch()),
            ("board", self.board, board_batch()),
        ):
            if result_rows(handle.results) != result_rows(oracle.run(batch).results):
                failed.append(f"maintained {label} differs from scratch")
        return len(_READ_CONSTANTS) + 2, len(failed), failed

    def probe_layers(self, tracer) -> dict[str, float]:
        """Engine-direct ``MaintainedBatch.apply`` over the stream's first writes."""
        engine = LMFAO(self.db)
        handle = engine.maintain(dashboard_batch())
        stream = WriteStream(self.db, self.seed)
        writes = [stream.next_write() for _ in range(_APPLY_PROBE_WRITES)]
        start = time.perf_counter()
        for write in writes:
            with tracer.span("incremental.apply"):
                handle.apply(**write)
        return {"incremental.apply_s": (time.perf_counter() - start) / len(writes)}

    def teardown(self) -> None:
        if self.server is not None:
            self.server.close()
            self.server = None
        self.dashboard = self.board = None
