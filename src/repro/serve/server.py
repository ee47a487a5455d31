"""The compile-once serving front: plan cache + snapshots + queued writes.

:class:`AggregateServer` wraps one :class:`~repro.core.engine.LMFAO`
engine for serving heavy concurrent traffic:

* **structural plan cache** — every request is fingerprinted
  (:func:`~repro.serve.fingerprint.batch_fingerprint`); structurally
  identical batches reuse one :class:`~repro.core.engine.CompiledBatch`
  with predicate constants re-bound at execution
  (:func:`~repro.serve.fingerprint.bind_batch`), LRU-bounded with hit/miss
  stats (an entry-bounded :class:`~repro.util.lru.LRUCache`);
* **materialized-view cache** — above the plan cache, computed views are
  published to a byte-bounded cross-request cache keyed by
  ``(canonical view identity, snapshot version)``
  (:mod:`repro.serve.viewcache`); later requests — same *or different*
  batch fingerprints — seed execution from hits, skipping the seeded
  subtrees' scans entirely; a group commit carries every entry whose
  subtree it left untouched to the successor version, and every other
  entry dies with its version;
* **snapshot-isolated reads** — :meth:`run` / :meth:`submit` pin the
  engine's current :class:`~repro.core.snapshot.Snapshot` at entry and
  release it on completion; the pin refcount both isolates the read from
  concurrent commits and keeps the version (and its shared-memory trie
  segments under ``executor="process"``) alive for snapshot GC;
* **group-committed writes** — :meth:`apply` and maintained-handle writes
  enqueue normalised deltas on a bounded write-ahead queue
  (:class:`~repro.serve.writequeue.WriteQueue`); a single committer
  thread composes consecutive deltas (insert/delete cancellation) and
  commits them as **one** snapshot transition through the engine's one
  commit path (:meth:`~repro.core.engine.LMFAO.commit`), which refreshes
  every maintained handle against the same successor. Any number of
  writer threads may apply concurrently — they serialise through the
  queue — with configurable backpressure and ``flush()``/``sync=True``
  durability;
* **async submission** — :meth:`submit` returns a
  :class:`concurrent.futures.Future` over a shared worker pool, and
  identical in-flight requests (same fingerprint, same constants and
  ordering, same snapshot version) **coalesce** onto one future: a thundering herd of
  the same dashboard query costs one execution.

Examples
--------
Structurally identical batches compile once; changed constants re-bind::

    >>> from repro.data import favorita
    >>> from repro.query import QueryBatch, parse_query
    >>> server = AggregateServer(favorita(scale=0.02, seed=7))
    >>> cold = server.run(QueryBatch(
    ...     [parse_query("SELECT SUM(units) FROM D WHERE units <= 3", "Q")]))
    >>> warm = server.run(QueryBatch(
    ...     [parse_query("SELECT SUM(units) FROM D WHERE units <= 7", "Q")]))
    >>> stats = server.stats()
    >>> (stats.plan_cache.misses, stats.plan_cache.hits)
    (1, 1)
    >>> "compile" in cold.timings, "compile" in warm.timings
    (True, False)
    >>> warm.compiled.batch.query("Q").where, warm.compiled.plans is cold.compiled.plans
    ((units<=7,), True)

Writes go through the group-commit queue; ``sync=True`` (the default)
blocks until the write's snapshot transition is installed, and empty
deltas short-circuit without ever waking the committer::

    >>> sales = server.engine.db.relation("Sales")
    >>> server.apply(inserts={"Sales": [sales.row(0)]})
    1
    >>> server.apply()  # nothing staged: version unchanged
    1
    >>> server.stats().writes.committed_groups
    1

Async submission — futures over a shared pool, snapshot pinned at
submission time (identical in-flight requests additionally coalesce
onto one future; see :meth:`AggregateServer.submit`)::

    >>> batch = QueryBatch([parse_query("SELECT SUM(units) FROM D", "S")])
    >>> futures = [server.submit(batch) for _ in range(4)]
    >>> len({f.result()["S"].scalar() for f in futures})
    1
    >>> server.close()
"""

from __future__ import annotations

import threading
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass

from repro.core.engine import (
    ArrayViewData,
    CompiledBatch,
    EngineConfig,
    LMFAO,
    RunResult,
    ViewSeeds,
)
from repro.core.snapshot import Snapshot
from repro.data.catalog import Database
from repro.incremental.delta import RelationDelta, normalize_deltas
from repro.incremental.maintain import MaintainedBatch
from repro.query.batch import QueryBatch
from repro.serve.fingerprint import (
    BatchFingerprint,
    ViewKey,
    batch_fingerprint,
    bind_batch,
    view_identities,
)
from repro.serve.viewcache import CachedView, ViewCache
from repro.serve.writequeue import WriteQueue, WriteStats, WriteTicket
from repro.util.errors import PlanError
from repro.util.lru import CacheStats, LRUCache
from repro.util.timer import Stopwatch


@dataclass(frozen=True)
class ServerStats:
    """Point-in-time serving counters (one coherent reading).

    ``plan_cache`` — the structural cache's hit/miss/eviction counters;
    ``submitted`` — futures actually launched by :meth:`AggregateServer.submit`;
    ``coalesced`` — submissions absorbed by an identical in-flight future;
    ``inflight`` — submissions currently executing or queued;
    ``snapshot_version`` — the engine's current data version;
    ``writes`` — the write queue's counters
    (:class:`~repro.serve.writequeue.WriteStats`), read under the commit
    lock together with ``snapshot_version`` so the pair can never tear
    against a concurrent group commit;
    ``live_snapshots`` — versions the snapshot store still retains
    (current + pinned predecessors); bounded under sustained writes by
    snapshot GC;
    ``view_cache`` — the materialized-view cache's counters (hits,
    misses, evictions, live entries, bytes via ``weight``/``max_weight``),
    read inside the same commit-lock block as the version and write
    counters; None when the cache is disabled (``view_cache_bytes=0``).
    """

    plan_cache: CacheStats
    submitted: int = 0
    coalesced: int = 0
    inflight: int = 0
    snapshot_version: int = 0
    writes: WriteStats | None = None
    live_snapshots: int = 1
    view_cache: CacheStats | None = None


class AggregateServer:
    """One process serving aggregate batches and updates concurrently.

    Construct once per database; call from any number of threads —
    including any number of *writer* threads: writes serialise through
    the server's group-commit queue. The full concurrency contract (what
    a ``run`` observes while writes are in flight, group composition,
    backpressure, flush semantics and the snapshot-GC lifecycle) is
    documented in ``docs/serving.md``.

    Parameters
    ----------
    db:
        The database to serve (becomes snapshot version 0).
    config:
        Engine configuration; enters every plan fingerprint.
    plan_cache_capacity:
        LRU bound on distinct batch structures kept compiled (default 32).
    request_workers:
        Threads executing :meth:`submit` futures (default 4). :meth:`run`
        executes on the caller's thread and does not use the pool.
    write_capacity:
        Bound on pending delta groups in the write queue (default 256).
    write_policy:
        Backpressure when the queue is full: ``"block"`` (default) makes
        ``apply`` wait for room, ``"reject"`` raises
        :class:`~repro.util.errors.WriteOverloadError`, ``"coalesce"``
        merges the incoming delta into the newest queued entry.
    view_cache_bytes:
        Byte bound of the cross-request materialized-view cache (default
        32 MiB; 0 disables it). Executions seed from cached views of the
        same identity and snapshot version — a request whose view subtree
        was computed by *any* earlier request skips that subtree's scans
        — and publish what they computed; a group commit carries the
        entries its delta left clean to the successor version and drops
        the rest (``docs/serving.md`` §View cache).
    """

    def __init__(
        self,
        db: Database,
        config: EngineConfig | None = None,
        *,
        plan_cache_capacity: int = 32,
        request_workers: int = 4,
        write_capacity: int = 256,
        write_policy: str = "block",
        view_cache_bytes: int = 32 * 1024 * 1024,
    ) -> None:
        if not isinstance(request_workers, int) or request_workers < 1:
            raise PlanError(
                f"AggregateServer request_workers must be an integer >= 1, "
                f"got {request_workers!r}"
            )
        if not isinstance(view_cache_bytes, int) or view_cache_bytes < 0:
            raise PlanError(
                f"AggregateServer view_cache_bytes must be an integer >= 0 "
                f"(0 disables the view cache), got {view_cache_bytes!r}"
            )
        self.engine = LMFAO(db, config)
        self.plan_cache = LRUCache(capacity=plan_cache_capacity)
        self.view_cache: ViewCache | None = None
        self._view_reclaim_hook = None
        if view_cache_bytes:
            self.view_cache = ViewCache(view_cache_bytes)
            self.view_cache.bind_store(self.engine._snapshots)
            # cached views die with their snapshot version unless a group
            # commit carried them forward first (docs/serving.md §View cache)
            self._view_reclaim_hook = self.view_cache.drop_version
            self.engine._snapshots.add_reclaim_hook(self._view_reclaim_hook)
        self._pool = ThreadPoolExecutor(
            max_workers=request_workers, thread_name_prefix="lmfao-serve"
        )
        self._inflight: dict[tuple, Future] = {}
        self._lock = threading.Lock()
        self._writes = WriteQueue(
            self._commit_group, capacity=write_capacity, policy=write_policy
        )
        self._submitted = 0
        self._coalesced = 0
        self._closed = False

    # ------------------------------------------------------------------ queries
    def run(self, batch: QueryBatch) -> RunResult:
        """Execute a batch synchronously against the current snapshot.

        Pins the snapshot at entry (released on completion — the GC
        refcount that keeps the version and its shm segments alive for
        the whole read), then resolves the plan: a structural cache hit
        skips compilation entirely (``"compile"`` is absent from the
        result's timings) and re-binds the request's constants; a miss
        compiles and populates the cache. Safe from any thread.
        """
        snapshot = self.engine.pin_snapshot()
        try:
            fingerprint, _ = batch_fingerprint(
                batch, self.engine.tree, self.engine.config
            )
            return self._execute_pinned(batch, fingerprint, snapshot)
        finally:
            self.engine.release_snapshot(snapshot.version)

    def submit(self, batch: QueryBatch) -> "Future[RunResult]":
        """Execute a batch asynchronously; returns an awaitable future.

        The snapshot is pinned at *submission* time — the future's result
        reflects the data version current when ``submit`` was called,
        regardless of writes committed while it waited in the queue (the
        pin is released when the future completes, never mid-queue, so
        snapshot GC cannot reclaim the version under it). Identical
        in-flight requests — same structure, same constants, same
        ``order_by``/``limit``, same snapshot version — coalesce onto one
        future (the request is executed once; every submitter gets the
        same ``RunResult``).
        """
        snapshot = self.engine.pin_snapshot()
        transferred = False
        try:
            fingerprint, request = batch_fingerprint(
                batch, self.engine.tree, self.engine.config
            )
            key = (fingerprint, request, snapshot.version)
            with self._lock:
                # checked under the lock: a close() racing this submit
                # either ran before (we raise) or runs after
                # (shutdown(wait=True) drains the future we just scheduled)
                if self._closed:
                    raise PlanError("AggregateServer is closed")
                future = self._inflight.get(key)
                if future is not None:
                    self._coalesced += 1
                    return future  # the launched submission holds its own pin
                future = self._pool.submit(
                    self._execute_pinned, batch, fingerprint, snapshot
                )
                self._submitted += 1
                self._inflight[key] = future
            transferred = True
        finally:
            if not transferred:
                self.engine.release_snapshot(snapshot.version)
        # registered OUTSIDE the lock: a future that completed already runs
        # its callback synchronously here, and the callback takes the lock
        future.add_done_callback(
            lambda _f, _k=key, _v=snapshot.version: self._submission_done(_k, _v)
        )
        return future

    def _submission_done(self, key: tuple, version: int) -> None:
        with self._lock:
            self._inflight.pop(key, None)
        self.engine.release_snapshot(version)

    def _execute_pinned(
        self, batch: QueryBatch, fingerprint: BatchFingerprint, snapshot
    ) -> RunResult:
        """Resolve the plan (compile on a miss, rebind on a hit) and
        execute it on ``snapshot``."""
        watch = Stopwatch()
        compiled = self.plan_cache.get(fingerprint)
        if compiled is None:
            # Two racing first requests may both compile; both results are
            # correct and the cache keeps the last one (see LRUCache.put).
            with watch.lap("compile"):
                compiled = self.engine.compile(batch, snapshot=snapshot)
            self.plan_cache.put(fingerprint, compiled)
        else:
            compiled = bind_batch(compiled, batch)
        return self.engine.execute(
            compiled,
            watch=watch,
            snapshot=snapshot,
            view_seeds=self._view_seeds(compiled, snapshot),
        )

    def _view_seeds(
        self, compiled: CompiledBatch, snapshot: Snapshot
    ) -> ViewSeeds | None:
        """Seed one execution from the view cache; wire its publish sink.

        Looks every view of the compilation up by ``(identity, version)``
        — hits become engine seeds (their producing subtrees are skipped,
        see :meth:`LMFAO._skippable_groups`) — and returns a publish
        callback that installs each view the run actually computes under
        its identity and the subtree a group commit checks it against
        (see :meth:`_commit_group`). The callback fires while the
        run still holds its snapshot pin, so the version cannot be
        reclaimed mid-publish; a publish against a version superseded
        meanwhile is still keyed correctly and dies with the version's
        reclaim once the pin drops.
        """
        cache = self.view_cache
        if cache is None:
            return None
        identities = view_identities(compiled)
        version = snapshot.version
        seeds: dict[str, ArrayViewData] = {}
        for name, identity in identities.items():
            entry = cache.get(ViewKey(identity, version))
            if entry is not None:
                seeds[name] = entry.data

        def publish(name: str, data: ArrayViewData) -> None:
            identity = identities[name]
            cache.put(
                ViewKey(identity, version),
                CachedView.of(compiled, name, data, identity),
            )

        return ViewSeeds(seeds=seeds, publish=publish)

    # ------------------------------------------------------------------ updates
    def apply(
        self,
        inserts=None,
        deletes=None,
        *,
        sync: bool = True,
        timeout: float | None = None,
    ):
        """Apply base-relation updates through the group-commit queue.

        Normalises the deltas immediately (schema errors raise here, on
        the caller's thread), then enqueues them. With ``sync=True`` (the
        default) blocks until the covering group commit is installed and
        returns the new snapshot version — sequential synchronous applies
        therefore get one version each, while concurrent or asynchronous
        writers may share a version. With ``sync=False`` returns the
        :class:`~repro.serve.writequeue.WriteTicket` immediately; its
        ``result()`` is the committed version (commit failures surface
        there, or on :meth:`flush` ordering).

        Empty deltas short-circuit before touching the queue: no lock,
        no enqueue, no committer wake-up — the current version (or an
        already-resolved ticket) comes straight back. Backpressure
        follows the server's ``write_policy``; plan-cache entries stay
        valid across commits (they are pure structure).
        """
        deltas = normalize_deltas(self.engine.snapshot().db, inserts, deletes)
        if not deltas:
            version = self.engine.snapshot().version
            if sync:
                return version
            ticket = WriteTicket()
            ticket._resolve(version, {})
            return ticket
        ticket = self._writes.submit(deltas)
        if not sync:
            return ticket
        return ticket.result(timeout)

    def flush(self, timeout: float | None = None) -> int:
        """Block until every write enqueued before this call has finished.

        The server's durability point: after ``flush()`` returns, every
        prior ``apply(sync=False)`` ticket is resolved (committed, or
        failed with its error on the ticket). Returns the current
        snapshot version. Raises :class:`~repro.util.errors.PlanError`
        if the server is closed while discarding queued writes, and
        :class:`TimeoutError` on timeout.
        """
        self._writes.flush(timeout)
        return self.engine.snapshot().version

    def _commit_group(self, deltas: dict[str, RelationDelta]):
        """Install one composed delta map as a single snapshot transition.

        Runs only on the committer thread. The engine's commit
        (:meth:`~repro.core.engine.LMFAO.commit`) stages, advances every
        maintained handle and installs; a failure leaves the store on the
        last good version and fails only this group's tickets (the
        queue's crash containment). Around it, under the same commit
        lock, the view cache is carried or dropped: entries at the old
        version whose subtree holds none of the changed relations are
        collected before the install (whose reclaim hook drops the old
        version's entries) and re-put at the successor after it, so a
        cached key never references an uninstalled version. Every other
        entry dies with its version.
        """
        with self.engine._commit_lock:
            carried = []
            if self.view_cache is not None:
                carried = [
                    entry
                    for _key, entry in self.view_cache.entries_at(
                        self.engine.snapshot().version
                    )
                    if entry.subtree.isdisjoint(deltas)
                ]
            version, by_handle = self.engine.commit(deltas)
            for entry in carried:
                self.view_cache.put(ViewKey(entry.identity, version), entry)
            return version, by_handle

    def maintain(self, batch: QueryBatch) -> MaintainedBatch:
        """Compile a batch once and keep its results incrementally maintained.

        The handle is *bound to this server*: its ``apply(inserts=...,
        deletes=...)`` routes through the group-commit queue (blocking
        for the covering commit's :class:`ApplyResult`). Like every handle
        of the engine, it follows every commit — :meth:`apply` or any
        other handle — so it always serves the server's current version.
        """
        if self._closed:
            raise PlanError("AggregateServer is closed")
        handle = self.engine.maintain(batch)
        handle._router = self._writes
        return handle

    # ------------------------------------------------------------------- admin
    @property
    def version(self) -> int:
        """The current snapshot version served to new requests."""
        return self.engine.snapshot().version

    def stats(self) -> ServerStats:
        """Point-in-time serving counters (see :class:`ServerStats`).

        The snapshot version, write counters and live-snapshot count are
        read together under the engine's commit lock — one coherent
        reading that cannot tear against a concurrent commit.
        """
        with self._lock:
            inflight = len(self._inflight)
            submitted = self._submitted
            coalesced = self._coalesced
        with self.engine._commit_lock:
            snapshot_version = self.engine.snapshot().version
            writes = self._writes.stats()
            live_snapshots = len(self.engine._snapshots.retained_versions())
            view_cache = (
                self.view_cache.stats() if self.view_cache is not None else None
            )
        return ServerStats(
            plan_cache=self.plan_cache.stats(),
            submitted=submitted,
            coalesced=coalesced,
            inflight=inflight,
            snapshot_version=snapshot_version,
            writes=writes,
            live_snapshots=live_snapshots,
            view_cache=view_cache,
        )

    def close(self) -> None:
        """Shut the server down; idempotent and safe against concurrent writers.

        Documented choice: close **flushes** — every delta already queued
        when the close begins still group-commits (close is a durability
        point), then the committer exits; writers that race the close are
        refused with a clear ``PlanError`` (including writers that were
        *blocking* for queue space — they are woken, not left hanging),
        and so are new submissions. A second (or concurrent) ``close()``
        is a no-op. Finally drains the request pool and releases the
        engine's owned OS resources (the ``executor="process"`` worker
        pool and its shared-memory segments, when configured).
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._writes.close(flush=True)
        self._pool.shutdown(wait=True)
        if self._view_reclaim_hook is not None:
            self.engine._snapshots.remove_reclaim_hook(self._view_reclaim_hook)
            self._view_reclaim_hook = None
        self.engine.close()

    def __enter__(self) -> "AggregateServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        s = self.stats()  # one coherent reading (see stats())
        writes = s.writes or WriteStats()
        if s.view_cache is None:
            views = "off"
        else:
            v = s.view_cache
            views = (
                f"{v.entries}e/{v.weight}B "
                f"h{v.hits}/m{v.misses}/e{v.evictions}"
            )
        return (
            f"AggregateServer(version={s.snapshot_version}, "
            f"plans={s.plan_cache.entries}/{s.plan_cache.capacity}, "
            f"hit_rate={s.plan_cache.hit_rate:.2f}, inflight={s.inflight}, "
            f"writes={writes.committed_writes}/{writes.committed_groups}g, "
            f"views={views}, live_snapshots={s.live_snapshots})"
        )
