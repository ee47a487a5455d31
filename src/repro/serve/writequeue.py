"""The group-committed write path: a bounded delta queue + one committer.

Production write rates make one snapshot transition per ``apply`` too
dear: every small delta would pay a full successor-snapshot build and a
maintenance round of every handle. This module amortises them with a
**write-ahead delta queue**:

* :meth:`WriteQueue.submit` enqueues a normalised per-relation delta map
  (:class:`~repro.incremental.delta.RelationDelta`) and returns a
  :class:`WriteTicket` immediately — writers never commit themselves,
  so any number of threads may write concurrently;
* a single **committer thread** drains the queue and *group-commits*:
  consecutive queued deltas are composed into one delta map
  (:func:`~repro.incremental.delta.coalesce_deltas` — insert/delete
  cancellation, ``delete_mask`` entries act as group boundaries) and
  applied as **one** snapshot transition. Many small insert-only writes
  thus cost one successor build and one maintenance round over their
  union (its numeric delta run scans only the inserted tuples, but the
  merge copies each maintained view it touches, so the round is
  O(|view|)) — the accumulate-then-commit shape of the ROADMAP's
  write-path item;
* the queue is **bounded** (``capacity`` pending delta groups) with a
  configurable backpressure ``policy``: ``"block"`` makes ``submit``
  wait for room, ``"reject"`` raises a typed
  :class:`~repro.util.errors.WriteOverloadError` without enqueueing, and
  ``"coalesce"`` merges the incoming delta into the newest queued entry
  in place (blocking only when the pair is unmergeable);
* **durability hooks**: ``ticket.result()`` blocks until that write's
  group commit is installed (or re-raises its failure), and
  :meth:`WriteQueue.flush` blocks until everything enqueued before the
  call has committed or failed;
* **crash containment**: an exception while building one group's
  successor (a delete of an absent tuple, a maintenance bug) fails only
  that group's tickets — with the original exception — re-queues
  nothing, and leaves the snapshot store on the last good version; the
  committer keeps serving later writes.

The queue is policy-free about *what* a commit does: the owner passes a
``commit(deltas) -> (version, results_by_handle)`` callback
(:meth:`repro.serve.AggregateServer._commit_group`, which wraps the
engine's one commit path, :meth:`repro.core.engine.LMFAO.commit`, with
the view cache's carry-or-drop). See ``docs/serving.md`` for the
full contract.
"""

from __future__ import annotations

import threading
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Callable, Mapping

from repro.incremental.delta import RelationDelta, coalesce_deltas
from repro.util.errors import PlanError, WriteOverloadError

#: valid backpressure policies for a full queue.
POLICIES = ("block", "reject", "coalesce")


@dataclass(frozen=True)
class WriteStats:
    """Point-in-time write-path counters (one coherent reading).

    ``enqueued`` — writes accepted by :meth:`WriteQueue.submit`;
    ``committed_writes`` / ``committed_groups`` — writes durably
    installed, and the number of snapshot transitions that covered them
    (``committed_writes / committed_groups`` is the group-commit
    amortisation factor);
    ``coalesced_writes`` — writes merged into an already-queued entry by
    the ``"coalesce"`` backpressure policy;
    ``failed_writes`` — writes whose group commit raised (their tickets
    carry the exception) plus writes discarded by an aborting close;
    ``rejected_writes`` — writes refused by the ``"reject"`` policy;
    ``queued`` — delta groups currently waiting (≤ capacity);
    ``largest_group`` — most writes ever committed in one transition;
    ``last_committed_version`` — the newest installed version (−1 before
    the first commit).
    """

    enqueued: int = 0
    committed_writes: int = 0
    committed_groups: int = 0
    coalesced_writes: int = 0
    failed_writes: int = 0
    rejected_writes: int = 0
    queued: int = 0
    largest_group: int = 0
    last_committed_version: int = -1


class WriteTicket:
    """One write's durability handle (a thin future).

    ``result()`` blocks until the write's group commit installs and
    returns the committed snapshot version — or, for a maintained-handle
    write, that handle's :class:`~repro.incremental.maintain.ApplyResult`
    for the round. A failed group re-raises the committer's original
    exception here.
    """

    __slots__ = ("_handle", "_future")

    def __init__(self, handle: object | None = None) -> None:
        self._handle = handle
        self._future: Future = Future()
        self._future.set_running_or_notify_cancel()  # tickets never cancel

    def done(self) -> bool:
        """Whether the write has committed or failed."""
        return self._future.done()

    def result(self, timeout: float | None = None):
        """Block until committed; the version (or per-handle ApplyResult)."""
        return self._future.result(timeout)

    def exception(self, timeout: float | None = None):
        """The commit failure, or None (blocks like :meth:`result`)."""
        return self._future.exception(timeout)

    def _resolve(self, version: int, by_handle: Mapping) -> None:
        if self._handle is not None and self._handle in by_handle:
            self._future.set_result(by_handle[self._handle])
        else:
            self._future.set_result(version)

    def _fail(self, exc: BaseException) -> None:
        self._future.set_exception(exc)

    def __repr__(self) -> str:
        state = "done" if self._future.done() else "pending"
        return f"WriteTicket({state})"


class _Entry:
    """One queue slot: a delta map plus every ticket riding on it."""

    __slots__ = ("deltas", "tickets")

    def __init__(self, deltas: dict[str, RelationDelta], tickets: list) -> None:
        self.deltas = deltas
        self.tickets = tickets


class WriteQueue:
    """Bounded delta queue + single committer thread (see module docstring).

    Parameters
    ----------
    commit:
        ``commit(deltas) -> (version, results_by_handle)`` — installs one
        composed delta map as a single snapshot transition. Called only
        from the committer thread, never under the queue lock; exceptions
        fail exactly that group's tickets.
    capacity:
        Maximum pending delta groups before backpressure engages (≥ 1).
    policy:
        ``"block"`` | ``"reject"`` | ``"coalesce"`` — see module docstring.
    """

    def __init__(
        self,
        commit: Callable,
        *,
        capacity: int = 256,
        policy: str = "block",
        thread_name: str = "lmfao-commit",
    ) -> None:
        if not isinstance(capacity, int) or capacity < 1:
            raise PlanError(
                f"WriteQueue capacity must be an integer >= 1, got {capacity!r}"
            )
        if policy not in POLICIES:
            raise PlanError(
                f"WriteQueue policy must be one of "
                f"{', '.join(repr(p) for p in POLICIES)}, got {policy!r}"
            )
        self.capacity = capacity
        self.policy = policy
        self._commit = commit
        self._thread_name = thread_name
        self._entries: deque[_Entry] = deque()
        self._lock = threading.Lock()
        self._not_full = threading.Condition(self._lock)
        self._work = threading.Condition(self._lock)
        self._progress = threading.Condition(self._lock)
        self._thread: threading.Thread | None = None
        self._accepting = True
        self._closed = False
        self._aborted = False
        self._enqueued = 0
        self._completed = 0  # commit attempts finished, success or failure
        self._committed_writes = 0
        self._committed_groups = 0
        self._coalesced_writes = 0
        self._failed_writes = 0
        self._rejected_writes = 0
        self._largest_group = 0
        self._last_committed_version = -1

    # ------------------------------------------------------------------ submit
    def submit(
        self, deltas: dict[str, RelationDelta], handle: object | None = None
    ) -> WriteTicket:
        """Enqueue one normalised delta map; returns its durability ticket.

        Applies the backpressure policy when the queue is full. Raises
        :class:`~repro.util.errors.PlanError` once the queue is closed —
        including for writers that were *blocking* for queue space when
        the close began (they are woken and refused rather than left
        hanging).
        """
        ticket = WriteTicket(handle)
        with self._lock:
            if not self._accepting:
                raise PlanError("write queue is closed")
            while len(self._entries) >= self.capacity:
                if self.policy == "reject":
                    self._rejected_writes += 1
                    raise WriteOverloadError(
                        f"write queue is full ({self.capacity} pending delta "
                        f"groups) and policy='reject'; retry after flush(), "
                        f"or use policy='block'/'coalesce'"
                    )
                if self.policy == "coalesce" and self._entries:
                    tail = self._entries[-1]
                    merged = coalesce_deltas(tail.deltas, deltas)
                    if merged is not None:
                        tail.deltas = merged
                        tail.tickets.append(ticket)
                        self._enqueued += 1
                        self._coalesced_writes += 1
                        return ticket
                    # unmergeable (delete_mask boundary): fall back to block
                self._not_full.wait()
                if not self._accepting:
                    raise PlanError(
                        "write queue closed while this write waited for "
                        "queue space; the delta was not enqueued"
                    )
            self._entries.append(_Entry(dict(deltas), [ticket]))
            self._enqueued += 1
            self._ensure_committer_locked()
            self._work.notify()
        return ticket

    def _ensure_committer_locked(self) -> None:
        # started lazily on the first real write: empty applies never wake
        # (or even create) the committer.
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._run, name=self._thread_name, daemon=True
            )
            self._thread.start()

    # --------------------------------------------------------------- committer
    def _run(self) -> None:
        while True:
            with self._lock:
                while not self._entries and not self._closed:
                    self._work.wait()
                if not self._entries:  # closed and fully drained: drop the
                    # owner's callback, so a closed owner is freed by refcount
                    self._commit = None
                    return
                deltas, tickets = self._next_group_locked()
                self._not_full.notify_all()
            try:
                version, by_handle = self._commit(deltas)
            except BaseException as exc:  # noqa: BLE001 — contained per group
                # fail exactly this group's waiters with the original
                # exception; the store was left on the last good version
                # by the commit callback's staging discipline, and the
                # next group starts from a clean queue.
                with self._lock:
                    self._failed_writes += len(tickets)
                    self._completed += len(tickets)
                    self._progress.notify_all()
                for ticket in tickets:
                    ticket._fail(exc)
                continue
            with self._lock:
                self._committed_writes += len(tickets)
                self._committed_groups += 1
                self._largest_group = max(self._largest_group, len(tickets))
                self._completed += len(tickets)
                self._last_committed_version = version
                self._progress.notify_all()
            for ticket in tickets:
                ticket._resolve(version, by_handle)

    def _next_group_locked(self) -> tuple[dict[str, RelationDelta], list]:
        """Pop the longest composable prefix of the queue as one group."""
        entry = self._entries.popleft()
        deltas = entry.deltas
        tickets = list(entry.tickets)
        while self._entries:
            merged = coalesce_deltas(deltas, self._entries[0].deltas)
            if merged is None:
                break  # delete_mask boundary: next entry starts a new group
            deltas = merged
            tickets.extend(self._entries.popleft().tickets)
        return deltas, tickets

    # ----------------------------------------------------------------- waiting
    def flush(self, timeout: float | None = None) -> None:
        """Block until every write enqueued before this call has finished.

        "Finished" means committed *or* failed — a failed write's error
        lives on its ticket; flush itself only orders. Raises
        :class:`~repro.util.errors.PlanError` if the queue is closed
        with ``flush=False`` while waiting (pending deltas were
        discarded, so the durability point will never be reached), and
        :class:`TimeoutError` on timeout.
        """
        with self._lock:
            target = self._enqueued
            while self._completed < target:
                if self._aborted:
                    raise PlanError(
                        "write queue was closed without flushing; pending "
                        "deltas were discarded and this flush target will "
                        "never commit"
                    )
                if not self._progress.wait(timeout):
                    raise TimeoutError(
                        f"flush timed out after {timeout}s with "
                        f"{target - self._completed} write(s) pending"
                    )

    # ----------------------------------------------------------------- closing
    def close(self, flush: bool = True) -> None:
        """Stop accepting writes and shut the committer down (idempotent).

        ``flush=True`` (default) drains: every already-queued delta still
        group-commits before the committer exits, so close is a
        durability point. ``flush=False`` aborts: queued deltas are
        discarded, their tickets fail with a
        :class:`~repro.util.errors.PlanError`, and any concurrent
        :meth:`flush` waiter is released with the same clear error
        instead of hanging. Blocked ``submit`` callers are woken and
        refused either way. The group being committed right now (if any)
        always completes. The ``commit`` callback is dropped once the
        committer exits, so the queue no longer holds its owner alive.
        """
        discarded: list[_Entry] = []
        with self._lock:
            thread = self._thread
            if thread is None:  # no committer to drop the callback on exit
                self._commit = None
            if not self._closed:
                self._accepting = False
                self._closed = True
                if not flush:
                    self._aborted = True
                    discarded = list(self._entries)
                    self._entries.clear()
                    self._failed_writes += sum(
                        len(e.tickets) for e in discarded
                    )
                self._work.notify_all()
                self._not_full.notify_all()
                self._progress.notify_all()
        for entry in discarded:
            for ticket in entry.tickets:
                ticket._fail(
                    PlanError(
                        "write queue closed before this delta committed "
                        "(close(flush=False) discards queued writes)"
                    )
                )
        if thread is not None and thread is not threading.current_thread():
            thread.join()

    @property
    def closed(self) -> bool:
        return self._closed

    # ------------------------------------------------------------------- stats
    def stats(self) -> WriteStats:
        """One coherent reading of every counter (single lock acquisition)."""
        with self._lock:
            return WriteStats(
                enqueued=self._enqueued,
                committed_writes=self._committed_writes,
                committed_groups=self._committed_groups,
                coalesced_writes=self._coalesced_writes,
                failed_writes=self._failed_writes,
                rejected_writes=self._rejected_writes,
                queued=len(self._entries),
                largest_group=self._largest_group,
                last_committed_version=self._last_committed_version,
            )

    def __repr__(self) -> str:
        s = self.stats()
        return (
            f"WriteQueue(policy={self.policy!r}, queued={s.queued}/"
            f"{self.capacity}, committed={s.committed_writes} writes in "
            f"{s.committed_groups} groups)"
        )
