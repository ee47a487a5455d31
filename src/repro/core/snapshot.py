"""Immutable, versioned database snapshots — the engine's MVCC spine.

The serving story of the ROADMAP needs queries and maintenance to overlap:
a read must never observe a half-applied delta, and a writer must never
wait for in-flight reads to drain. Both fall out of one discipline, the
same one distributed aggregation engines use to separate the cached plan
from the per-request data pass: **all trie/relation state a run touches is
reached through a single immutable :class:`Snapshot` object**, pinned once
at the start of the run.

* A :class:`Snapshot` is a frozen pair ``(version, database)`` plus the
  memo table of trie indexes built over that database. Nothing in it is
  ever mutated after publication — the trie table only *gains* entries,
  and every entry is itself immutable once inserted (the benign-race memo
  pattern: two threads may build the same index concurrently; either
  result is correct and one wins the dict slot).
* Every write (a direct :meth:`repro.incremental.MaintainedBatch.apply`
  or a group commit of :class:`repro.serve.AggregateServer`) goes
  through the engine's one commit path,
  :meth:`repro.core.engine.LMFAO.commit`. It builds the **next** snapshot
  off to the side with :meth:`Snapshot.with_relations` — structurally
  sharing every unchanged relation and every unchanged node's tries, and
  carrying an updated node's tries forward by its delta instead of
  dropping them — and publishes it through :meth:`SnapshotStore.install`,
  a single atomic reference swap.
* Readers pin :meth:`SnapshotStore.current` once and never look again;
  a concurrently installed version is simply invisible to them.

Versions are dense integers starting at 0 (the construction-time
database). :meth:`SnapshotStore.install` only accepts the direct successor
of the current version: the engine's commit serialises its writers, so
this check is the safety net for raw installs outside it, which surface
as a hard :class:`~repro.util.errors.PlanError` instead of silently
dropping a delta. See ``docs/serving.md`` for the full concurrency
contract.

**Garbage collection.** The store retains every installed snapshot until
it is both *superseded* (a newer version was installed) and *unpinned*
(no reader refcount through :meth:`SnapshotStore.pin` /
:meth:`SnapshotStore.unpin` holds it). When a version becomes
reclaimable, the store drops its own reference — Python frees the
relations and tries once the last reader lets go — and fires every
registered :meth:`SnapshotStore.add_reclaim_hook` callback with the dead
version number, outside the store lock. The engine uses that hook to
unlink the version's shared-memory trie segments under
``executor="process"`` (:meth:`repro.core.mpexec.ProcessExecutor.drop_version`),
so a sustained write workload holds a bounded number of live versions
instead of accumulating one snapshot (and one segment set) per commit.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Mapping

from repro.data.catalog import Database
from repro.data.relation import Relation
from repro.util.errors import PlanError


@dataclass(frozen=True)
class Snapshot:
    """One immutable version of the database plus its trie memo table.

    Attributes
    ----------
    version:
        Dense version counter; 0 is the engine's construction-time state.
    db:
        The :class:`~repro.data.catalog.Database` of this version. Never
        mutated — updates produce a new database via
        :meth:`~repro.data.catalog.Database.with_relation`.
    tries:
        Memo table ``(node, order) → TrieIndex`` (the key is defined
        once, in :func:`repro.core.runtime.trie_cache_key`). Keys carry no
        predicate constants, so the memo is bounded by the schema: one
        entry per node and attribute order in use.
        Insert-only; entries are immutable indexes over ``db``, so
        concurrent readers may populate it racily without locking.
    """

    version: int
    db: Database
    tries: dict = field(default_factory=dict, repr=False, compare=False)

    def with_relations(
        self, updated: Mapping[str, Relation], deltas: Mapping | None = None
    ) -> "Snapshot":
        """The successor snapshot with the given relations replaced.

        Structural sharing on both axes: unchanged relations are carried
        by reference into the new database, and the trie memo keeps every
        entry whose node is *not* in ``updated`` — the partitioned-rebuild
        guarantee that an update to one join-tree node leaves every other
        node's indexes warm. An updated node's indexes are **carried**:
        ``deltas`` (relation name →
        :class:`~repro.incremental.delta.RelationDelta`, what staged
        ``updated``) moves each one to the new relation in O(|Δ|) lookups
        and one linear copy (:meth:`~repro.data.trie.TrieIndex.carried`),
        ``array_equal`` to a cold build. A node without a delta here, or
        whose delta holds a ``delete_mask``, has its indexes dropped; the
        next reader rebuilds them.
        """
        db = self.db
        for relation in updated.values():
            db = db.with_relation(relation)
        deltas = deltas or {}
        tries = {}
        # a list first: readers may add entries to this memo meanwhile
        for key, trie in list(self.tries.items()):
            node = key[0]
            delta = deltas.get(node)
            if node not in updated:
                tries[key] = trie
            elif delta is not None and delta.delete_mask is None:
                tries[key] = trie.carried(updated[node], delta.deletes, delta.inserts)
        return Snapshot(version=self.version + 1, db=db, tries=tries)

    def __repr__(self) -> str:
        return (
            f"Snapshot(version={self.version}, db={self.db.name!r}, "
            f"tries={len(self.tries)})"
        )


class SnapshotStore:
    """The atomically swappable "current version" cell of one engine.

    Reads (:meth:`current`) are lock-free — a single attribute load, atomic
    under the GIL. Writes (:meth:`install`) serialise on an internal lock
    and require the incoming snapshot to be the direct successor of the
    current one. The engine's commit (:meth:`repro.core.engine.LMFAO.commit`)
    is the one caller and holds its commit lock across build and install,
    so a conflict means a raw install built its successor outside that
    lock; it raises rather than silently discarding the other delta.

    Reader pins (:meth:`pin` / :meth:`unpin`) refcount versions so the
    garbage collector (see the module docstring) only reclaims versions
    that are both superseded and unreferenced. :meth:`current` remains
    the unpinned lookup for callers that only need a consistent read and
    hold the returned object themselves.
    """

    def __init__(self, initial: Snapshot) -> None:
        self._current = initial
        self._lock = threading.Lock()
        self._pins: dict[int, int] = {}  # version -> reader refcount
        self._retained: dict[int, Snapshot] = {initial.version: initial}
        self._reclaim_hooks: list = []

    def current(self) -> Snapshot:
        """The latest installed snapshot (lock-free, never blocks)."""
        return self._current

    @property
    def version(self) -> int:
        return self._current.version

    # ------------------------------------------------------------- pins & GC
    def pin(self) -> Snapshot:
        """Pin the current snapshot: read + refcount increment, atomically.

        A pinned version survives being superseded — GC never reclaims it
        until the matching :meth:`unpin`. Pins nest (refcounted); every
        ``pin()``/``repin()`` must be paired with exactly one ``unpin()``.
        """
        with self._lock:
            snapshot = self._current
            self._pins[snapshot.version] = self._pins.get(snapshot.version, 0) + 1
            return snapshot

    def repin(self, snapshot: Snapshot) -> Snapshot:
        """Add a pin to a version the caller already holds (nested scopes)."""
        with self._lock:
            self._pins[snapshot.version] = self._pins.get(snapshot.version, 0) + 1
            return snapshot

    def unpin(self, version: int) -> None:
        """Drop one pin; reclaim any versions that just became unreachable."""
        with self._lock:
            count = self._pins.get(version, 0) - 1
            if count > 0:
                self._pins[version] = count
            else:
                self._pins.pop(version, None)
            reclaimed = self._collect_locked()
        self._fire_reclaim(reclaimed)

    def pinned_versions(self) -> dict[int, int]:
        """Live reader pins, ``version -> refcount`` (observability)."""
        with self._lock:
            return dict(self._pins)

    def retained_versions(self) -> list[int]:
        """Versions the store still holds: current + pinned predecessors."""
        with self._lock:
            return sorted(self._retained)

    def add_reclaim_hook(self, hook) -> None:
        """Register ``hook(version)``, called once per reclaimed version.

        Hooks fire outside the store lock, on whichever thread's
        ``install``/``unpin`` made the version unreachable. The engine
        wires the process executor's segment drop through this.
        """
        with self._lock:
            self._reclaim_hooks.append(hook)

    def remove_reclaim_hook(self, hook) -> None:
        """Deregister a hook added by :meth:`add_reclaim_hook` (idempotent).

        Lets owners with shorter lifetimes than the store — the serving
        layer's view cache — unhook on close instead of keeping a dead
        reference called for every future reclaim.
        """
        with self._lock:
            if hook in self._reclaim_hooks:
                self._reclaim_hooks.remove(hook)

    def _collect_locked(self) -> list[int]:
        """Drop superseded, unpinned versions; returns what was reclaimed."""
        dead = [
            version
            for version in self._retained
            if version < self._current.version and version not in self._pins
        ]
        for version in dead:
            del self._retained[version]
        return dead

    def _fire_reclaim(self, versions: list) -> None:
        for version in versions:
            for hook in list(self._reclaim_hooks):
                hook(version)

    # --------------------------------------------------------------- install
    def install(self, snapshot: Snapshot) -> Snapshot:
        """Publish ``snapshot`` as the current version.

        Raises :class:`~repro.util.errors.PlanError` unless
        ``snapshot.version == current.version + 1`` — the stale-writer
        conflict described in the class docstring. Returns the installed
        snapshot for chaining. Superseded versions no reader pins are
        reclaimed as part of the install (hooks fire after the swap,
        outside the lock).
        """
        with self._lock:
            expected = self._current.version + 1
            if snapshot.version != expected:
                raise PlanError(
                    f"snapshot version conflict: cannot install version "
                    f"{snapshot.version} over current version "
                    f"{self._current.version}; another writer advanced this "
                    f"engine first (writes commit through LMFAO.commit — "
                    f"see docs/serving.md)"
                )
            self._current = snapshot
            self._retained[snapshot.version] = snapshot
            reclaimed = self._collect_locked()
        self._fire_reclaim(reclaimed)
        return snapshot
