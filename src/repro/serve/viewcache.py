"""The cross-request materialized-view cache (above the plan cache).

The plan cache reuses *compiled code* across requests; this layer reuses
*computed views*. One entry per :class:`~repro.serve.fingerprint.ViewKey`
— ``(view identity, snapshot version)`` — holding the materialized
``ArrayViewData`` a past execution produced for that exact identity
over that exact database version. Different
batch fingerprints frequently share identical view subtrees (LMFAO's
intra-batch view sharing, lifted across requests), so a request that
misses the plan cache entirely can still skip most of its scan work.

Lifecycle contract (see ``docs/serving.md`` §View cache):

* **byte bound** — entries are weighted by
  :func:`~repro.core.runtime.estimate_view_bytes` in a shared
  :class:`~repro.util.lru.LRUCache`; the weight bound holds after every
  insert.
* **version death** — the cache registers
  :meth:`drop_version` as a snapshot-store reclaim hook: when a
  superseded version loses its last pin, every entry at that version
  dies with it, unless the group commit carried it forward to the
  successor first: an entry is carried exactly when the commit's delta
  touches no relation of its subtree, and dropped otherwise.
  :meth:`check_no_orphans` (run by the test suite's leak fixture over
  :func:`live_caches`) asserts the invariant: no cached view outlives
  its snapshot version.
* **read-only data** — cached view contents are shared by reference
  with any number of concurrent executions; every consumer path in the
  engine and the maintainer builds fresh containers instead of writing
  through them (copy-on-write merges), which is what makes the sharing
  safe.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Callable

from repro.core.engine import ArrayViewData
from repro.core.runtime import estimate_view_bytes
from repro.serve.fingerprint import ViewIdentity, ViewKey
from repro.util.lru import CacheStats, LRUCache

#: every live ViewCache, so session-wide invariants (the no-orphans leak
#: check) can be asserted without plumbing cache handles around.
_LIVE_CACHES: "weakref.WeakSet[ViewCache]" = weakref.WeakSet()


def live_caches() -> list["ViewCache"]:
    """All currently live view caches (weakly tracked, GC'd ones gone)."""
    return list(_LIVE_CACHES)


@dataclass(frozen=True)
class CachedView:
    """One materialized view held by the cache."""

    #: the view's contents as its group emitted them, shared with every
    #: run it seeds and never mutated (dict readers go through
    #: ``as_mapping``)
    data: ArrayViewData
    nbytes: int
    #: all join-tree relations feeding the view: a group commit carries
    #: the entry forward only when no changed relation is among them.
    subtree: frozenset[str]
    identity: ViewIdentity

    @classmethod
    def of(
        cls, compiled, name: str, data: ArrayViewData, identity: ViewIdentity
    ) -> "CachedView":
        """The cache entry for view ``name`` of one compilation.

        ``identity`` is the view's identity under the constants ``data``
        was materialized with
        (:func:`~repro.serve.fingerprint.view_identities`).
        """
        return cls(
            data=data,
            nbytes=estimate_view_bytes(data),
            subtree=compiled.view_plan.view_signatures()[name].subtree,
            identity=identity,
        )


class ViewCache:
    """Byte-bounded LRU of materialized views keyed by :class:`ViewKey`.

    Thread-safe (delegates to :class:`~repro.util.lru.LRUCache`); the
    group commit additionally serialises through the engine's commit
    lock, so carry-or-drop decisions are made against a stable version
    frontier.
    """

    def __init__(self, max_bytes: int) -> None:
        self._lru = LRUCache(max_weight=int(max_bytes))
        self._store_ref: Callable[[], object] | None = None
        _LIVE_CACHES.add(self)

    @property
    def max_bytes(self) -> int:
        return self._lru.max_weight

    def bind_store(self, store) -> None:
        """Weakly associate the snapshot store whose versions key entries.

        Enables :meth:`check_no_orphans`; the reference is weak so a
        cache outliving its server never keeps the store alive.
        """
        self._store_ref = weakref.ref(store)

    def get(self, key: ViewKey) -> CachedView | None:
        """The cached view, refreshed to most-recently-used; None on miss."""
        return self._lru.get(key)

    def put(self, key: ViewKey, entry: CachedView) -> None:
        """Insert one materialized view; may evict cold entries (byte bound)."""
        self._lru.put(key, entry, weight=entry.nbytes)

    def drop_version(self, version: int) -> int:
        """Drop every entry at ``version``; the snapshot-GC reclaim hook."""
        return self._lru.remove_where(lambda key: key.version == version)

    def entries_at(self, version: int) -> list[tuple[ViewKey, CachedView]]:
        """Point-in-time ``(key, entry)`` list at one version (LRU-cold first)."""
        return [
            (key, entry)
            for key, entry in self._lru.items()
            if key.version == version
        ]

    def versions(self) -> set[int]:
        """The snapshot versions with at least one live entry."""
        return {key.version for key in self._lru.keys()}

    def __len__(self) -> int:
        return len(self._lru)

    def stats(self) -> CacheStats:
        """A consistent point-in-time snapshot of the counters."""
        return self._lru.stats()

    def check_no_orphans(self) -> None:
        """Assert no entry outlives its snapshot version (GC invariant).

        Called by the test suite's resource-leak fixture for every live
        cache: every cached version must still be retained by the bound
        snapshot store (current or pinned). A no-op until
        :meth:`bind_store`, or after the store itself was collected.
        """
        store = self._store_ref() if self._store_ref is not None else None
        if store is None:
            return
        retained = set(store.retained_versions())
        orphans = self.versions() - retained
        assert not orphans, (
            f"view cache holds entries for reclaimed snapshot versions "
            f"{sorted(orphans)} (retained: {sorted(retained)})"
        )

    def __repr__(self) -> str:
        s = self.stats()
        return (
            f"ViewCache(entries={s.entries}, bytes={s.weight}/{s.max_weight}, "
            f"hits={s.hits}, misses={s.misses}, evictions={s.evictions})"
        )
