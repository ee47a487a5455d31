"""The compile-once serving layer: plan cache, snapshots, async front.

The fifth layer of the stack (viewgen → groups → plans → backends →
**serving**): :class:`AggregateServer` amortises one optimisation pass
over many requests via a structural plan cache with per-request constant
rebinding, serves queries concurrently through immutable versioned
snapshots (reader-pinned and garbage-collected), group-commits writes
through a bounded write-ahead delta queue
(:class:`~repro.serve.writequeue.WriteQueue`), and exposes an async
``submit`` front that coalesces identical in-flight requests. See
``docs/serving.md``.
"""

from repro.core.snapshot import Snapshot, SnapshotStore
from repro.serve.fingerprint import (
    BatchFingerprint,
    ViewIdentity,
    ViewKey,
    batch_fingerprint,
    bind_batch,
    view_identities,
)
from repro.serve.server import AggregateServer, ServerStats
from repro.serve.viewcache import CachedView, ViewCache, live_caches
from repro.serve.writequeue import WriteQueue, WriteStats, WriteTicket
from repro.util.errors import WriteOverloadError
from repro.util.lru import CacheStats, LRUCache

__all__ = [
    "AggregateServer",
    "BatchFingerprint",
    "CacheStats",
    "CachedView",
    "LRUCache",
    "ServerStats",
    "Snapshot",
    "SnapshotStore",
    "ViewCache",
    "ViewIdentity",
    "ViewKey",
    "WriteOverloadError",
    "WriteQueue",
    "WriteStats",
    "WriteTicket",
    "batch_fingerprint",
    "bind_batch",
    "live_caches",
    "view_identities",
]
