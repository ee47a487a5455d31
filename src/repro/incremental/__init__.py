"""Incremental view maintenance over the compiled view DAG.

LMFAO's advantage is that a batch of aggregates compiles into one shared
DAG of directional views. This package keeps that DAG's materialised state
alive across data changes instead of recomputing it:

* :mod:`repro.incremental.delta` — delta relations (insert/delete bags per
  base relation, with append/tombstone application);
* :mod:`repro.incremental.rules` — the rules a stepped group's outputs
  are taken in by: the copy-on-write merge of a numeric step's deltas
  (it copies the whole maintained view: O(|view|)) and the rescan's
  change test, which compares columns as bags of rows;
* :mod:`repro.incremental.maintain` — the :class:`MaintainedBatch` handle
  returned by :meth:`repro.core.engine.LMFAO.maintain`. Each commit is a
  round (:class:`~repro.incremental.maintain.MaintainedRound`) that the
  engine's one DAG walk walks like a run: it steps the dirty path only —
  numeric delta steps over the inserted tuples, full-trie rescans
  otherwise — then finishes each changed query, ordered ones included,
  through the engine's one result seam.

Every apply round builds an immutable successor version (a new
:class:`~repro.core.snapshot.Snapshot` plus copy-on-write stores) and
installs it atomically into the owning engine, so concurrent queries are
snapshot-isolated from maintenance — see ``docs/serving.md``.

Typical use::

    engine = LMFAO(db)
    handle = engine.maintain(batch)        # compile + initial run
    handle.apply(inserts={"Sales": rows})  # O(affected path), not O(db)
    handle.results["Q1"]                   # refreshed QueryResult
"""

from repro.incremental.delta import (
    RelationDelta,
    coalesce_deltas,
    coalesce_relation_deltas,
    normalize_deltas,
)
from repro.incremental.maintain import ApplyResult, MaintainedBatch

__all__ = [
    "ApplyResult",
    "MaintainedBatch",
    "RelationDelta",
    "coalesce_deltas",
    "coalesce_relation_deltas",
    "normalize_deltas",
]
