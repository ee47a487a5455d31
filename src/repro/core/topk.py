"""Ordered-emission finishing: rank + truncate per partition, once.

Ordered/top-k queries (``Query.order_by`` / ``Query.limit``) add a new
result *shape* — ranked, truncated, insertion-ordered — without changing
what the execution layers compute: every backend still materialises the
**full** grouped aggregate for an ordered query, because per-partition
top-k is not mergeable from truncated partials (a key outside one trie
partition's local top-k can belong to the global top-k once partials are
summed). Truncating early would silently break the partitioned, parallel
and incremental paths, so ranking happens exactly once, at the single
seam every path already funnels results through
(:func:`repro.core.engine._to_query_result`), over the complete raw
store. That is also what makes incremental maintenance exact: deleted or
decreased keys can be *replaced* in the top-k by keys the truncated
result would have forgotten (see :func:`repro.incremental.rules.refresh_ordered`).

One finisher per raw container realises the deterministic total order
(the tie-break contract of :class:`~repro.query.aggregates.OrderSpec`),
a bounded selection per partition in both cases:

* plain dict outputs (the generated-Python backend) — ``heapq.nsmallest``
  over each partition's items (:func:`rank_partition_items`, which sorts
  outright when there is no limit);
* :class:`~repro.core.runtime.ArrayViewData` columnar outputs (the NumPy
  and C backends) — ``np.partition`` on the signed order value with exact
  boundary-tie resolution, then an ``np.lexsort`` of the survivors.

Both are ``O(n + p·k log k)`` and realise the identical total order — the
composite ``(±value, residual group-by key)`` is unique per row because
group keys are unique — which the ordered differential grids assert
against an independent ranking oracle.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.core.runtime import ArrayViewData
from repro.query.query import Query

__all__ = ["finish_ordered", "order_positions", "rank_partition_items"]


def order_positions(query: Query) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """``(partition, residual)`` group-key positions of an ordered query.

    Partition positions follow ``order_by.partition_by`` order; residual
    positions are the remaining group-by attributes in declaration order
    (the ascending tie-break key).
    """
    spec = query.order_by
    partition = tuple(query.group_by.index(a) for a in spec.partition_by)
    in_partition = set(partition)
    residual = tuple(
        i for i in range(len(query.group_by)) if i not in in_partition
    )
    return partition, residual


def _as_key(key) -> tuple:
    return key if isinstance(key, tuple) else (key,)


def rank_partition_items(
    items: list[tuple[tuple, tuple[float, ...]]],
    query: Query,
    residual: tuple[int, ...],
) -> list[tuple[tuple, tuple[float, ...]]]:
    """One partition's items ranked and truncated (the bounded-heap kernel).

    ``items`` are ``(full key tuple, float values)`` pairs of a single
    partition; keys must already be normalised tuples and values floats.
    Shared by the engine's dict finisher and the incremental maintainer's
    targeted partition refresh, so both produce the identical order.
    """
    spec = query.order_by
    sign = -1.0 if spec.descending else 1.0

    def sort_key(item):
        key, values = item
        return (sign * values[spec.agg_index], tuple(key[i] for i in residual))

    if query.limit is None:
        return sorted(items, key=sort_key)
    return heapq.nsmallest(query.limit, items, key=sort_key)


# --------------------------------------------------------------- finishers


def _finish_dict_heap(query: Query, raw: dict) -> dict:
    partition, residual = order_positions(query)
    buckets: dict[tuple, list] = {}
    for key, values in raw.items():
        key = _as_key(key)
        part = tuple(key[i] for i in partition)
        buckets.setdefault(part, []).append(
            (key, tuple(float(v) for v in values))
        )
    out: dict[tuple, tuple[float, ...]] = {}
    for part in sorted(buckets):
        for key, values in rank_partition_items(buckets[part], query, residual):
            out[key] = values
    return out


def _columnar_inputs(query: Query, raw: ArrayViewData):
    """Sort operands off the columnar mirror: value key + key columns."""
    spec = query.order_by
    partition, residual = order_positions(query)
    values = raw.value_matrix[:, spec.agg_index].astype(np.float64, copy=False)
    vkey = -values if spec.descending else values
    part_cols = [raw.key_columns[i] for i in partition]
    res_cols = [raw.key_columns[i] for i in residual]
    return vkey, part_cols, res_cols


def _emit_rows(raw: ArrayViewData, order: np.ndarray) -> dict:
    """Materialise the finished dict for ``order``'s row sequence."""
    keys = list(zip(*(col[order].tolist() for col in raw.key_columns)))
    matrix = raw.value_matrix[order]
    return {
        key: tuple(float(v) for v in row)
        for key, row in zip(keys, matrix.tolist())
    }


def _partition_slices(part_cols: list[np.ndarray], n: int):
    """Index groups per partition, partitions in ascending key order."""
    if not part_cols:
        return [np.arange(n)]
    order = np.lexsort(tuple(reversed(part_cols)))
    stacked = [col[order] for col in part_cols]
    change = np.zeros(n, dtype=bool)
    change[0] = True
    for col in stacked:
        change[1:] |= col[1:] != col[:-1]
    starts = np.flatnonzero(change)
    ends = np.append(starts[1:], n)
    return [order[s:e] for s, e in zip(starts, ends)]


def _finish_columnar_heap(query: Query, raw: ArrayViewData) -> dict:
    n = len(raw)
    if n == 0:
        return {}
    vkey, part_cols, res_cols = _columnar_inputs(query, raw)
    limit = query.limit
    pieces: list[np.ndarray] = []
    for idx in _partition_slices(part_cols, n):
        m = len(idx)
        if limit is not None and limit < m:
            # argpartition on the signed value alone, then resolve the
            # k-boundary tie exactly: strictly-better rows are all in,
            # boundary-equal rows are ranked by the residual key.
            pv = vkey[idx]
            boundary = np.partition(pv, limit - 1)[limit - 1]
            sure = idx[pv < boundary]
            tied = idx[pv == boundary]
            need = limit - len(sure)
            if len(tied) > need and res_cols:
                tie_order = np.lexsort(
                    tuple(col[tied] for col in reversed(res_cols))
                )
                tied = tied[tie_order[:need]]
            elif len(tied) > need:  # defensive: empty residual ⇒ 1-row parts
                tied = tied[:need]
            candidates = np.concatenate([sure, tied])
        else:
            candidates = idx
        final = np.lexsort(
            tuple(col[candidates] for col in reversed(res_cols))
            + (vkey[candidates],)
        )
        pieces.append(candidates[final])
    order = (
        np.concatenate(pieces) if pieces else np.arange(0)
    ).astype(np.intp, copy=False)
    return _emit_rows(raw, order)


# ---------------------------------------------------------------- dispatch


def finish_ordered(query: Query, raw: dict) -> dict:
    """Rank and truncate one ordered query's full raw groups.

    Returns the insertion-ordered dict realising the query's
    deterministic total order. The raw container picks the finisher:
    columnar when a native backend's :class:`ArrayViewData` columns are
    live, the dict heap over plain dict outputs otherwise.
    """
    if query.limit == 0:
        return {}
    if isinstance(raw, ArrayViewData) and raw.has_columns:
        return _finish_columnar_heap(query, raw)
    return _finish_dict_heap(query, raw)
