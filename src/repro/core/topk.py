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
result would have forgotten, and a maintained handle finishes its full
raw store through the same seam.

One finisher realises the deterministic total order (the tie-break
contract of :class:`~repro.query.aggregates.OrderSpec`) over any raw
view: it reads key columns and a value matrix through
:func:`repro.core.runtime.view_columns` — the arrays of the
:class:`~repro.core.runtime.ArrayViewData` every backend and every merge
produces — then, per
partition, runs ``np.partition`` on the signed order value with exact
boundary-tie resolution and one ``np.lexsort`` of the survivors. That
is ``O(n + p·k log k)``, and the composite ``(±value, residual group-by
key)`` is unique per row because group keys are unique, which the
ordered differential grids assert against an independent ranking oracle.
"""

from __future__ import annotations

import numpy as np

from repro.core.runtime import ArrayViewData, view_columns
from repro.query.query import Query

__all__ = ["finish_ordered"]


def _order_positions(query: Query) -> tuple[tuple[int, ...], tuple[int, ...]]:
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


def finish_ordered(query: Query, raw: ArrayViewData) -> dict:
    """Rank and truncate one ordered query's full raw groups.

    Returns the insertion-ordered dict realising the query's
    deterministic total order, keys as tuples of Python scalars and
    values as tuples of floats.
    """
    n = len(raw)
    if query.limit == 0 or n == 0:
        return {}
    spec = query.order_by
    key_columns, matrix = view_columns(
        raw, query.group_by, len(query.aggregates)
    )
    partition, residual = _order_positions(query)
    values = matrix[:, spec.agg_index]
    vkey = -values if spec.descending else values
    res_cols = [key_columns[i] for i in residual]
    limit = query.limit
    pieces: list[np.ndarray] = []
    for idx in _partition_slices([key_columns[i] for i in partition], n):
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
    order = np.concatenate(pieces).astype(np.intp, copy=False)
    keys = zip(*(col[order].tolist() for col in key_columns))
    return {
        key: tuple(row) for key, row in zip(keys, matrix[order].tolist())
    }
