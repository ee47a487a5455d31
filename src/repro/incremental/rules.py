"""Per-group delta rules: how one dirty group's outputs are taken in.

A compiled batch is a DAG of view groups (paper Figure 2, right). An
update to relation ``R`` can only affect the views on the paths from
``R``'s node towards each query root (Bakibayev et al., "Aggregation and
Ordering in Factorised Databases"): every other group's inputs are
bit-identical and its cached outputs remain valid. A maintained round
(:class:`repro.incremental.maintain.MaintainedRound`) is walked by the
engine's one DAG walk and steps a group only when its node's relation or
one of its incoming views changed this round, *cutting off* propagation
when a refreshed view turns out unchanged (delta cutoff).

The rules the round adopts a stepped group's outputs by live here. The
insert rule: the group step runs over a trie of the inserted tuples
alone, and :func:`merge_delta_outputs` adds the emitted deltas into a new
view built from the target and the delta, so each round costs
O(|view|), not O(|Δ|). The rescan rule: the outputs replace the old
ones, and :func:`same_rows` decides whether they changed. Ordered
queries need no rule of their own: the round keeps their full raw stores
and finishes a dirty one through the engine's one seam,
:func:`repro.core.engine._to_query_result`.
"""

from __future__ import annotations

import numpy as np

from repro.core.runtime import ArrayViewData, sum_by_key
from repro.data.keycodes import _group_codes


def merge_delta_outputs(
    target: ArrayViewData, delta: ArrayViewData
) -> tuple[ArrayViewData, bool]:
    """The merged view ``target + delta`` per key and slot (copy-on-write).

    ``delta`` is what the group's compiled code emits over just the
    inserted tuples: every emitted slot is a sum over the node's rows of a
    product that does not otherwise depend on the node's row multiset, so
    those outputs *are* the per-artifact deltas. Key sets are exact too:
    under inserts a key exists in the updated artifact iff it existed
    before or some inserted tuple supports it.

    Returns ``(merged, changed)``. The sum is the one per-key summation,
    :func:`~repro.core.runtime.sum_by_key`, which builds a new view:
    ``target`` — the *previous* version's artifact — is never mutated, so
    readers holding the previous version keep a coherent artifact.
    ``changed`` says the delta brought a new key or a non-zero slot. A new
    key is a change even with all-zero values: the inserted rows give it
    join support, so a from-scratch run would emit it too.
    """
    merged = sum_by_key([target, delta])
    changed = len(merged) > len(target) or bool(delta.value_matrix.any())
    return merged, changed


def same_rows(old: ArrayViewData, new: ArrayViewData) -> bool:
    """Whether two views of one artifact hold the same rows, in any order:
    the rescan rule's delta cutoff.

    A view's keys are distinct, so the views are equal as bags of rows
    iff their keys pair up one to one and each pair's slots are equal.
    Keys and slots compare as ``==`` (``-0.0`` equals ``0.0``); a NaN in
    a key or a slot never equals, so it always reads as a change.
    """
    rows = len(old)
    if len(new) != rows or old.value_matrix.shape != new.value_matrix.shape:
        return False
    columns = [*old.key_columns, *new.key_columns, old.value_matrix, new.value_matrix]
    if any(c.dtype.kind == "f" and np.isnan(c).any() for c in columns):
        return False
    if not old.key_columns:
        return bool((old.value_matrix == new.value_matrix).all())
    ids, num_keys, _first = _group_codes(
        [np.concatenate(pair) for pair in zip(old.key_columns, new.key_columns)]
    )
    if num_keys != rows:
        return False
    old_rows = np.empty(rows, dtype=np.int64)
    old_rows[ids[:rows]] = np.arange(rows)
    new_rows = np.empty(rows, dtype=np.int64)
    new_rows[ids[rows:]] = np.arange(rows)
    return bool((old.value_matrix[old_rows] == new.value_matrix[new_rows]).all())
