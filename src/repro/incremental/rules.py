"""Per-group delta rules: how one dirty group is brought up to date.

A compiled batch is a DAG of view groups (paper Figure 2, right). An
update to relation ``R`` can only affect the views on the paths from
``R``'s node towards each query root (Bakibayev et al., "Aggregation and
Ordering in Factorised Databases"): every other group's inputs are
bit-identical and its cached outputs remain valid. The scheduler in
:mod:`repro.incremental.maintain` walks the execution order and runs a
group only when its node's relation or one of its incoming views changed
this round, *cutting off* propagation when a refreshed view turns out
unchanged (delta cutoff).

The per-group rule applied along that path lives here:
:func:`numeric_delta_run` + :func:`merge_delta_outputs` (the insert rule
of maintained handles: the run scans only the inserted tuples, but the
merge builds a new view from the target and the delta, so each round
costs O(|view|), not O(|Δ|)). Ordered queries need no rule of their own: the
maintainer keeps their full raw stores and finishes a dirty one through
the engine's one seam, :func:`repro.core.engine._to_query_result`.
"""

from __future__ import annotations

from repro.core.runtime import ArrayViewData, sum_by_key
from repro.data.trie import TrieIndex


def numeric_delta_run(engine, run, index: int, inserts) -> dict[str, ArrayViewData]:
    """The numeric delta rule: one group's compiled code over ``ΔR`` alone.

    Every emitted slot is ``Σ over node rows`` of a product that does not
    otherwise depend on the node's row multiset, so the group's outputs
    over just the inserted tuples *are* the per-artifact deltas
    (:func:`merge_delta_outputs` adds them in). Key sets are exact too:
    under inserts a key exists in the updated artifact iff it existed
    before or some inserted tuple supports it — exactly the keys the
    delta run emits.

    ``inserts`` is the inserted-tuples relation of the group's own node,
    indexed in the plan's order and stepped through
    :meth:`~repro.core.engine.LMFAO.execute_group` as an ad hoc trie —
    in-process, reading incoming views from ``run.view_data``. Maintained
    handles are its only caller: the serving layer's view cache carries
    clean entries across a commit or drops them, and never runs delta
    code.
    """
    trie = TrieIndex(inserts, run.compiled.plans[index].order)
    return engine.execute_group(run, index, trie)


def merge_delta_outputs(
    target: ArrayViewData, delta: ArrayViewData
) -> tuple[ArrayViewData, bool]:
    """The merged view ``target + delta`` per key and slot (copy-on-write).

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
