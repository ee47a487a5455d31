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

The per-group rules applied along that path live here:
:func:`numeric_delta_run` + :func:`merge_delta_outputs` (the insert rule
of maintained handles: the run scans only the inserted tuples, but the
merge starts from a copy of the target view, so each round costs
O(|view|), not O(|Δ|)) and :func:`refresh_ordered` (targeted top-k
re-rank).
"""

from __future__ import annotations

from repro.core import topk
from repro.core.runtime import ArrayViewData, debug_checks_enabled
from repro.data.trie import TrieIndex


def numeric_delta_run(engine, run, index: int, inserts) -> dict[str, dict]:
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
    target: dict, delta: dict, changed_keys: set | None = None
) -> tuple[dict, bool]:
    """A merged copy ``target + delta`` per key and slot (copy-on-write).

    Returns ``(merged, changed)``; when ``changed_keys`` is given,
    every key the merge added or updated is also recorded into it
    (the ordered-query refresh uses this to re-rank only the dirtied
    partitions). ``target`` — the *previous*
    version's artifact — is never mutated, and neither are its stored
    value lists: the merge shallow-copies the key table and copies a
    value list the first time a slot of it changes, so readers holding
    the previous version keep a coherent artifact (including any
    columnar :class:`ArrayViewData` state, which stays valid precisely
    because nothing writes through it). The merged result is a plain
    dict — whatever columnar mirror the old version carried does not
    describe the new contents.

    A new key is a change even with all-zero values: the inserted rows
    give it join support, so a from-scratch run would emit it too.
    """
    merged: dict = dict(target)
    changed = False
    for key, values in delta.items():
        current = merged.get(key)
        if current is None:
            merged[key] = list(values)
            changed = True
            if changed_keys is not None:
                changed_keys.add(key)
            continue
        updated = None
        for slot, value in enumerate(values):
            if value != 0.0:
                if updated is None:
                    updated = list(current)
                updated[slot] += value
                changed = True
        if updated is not None:
            merged[key] = updated
            if changed_keys is not None:
                changed_keys.add(key)
    if debug_checks_enabled():
        # the merge must leave both sources unscathed
        for source in (target, delta):
            if isinstance(source, ArrayViewData):
                source.check_consistent()
    return merged, changed


def refresh_ordered(query, old_result, new_raw, dirty_keys):
    """Targeted re-rank of one ordered query after an apply round.

    The maintainer keeps the **full** raw group store for ordered queries
    (see :mod:`repro.core.topk`), so this never has to reconstruct
    evicted keys — it only re-ranks. ``dirty_keys`` is the set of raw
    group keys whose values this round added, changed or removed
    (collected by the numeric merge, or by diffing old vs new raw on a
    rescan); only the *partitions* containing a dirty key are re-ranked
    — inserts re-select via the bounded-heap kernel
    (:func:`repro.core.topk.rank_partition_items`), deletes re-rank the
    same way over the already-rescanned partition — while every clean
    partition's finished rows are reused verbatim from ``old_result``.
    The rebuilt dict walks all partitions in ascending order, so the
    result is bit-identical to a from-scratch finish over ``new_raw``
    (asserted under ``LMFAO_DEBUG``).

    ``dirty_keys=None`` means "unknown" and falls back to the full
    finish, as does any inconsistency between the old finished result
    and the new raw store.
    """
    if old_result is None or dirty_keys is None or query.limit == 0:
        return topk.finish_ordered(query, new_raw)
    partition, residual = topk.order_positions(query)

    def part_of(key):
        key = key if isinstance(key, tuple) else (key,)
        return tuple(key[i] for i in partition)

    dirty_parts = {part_of(key) for key in dirty_keys}
    parts: set[tuple] = set()
    dirty_items: dict[tuple, list] = {}
    for key, values in new_raw.items():
        key = key if isinstance(key, tuple) else (key,)
        part = tuple(key[i] for i in partition)
        parts.add(part)
        if part in dirty_parts:
            dirty_items.setdefault(part, []).append(
                (key, tuple(float(v) for v in values))
            )
    clean: dict[tuple, list] = {}
    for key, values in old_result.groups.items():
        part = tuple(key[i] for i in partition)
        if part not in dirty_parts:
            clean.setdefault(part, []).append((key, values))
    if any(part not in clean for part in parts - dirty_parts):
        # a partition the dirty keys did not cover is missing from the
        # old finished result — tracking went inconsistent; stay exact.
        return topk.finish_ordered(query, new_raw)

    out: dict[tuple, tuple[float, ...]] = {}
    for part in sorted(parts):
        if part in dirty_parts:
            ranked = topk.rank_partition_items(
                dirty_items.get(part, []), query, residual
            )
            for key, values in ranked:
                out[key] = values
        else:
            for key, values in clean[part]:
                out[key] = values
    if debug_checks_enabled():
        full = topk.finish_ordered(query, new_raw)
        assert list(out.items()) == list(full.items()), (
            f"refresh_ordered({query.name}) diverged from the full finish"
        )
    return out
