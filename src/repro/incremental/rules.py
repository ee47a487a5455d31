"""Per-view delta rules: the static dirty-path structure of a compiled DAG.

A compiled batch is a DAG of view groups (paper Figure 2, right). For
incremental maintenance the relevant structure is coarser and static:

* each group runs at one join-tree **node** — a base-relation change
  dirties exactly the groups at that node;
* each group **consumes** the views its plans probe and **produces** views
  and query outputs — a changed view dirties its consumer groups;
* therefore an update to relation ``R`` can only affect the views on the
  paths from ``R``'s node towards each query root (Bakibayev et al.,
  "Aggregation and Ordering in Factorised Databases"): every other group's
  inputs are bit-identical and its cached outputs remain valid.

:class:`DeltaRules` precomputes these maps once per compiled batch. The
runtime scheduler in :mod:`repro.incremental.maintain` walks the execution
order and consults them, additionally *cutting off* propagation when a
refreshed view turns out unchanged (delta cutoff).

The per-group rules applied along that path live here too:
:func:`numeric_delta_run` + :func:`merge_delta_outputs` (the O(|Δ|)
insert rule — shared by maintained handles and the serving layer's
view-cache refresh) and :func:`refresh_ordered` (targeted top-k re-rank).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core import topk
from repro.core.runtime import (
    ArrayViewData,
    apply_predicates,
    debug_checks_enabled,
    local_predicates,
)
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

    ``inserts`` is the inserted-tuples relation of the group's own node;
    it is filtered by the node-local pushed-down predicates of ``run``
    (the full trie it stands in for is), indexed in the plan's order and
    stepped through :meth:`~repro.core.engine.LMFAO.execute_group` as an
    ad hoc trie — in-process, reading incoming views from
    ``run.view_data``. The maintained handle and the server's view-cache
    refresh both apply deltas through this one function, so the two stay
    bit-identical.
    """
    relation = apply_predicates(
        inserts, local_predicates(inserts.attribute_names, run.shared)
    )
    trie = TrieIndex(relation, run.compiled.plans[index].order)
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
        return topk.finish_ordered(query, new_raw)[0]
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
        return topk.finish_ordered(query, new_raw)[0]

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
        full = topk.finish_ordered(query, new_raw)[0]
        assert list(out.items()) == list(full.items()), (
            f"refresh_ordered({query.name}) diverged from the full finish"
        )
    return out


@dataclass(frozen=True)
class DeltaRules:
    """Static scheduling maps derived from one compiled batch."""

    #: join-tree node → indices of groups scanning that node's relation.
    groups_by_node: dict[str, tuple[int, ...]]
    #: group index → names of incoming views the group probes.
    group_consumes: dict[int, tuple[str, ...]]
    #: group index → names of views the group emits.
    group_produces_views: dict[int, tuple[str, ...]]
    #: group index → names of query outputs the group emits.
    group_produces_queries: dict[int, tuple[str, ...]]
    #: view name → index of the group that emits it.
    producer_of_view: dict[str, int]
    #: view name → the join-tree node the view is computed at.
    view_source: dict[str, str]
    #: view name → names of the child views its aggregates reference.
    view_children: dict[str, tuple[str, ...]]
    #: topological execution order of the group DAG (shared with execute()).
    execution_order: tuple[int, ...]

    @classmethod
    def from_compiled(cls, compiled) -> "DeltaRules":
        groups_by_node: dict[str, list[int]] = {}
        group_consumes: dict[int, tuple[str, ...]] = {}
        group_produces_views: dict[int, tuple[str, ...]] = {}
        group_produces_queries: dict[int, tuple[str, ...]] = {}
        producer_of_view: dict[str, int] = {}
        for index, plan in enumerate(compiled.plans):
            groups_by_node.setdefault(plan.node, []).append(index)
            group_consumes[index] = plan.consumed_views
            group_produces_views[index] = plan.produced_views
            group_produces_queries[index] = plan.produced_queries
            for view in plan.produced_views:
                producer_of_view[view] = index
        views = compiled.view_plan.views
        return cls(
            groups_by_node={n: tuple(g) for n, g in groups_by_node.items()},
            group_consumes=group_consumes,
            group_produces_views=group_produces_views,
            group_produces_queries=group_produces_queries,
            producer_of_view=producer_of_view,
            view_source={name: view.source for name, view in views.items()},
            view_children={
                name: view.referenced_views for name, view in views.items()
            },
            execution_order=tuple(compiled.execution_order),
        )

    # ------------------------------------------------------------ delta rules
    def affected_views(self, relation: str) -> tuple[str, ...]:
        """The per-view delta rule, solved for one relation.

        ``ΔR`` can change view ``V`` only when ``V`` is computed at ``R``'s
        node or (transitively) references such a view — i.e. the views on
        the path from ``R`` towards each root. Everything else has delta
        zero by construction.
        """
        affected = {
            name for name, source in self.view_source.items() if source == relation
        }
        changed = True
        while changed:
            changed = False
            for name, children in self.view_children.items():
                if name not in affected and any(c in affected for c in children):
                    affected.add(name)
                    changed = True
        return tuple(name for name in self.view_source if name in affected)

    def dirty_groups(self, relations: set[str] | frozenset[str]) -> tuple[int, ...]:
        """Static upper bound on the groups an update must re-visit.

        In execution order: groups at a changed node plus groups consuming
        an affected view. The runtime scheduler may skip more of these via
        delta cutoff (a refreshed view that compares equal stops
        propagating).
        """
        affected: set[str] = set()
        for relation in relations:
            affected.update(self.affected_views(relation))
        node_groups = {g for r in relations for g in self.groups_by_node.get(r, ())}
        dirty = []
        for index in self.execution_order:
            if index in node_groups or any(
                v in affected for v in self.group_consumes[index]
            ):
                dirty.append(index)
        return tuple(dirty)

    @property
    def num_groups(self) -> int:
        return len(self.execution_order)
