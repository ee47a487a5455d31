"""The view-generation layer (paper Figure 1, left box).

Takes the query batch, the join tree and the per-query roots, and produces
the merged directional views plus one :class:`Output` per query:

* **aggregate pushdown** — each query is decomposed top-down from its root
  into one view per join-tree edge below the root; every factor of the
  query's sum-product is applied at the *highest* node (closest to the
  query's root) whose relation contains the factor's attribute;
* **view merging** — views with the same edge, direction and group-by
  attributes are merged across queries; structurally equal aggregates
  inside a merged view are deduplicated, so "several edges in the join tree
  only have one view, which is used for all three queries" (paper §2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.data.catalog import Database
from repro.jointree.jointree import JoinTree
from repro.query.aggregates import Factor
from repro.query.batch import QueryBatch
from repro.query.query import Query
from repro.core.views import (
    AggRef,
    Output,
    View,
    ViewAggregate,
    ViewSignature,
    view_signature,
)
from repro.util.errors import PlanError


@dataclass
class ViewPlan:
    """Everything the view-generation layer hands to multi-output grouping."""

    tree: JoinTree
    roots: dict[str, str]
    views: dict[str, View] = field(default_factory=dict)
    outputs: list[Output] = field(default_factory=list)
    #: view name → names of the queries whose decomposition uses it.
    queries_using: dict[str, tuple[str, ...]] = field(default_factory=dict)
    #: memoized :meth:`view_signatures` result (computed on first use).
    _signatures: dict[str, ViewSignature] | None = field(
        default=None, repr=False, compare=False
    )

    def views_on_edge(self, source: str, target: str) -> list[View]:
        """All merged views computed at ``source`` for ``target``."""
        return [
            v for v in self.views.values() if v.source == source and v.target == target
        ]

    @property
    def num_views(self) -> int:
        return len(self.views)

    def view_signatures(self) -> dict[str, ViewSignature]:
        """Canonical batch-independent signature per view, memoized.

        Signatures compose bottom-up over :attr:`View.referenced_views`
        (see :func:`repro.core.views.view_signature`), so a view's
        signature covers its whole subtree — structure, placeholder
        slots and subtree relations alike.
        """
        if self._signatures is None:
            sigs: dict[str, ViewSignature] = {}

            def sig(name: str) -> ViewSignature:
                cached = sigs.get(name)
                if cached is None:
                    view = self.views[name]
                    children = tuple(sig(c) for c in view.referenced_views)
                    cached = sigs[name] = view_signature(view, children)
                return cached

            for name in self.views:
                sig(name)
            self._signatures = sigs
        return self._signatures

    def edge_view_counts(self) -> dict[tuple[str, str], int]:
        """Directed edge → number of merged views (the demo UI arrow widths)."""
        counts: dict[tuple[str, str], int] = {}
        for view in self.views.values():
            key = (view.source, view.target)
            counts[key] = counts.get(key, 0) + 1
        return counts


class ViewGenerator:
    """Decomposes a batch into merged views along one shared join tree."""

    def __init__(
        self,
        db: Database,
        tree: JoinTree,
        merge_across_queries: bool = True,
    ) -> None:
        self._db = db
        self._tree = tree
        self._merge = merge_across_queries
        self._registry: dict[tuple, View] = {}
        self._uses: dict[str, list[str]] = {}
        self._counter = 0
        self._shapes: dict[str, tuple] = {}

    def generate(self, batch: QueryBatch, roots: dict[str, str]) -> ViewPlan:
        """Run pushdown + merging for every query; returns the view plan."""
        plan = ViewPlan(tree=self._tree, roots=dict(roots))
        for query in batch:
            root = roots[query.name]
            plan.outputs.append(self._decompose(query, root))
        plan.views = {
            view.name: view for view in self._registry.values()
        }
        plan.queries_using = {
            name: tuple(dict.fromkeys(users)) for name, users in self._uses.items()
        }
        return plan

    # ------------------------------------------------------------------ internals
    def _decompose(self, query: Query, root: str) -> Output:
        children, edges, depth, highest = self._hung_from(root)

        # Assign every factor occurrence to the highest node containing its
        # attribute (unique by the running-intersection property); an
        # aggregate's factors are canonically ordered, so each node's share
        # is too.
        factor_home: list[dict[str, tuple[Factor, ...]]] = []
        for agg in query.aggregates:
            homes: dict[str, list[Factor]] = {}
            for factor in agg.factors:
                home = highest.get(factor.attribute)
                if home is None:
                    home = highest[factor.attribute] = self._highest_node(
                        factor.attribute, depth
                    )
                homes.setdefault(home, []).append(factor)
            factor_home.append({node: tuple(fs) for node, fs in homes.items()})

        gb_set = set(query.group_by)
        # slots[agg_index][child] = (view name, slot) in the merged child view.
        slots: list[dict[str, tuple[str, int]]] = [{} for _ in query.aggregates]

        for node, parent, separator, subtree in edges:
            group_by = tuple(sorted(separator | (gb_set & subtree)))
            view = self._view_for(query, node, parent, group_by)
            for homes, placed in zip(factor_home, slots):
                refs = tuple(sorted([placed[child] for child in children[node]]))
                placed[node] = (view.name, view.slot(homes.get(node, ()), refs))

        output_aggs = [
            ViewAggregate(
                factors=homes.get(root, ()),
                refs=tuple(AggRef(*placed[child]) for child in children[root]),
            )
            for homes, placed in zip(factor_home, slots)
        ]
        return Output(query=query, node=root, aggregates=output_aggs)

    def _hung_from(self, root: str) -> tuple[
        dict[str, list[str]], list[tuple], dict[str, int], dict[str, str]
    ]:
        """The join tree hung from ``root``, built once per generator:
        each node's children, the edges ``(node, parent, separator,
        subtree attributes)`` leaves first, each node's depth, and the
        highest node holding an attribute, filled in as attributes are
        met."""
        shape = self._shapes.get(root)
        if shape is None:
            tree = self._tree
            parents = tree.rooted_parents(root)
            children: dict[str, list[str]] = {node: [] for node in tree.nodes}
            for node, parent in parents.items():
                if parent is not None:
                    children[parent].append(node)
            edges = [
                (node, parent, frozenset(tree.separator(node, parent)),
                 tree.subtree_attributes(node, parent))
                for node in tree.topological_from_leaves(root)
                if (parent := parents[node]) is not None
            ]
            shape = self._shapes[root] = (children, edges, self._depths(root), {})
        return shape

    def _depths(self, root: str) -> dict[str, int]:
        depth = {root: 0}
        frontier = [root]
        while frontier:
            nxt: list[str] = []
            for node in frontier:
                for nbr in self._tree.neighbors(node):
                    if nbr not in depth:
                        depth[nbr] = depth[node] + 1
                        nxt.append(nbr)
            frontier = nxt
        return depth

    def _highest_node(self, attribute: str, depth: dict[str, int]) -> str:
        holders = self._db.schema.relations_with(attribute)
        if not holders:
            raise PlanError(f"attribute {attribute!r} not in any relation")
        return min(holders, key=lambda node: depth[node])

    def _view_for(
        self, query: Query, source: str, target: str, group_by: tuple[str, ...]
    ) -> View:
        key: tuple = (source, target, group_by)
        if not self._merge:
            key = key + (query.name,)
        view = self._registry.get(key)
        if view is None:
            view = View(
                name=f"V{self._counter}_{source}_{target}",
                source=source,
                target=target,
                group_by=group_by,
            )
            self._counter += 1
            self._registry[key] = view
            self._uses[view.name] = []
        self._uses[view.name].append(query.name)
        return view
