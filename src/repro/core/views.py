"""Directional views: the unit of LMFAO's shared query decomposition.

A view ``V_{n→p}`` sits on the join-tree edge from ``n`` (source) to ``p``
(target) and aggregates the join of the subtree rooted at ``n`` (away from
``p``), grouped by the edge separator plus any group-by attributes that must
be carried towards some query's root.

A view's aggregates are **compositional**: each is a product of factors
local to ``n`` and references to aggregates of the views incoming to ``n``
from its own children. Structural signatures over this representation are
what make view merging (same edge, same direction, same group-by) and
aggregate deduplication cheap and exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.query.aggregates import Factor
from repro.query.query import Query


@dataclass(frozen=True)
class AggRef:
    """Reference to aggregate ``index`` of the (merged) view named ``view``."""

    view: str
    index: int


def _referenced_views(aggregates) -> tuple[str, ...]:
    """Distinct child-view names any of the aggregates reference, in order."""
    seen: dict[str, None] = {}
    for aggregate in aggregates:
        for ref in aggregate.refs:
            seen.setdefault(ref.view, None)
    return tuple(seen)


@dataclass(frozen=True)
class ViewAggregate:
    """One aggregate of a view or output: ``SUM(∏ factors × ∏ child refs)``.

    ``factors`` are the query factors assigned to the home node;
    ``refs`` point into the incoming views of the home node (one per child
    subtree — every child contributes at least its join multiplicity).
    Both are kept in canonical order so equal products have equal
    signatures.
    """

    factors: tuple[Factor, ...] = ()
    refs: tuple[AggRef, ...] = ()
    #: structural identity used for aggregate deduplication (and by the
    #: engine's group-cache key); fixed at construction
    signature: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        factors = tuple(sorted(self.factors, key=lambda f: f.signature))
        refs = tuple(sorted(self.refs, key=lambda r: (r.view, r.index)))
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "refs", refs)
        object.__setattr__(self, "signature", (
            tuple(f.signature for f in factors),
            tuple((r.view, r.index) for r in refs),
        ))


@dataclass
class View:
    """A (possibly merged) directional view on a join-tree edge.

    Attributes
    ----------
    name:
        Unique name, e.g. ``V0_Sales_Items``.
    source, target:
        The edge and direction: computed at ``source``, consumed at
        ``target``.
    group_by:
        Canonical (name-sorted) group-by attributes. Contains the edge
        separator plus carried query group-by attributes.
    aggregates:
        Deduplicated aggregates; several queries may share one slot.
    """

    name: str
    source: str
    target: str
    group_by: tuple[str, ...]
    aggregates: list[ViewAggregate] = field(default_factory=list)
    _index: dict[tuple, int] = field(default_factory=dict, repr=False)

    def slot(
        self, factors: tuple[Factor, ...], refs: tuple[tuple[str, int], ...]
    ) -> int:
        """The slot index of ``SUM(∏ factors × ∏ refs)``, added if new.

        ``factors`` come in canonical (signature) order and ``refs`` are
        sorted ``(view, index)`` pairs, so together they are the
        aggregate's signature and a repeated aggregate is found without
        building it.
        """
        signature = (tuple(f.signature for f in factors), refs)
        found = self._index.get(signature)
        if found is None:
            aggregate = ViewAggregate(factors, tuple(AggRef(*ref) for ref in refs))
            found = self._index[aggregate.signature] = len(self.aggregates)
            self.aggregates.append(aggregate)
        return found

    @property
    def num_aggregates(self) -> int:
        return len(self.aggregates)

    @property
    def referenced_views(self) -> tuple[str, ...]:
        """Names of the child views any aggregate of this view consumes.

        These are the inbound edges of the view DAG that incremental
        maintenance walks: a change to a base relation dirties the views
        computed at its node, then every view reachable through this
        relation — the path from the node to each query root.
        """
        return _referenced_views(self.aggregates)

    def __repr__(self) -> str:
        gb = ",".join(self.group_by)
        return (
            f"View({self.name}: {self.source}->{self.target}, "
            f"gb=[{gb}], aggs={len(self.aggregates)})"
        )


@dataclass(frozen=True)
class ViewSignature:
    """Canonical structural identity of one (merged) view *subtree*.

    Independent of the batch the view was generated for: function names
    (which embed predicate constants for indicator factors) are abstracted
    to positional placeholders in first-occurrence order, and child views
    enter by their own signatures rather than their generated ``V{n}_…``
    names. Two views from different batches with equal ``structure``
    compute the same thing once the same concrete functions are bound to
    their ``slots`` — the property the cross-request view cache keys on
    (:func:`repro.serve.fingerprint.view_identities`).

    ``slots`` names the concrete functions filling the placeholders, own
    placeholders first then each child's slots in ``referenced_views``
    order — the whole subtree's constants, since the view's data depends
    on all of them. ``subtree`` is the set of join-tree relations the
    view aggregates over (its source node plus every child subtree),
    which is what delta routing intersects with changed relations.
    """

    structure: tuple
    slots: tuple[str, ...]
    subtree: frozenset[str]


def view_signature(
    view: "View", child_signatures: tuple[ViewSignature, ...]
) -> ViewSignature:
    """The canonical signature of ``view`` given its children's signatures.

    ``child_signatures`` must be ordered like ``view.referenced_views``
    (the order :meth:`repro.core.viewgen.ViewPlan.view_signatures`
    guarantees). Aggregate slot order is preserved — it is the value
    layout of the view's materialized ``ArrayViewData``.
    """
    child_pos = {name: i for i, name in enumerate(view.referenced_views)}
    placeholder: dict[str, int] = {}
    aggs = []
    for aggregate in view.aggregates:
        factors = tuple(
            (f.attribute, placeholder.setdefault(f.function.name, len(placeholder)))
            for f in aggregate.factors
        )
        refs = tuple((child_pos[r.view], r.index) for r in aggregate.refs)
        aggs.append((factors, refs))
    structure = (
        "V",
        view.source,
        view.target,
        view.group_by,
        tuple(aggs),
        tuple(sig.structure for sig in child_signatures),
    )
    slots = tuple(placeholder) + tuple(
        name for sig in child_signatures for name in sig.slots
    )
    subtree = frozenset({view.source}).union(
        *(sig.subtree for sig in child_signatures)
    )
    return ViewSignature(structure=structure, slots=slots, subtree=subtree)


@dataclass
class Output:
    """A query's final computation at its root node.

    One :class:`ViewAggregate` per query aggregate, in query order; results
    are grouped by the query's declared ``group_by`` (order preserved).
    """

    query: Query
    node: str
    aggregates: list[ViewAggregate]

    @property
    def name(self) -> str:
        return self.query.name

    @property
    def group_by(self) -> tuple[str, ...]:
        return self.query.group_by

    @property
    def referenced_views(self) -> tuple[str, ...]:
        """Names of the views this output consumes (see :attr:`View.referenced_views`)."""
        return _referenced_views(self.aggregates)

    def __repr__(self) -> str:
        return f"Output({self.name}@{self.node}, aggs={len(self.aggregates)})"
