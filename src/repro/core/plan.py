"""The multi-output plan IR (the formal version of the paper's Figure 3).

A :class:`MultiOutputPlan` describes, for one view group, the trie loop
nest over the node's relation and the decomposed aggregate computation:

* **relation levels** — one trie loop per interesting node attribute, in
  the group's attribute order;
* **carried blocks** — one per incoming view whose group-by includes
  attributes not local to the node. Its entry list is fetched (and
  semi-join checked) once all its key attributes are bound. Because sums
  over distinct carried views factorise, each block contributes independent
  **sub-sums** (``Σ_entries agg``) instead of a nested cross-product loop;
  only emissions *keyed* by carried attributes iterate entries again;
* **terms** — atomic multiplicands: per-level factor evaluations, scalar
  view lookups, carried sub-sums, and O(1) row-range terminals (count /
  prefix-sum reads) that replace the innermost row loop;
* **γ chains** (:class:`GammaNode`) — prefix products of terms bound at or
  above an artifact's emission level (the paper's ``α`` locals);
* **β chains** (:class:`BetaNode`) — running sums over terms bound below
  the emission level (the paper's ``β``); chains are hash-consed so
  artifacts with equal suffixes share work — exactly how ``Q1`` and
  ``V_S→I`` share ``β1`` in Figure 3;
* **emissions** — how each artifact's aggregate slots are written out:
  scalar, dict accumulate, or the aligned fast path (plain assignment when
  the group-by is a prefix of the attribute order, so every key is visited
  exactly once).

The three backends (:mod:`~repro.core.codegen`, :mod:`~repro.core.npbackend`,
:mod:`~repro.core.cbackend`) consume this IR and must agree exactly; that
invariant is tested differentially.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Union

if TYPE_CHECKING:
    from repro.core.lowering import LoweredPlan

# --------------------------------------------------------------------- levels


@dataclass(frozen=True)
class RelationLevel:
    """Trie level ``index`` iterating runs of node attribute ``attr``."""

    index: int
    attr: str


@dataclass(frozen=True)
class CarriedBlock:
    """An incoming view carrying non-local group-by attributes.

    ``key`` — name-sorted node-local key attributes (the probe key);
    ``carried`` — the non-local attributes, in entry-tuple order;
    ``bind_level`` — the relation level where the key is fully bound: the
    entry list is fetched there, with semi-join skip on miss.
    """

    index: int
    view: str
    key: tuple[str, ...]
    carried: tuple[str, ...]
    bind_level: int


# ---------------------------------------------------------------------- terms


@dataclass(frozen=True)
class FactorTerm:
    """``func(attr)`` where ``attr`` is a relation trie level attribute."""

    level: int
    attr: str
    func_name: str

    @property
    def sig(self) -> tuple:
        return ("f", self.level, self.attr, self.func_name)


@dataclass(frozen=True)
class ViewTerm:
    """Aggregate ``agg_index`` of a scalar (non-carried) incoming view.

    The probe happens once at ``level`` (= max level of the view's key);
    the term reads one slot of the probed tuple.
    """

    level: int
    view: str
    agg_index: int

    @property
    def sig(self) -> tuple:
        return ("v", self.level, self.view, self.agg_index)


@dataclass(frozen=True)
class SubSumTerm:
    """``Σ over entries of a carried view of aggregate agg_index``.

    Constant within a ``bind_level`` unit, so it binds there; computed in
    the block's sub-sum loop.
    """

    level: int  # == block.bind_level
    block: int
    view: str
    agg_index: int

    @property
    def sig(self) -> tuple:
        return ("s", self.level, self.block, self.agg_index)


@dataclass(frozen=True)
class CountTerm:
    """Number of relation rows in the current run at relation level ``level``.

    ``level == -1`` means the whole relation. This O(1) range length is the
    row-multiplicity anchor of every aggregate chain.
    """

    level: int

    @property
    def sig(self) -> tuple:
        return ("n", self.level)


@dataclass(frozen=True)
class RowSumTerm:
    """``Σ_rows ∏ func(attr)`` over the current run at relation level ``level``.

    ``product`` is the canonical (sorted) multiset of row factors; the
    executor materialises one prefix-sum register per distinct product.
    ``level == -1`` sums the whole relation.
    """

    level: int
    product: tuple[tuple[str, str], ...]  # ((attr, func_name), ...)

    @property
    def sig(self) -> tuple:
        return ("r", self.level, self.product)


Term = Union[FactorTerm, ViewTerm, SubSumTerm, CountTerm, RowSumTerm]


# --------------------------------------------------------------------- chains


@dataclass(frozen=True)
class GammaNode:
    """Prefix product ``value = parent_value × ∏ terms``, computed once per
    unit at placement ``level`` (≥ every term's own level)."""

    id: int
    level: int
    terms: tuple[Term, ...]
    parent: int | None


@dataclass(frozen=True)
class BetaNode:
    """Running sum accumulated in the loop body at ``level``.

    Initialised to 0 in the body of ``reset_level`` (``-1`` = prologue),
    receives ``+= ∏ terms × child_value`` once per unit at ``level``, and is
    read back in the ``reset_level`` body after the inner loops finish.
    """

    id: int
    level: int
    reset_level: int
    terms: tuple[Term, ...]
    child: int | None


# ------------------------------------------------------------------ emissions


@dataclass(frozen=True)
class KeyPart:
    """One component of an emission key.

    ``kind == 'rel'``: the value at relation level ``level``;
    ``kind == 'car'``: component ``pos`` of the current entry of carried
    block ``level`` (here ``level`` stores the block index).
    """

    kind: str
    level: int
    pos: int = 0


@dataclass(frozen=True)
class CarriedFactor:
    """A per-entry multiplicand of a carried-keyed emission slot."""

    block: int
    agg_index: int


@dataclass(frozen=True)
class EmissionSlot:
    """How one aggregate slot of an artifact is emitted.

    ``level`` — the relation level whose body hosts the emission (``-1``
    for scalars, written after all loops); ``key_blocks`` — carried blocks
    whose entries must be iterated (nested) to build carried key parts;
    ``carried_factors`` — per-entry multiplicands from those blocks. The
    emitted value is ``γ × β × ∏ carried_factors`` (missing pieces = 1).

    ``support`` guards against phantom groups: when the aggregate's chain
    reaches below the emission level, a sum of 0.0 cannot be told apart
    from an empty join under the key, so the emission only fires when the
    referenced support chain (a pure row count over the surviving paths)
    is positive. ``None`` means support is trivially positive.
    """

    slot: int
    level: int
    key_parts: tuple[KeyPart, ...]
    key_blocks: tuple[int, ...]
    carried_factors: tuple[CarriedFactor, ...]
    gamma: int | None
    beta: int | None
    support: int | None = None


#: the host signature of one emission slot group — the fields that decide
#: which loop body (and, for carried keys, which nested entry loops) emit it.
SlotGroupKey = tuple[int, tuple[KeyPart, ...], tuple[int, ...], "int | None"]


@dataclass(frozen=True)
class Emission:
    """All slots of one artifact plus its output container description.

    ``aligned`` marks the fast path: every slot shares the same relation
    level and key parts, there are no carried keys, and the group-by set
    equals the attribute-order prefix — each key is then visited exactly
    once and the emission is a plain assignment.

    An ordered query's emission is no different: it accumulates the full
    group set, and the ranked cut happens once, at result finishing
    (:mod:`repro.core.topk`).
    """

    artifact: str
    kind: str  # 'view' | 'query'
    width: int
    group_by: tuple[str, ...]
    slots: tuple[EmissionSlot, ...]
    aligned: bool

    def slot_groups(self) -> list[tuple[SlotGroupKey, tuple[EmissionSlot, ...]]]:
        """Slots grouped by host ``(level, key parts, key blocks, support)``.

        Each group is written together: one probe-accumulate statement
        group in generated code (inside nested entry loops for the keyed
        carried blocks), one run-by-entry selection in the NumPy backend.
        The lowering (:func:`repro.core.lowering.lower_plan`) takes the
        partition from here for every backend. Group order is first-slot
        order — the order the generated statements execute in.
        """
        groups: dict[SlotGroupKey, list[EmissionSlot]] = {}
        for slot in self.slots:
            key = (slot.level, slot.key_parts, slot.key_blocks, slot.support)
            groups.setdefault(key, []).append(slot)
        return [(key, tuple(slots)) for key, slots in groups.items()]


# ------------------------------------------------------------------- bindings


@dataclass(frozen=True)
class ViewBinding:
    """How a group consumes one incoming view.

    Scalar views (no carried attributes) are probed at ``bind_level`` and
    yield a tuple of aggregates; carried views are fetched at
    ``bind_level`` as entry lists ``[(carried_values, aggregates), ...]``.
    """

    view: str
    num_aggregates: int
    key: tuple[str, ...]
    key_levels: tuple[int, ...]
    bind_level: int
    carried: tuple[str, ...] = ()
    block: int | None = None

    @property
    def is_carried(self) -> bool:
        return bool(self.carried)


# ----------------------------------------------------------------- group plan


@dataclass
class MultiOutputPlan:
    """Executable description of one view group (paper §2.2–2.3, Figure 3).

    The contract between the optimiser (:func:`repro.core.decompose.
    decompose_group`) and every executor — the generated-Python code
    (:mod:`repro.core.codegen`), the NumPy and the C backends all consume
    exactly this IR and must agree bit-for-bit on integer data.

    Field by field:

    ``group_name`` / ``node``
        the group's name and the join-tree node whose relation the loop
        nest scans (paper: "groups of views computed at the same node");
    ``relation_levels``
        one trie loop per interesting node attribute, in the group's
        attribute order (:attr:`order` is the derived tuple) — Figure 3's
        nested loops over distinct prefixes;
    ``carried_blocks`` / ``subsums``
        incoming views whose group-by carries non-local attributes, plus
        the Σ-over-entries terms they contribute (see
        :class:`CarriedBlock`);
    ``bindings``
        how each incoming view is probed (:class:`ViewBinding`); also the
        group's dependency frontier for incremental maintenance
        (:attr:`consumed_views`);
    ``gammas`` / ``betas``
        the hash-consed prefix-product and running-sum chains — the
        paper's ``α`` locals and ``β`` partial aggregates, shared between
        artifacts with equal suffixes (Figure 3's ``β1``);
    ``emissions``
        how every artifact's slots are written out (:class:`Emission`:
        scalar, hash accumulate, or aligned assignment);
    ``row_products`` / ``level_functions``
        the distinct row-factor products and per-level factor
        evaluations the runtime materialises as prefix-sum registers and
        value arrays (``function names`` here are *plan slot names*: a
        plan-cache hit executes a copy of the compiled batch whose
        ``functions`` re-bind them to the request's constants; executors
        resolve slots through the functions mapping they are given and
        key trie caches by the bound function's own name).

    A plan is **pure structure** — it never references data contents —
    so one plan executes against any snapshot and any re-bound constants;
    :attr:`partition_safe` additionally certifies it for per-partition
    execution + merge (domain parallelism).
    """

    group_name: str
    node: str
    relation_levels: tuple[RelationLevel, ...]
    carried_blocks: tuple[CarriedBlock, ...]
    bindings: tuple[ViewBinding, ...]
    subsums: tuple[SubSumTerm, ...]
    gammas: tuple[GammaNode, ...]
    betas: tuple[BetaNode, ...]
    emissions: tuple[Emission, ...]
    #: distinct row-factor products needing prefix-sum registers.
    row_products: tuple[tuple[tuple[str, str], ...], ...]
    #: distinct (level, attr, func_name) needing per-level value arrays.
    level_functions: tuple[tuple[int, str, str], ...]

    @property
    def order(self) -> tuple[str, ...]:
        """The relation attribute order (the paper's trie order)."""
        return tuple(level.attr for level in self.relation_levels)

    @cached_property
    def lowered(self) -> LoweredPlan:
        """This plan's staged schedule, lowered on first use and kept for
        the plan's lifetime — every backend compiling the plan reads this
        one :class:`~repro.core.lowering.LoweredPlan`."""
        from repro.core.lowering import lower_plan

        return lower_plan(self)

    def binding(self, view: str) -> ViewBinding:
        for b in self.bindings:
            if b.view == view:
                return b
        raise KeyError(view)

    def block_binding(self, block: int) -> ViewBinding:
        """The carried binding behind carried-block index ``block``.

        Emission key parts of kind ``'car'`` and :class:`CarriedFactor`
        terms reference blocks by index; executors resolve them to the
        binding (and through it the marshalled entry lists) with this.
        """
        for b in self.bindings:
            if b.block == block:
                return b
        raise KeyError(block)

    # ------------------------------------------------ partition-aware introspection
    @property
    def partition_safe(self) -> bool:
        """Whether this plan may run per level-0 trie partition and merge.

        Every emitted slot is a sum over the node's rows of a product that
        does not otherwise depend on the node's row multiset (the same
        linearity incremental maintenance exploits), so partial outputs from
        disjoint row partitions always *sum* to the full outputs. The one
        structural requirement is on key existence: aligned emissions are
        plain assignments, so their key sets must be disjoint across
        partitions — guaranteed exactly when the emission is keyed by the
        level-0 attribute (true by construction: aligned means the group-by
        equals an attribute-order prefix). This property re-checks that
        invariant defensively; a False return makes the executor fall back
        to unpartitioned execution rather than risk a wrong merge.
        """
        if not self.relation_levels:
            return False
        for emission in self.emissions:
            if not emission.aligned or not emission.group_by:
                continue
            first = emission.slots[0].key_parts[0]
            if first.kind != "rel" or first.level != 0:
                return False
        return True

    # ------------------------------------------------- delta-aware introspection
    @property
    def consumed_views(self) -> tuple[str, ...]:
        """Names of the incoming views this plan probes (its delta inputs).

        Incremental maintenance marks a group dirty when any of these views
        changed in the current apply round — the binding list *is* the
        group's dependency frontier in the view DAG.
        """
        return tuple(b.view for b in self.bindings)

    @property
    def produced_views(self) -> tuple[str, ...]:
        """Names of the views this plan emits (its delta outputs)."""
        return tuple(e.artifact for e in self.emissions if e.kind == "view")

    @property
    def produced_queries(self) -> tuple[str, ...]:
        """Names of the query outputs this plan emits."""
        return tuple(e.artifact for e in self.emissions if e.kind == "query")

    def statistics(self) -> dict[str, int]:
        """Operation-count statistics for plan-shape assertions and benches."""
        return {
            "relation_levels": len(self.relation_levels),
            "carried_blocks": len(self.carried_blocks),
            "bindings": len(self.bindings),
            "gamma_nodes": len(self.gammas),
            "beta_nodes": len(self.betas),
            "subsums": len(self.subsums),
            "emissions": len(self.emissions),
            "emitted_slots": sum(len(e.slots) for e in self.emissions),
            "terms": sum(len(g.terms) for g in self.gammas)
            + sum(len(b.terms) for b in self.betas),
        }
