"""The shared lowering layer: plan IR → one staged execution schedule.

Historically each backend re-derived its own execution schedule from the
:class:`~repro.core.plan.MultiOutputPlan` — the Python code generator, the
NumPy array program and the C code generator each rebuilt "which probes
fire at which level, which γ/β nodes initialise/accumulate where, which
emissions live in which loop body" with three copies of the same dict
bucketing. This module defines that schedule **once** (the
``CompileState``/produce-consume shape of raco's compiler): a
:func:`lower_plan` pass groups every plan construct by the trie level
whose loop body hosts it, and all three backends consume the resulting
:class:`LoweredPlan` — the Python and C emitters through the loop-nest
walker (:mod:`repro.core.loopnest`), the NumPy backend stage by stage,
reading the same per-emission slot groups the walker emits. A plan is
lowered once, on first use, and keeps its lowering
(:attr:`~repro.core.plan.MultiOutputPlan.lowered`).

It also **resolves operands**, once: every γ node, β node, slot and
carried sub-sum becomes the tuple of :class:`Operand` records its
generated statement multiplies, in order. This is the only dispatch on
the :data:`~repro.core.plan.Term` classes; the walker joins operand
expressions and NumPy multiplies operand arrays over the same tuples, so
their operand orders agree by construction.

The lowering is **pure structure**: it depends only on the plan, never on
data. Execution decisions — partition count, backend choice — are
*data-dependent* and are
re-decided per execution by :mod:`repro.core.costmodel`, exactly like
re-bound predicate constants; they are deliberately absent from this IR
(and therefore from the serving layer's structural fingerprints).

Scheduling invariants preserved from the original per-backend code:

* probes, γ nodes and β nodes keep **plan order** within a level (the
  statement order of the generated code);
* β accumulation across levels is **deepest level first** — a chain's
  child (strictly deeper) is fully reduced before its parent multiplies
  it in (:attr:`LoweredPlan.beta_order`);
* hash-emission slots partition by host ``(level, key parts, key blocks,
  support)`` via :meth:`~repro.core.plan.Emission.slot_groups`, in
  emission order then first-slot order;
* an aligned emission is one slot group holding all its slots, guarded
  by its first slot's support and hosted at that slot's level; a level
  hosts its aligned groups before its hash groups;
* a scalar emission is one slot group hosted at level ``-1``: the
  epilogue, after all loops.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from repro.core.plan import (
    BetaNode,
    CountTerm,
    Emission,
    EmissionSlot,
    FactorTerm,
    GammaNode,
    MultiOutputPlan,
    RowSumTerm,
    Term,
    ViewBinding,
    ViewTerm,
)

#: emission execution modes, decided purely by plan structure.
MODE_SCALAR = "scalar"
MODE_ALIGNED = "aligned"
MODE_HASH = "hash"


def emission_mode(emission: Emission) -> str:
    """``'scalar'`` (no group-by), ``'aligned'`` (assignment fast path) or
    ``'hash'`` (probe-accumulate) — the one mode split every backend and
    the cost model dispatch on (the C backend renders ``'aligned'`` as
    array append). An ordered query's emission accumulates its full group
    set like any other; ranking happens once, at result finishing
    (:mod:`repro.core.topk`)."""
    if not emission.group_by:
        return MODE_SCALAR
    if emission.aligned:
        return MODE_ALIGNED
    return MODE_HASH


#: operand kinds; ``Operand.index`` is a position in plan.level_functions
#: (factor), plan.row_products (rowsum) or plan.bindings (view), a carried
#: block (subsum, entry: a sum over / the current one of its entries), a
#: γ or β id; a count operand is the run's row count
OP_FACTOR, OP_COUNT, OP_ROWSUM, OP_VIEW = "factor", "count", "rowsum", "view"
OP_SUBSUM, OP_ENTRY, OP_GAMMA, OP_BETA = "subsum", "entry", "gamma", "beta"


class Operand(NamedTuple):
    """One multiplicand of a product, resolved against the plan.

    ``level`` is the trie level whose runs the value varies with (``-1``:
    one value; a γ at its placement, a β at its reset level); ``agg`` the
    aggregate position of a view, sub-sum or entry operand. Equal operands
    are equal values, so an operand is its own hoisting and memo key.
    """

    kind: str
    level: int
    index: int = 0
    agg: int = 0


#: one product's operands, in the generated statement's multiplicand order
Product = tuple[Operand, ...]


@dataclass(frozen=True)
class SlotGroupSchedule:
    """One emission's slots written together in one loop body.

    ``emission_index`` is the emission's position in ``plan.emissions``
    (the C backend addresses output buffers by it). The first slot's
    ``(level, key parts, key blocks, support)`` is the group's host: the
    level, guard, keyed entry loops and key every backend writes the
    group under. A hash group's slots share that host; an aligned or a
    scalar emission is a single group of all its slots. ``products`` are
    the slots' values (γ × β × carried factors), parallel to ``slots``.
    """

    emission_index: int
    emission: Emission
    slots: tuple[EmissionSlot, ...]
    products: tuple[Product, ...]

    @property
    def first(self) -> EmissionSlot:
        return self.slots[0]


@dataclass(frozen=True)
class LoweredEmission:
    """One emission with its structural execution mode and slot groups."""

    index: int
    emission: Emission
    mode: str
    #: the groups that write the emission (one for an ``'aligned'`` or
    #: ``'scalar'`` emission).
    slot_groups: tuple[SlotGroupSchedule, ...]


@dataclass(frozen=True)
class LevelSchedule:
    """Everything hosted by one trie level's loop body (``level == -1`` is
    the prologue/epilogue outside all loops).

    ``probes`` keeps plan order (scalar and carried bindings interleaved,
    the C backend's statement order; the Python generator probes scalars
    first — equivalent, since all probes at a level AND into the same
    alive mask). ``outputs`` are the slot groups written after the inner
    loops: aligned groups first, then hash groups, each in emission order.
    """

    level: int
    probes: tuple[ViewBinding, ...]
    gammas: tuple[GammaNode, ...]
    beta_inits: tuple[BetaNode, ...]
    beta_accums: tuple[BetaNode, ...]
    outputs: tuple[SlotGroupSchedule, ...]


@dataclass(frozen=True)
class LoweredPlan:
    """The staged schedule all three backends execute.

    ``levels`` holds one :class:`LevelSchedule` per trie level plus the
    prologue/epilogue pseudo-level ``-1`` (access via :meth:`level`);
    ``emissions`` is index-ordered with modes resolved; ``beta_order``
    the global deepest-first β evaluation order used by vectorised segment
    sums;
    ``gamma_products`` / ``beta_products`` every node's operands, indexed
    by node id (its position in ``plan.gammas`` / ``plan.betas``);
    ``subsums_by_block`` the Σ-over-entries sub-sum operands each carried
    block computes at its bind level. The plan owns its lowering
    (:attr:`~repro.core.plan.MultiOutputPlan.lowered`), so there is no
    reference back to the plan: that would make every plan a reference
    cycle, freed only by the cyclic garbage collector.
    """

    num_levels: int
    levels: tuple[LevelSchedule, ...]
    emissions: tuple[LoweredEmission, ...]
    beta_order: tuple[BetaNode, ...]
    gamma_products: tuple[Product, ...]
    beta_products: tuple[Product, ...]
    subsums_by_block: tuple[tuple[int, Product], ...]

    def level(self, k: int) -> LevelSchedule:
        """The schedule hosted by level ``k`` (``-1`` = outside all loops)."""
        return self.levels[k + 1]

    def block_subsums(self, block: int) -> Product:
        for index, operands in self.subsums_by_block:
            if index == block:
                return operands
        return ()


def lower_plan(plan: MultiOutputPlan) -> LoweredPlan:
    """Lower one plan to its staged schedule (pure, deterministic)."""
    num_rel = len(plan.relation_levels)
    factors = {key: i for i, key in enumerate(plan.level_functions)}
    products = {product: i for i, product in enumerate(plan.row_products)}
    views = {binding.view: i for i, binding in enumerate(plan.bindings)}

    def operand(term: Term) -> Operand:
        if isinstance(term, FactorTerm):
            key = (term.level, term.attr, term.func_name)
            return Operand(OP_FACTOR, term.level, factors[key])
        if isinstance(term, CountTerm):
            return Operand(OP_COUNT, term.level)
        if isinstance(term, RowSumTerm):
            return Operand(OP_ROWSUM, term.level, products[term.product])
        if isinstance(term, ViewTerm):
            return Operand(OP_VIEW, term.level, views[term.view], term.agg_index)
        return Operand(OP_SUBSUM, term.level, term.block, term.agg_index)

    # each node's value as a one-operand product; no node (None) as none
    gamma: dict = {None: ()}
    gamma.update((n.id, (Operand(OP_GAMMA, n.level, n.id),)) for n in plan.gammas)
    beta: dict = {None: ()}
    beta.update((n.id, (Operand(OP_BETA, n.reset_level, n.id),)) for n in plan.betas)

    def slot_group(index: int, emission: Emission, slots) -> SlotGroupSchedule:
        products = tuple(
            gamma[slot.gamma] + beta[slot.beta] + tuple([
                Operand(OP_ENTRY, slot.level, factor.block, factor.agg_index)
                for factor in slot.carried_factors
            ])
            for slot in slots
        )
        return SlotGroupSchedule(index, emission, slots, products)

    probes_at: dict[int, list[ViewBinding]] = {}
    for binding in plan.bindings:
        probes_at.setdefault(binding.bind_level, []).append(binding)

    gammas_at: dict[int, list[GammaNode]] = {}
    for node in plan.gammas:
        gammas_at.setdefault(node.level, []).append(node)
    beta_inits_at: dict[int, list[BetaNode]] = {}
    beta_accums_at: dict[int, list[BetaNode]] = {}
    for node in plan.betas:
        beta_inits_at.setdefault(node.reset_level, []).append(node)
        beta_accums_at.setdefault(node.level, []).append(node)

    lowered_emissions: list[LoweredEmission] = []
    aligned_at: dict[int, list[SlotGroupSchedule]] = {}
    hash_at: dict[int, list[SlotGroupSchedule]] = {}
    for index, emission in enumerate(plan.emissions):
        mode = emission_mode(emission)
        if mode == MODE_HASH:
            groups = tuple(
                slot_group(index, emission, slots)
                for _key, slots in emission.slot_groups()
            )
        else:
            groups = (slot_group(index, emission, emission.slots),)
        lowered_emissions.append(LoweredEmission(index, emission, mode, groups))
        # level -1 hosts only scalar groups: they land in emission order
        hosts = aligned_at if mode == MODE_ALIGNED else hash_at
        for group in groups:
            hosts.setdefault(group.first.level, []).append(group)

    levels = tuple(
        LevelSchedule(
            level=k,
            probes=tuple(probes_at.get(k, ())),
            gammas=tuple(gammas_at.get(k, ())),
            beta_inits=tuple(beta_inits_at.get(k, ())),
            beta_accums=tuple(beta_accums_at.get(k, ())),
            outputs=(*aligned_at.get(k, ()), *hash_at.get(k, ())),
        )
        for k in range(-1, num_rel)
    )

    subsums_by_block: dict[int, list[Operand]] = {}
    for term in plan.subsums:
        subsums_by_block.setdefault(term.block, []).append(operand(term))

    return LoweredPlan(
        num_levels=num_rel,
        levels=levels,
        emissions=tuple(lowered_emissions),
        beta_order=tuple(
            sorted(plan.betas, key=lambda n: n.level, reverse=True)
        ),
        # γ: parent, then the terms; β: the terms, then the child
        gamma_products=tuple(
            gamma[node.parent] + tuple([operand(term) for term in node.terms])
            for node in plan.gammas
        ),
        beta_products=tuple(
            tuple([operand(term) for term in node.terms]) + beta[node.child]
            for node in plan.betas
        ),
        subsums_by_block=tuple(
            (block, tuple(operands))
            for block, operands in subsums_by_block.items()
        ),
    )
