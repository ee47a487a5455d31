"""Aggregate decomposition: building γ/β chains for a view group.

This implements the fine-grained optimisations of the multi-output layer
(paper §2): every artifact aggregate is decomposed into

* a **γ prefix-product chain** of terms bound at or above its emission
  level (the paper's ``α`` locals, hoisted by loop-invariant code motion),
* a **β running-sum chain** of terms bound below it,
* an O(1) **row terminal** (count or prefix-sum read) anchoring the row
  multiplicity at the deepest relation level the aggregate touches.

Chains are hash-consed: two aggregates with structurally equal chain
suffixes share the same β (or γ) variable, which is how ``Q1`` and
``V_S→I`` share ``β1`` in Figure 3. Setting ``factorize=False`` disables
both the hash-consing and the pushdown (every term is evaluated at the
deepest level), giving the un-factorised ablation baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.groups import Group
from repro.core.orders import GroupOrder
from repro.core.plan import (
    BetaNode,
    CarriedFactor,
    CountTerm,
    Emission,
    EmissionSlot,
    FactorTerm,
    GammaNode,
    KeyPart,
    MultiOutputPlan,
    RowSumTerm,
    SubSumTerm,
    Term,
    ViewBinding,
    ViewTerm,
)
from repro.core.views import Output, View, ViewAggregate
from repro.util.errors import PlanError


@dataclass
class _ChainBuilder:
    """Hash-consed construction of γ and β nodes for one group."""

    factorize: bool = True
    gammas: list[GammaNode] = field(default_factory=list)
    betas: list[BetaNode] = field(default_factory=list)
    _gamma_index: dict[tuple, int] = field(default_factory=dict)
    _beta_index: dict[tuple, int] = field(default_factory=dict)

    def gamma_chain(self, terms: list[Term], collapse_level: int | None) -> int | None:
        """Build the prefix-product chain; returns the final node id."""
        if not terms:
            return None
        if not self.factorize:
            level = collapse_level if collapse_level is not None else max(
                t.level for t in terms
            )
            return self._new_gamma(level, tuple(terms), None, shared=False)
        by_level: dict[int, list[Term]] = {}
        for term in terms:
            by_level.setdefault(term.level, []).append(term)
        parent: int | None = None
        for level in sorted(by_level):
            parent = self._new_gamma(
                level, tuple(by_level[level]), parent, shared=True
            )
        return parent

    def beta_chain(self, terms: list[Term], reset_level: int) -> int | None:
        """Build the running-sum chain; returns the topmost node id."""
        if not terms:
            return None
        if not self.factorize:
            level = max(t.level for t in terms)
            return self._new_beta(level, reset_level, tuple(terms), None, shared=False)
        by_level: dict[int, list[Term]] = {}
        for term in terms:
            by_level.setdefault(term.level, []).append(term)
        levels = sorted(by_level)
        child: int | None = None
        for i in range(len(levels) - 1, -1, -1):
            level = levels[i]
            reset = levels[i - 1] if i > 0 else reset_level
            child = self._new_beta(
                level, reset, tuple(by_level[level]), child, shared=True
            )
        return child

    # ------------------------------------------------------------- internals
    def _new_gamma(
        self, level: int, terms: tuple[Term, ...], parent: int | None, shared: bool
    ) -> int:
        terms = tuple(sorted(terms, key=lambda t: t.sig))
        key = (level, tuple(t.sig for t in terms), parent)
        if shared:
            found = self._gamma_index.get(key)
            if found is not None:
                return found
        node = GammaNode(id=len(self.gammas), level=level, terms=terms, parent=parent)
        self.gammas.append(node)
        if shared:
            self._gamma_index[key] = node.id
        return node.id

    def _new_beta(
        self,
        level: int,
        reset_level: int,
        terms: tuple[Term, ...],
        child: int | None,
        shared: bool,
    ) -> int:
        terms = tuple(sorted(terms, key=lambda t: t.sig))
        key = (level, reset_level, tuple(t.sig for t in terms), child)
        if shared:
            found = self._beta_index.get(key)
            if found is not None:
                return found
        node = BetaNode(
            id=len(self.betas),
            level=level,
            reset_level=reset_level,
            terms=terms,
            child=child,
        )
        self.betas.append(node)
        if shared:
            self._beta_index[key] = node.id
        return node.id


def decompose_group(
    group: Group,
    order: GroupOrder,
    factorize: bool = True,
) -> MultiOutputPlan:
    """Lower one group to a :class:`MultiOutputPlan`."""
    level_of = order.level_of
    bindings = {b.view: b for b in order.bindings}
    blocks = {cb.index: cb for cb in order.carried_blocks}

    builder = _ChainBuilder(factorize=factorize)
    subsum_registry: dict[tuple, SubSumTerm] = {}
    row_products: dict[tuple, None] = {}
    level_functions: dict[tuple, None] = {}
    emissions: list[Emission] = []

    def subsum(binding: ViewBinding, agg_index: int) -> SubSumTerm:
        key = (binding.block, agg_index)
        term = subsum_registry.get(key)
        if term is None:
            term = SubSumTerm(
                level=binding.bind_level,
                block=binding.block,
                view=binding.view,
                agg_index=agg_index,
            )
            subsum_registry[key] = term
        return term

    def lower_slot(
        artifact_name: str,
        slot_index: int,
        aggregate: ViewAggregate,
        group_by: tuple[str, ...],
    ) -> EmissionSlot:
        # ---- classify the group-by ---------------------------------------
        gb_rel_levels: list[int] = []
        gb_carried: list[str] = []
        for attr in group_by:
            if attr in level_of:
                gb_rel_levels.append(level_of[attr])
            else:
                gb_carried.append(attr)

        # ---- resolve refs against this slot's bindings --------------------
        terms: list[Term] = []
        keyed_blocks: dict[int, ViewBinding] = {}
        carried_factors: list[CarriedFactor] = []
        anchor = -1  # deepest relation anchor for the row terminal
        for ref in aggregate.refs:
            binding = bindings.get(ref.view)
            if binding is None:
                raise PlanError(
                    f"{artifact_name} references {ref.view}, which is not an "
                    f"incoming view of group {group.name}"
                )
            anchor = max(anchor, binding.bind_level)
            if not binding.is_carried:
                terms.append(ViewTerm(binding.bind_level, binding.view, ref.index))
            elif any(a in binding.carried for a in gb_carried):
                keyed_blocks[binding.block] = binding
                carried_factors.append(CarriedFactor(binding.block, ref.index))
            else:
                terms.append(subsum(binding, ref.index))

        # every carried group-by attribute must come from a keyed block
        covered = {
            attr for b in keyed_blocks.values() for attr in b.carried
        }
        missing = [a for a in gb_carried if a not in covered]
        if missing:
            raise PlanError(
                f"{artifact_name}[{slot_index}] groups by {missing} but no "
                f"referenced incoming view carries them"
            )

        # ---- local factors: level terms vs. row factors --------------------
        row_factors: list[tuple[str, str]] = []
        for factor in aggregate.factors:
            level = level_of.get(factor.attribute)
            if level is None:
                row_factors.append((factor.attribute, factor.function.name))
            else:
                term = FactorTerm(level, factor.attribute, factor.function.name)
                terms.append(term)
                level_functions.setdefault(
                    (level, factor.attribute, factor.function.name), None
                )

        # ---- the row terminal ----------------------------------------------
        anchor = max(
            [anchor]
            + [t.level for t in terms]
            + gb_rel_levels
        )
        if row_factors:
            product = tuple(sorted(row_factors))
            terms.append(RowSumTerm(anchor, product))
            row_products.setdefault(product, None)
        else:
            terms.append(CountTerm(anchor))

        # ---- key parts -------------------------------------------------------
        key_parts: list[KeyPart] = []
        for attr in group_by:
            if attr in level_of:
                key_parts.append(KeyPart("rel", level_of[attr]))
            else:
                for block_index, binding in keyed_blocks.items():
                    if attr in binding.carried:
                        key_parts.append(
                            KeyPart("car", block_index, binding.carried.index(attr))
                        )
                        break

        # ---- split into γ / β and build chains -------------------------------
        if keyed_blocks:
            emit_level = max(
                [t.level for t in terms]
                + [blocks[b].bind_level for b in keyed_blocks]
                + gb_rel_levels
            )
            gamma = builder.gamma_chain(terms, emit_level if not factorize else None)
            beta = None
        else:
            emit_level = max(gb_rel_levels) if gb_rel_levels else -1
            gamma_terms = [t for t in terms if t.level <= emit_level]
            beta_terms = [t for t in terms if t.level > emit_level]
            gamma = builder.gamma_chain(
                gamma_terms, emit_level if not factorize else None
            )
            beta = builder.beta_chain(beta_terms, emit_level)

        # ---- join-support guard ----------------------------------------------
        # When the chain reaches below the emission level, a value of 0.0 is
        # ambiguous: it may be a genuine zero-valued sum or an empty join
        # under the key (all deeper probes missed). Groups must only exist
        # for keys with join support, so such emissions are guarded by a
        # shared running row count over the surviving paths. Support is
        # trivial when the emission sits at the chain's deepest level (the
        # current run's rows prove support) and irrelevant for scalar
        # outputs (their single group always exists, matching SQL).
        support = None
        if group_by and anchor > emit_level:
            support = builder.beta_chain([CountTerm(anchor)], emit_level)

        return EmissionSlot(
            slot=slot_index,
            level=emit_level,
            key_parts=tuple(key_parts),
            key_blocks=tuple(sorted(keyed_blocks)),
            carried_factors=tuple(carried_factors),
            gamma=gamma,
            beta=beta,
            support=support,
        )

    # ---- lower every artifact ------------------------------------------------
    order_attrs = tuple(lvl.attr for lvl in order.relation_levels)
    for artifact in group.artifacts:
        group_by = artifact.group_by
        slots = tuple(
            lower_slot(artifact.name, i, aggregate, group_by)
            for i, aggregate in enumerate(artifact.aggregates)
        )
        aligned = (
            len(group_by) > 0
            and all(not s.key_blocks for s in slots)
            and len({(s.level, s.key_parts, s.support) for s in slots}) == 1
            and set(group_by) == set(order_attrs[: len(group_by)])
            and slots[0].level == len(group_by) - 1
        )
        emissions.append(
            Emission(
                artifact=artifact.name,
                kind="view" if isinstance(artifact, View) else "query",
                width=len(slots),
                group_by=group_by,
                slots=slots,
                aligned=aligned,
            )
        )

    return MultiOutputPlan(
        group_name=group.name,
        node=group.node,
        relation_levels=order.relation_levels,
        carried_blocks=order.carried_blocks,
        bindings=order.bindings,
        subsums=tuple(subsum_registry.values()),
        gammas=tuple(builder.gammas),
        betas=tuple(builder.betas),
        emissions=tuple(emissions),
        row_products=tuple(row_products),
        level_functions=tuple(level_functions),
    )
