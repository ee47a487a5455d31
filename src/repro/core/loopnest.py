"""The loop-nest walker: one traversal of a :class:`LoweredPlan`, two emitters.

:mod:`repro.core.lowering` says *what* each trie level hosts;
this module says *in which order it becomes statements* — once, for every
backend that emits source (the produce/consume shape of raco's
``CompileState``). :class:`LoopNestEmitter` owns the traversal:

* variable tables (``F<i>`` level-function arrays, ``P<i>`` prefix sums,
  ``B<i>`` bindings, ``O<i>`` outputs — positions in the plan's lists);
* a product is its lowered operands' expressions joined by ``*``, a
  trie-function operand hoisted into a ``t<n>`` local at its level
  (numbered in first-use order over γ then β nodes, plan order);
* per level: probes → hoisted terms → γ products → β initialisers →
  the next level's loop → β accumulations → the level's slot groups
  (:attr:`~repro.core.lowering.LevelSchedule.outputs`, aligned first);
  level ``-1`` is the code around the outermost loop;
* per slot group (:meth:`LoopNestEmitter.emit_output`): the support
  guard (``b<support> > 0``), entry loops over keyed carried blocks,
  slot-value products, then an append, an accumulate or (a scalar
  emission, at level ``-1``) a scalar write.

A backend subclasses it with **syntax leaves only**: declaration
prefixes and statement terminator, loop headers, probe code, entry-loop
form, how one entry's aggregates and carried key parts are referenced,
the append / hash-accumulate / scalar writes, and its prologue and
epilogue (:class:`repro.core.codegen.PythonEmitter`,
:class:`repro.core.cbackend.CEmitter`). The statement order each backend
always had is kept, not normalised: the Python emitter probes scalar
bindings before carried ones (``scalars_first``), the C emitter probes in
plan order.

The NumPy backend is not an emitter of this walker: it evaluates whole
levels as arrays, stage by stage (all probes, then all γ, then all β
deepest-first, then emissions), and has no loop nest to emit. It
multiplies arrays over the same lowered operand tuples, and its emission
stage is :meth:`LoopNestEmitter.emit_output` in array form.
"""

from __future__ import annotations

import io

from repro.core.lowering import (
    OP_BETA,
    OP_COUNT,
    OP_ENTRY,
    OP_FACTOR,
    OP_GAMMA,
    OP_SUBSUM,
    OP_VIEW,
    Operand,
    Product,
    SlotGroupSchedule,
)
from repro.core.plan import Emission, MultiOutputPlan, ViewBinding


class SourceWriter:
    """Indented line buffer; ``block_end`` closes a block (``""`` = by
    indentation alone)."""

    def __init__(self, indent: int = 0, block_end: str = "") -> None:
        self._buf = io.StringIO()
        self._indent = indent
        self._block_end = block_end

    def line(self, text: str = "") -> None:
        self._buf.write("    " * self._indent + text + "\n")

    def open(self, header: str) -> None:
        self.line(header)
        self._indent += 1

    def close(self) -> None:
        self._indent -= 1
        if self._block_end:
            self.line(self._block_end)

    def text(self) -> str:
        return self._buf.getvalue()


class LoopNestEmitter:
    """Walks one plan's loop nest; subclasses supply the syntax leaves."""

    #: prefix declaring an immutable / a mutable double local
    const_decl = ""
    accum_decl = ""
    #: statement terminator, block closer, ``str.format`` form of a guard
    end = ""
    block_end = ""
    guard_form = "if {}:"
    #: cast applied to row counts entering a float product
    count_cast = ""
    #: probe scalar bindings before carried ones (else plan order)
    scalars_first = False
    #: indentation the body starts at
    indent = 0

    def __init__(self, plan: MultiOutputPlan, share_terms: bool = True) -> None:
        self.plan = plan
        self.lowered = plan.lowered
        self.share_terms = share_terms
        self.w = SourceWriter(self.indent, self.block_end)
        self.binding_index = {b.view: i for i, b in enumerate(plan.bindings)}
        self._term_vars: dict[Operand, str] = {}
        self._hoisted_at: dict[int, list[tuple[str, str]]] = {}

    # ----------------------------------------------------------- syntax leaves
    def prologue(self) -> None:
        """Everything before the level ``-1`` body: unpack the inputs."""
        raise NotImplementedError

    def epilogue(self) -> str:
        """Close the function; returns the finished source."""
        raise NotImplementedError

    def loop_header(self, level: int) -> str:
        """The loop over level ``level``'s runs ``r<level>`` under its parent."""
        raise NotImplementedError

    def level_value(self, level: int) -> str:
        """The statement binding ``v<level>`` to the current run's value."""
        raise NotImplementedError

    def probe(self, i: int, binding: ViewBinding) -> None:
        """Look binding ``i`` up by its key; ``continue`` on a miss."""
        raise NotImplementedError

    def view_aggregate(self, i: int, agg_index: int) -> str:
        """One aggregate of the entry scalar binding ``i`` probed."""
        raise NotImplementedError

    def open_entries(self, block: int, keyed: bool) -> None:
        """Open the loop over carried block ``block``'s probed entries —
        ``keyed`` for an emission's key-block loop (entries named per
        block, so loops nest), else the sub-sum loop at the bind level."""
        raise NotImplementedError

    def entry_aggregate(self, block: int, agg_index: int, keyed: bool) -> str:
        """One aggregate of the current entry of :meth:`open_entries`."""
        raise NotImplementedError

    def carried_key(self, block: int, pos: int) -> str:
        """Carried attribute ``pos`` of the current keyed entry of ``block``."""
        raise NotImplementedError

    def append_row(self, index: int, emission: Emission, keys, values) -> None:
        """Aligned emission: the key is new by construction — plain write.
        ``values`` is ``[(slot position, expression), ...]``."""
        raise NotImplementedError

    def accumulate_row(
        self, index: int, emission: Emission, keys, values, keyed: bool
    ) -> None:
        """Hash emission: find-or-insert the key, add into its slots."""
        raise NotImplementedError

    def write_scalar(self, index: int, emission: Emission, values) -> None:
        """Group-by-free emission, written once after all loops."""
        raise NotImplementedError

    # --------------------------------------------------------------- traversal
    def generate(self) -> str:
        self.prologue()
        # resolve every node product first so hoisted locals land on their levels
        self._gamma_exprs = [self.product(p) for p in self.lowered.gamma_products]
        self._beta_exprs = [self.product(p) for p in self.lowered.beta_products]
        self.emit_body(-1)
        self.emit_loops(0)
        self.emit_tail(-1)
        return self.epilogue()

    def operand_expr(self, op: Operand) -> str:
        kind, k = op.kind, op.level
        if kind == OP_GAMMA:
            return f"g{op.index}"
        if kind == OP_BETA:
            return f"b{op.index}"
        if kind == OP_VIEW:
            return self.view_aggregate(op.index, op.agg)
        if kind == OP_SUBSUM:
            return f"ss_{op.index}_{op.agg}"
        if kind == OP_ENTRY:
            return self.entry_aggregate(op.index, op.agg, keyed=True)
        # a pure trie function: hoisted when terms are shared
        if kind == OP_FACTOR:
            base = f"F{op.index}[r{k}]"
        elif kind == OP_COUNT:
            rows = "NROWS" if k < 0 else f"(L{k}_re[r{k}] - L{k}_rs[r{k}])"
            base = self.count_cast + rows
        elif k < 0:  # OP_ROWSUM
            base = f"P{op.index}[NROWS]"
        else:
            base = f"(P{op.index}[L{k}_re[r{k}]] - P{op.index}[L{k}_rs[r{k}]])"
        if not self.share_terms:
            return base
        var = self._term_vars.get(op)
        if var is None:
            var = self._term_vars[op] = f"t{len(self._term_vars)}"
            self._hoisted_at.setdefault(k, []).append((var, base))
        return var

    def product(self, operands: Product) -> str:
        return " * ".join([self.operand_expr(op) for op in operands]) or "1.0"

    def emit_loops(self, level: int) -> None:
        if level >= self.lowered.num_levels:
            return
        self.w.open(self.loop_header(level))
        self.w.line(self.level_value(level))
        self.emit_probes(level)
        self.emit_body(level)
        self.emit_loops(level + 1)
        self.emit_tail(level)
        self.w.close()

    def emit_probes(self, level: int) -> None:
        w, schedule = self.w, self.lowered.level(level)
        probes = schedule.probes
        if self.scalars_first:  # a stable sort: plan order within each kind
            probes = sorted(probes, key=lambda binding: binding.is_carried)
        for binding in probes:
            self.probe(self.binding_index[binding.view], binding)
            subs = self.lowered.block_subsums(binding.block) if binding.is_carried else ()
            if subs:
                names = [self.operand_expr(op) for op in subs]
                for name in names:
                    w.line(f"{self.accum_decl}{name} = 0.0{self.end}")
                self.open_entries(binding.block, keyed=False)
                for name, op in zip(names, subs):
                    entry = self.entry_aggregate(op.index, op.agg, keyed=False)
                    w.line(f"{name} += {entry}{self.end}")
                w.close()

    def emit_body(self, level: int) -> None:
        w, schedule = self.w, self.lowered.level(level)
        for var, expr in self._hoisted_at.get(level, ()):
            w.line(f"{self.const_decl}{var} = {expr}{self.end}")
        for node in schedule.gammas:
            product = self._gamma_exprs[node.id]
            w.line(f"{self.const_decl}g{node.id} = {product}{self.end}")
        for node in schedule.beta_inits:
            w.line(f"{self.accum_decl}b{node.id} = 0.0{self.end}")

    def emit_tail(self, level: int) -> None:
        schedule = self.lowered.level(level)
        for node in schedule.beta_accums:
            self.w.line(f"b{node.id} += {self._beta_exprs[node.id]}{self.end}")
        for group in schedule.outputs:
            self.emit_output(group)

    def emit_output(self, group: SlotGroupSchedule) -> None:
        """One slot group: guard, keyed entry loops, then the backend's
        append (aligned), accumulate (hash) or scalar write."""
        w, first = self.w, group.first
        index, emission = group.emission_index, group.emission
        depth = len(first.key_blocks)
        if first.support is not None:
            depth += 1
            w.open(self.guard_form.format(f"b{first.support} > 0"))
        for block in first.key_blocks:
            self.open_entries(block, keyed=True)
        keys = [
            f"v{part.level}" if part.kind == "rel"
            else self.carried_key(part.level, part.pos)
            for part in first.key_parts
        ]
        values = [
            (slot.slot, self.product(product))
            for slot, product in zip(group.slots, group.products)
        ]
        if not emission.group_by:
            self.write_scalar(index, emission, [value for _slot, value in values])
        elif emission.aligned:
            self.append_row(index, emission, keys, values)
        else:
            self.accumulate_row(
                index, emission, keys, values, keyed=bool(first.key_blocks)
            )
        for _ in range(depth):
            w.close()
