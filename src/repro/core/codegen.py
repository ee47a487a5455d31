"""The code-generation layer (paper Figure 1, right box).

Each :class:`MultiOutputPlan` is compiled into one specialised Python
function. The generated code has exactly the shape of the paper's Figure 3:

* one ``for`` loop per trie level, iterating *runs* of the CSR trie index
  (never rows — row arithmetic is O(1) prefix-sum reads);
* incoming-view lookups hoisted to the level where their key completes,
  with semi-join ``continue`` on miss;
* ``g<i>`` locals for the γ prefix products (the paper's ``α``) and
  ``b<i>`` running sums for the β chains, initialised and accumulated at
  the levels the decomposition assigned;
* output writes that are plain assignments on the aligned fast path and
  probe-accumulate updates otherwise (the paper's
  ``if Q2(s) then Q2(s) += α6 else Q2(s) = α6``).

The loop nest itself — what is emitted at which level, in which order —
is walked once for every source backend by
:class:`repro.core.loopnest.LoopNestEmitter`; this module supplies the
Python syntax leaves (:class:`PythonEmitter`) and the runtime wrapper
(:class:`CompiledGroup`, :class:`GroupEnvironment`).

Substitution note (docs/architecture.md, "Code generation"): the paper
generates C++; generating specialised Python over the trie/prefix-sum
runtime keeps the identical plan structure while staying in-process. The
generated source is kept on the :class:`CompiledGroup` for inspection —
the demo UI's "Code Generation" tab.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

from repro.core.loopnest import LoopNestEmitter
from repro.core.plan import Emission, MultiOutputPlan, ViewBinding
from repro.core.runtime import (
    ArrayViewData,
    bind_operands,
    reshape_binding,
    view_columns,
)
from repro.data.trie import TrieIndex
from repro.query.functions import Function
from repro.util.errors import PlanError


class GroupEnvironment:
    """What the generated function reads: one plan's inputs as Python lists.

    Trie level arrays, per-level factor value arrays (``f`` applied to the
    distinct level values) and prefix-sum registers for row-factor
    products (both from :func:`~repro.core.runtime.bind_operands`), and
    the incoming views reshaped to the consumer's key layout by
    :meth:`CompiledGroup.prepare_bindings`.
    """

    def __init__(
        self,
        plan: MultiOutputPlan,
        trie: TrieIndex,
        functions: Mapping[str, Function],
        bindings: dict[str, dict],
    ) -> None:
        self.nrows = trie.num_rows
        self.levels = [trie.level_lists(k) for k in range(len(plan.relation_levels))]
        self.farrs, self.psums = bind_operands(plan, trie, functions, lists=True)
        self.bindings = bindings


@dataclass
class CompiledGroup:
    """One plan compiled to a Python function, plus its source for inspection.

    Implements the compiled-group protocol (``prepare_bindings`` /
    ``execute``) every backend shares — see :mod:`repro.core.runtime`.
    """

    plan: MultiOutputPlan
    source: str
    fn: Callable[[GroupEnvironment], dict[str, dict]]

    def prepare_bindings(
        self,
        view_data: Mapping[str, ArrayViewData],
        view_group_by: Mapping[str, tuple[str, ...]],
    ) -> dict[str, dict]:
        """Reshape every incoming view to its consumer keying, once per group.

        Scalar views: ``key → [aggs]``; carried views: ``key →
        [(carried_values, [aggs]), ...]``. The result depends only on the
        view data, never on the trie, and is read-only — partitioned
        execution shares it across all partitions.
        """
        bindings: dict[str, dict] = {}
        for binding in self.plan.bindings:
            data = view_data.get(binding.view)
            if data is None:
                raise PlanError(f"missing incoming view data for {binding.view}")
            bindings[binding.view] = reshape_binding(
                binding, view_group_by[binding.view], data
            )
        return bindings

    def execute(
        self,
        trie: TrieIndex,
        tables: dict[str, dict],
        functions: Mapping[str, Function],
    ) -> dict[str, ArrayViewData]:
        """Run the generated function over ``trie`` and the prepared
        ``tables``; its output dicts leave as views
        (:func:`~repro.core.runtime.view_columns`), like every backend's."""
        outputs = self.fn(GroupEnvironment(self.plan, trie, functions, tables))
        return {
            e.artifact: ArrayViewData.from_arrays(
                *view_columns(outputs[e.artifact], e.group_by, e.width)
            )
            for e in self.plan.emissions
        }


def generate_group(plan: MultiOutputPlan, share_terms: bool = True) -> CompiledGroup:
    """Generate, compile and return the executable for one group plan."""
    source = PythonEmitter(plan, share_terms).generate()
    namespace: dict = {}
    code = compile(source, filename=f"<lmfao:{plan.group_name}>", mode="exec")
    exec(code, namespace)  # noqa: S102 - compiling our own generated plan code
    return CompiledGroup(plan=plan, source=source, fn=namespace["_run_group"])


def _key_tuple(pieces: list[str]) -> str:
    if len(pieces) == 1:
        return pieces[0]
    return "(" + ", ".join(pieces) + ")"


class PythonEmitter(LoopNestEmitter):
    """Python syntax leaves: dict probes, list entries, dict outputs."""

    scalars_first = True

    def prologue(self) -> None:
        plan, w = self.plan, self.w
        w.line(f"# generated multi-output plan for {plan.group_name} at node {plan.node}")
        w.line(f"# order: {plan.order}")
        w.open("def _run_group(env):")
        w.line("NROWS = env.nrows")
        for k in range(self.lowered.num_levels):
            w.line(
                f"L{k}_vals, L{k}_rs, L{k}_re, L{k}_cs, L{k}_ce = env.levels[{k}]"
            )
        for i, key in enumerate(plan.level_functions):
            w.line(f"F{i} = env.farrs[{key!r}]")
        for i, product in enumerate(plan.row_products):
            w.line(f"P{i} = env.psums[{product!r}]")
        for i, binding in enumerate(plan.bindings):
            w.line(f"B{i} = env.bindings[{binding.view!r}]")
        for i in range(len(plan.emissions)):
            w.line(f"O{i} = {{}}")

    def epilogue(self) -> str:
        results = ", ".join(
            f"{emission.artifact!r}: O{i}"
            for i, emission in enumerate(self.plan.emissions)
        )
        self.w.line(f"return {{{results}}}")
        return self.w.text()

    def loop_header(self, level: int) -> str:
        if level == 0:
            return "for r0 in range(len(L0_vals)):"
        up = level - 1
        return f"for r{level} in range(L{up}_cs[r{up}], L{up}_ce[r{up}]):"

    def level_value(self, level: int) -> str:
        return f"v{level} = L{level}_vals[r{level}]"

    def probe(self, i: int, binding: ViewBinding) -> None:
        found = f"E{binding.block}" if binding.is_carried else f"t_B{i}"
        key = _key_tuple([f"v{level}" for level in binding.key_levels])
        self.w.line(f"{found} = B{i}.get({key})")
        self.w.line(f"if {found} is None: continue")

    def view_aggregate(self, i: int, agg_index: int) -> str:
        return f"t_B{i}[{agg_index}]"

    def open_entries(self, block: int, keyed: bool) -> None:
        if keyed:
            self.w.open(f"for _ent{block} in E{block}:")
            self.w.line(f"_cv{block} = _ent{block}[0]")
            self.w.line(f"_ca{block} = _ent{block}[1]")
        else:
            self.w.open(f"for _ent in E{block}:")
            self.w.line("_a = _ent[1]")

    def entry_aggregate(self, block: int, agg_index: int, keyed: bool) -> str:
        return f"_ca{block}[{agg_index}]" if keyed else f"_a[{agg_index}]"

    def carried_key(self, block: int, pos: int) -> str:
        return f"_cv{block}[{pos}]"

    def append_row(self, index: int, emission: Emission, keys, values) -> None:
        row = ", ".join(value for _slot, value in values)
        self.w.line(f"O{index}[{_key_tuple(keys)}] = [{row}]")

    def accumulate_row(
        self, index: int, emission: Emission, keys, values, keyed: bool
    ) -> None:
        w = self.w
        w.line(f"_k = {_key_tuple(keys)}")
        w.line(f"_o = O{index}.get(_k)")
        w.open("if _o is None:")
        if len(values) == emission.width and not keyed:
            # all slots hosted here: the first hit assigns, later ones add
            row = ", ".join(value for _slot, value in values)
            w.line(f"O{index}[_k] = [{row}]")
            w.close()
            w.open("else:")
            for slot, value in values:
                w.line(f"_o[{slot}] += {value}")
            w.close()
        else:
            w.line(f"_o = O{index}[_k] = [0.0] * {emission.width}")
            w.close()
            for slot, value in values:
                w.line(f"_o[{slot}] += {value}")

    def write_scalar(self, index: int, emission: Emission, values) -> None:
        self.w.line(f"O{index}[()] = [{', '.join(values)}]")
