"""Vectorized NumPy execution backend: segment reduction over the CSR trie.

The Python backend walks trie runs one at a time, paying interpreter cost
per distinct prefix; the C backend removes that cost but needs gcc. This
module is the portable middle ground: each :class:`MultiOutputPlan` is
lowered to a **staged array program** over the existing
:class:`~repro.data.trie.TrieIndex` level arrays, evaluating every plan
construct for *all* runs of a level at once:

* **run geometry** — per-level parent maps (``np.repeat`` over child-span
  widths), ancestor maps (parent composition) and subtree span starts
  (child-span composition) are derived once per index and cached on it;
* **probes** — incoming-view lookups become vectorized binary searches:
  each view's entries are key-coded per column (``np.searchsorted``
  against the per-column sorted uniques), combined into mixed-radix
  composite codes, and sorted once in ``prepare_bindings``; a probe then
  codes the bound level's key columns the same way and searches the sorted
  composites. Semi-join misses become a per-level **alive mask**, composed
  down the trie exactly like the generated ``continue`` cascades;
* **carried views** — incoming views whose group-by includes non-local
  attributes are flattened to **CSR entry lists** per local key
  (:class:`_CarriedTable`): entries stably sorted by their local-key
  composite code, ``entry_offsets`` bounding each key's contiguous
  segment in the flattened carried columns and aggregate matrix. A probe
  at the block's bind level yields a per-run key row (hence an entry
  segment) plus the semi-join found mask;
* **sub-sums** — a carried sub-sum (Σ over a carried view's entries) is
  one ``np.add.reduceat`` over the entry segments per table, computed
  once at marshalling time and indexed per probed run;
* **γ prefix products** — every γ node, β node and slot multiplies the
  operand tuple the lowering resolved for it, the one the walker joins
  into the generated statement, broadcasting per-run arrays down via
  ancestor maps; γ nodes in plan order (parents first);
* **β running sums** — ``np.add.reduceat`` segment sums over the composed
  subtree spans, bottom-up per level (children of a chain first), with
  dead runs zeroed before reduction;
* **emissions** — the slot groups of the plan's
  :class:`~repro.core.lowering.LoweredPlan`, the same ones the loop-nest
  walker emits, each written the way the walker's ``emit_output`` writes
  it: select the runs the group's guard lets through, expanded by the
  entries of its keyed carried blocks (``np.repeat`` cross product, the
  vectorized form of the generated nested entry loops); gather key
  columns from trie levels and the flattened carried columns; compute
  each slot's product (γ × β × carried factors); then keep
  the rows (aligned) or group them by composite key codes and sum per
  key (hash — ``np.bincount`` adds weights in input order, trie order,
  like the interpreted loop). Every non-scalar output leaves as a
  columnar :class:`~repro.core.runtime.ArrayViewData` — read as arrays
  by downstream native consumers and the partition merge, with the dict
  mirror built only if a dict consumer reads it.

**Supported plans.** Every plan the decomposition layer can produce is
lowered — including carried blocks, float trie levels and float view keys
(both of which the C backend rejects). :func:`supports_plan` only retains
a defensive structural check, so with ``backend="numpy"`` the engine runs
whole batches natively with no per-group fallback class left.

**Bit-exactness contract vs the Python backend.** Operand order of every
product (by construction: the same lowered tuples) and the per-key
accumulation order of every hash emission match the generated Python
statement for statement — carried expansions
enumerate (run, entry…) pairs in trie × entry-list order, exactly like
the generated nested loops — and on integer-valued data (where float64
arithmetic is exact) results are bit-identical — the property grid in
``tests/core/test_parallel_properties.py`` asserts dict equality,
carried plans included. On non-integral float data, segment sums may
reassociate (``np.add.reduceat`` uses blocked summation), so results
agree only up to the usual ~1 ulp reduction drift; scalar conversion at
the boundary means pure-count aggregates are exact up to 2**53 rather
than arbitrary precision.

**Concurrency.** Execution touches only per-call state plus read-only
inputs (trie arrays, prepared binding tables), so the engine's
domain-parallel mode can run partitions of one group concurrently; NumPy
releases the GIL inside large array kernels, giving partial multicore
scaling without gcc.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.core.lowering import (
    MODE_SCALAR,
    OP_BETA,
    OP_COUNT,
    OP_ENTRY,
    OP_FACTOR,
    OP_GAMMA,
    OP_SUBSUM,
    OP_VIEW,
    LoweredEmission,
    Operand,
)
from repro.core.plan import MultiOutputPlan, ViewBinding
from repro.core.runtime import ArrayViewData, bind_operands, view_columns
from repro.data.trie import TrieIndex
from repro.query.functions import Function
from repro.util.errors import PlanError

#: composite key codes stay below this in int64; beyond it the (rare) huge
#: multi-column key spaces switch to exact Python-int (object) codes.
_CODE_LIMIT = 2**62


def supports_plan(plan: MultiOutputPlan) -> bool:
    """Whether the NumPy backend can execute ``plan`` — effectively always.

    Carried blocks are lowered since the CSR entry-list expansion landed,
    so no structural plan feature forces the Python backend any more.
    What remains is one defensive check: a binding with an empty key
    would bind at level -1, which the generated backends never emit
    probes for either (and the planning layer never produces).
    """
    return all(binding.bind_level >= 0 for binding in plan.bindings)


def compile_numpy_groups(
    plans: Sequence[MultiOutputPlan], adaptive: bool = True
) -> list:
    """One NumPy group per plan; an unsupported plan raises
    :class:`PlanError`.

    ``adaptive`` is accepted and ignored: nothing in this backend depends
    on it. The benchmark's compile replay
    (``bench/benchkit/layers.py::_compile_native``) still passes it.
    """
    return [NumpyCompiledGroup(plan) for plan in plans]


# ---------------------------------------------------------------------------
# incoming-view binding tables
# ---------------------------------------------------------------------------


def _composite(codes: list[np.ndarray], bases: list[int], as_object: bool) -> np.ndarray:
    """Mixed-radix combination of per-column codes (``code[p] < bases[p]``)."""
    comp: np.ndarray | None = None
    for code, base in zip(codes, bases):
        piece = code.astype(object) if as_object else code.astype(np.int64)
        comp = piece if comp is None else comp * base + piece
    assert comp is not None
    return comp


class _ProbeTable:
    """Key coding shared by the scalar and carried binding tables.

    Entry key columns are coded per column against their sorted uniques
    and combined into mixed-radix composite codes; a probe codes the
    bound trie level's columns the same way (values absent from the
    producer take the reserved top code, keeping composites
    collision-free) so a lookup is two ``np.searchsorted`` passes.
    """

    part_uniques: list[np.ndarray]
    bases: list[int]
    as_object: bool

    def _build_codes(self, columns: list[np.ndarray]) -> np.ndarray:
        self.part_uniques = [np.unique(column) for column in columns]
        # base = len(uniques) + 1 reserves the top code for "not a producer
        # value" on the probe side.
        self.bases = [len(uniques) + 1 for uniques in self.part_uniques]
        span = 1
        for base in self.bases:
            span *= base
        self.as_object = span >= _CODE_LIMIT
        codes = [
            np.searchsorted(uniques, column)
            for uniques, column in zip(self.part_uniques, columns)
        ]
        if not codes:  # cannot happen: bindings always have ≥ 1 key attr
            return np.zeros(0, dtype=np.int64)
        return _composite(codes, self.bases, self.as_object)

    def _probe_codes(
        self, probe_columns: list[np.ndarray]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Composite code + per-run validity for the probing level columns.

        Only called with ≥ 1 producer entry, so every ``uniques`` array is
        non-empty.
        """
        n = len(probe_columns[0])
        found = np.ones(n, dtype=bool)
        codes = []
        for uniques, column in zip(self.part_uniques, probe_columns):
            pos = np.searchsorted(uniques, column)
            clipped = np.minimum(pos, len(uniques) - 1)
            valid = uniques[clipped] == column
            found &= valid
            codes.append(np.where(valid, clipped, len(uniques)))
        return _composite(codes, self.bases, self.as_object), found


class _BindingTable(_ProbeTable):
    """One scalar (non-carried) incoming view marshalled for probing.

    Key columns are selected in the consumer binding's key order, coded,
    combined and sorted once; a probe is then two ``np.searchsorted``
    passes. The table is read-only after construction and shared across
    partitions.
    """

    def __init__(self, binding: ViewBinding, group_by: tuple[str, ...], data: dict):
        self.width = binding.num_aggregates
        columns, values = view_columns(data, group_by, self.width)
        positions = [group_by.index(attr) for attr in binding.key]
        self.m = len(values)
        self.values = values
        comp = self._build_codes([columns[p] for p in positions])
        self.order = np.argsort(comp, kind="stable")
        self.sorted_comp = comp[self.order]

    def probe(self, probe_columns: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized lookup: ``(values matrix, found mask)`` per run.

        Missing keys yield ``found=False`` with an arbitrary (but
        in-bounds) values row — callers mask dead runs out of every sum.
        """
        n = len(probe_columns[0])
        if self.m == 0:
            return (
                np.zeros((n, self.width), dtype=np.float64),
                np.zeros(n, dtype=bool),
            )
        comp, found = self._probe_codes(probe_columns)
        idx = np.minimum(np.searchsorted(self.sorted_comp, comp), self.m - 1)
        found &= self.sorted_comp[idx] == comp
        rows = self.order[np.where(found, idx, 0)]
        return self.values[rows], found


class _CarriedTable(_ProbeTable):
    """One carried incoming view flattened to CSR entry lists.

    Entries (producer rows) are stably sorted by their local-key
    composite code, giving one contiguous segment per distinct local key:
    ``entry_offsets[i] : entry_offsets[i + 1]`` bounds key row ``i``'s
    entries in the flattened ``carried_columns`` (one array per carried
    attribute, in entry-tuple order) and ``agg_matrix``. Stability keeps
    entries in producer-dict order within each key — the order the
    interpreted entry lists iterate, so carried accumulations stay
    statement-compatible. ``subsums`` holds Σ over each key's entries of
    every aggregate (one ``np.add.reduceat`` per table), which makes a
    sub-sum operand read a per-run gather.
    """

    def __init__(self, binding: ViewBinding, group_by: tuple[str, ...], data: dict):
        self.width = binding.num_aggregates
        columns, values = view_columns(data, group_by, self.width)
        key_positions = [group_by.index(attr) for attr in binding.key]
        carried_positions = [group_by.index(attr) for attr in binding.carried]
        self.m = len(values)
        comp = self._build_codes([columns[p] for p in key_positions])
        order = np.argsort(comp, kind="stable")
        sorted_comp = comp[order]
        if self.m:
            is_start = np.ones(self.m, dtype=bool)
            is_start[1:] = sorted_comp[1:] != sorted_comp[:-1]
            starts = np.flatnonzero(is_start)
        else:
            starts = np.zeros(0, dtype=np.int64)
        self.num_keys = len(starts)
        self.key_comp = sorted_comp[starts] if self.m else sorted_comp
        self.entry_offsets = np.append(starts, self.m).astype(np.int64)
        self.carried_columns = [columns[p][order] for p in carried_positions]
        self.agg_matrix = values[order]
        if self.num_keys:
            self.subsums = np.add.reduceat(self.agg_matrix, starts, axis=0)
        else:
            self.subsums = np.zeros((0, self.width), dtype=np.float64)

    def probe(self, probe_columns: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized fetch: ``(key row, found mask)`` per run.

        ``key row`` indexes the per-key arrays (``entry_offsets`` /
        ``subsums``); misses yield ``found=False`` with an arbitrary
        in-bounds row, masked out downstream like scalar probe misses.
        """
        n = len(probe_columns[0])
        if self.num_keys == 0:
            return np.zeros(n, dtype=np.int64), np.zeros(n, dtype=bool)
        comp, found = self._probe_codes(probe_columns)
        idx = np.minimum(np.searchsorted(self.key_comp, comp), self.num_keys - 1)
        found &= self.key_comp[idx] == comp
        return np.where(found, idx, 0), found

    def subsum(self, key_row: np.ndarray, found: np.ndarray, agg_index: int):
        """Σ over the probed key's entries of one aggregate, per run."""
        if self.num_keys == 0:
            return np.zeros(len(key_row), dtype=np.float64)
        return np.where(found, self.subsums[key_row, agg_index], 0.0)

    def entry_ranges(
        self, key_row: np.ndarray, found: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-run entry segment ``(start, count)``; count 0 where dead."""
        if self.num_keys == 0:
            zeros = np.zeros(len(key_row), dtype=np.int64)
            return zeros, zeros
        starts = self.entry_offsets[key_row]
        counts = np.where(found, self.entry_offsets[key_row + 1] - starts, 0)
        return starts, counts


# ---------------------------------------------------------------------------
# plan evaluation
# ---------------------------------------------------------------------------


def _dense_codes(column: np.ndarray) -> tuple[np.ndarray, int]:
    """Non-negative int codes for one key column, plus the code space size.

    Integer columns whose value range is modest relative to their length
    (the common case: categorical keys) take the sort-free offset path;
    floats and wild integer ranges fall back to ``np.unique``'s sort.
    """
    if column.dtype.kind in "iu" and len(column):
        lo = int(column.min())
        span = int(column.max()) - lo + 1
        if span <= max(4 * len(column), 1024):
            return column.astype(np.int64) - lo, span
    uniques, inverse = np.unique(column, return_inverse=True)
    return inverse.astype(np.int64), max(len(uniques), 1)


def _composite_codes(
    columns: list[np.ndarray],
) -> tuple[np.ndarray | None, int, int]:
    """Mixed-radix composite code per row: ``(comp, space, n)``.

    Per-column codes combine in mixed radix; when a radix step would
    overflow int64 the running composite is re-densified first. The
    composite is **order-preserving**: both per-column code paths in
    :func:`_dense_codes` map larger values to larger codes, so rows
    ordered by composite are ordered lexicographically by key tuple —
    which is why every branch of :func:`_group_codes` enumerates groups
    in the same order.
    """
    n = len(columns[0]) if columns else 0
    comp: np.ndarray | None = None
    space = 1
    for column in columns:
        codes, card = _dense_codes(column)
        if comp is None:
            comp, space = codes, card
            continue
        if space * card >= _CODE_LIMIT:
            # re-densify so the next radix step cannot overflow int64
            uniques, comp = np.unique(comp, return_inverse=True)
            comp = comp.astype(np.int64)
            space = max(len(uniques), 1)
        comp = comp * card + codes
        space *= card
    return comp, space, n


def _group_codes(columns: list[np.ndarray]) -> tuple[np.ndarray, int, np.ndarray]:
    """Group rows by their key tuple: ``(ids, num_keys, first_index)``.

    ``ids`` is a dense group id per row, ascending with the composite
    code (so groups enumerate in key order); ``first_index`` the first
    row of each group (so representative key values are
    ``column[first_index]``). The algorithm follows the code space the
    composite just measured: while it stays modest the distinct codes
    are found with an O(n) bincount presence scan; beyond it the ids come
    from a **packed value sort** — ``sort(comp * n + row_index)``
    recovers a stable order via divmod, and NumPy sorts raw int64 values
    several times faster than it argsorts them — or, when that packing
    would overflow int64, a stable argsort. Every branch assigns the same
    ids and first rows (``np.unique``'s inverse and first occurrences).
    """
    comp, space, n = _composite_codes(columns)
    if comp is None or n == 0:
        return np.zeros(0, dtype=np.int64), 0, np.zeros(0, dtype=np.int64)
    if space <= max(4 * n, 1024):
        present = np.bincount(comp, minlength=space) > 0
        num_keys = int(present.sum())
        ids = (np.cumsum(present) - 1)[comp]
        # reversed scatter: for duplicate ids the *last* write wins, which
        # in reversed row order is each group's first occurrence.
        first_index = np.empty(num_keys, dtype=np.int64)
        first_index[ids[::-1]] = np.arange(n - 1, -1, -1, dtype=np.int64)
        return ids, num_keys, first_index
    if space < _CODE_LIMIT // n:
        packed = np.sort(comp * n + np.arange(n, dtype=np.int64))
        order = packed % n
        sorted_comp = packed // n
    else:
        order = np.argsort(comp, kind="stable")
        sorted_comp = comp[order]
    is_start = np.ones(n, dtype=bool)
    is_start[1:] = sorted_comp[1:] != sorted_comp[:-1]
    ids = np.empty(n, dtype=np.int64)
    ids[order] = np.cumsum(is_start) - 1
    # stability keeps each group's rows in input order: its first sorted
    # row is its first occurrence
    first_index = order[is_start]
    return ids, len(first_index), first_index


class _Grouper:
    """Rows grouped by key (:func:`_group_codes`); per-key sums scatter
    via ``np.bincount``, adding each key's rows in input order."""

    def __init__(self, columns: list[np.ndarray]):
        self.ids, self.num_keys, self.first_index = _group_codes(columns)

    def accumulate(self, values: np.ndarray) -> np.ndarray:
        return np.bincount(self.ids, weights=values, minlength=self.num_keys)

    def fired(self, mask: np.ndarray) -> np.ndarray:
        return np.bincount(self.ids[mask], minlength=self.num_keys) > 0


class _PlanEvaluation:
    """One execution of a plan over one trie: the staged array program.

    Stages run in dependency order — probes (alive masks + probed view
    matrices + carried key rows), γ products (parents before children:
    plan order), β segment sums (deepest level first, so chain children
    precede their parents), then emissions. All per-run intermediates
    live only for this call; run-geometry arrays are cached on the trie
    across calls.
    """

    def __init__(
        self,
        plan: MultiOutputPlan,
        trie: TrieIndex,
        tables: Mapping[str, object],
        functions: Mapping[str, Function],
    ) -> None:
        self.plan = plan
        self.trie = trie
        self.tables = tables
        self.farrs, self.psums = bind_operands(plan, trie, functions)
        self.lowered = plan.lowered
        self.num_rel = len(plan.relation_levels)
        self.cache = trie._np_cache
        self._values: dict[Operand, object] = {}
        self._alive: list[np.ndarray | None] = [None] * self.num_rel
        self._probed: dict[str, np.ndarray] = {}
        #: carried block index -> (key_row, found) at the block's bind level
        self._carried: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        #: (block, level) -> per-run entry (start, count) at that level
        self._entry_geo: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
        self._gamma: dict[int, object] = {}
        self._beta: dict[int, object] = {}

    # ------------------------------------------------------------ run geometry
    def runs(self, k: int) -> int:
        return self.trie.level(k).num_runs

    def level_values(self, k: int) -> np.ndarray:
        return self.trie.level(k).values

    def parent(self, k: int) -> np.ndarray:
        """Level-(k-1) run index containing each level-k run."""
        key = ("parent", k)
        got = self.cache.get(key)
        if got is None:
            lvl = self.trie.level(k - 1)
            got = np.repeat(
                np.arange(lvl.num_runs, dtype=np.int64),
                lvl.child_end - lvl.child_start,
            )
            self.cache[key] = got
        return got

    def ancestors(self, j: int, k: int) -> np.ndarray:
        """Level-j ancestor run index for each level-k run (j < k)."""
        key = ("anc", j, k)
        got = self.cache.get(key)
        if got is None:
            if j == k - 1:
                got = self.parent(k)
            else:
                got = self.ancestors(j, k - 1)[self.parent(k)]
            self.cache[key] = got
        return got

    def span_starts(self, j: int, k: int) -> np.ndarray:
        """Start of each level-j run's contiguous span of level-k runs.

        Subtree spans are non-empty (every run has ≥ 1 child) and tile
        ``[0, runs(k))`` in order, so these starts are exactly the
        ``np.add.reduceat`` segment boundaries for reducing level-k values
        to level j.
        """
        key = ("span", j, k)
        got = self.cache.get(key)
        if got is None:
            child_start = self.trie.level(j).child_start
            if j == k - 1:
                got = child_start
            else:
                got = self.span_starts(j + 1, k)[child_start]
            self.cache[key] = got
        return got

    def down(self, value, j: int, k: int):
        """Broadcast a level-j per-run value (or a scalar) to level k."""
        if j == k or not isinstance(value, np.ndarray):
            return value
        return value[self.ancestors(j, k)]

    def full(self, value, k: int) -> np.ndarray:
        """A scalar (level -1 value) as a constant array over level k."""
        if isinstance(value, np.ndarray):
            return value
        return np.full(self.runs(k), float(value))

    # ----------------------------------------------------------------- stages
    def _table(self, block: int):
        """The marshalled entry table behind carried block ``block``."""
        return self.tables[self.plan.block_binding(block).view]

    def operand_value(self, op: Operand):
        """One run-level operand's per-run array at its own level (a
        scalar at level -1), memoised: the walker's ``operand_expr`` over a
        whole level. Entry operands vary per (run, entry) pair instead —
        see :meth:`product`."""
        got = self._values.get(op)
        if got is not None:
            return got
        kind, k = op.kind, op.level
        if kind == OP_GAMMA:  # computed by the γ stage, parents first
            got = self._gamma[op.index]
        elif kind == OP_BETA:  # computed by the β stage, deepest first
            got = self._beta[op.index]
        elif kind == OP_FACTOR:
            got = self.farrs[self.plan.level_functions[op.index]]
        elif kind == OP_VIEW:
            got = self._probed[self.plan.bindings[op.index].view][:, op.agg]
        elif kind == OP_SUBSUM:
            # per-run at the block's bind level (== op.level): the
            # carried probe already resolved each run to its key row
            key_row, found = self._carried[op.index]
            got = self._table(op.index).subsum(key_row, found, op.agg)
        elif kind == OP_COUNT:
            # a pure function of the index: cached on it, like run geometry
            got = self.cache.get(("count", k))
            if got is None:
                if k < 0:
                    got = float(self.trie.num_rows)
                else:
                    lvl = self.trie.level(k)
                    got = (lvl.row_end - lvl.row_start).astype(np.float64)
                self.cache[("count", k)] = got
        else:  # OP_ROWSUM: cached on the index by register identity — the
            # entry holds the register, so its id is never reused meanwhile
            psum = self.psums[self.plan.row_products[op.index]]
            held, got = self.cache.get(("rowsum", k, id(psum)), (None, None))
            if held is not psum:
                if k < 0:
                    got = float(psum[-1])
                else:
                    lvl = self.trie.level(k)
                    got = psum[lvl.row_end] - psum[lvl.row_start]
                self.cache[("rowsum", k, id(psum))] = (psum, got)
        self._values[op] = got
        return got

    def product(
        self,
        operands: tuple[Operand, ...],
        k: int,
        rows: np.ndarray | None = None,
        entries: Mapping[int, np.ndarray] | None = None,
    ):
        """∏ ``operands`` hosted at level ``k``, in operand order — the
        walker's ``product`` over a whole level: an array over the level-k
        runs, or over the selected (run, entry…) pairs when ``rows`` is
        given; a float at level -1. No operands multiply to 1.0."""
        value = None
        for op in operands:
            if op.kind == OP_ENTRY:
                piece = self._table(op.index).agg_matrix[entries[op.index], op.agg]
            else:
                piece = self.down(self.operand_value(op), op.level, k)
                if rows is not None and isinstance(piece, np.ndarray):
                    piece = piece[rows]
            value = piece if value is None else value * piece
        if isinstance(value, np.ndarray):
            return value
        value = 1.0 if value is None else float(value)
        if k < 0:
            return value
        return np.full(self.runs(k) if rows is None else len(rows), value)

    def _run_probes(self) -> None:
        """Alive masks, probed view matrices and carried key rows, per level.

        The generated code ``continue``s out of a run's whole subtree on a
        probe miss — scalar lookup or carried entry-list fetch alike; here
        that is the alive mask — local found masks ANDed with the parent
        level's mask mapped down. ``None`` means all runs alive (no probes
        at or above the level)."""
        mask: np.ndarray | None = None
        for k in range(self.num_rel):
            if mask is not None:
                mask = mask[self.parent(k)]
            for binding in self.lowered.level(k).probes:
                columns = [
                    self.full(self.down(self.level_values(j), j, k), k)
                    for j in binding.key_levels
                ]
                if binding.is_carried:
                    key_row, found = self.tables[binding.view].probe(columns)
                    self._carried[binding.block] = (key_row, found)
                else:
                    values, found = self.tables[binding.view].probe(columns)
                    self._probed[binding.view] = values
                mask = found if mask is None else mask & found
            self._alive[k] = mask

    def _run_gammas(self) -> None:
        # plan order: a parent's id is below its children's
        for node, operands in zip(self.plan.gammas, self.lowered.gamma_products):
            self._gamma[node.id] = self.product(operands, node.level)

    def _run_betas(self) -> None:
        # Deepest levels first (LoweredPlan.beta_order): a chain's child
        # (strictly deeper) is reduced to its reset level — the parent's
        # level — before the parent multiplies it in, mirroring the
        # nested loop tails.
        for node in self.lowered.beta_order:
            k = node.level
            value = self.product(self.lowered.beta_products[node.id], k)
            mask = self._alive[k]
            if mask is not None:
                value = np.where(mask, value, 0.0)
            self._beta[node.id] = self._segment_sum(value, k, node.reset_level)

    def _segment_sum(self, value: np.ndarray, k: int, reset: int):
        if len(value) == 0:
            return 0.0 if reset < 0 else np.zeros(self.runs(reset))
        if reset < 0:
            return float(np.add.reduceat(value, np.array([0]))[0])
        return np.add.reduceat(value, self.span_starts(reset, k))

    # -------------------------------------------------------------- emissions
    def _emission_mask(self, k: int, support: int | None) -> np.ndarray | None:
        mask = self._alive[k]
        if support is not None:
            positive = self.full(self._beta[support], k) > 0
            mask = positive if mask is None else mask & positive
        return mask

    def _entry_geometry(
        self, block: int, k: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Entry segment ``(start, count)`` per level-k run for one block.

        The probe resolved key rows at the block's bind level; ancestor
        maps broadcast them down to the (deeper or equal) emission level.
        Dead runs get count 0, so expansion drops them for free.
        """
        got = self._entry_geo.get((block, k))
        if got is None:
            key_row, found = self._carried[block]
            j = self.plan.block_binding(block).bind_level
            if j < k:
                anc = self.ancestors(j, k)
                key_row, found = key_row[anc], found[anc]
            got = self._table(block).entry_ranges(key_row, found)
            self._entry_geo[(block, k)] = got
        return got

    def _select_runs(
        self, k: int, key_blocks: tuple[int, ...], mask: np.ndarray | None
    ) -> tuple[np.ndarray | None, dict[int, np.ndarray]]:
        """The level-k runs ``mask`` lets through, expanded by the entries
        of each keyed block.

        Returns the run index per selected (run, entry…) pair — ``None``
        when every run is selected and there is nothing to expand — plus
        one flattened-entry index array per keyed block. Each block
        multiplies the pair list by its per-run entry count (``np.repeat``
        over counts), in block-index order — the vectorized form of the
        generated nested entry loops, preserving their enumeration order.
        """
        if mask is None and not key_blocks:
            return None, {}
        if mask is None:
            sel = np.arange(self.runs(k), dtype=np.int64)
        else:
            sel = np.flatnonzero(mask)
        entry_idx: dict[int, np.ndarray] = {}
        for block in key_blocks:
            starts, counts = self._entry_geometry(block, k)
            c = counts[sel]
            reps = np.repeat(np.arange(len(sel), dtype=np.int64), c)
            first = np.cumsum(c) - c
            within = np.arange(len(reps), dtype=np.int64) - first[reps]
            entries = starts[sel][reps] + within
            sel = sel[reps]
            for prior in entry_idx:
                entry_idx[prior] = entry_idx[prior][reps]
            entry_idx[block] = entries
        return sel, entry_idx

    def _key_columns(
        self,
        key_parts,
        k: int,
        rows: np.ndarray | None = None,
        entries: Mapping[int, np.ndarray] | None = None,
    ) -> list[np.ndarray]:
        """Key columns per level-k run, or per selected pair when ``rows``
        is given: trie level values via ancestor maps (``'rel'`` parts),
        flattened carried columns at the pairs' entries (``'car'``)."""
        columns = []
        for part in key_parts:
            if part.kind == "rel":
                column = self.down(self.level_values(part.level), part.level, k)
                columns.append(column if rows is None else column[rows])
            else:  # 'car': part.level stores the block index
                table = self._table(part.level)
                columns.append(table.carried_columns[part.pos][entries[part.level]])
        return columns

    def _key_table(self, k: int, key_parts) -> tuple:
        """The level-k runs grouped by their emission key (cached on trie).

        Key columns are trie level values broadcast down ancestor maps —
        a pure function of the index — so the grouping (a grouper plus
        representative key values per group) is computed once and shared
        across executions and plans on the same index.
        """
        key = ("groupkeys", k, tuple(part.level for part in key_parts))
        got = self.cache.get(key)
        if got is None:
            columns = self._key_columns(key_parts, k)
            grouper = _Grouper(columns)
            representative = [column[grouper.first_index] for column in columns]
            got = (grouper, representative)
            self.cache[key] = got
        return got

    def _output(self, lowered: LoweredEmission):
        """One emission, written the way the walker's ``emit_output``
        writes it: once per slot group of :attr:`LoweredEmission.slot_groups`.

        A group selects the runs its guard lets through (alive and
        supported), expanded by the entries of its keyed carried blocks;
        gathers their key columns; and computes each slot's
        :meth:`product`. An aligned group's rows are its output (each
        key is new). A hash group's rows are grouped and summed per key in
        input (trie × entry-list) order, like the interpreted dict
        accumulation (:class:`_Grouper`). A hash group without keyed blocks groups *every* run instead, through
        the trie-cached :meth:`_key_table`: dead runs add an exact 0.0 and
        a key is kept iff a surviving run fired under it. Several groups
        of one emission are stacked and summed per key once more, so a
        key exists iff some group wrote it — the generated first-touch
        inserts.
        """
        emission = lowered.emission
        if lowered.base_mode == MODE_SCALAR:
            (group,) = lowered.slot_groups
            return {(): [self.product(p, -1) for p in group.products]}
        parts = []
        for group in lowered.slot_groups:
            first = group.first
            k = first.level
            mask = self._emission_mask(k, first.support)
            if emission.aligned or first.key_blocks:
                rows, entries = self._select_runs(k, first.key_blocks, mask)
                keys = self._key_columns(first.key_parts, k, rows, entries)
                values = [self.product(p, k, rows, entries) for p in group.products]
                if not emission.aligned:
                    grouper = _Grouper(keys)
                    keys = [column[grouper.first_index] for column in keys]
                    values = [grouper.accumulate(value) for value in values]
            else:
                grouper, keys = self._key_table(k, first.key_parts)
                values = [self.product(p, k) for p in group.products]
                if mask is None:
                    values = [grouper.accumulate(value) for value in values]
                else:
                    fired = grouper.fired(mask)
                    keys = [column[fired] for column in keys]
                    values = [
                        grouper.accumulate(np.where(mask, value, 0.0))[fired]
                        for value in values
                    ]
            matrix = np.zeros((len(keys[0]), emission.width))
            for slot, value in zip(group.slots, values):
                matrix[:, slot.slot] = value
            parts.append((keys, matrix))
        keys, matrix = parts[0]
        if len(parts) > 1:
            keys = [np.concatenate(columns) for columns in zip(*(p[0] for p in parts))]
            stacked = np.concatenate([p[1] for p in parts])
            grouper = _Grouper(keys)
            keys = [column[grouper.first_index] for column in keys]
            matrix = np.column_stack(
                [grouper.accumulate(column) for column in stacked.T]
            )
        return ArrayViewData.from_arrays(keys, matrix)

    def outputs(self) -> dict[str, dict]:
        self._run_probes()
        self._run_gammas()
        self._run_betas()
        return {
            lowered.emission.artifact: self._output(lowered)
            for lowered in self.lowered.emissions
        }


# ---------------------------------------------------------------------------
# the backend object the engine dispatches to
# ---------------------------------------------------------------------------


class NumpyCompiledGroup:
    """One plan lowered to the staged NumPy array program.

    Implements the compiled-group protocol (``prepare_bindings`` /
    ``execute`` — see :mod:`repro.core.runtime`), so the partitioned path
    and the incremental maintainer drive it like any other backend.
    """

    backend = "numpy"

    def __init__(self, plan: MultiOutputPlan) -> None:
        if not supports_plan(plan):
            raise PlanError(
                f"plan {plan.group_name} is not supported by the numpy backend"
            )
        self.plan = plan
        plan.lowered  # lowering is compile work: here, not in the first execute

    def prepare_bindings(
        self,
        view_data: Mapping[str, dict],
        view_group_by: Mapping[str, tuple[str, ...]],
    ) -> dict[str, object]:
        """Marshal every incoming view into a probe table, once per group.

        Scalar views become sorted key-code tables, carried views CSR
        entry-list tables. Tables are read-only and shared across
        concurrent per-partition executions. Columnar ``ArrayViewData``
        inputs (produced by upstream NumPy or C groups) skip the
        dict-to-array conversion entirely
        (:func:`~repro.core.runtime.view_columns`).
        """
        tables: dict[str, object] = {}
        for binding in self.plan.bindings:
            data = view_data.get(binding.view)
            if data is None:
                raise PlanError(f"missing incoming view data for {binding.view}")
            table_cls = _CarriedTable if binding.is_carried else _BindingTable
            tables[binding.view] = table_cls(
                binding, view_group_by[binding.view], data
            )
        return tables

    def execute(
        self,
        trie: TrieIndex,
        view_data: Mapping[str, dict],
        view_group_by: Mapping[str, tuple[str, ...]],
        functions: Mapping[str, Function],
        bind_entries: dict | None = None,
    ) -> dict[str, dict]:
        if bind_entries is None:
            bind_entries = self.prepare_bindings(view_data, view_group_by)
        return _PlanEvaluation(self.plan, trie, bind_entries, functions).outputs()
