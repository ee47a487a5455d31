"""The compiled-group protocol: compile, execute, partition, merge.

Every backend compiles a :class:`MultiOutputPlan` to an object with the
same two methods and a ``backend`` name — the generated-Python
:class:`LazyPythonGroup`, the staged-array
:class:`~repro.core.npbackend.NumpyCompiledGroup` and the native
:class:`~repro.core.cbackend.CCompiledGroup`:

* ``prepare_bindings(view_data, view_group_by)`` marshals the incoming
  views into the backend's probe layout — the group's *tables* — once
  per group, read-only afterwards: reshaped dicts for generated Python,
  and for NumPy and C the same key-indexed binding tables
  (:func:`prepare_binding_tables`);
* ``execute(trie, tables, functions)`` runs the plan over one trie (or
  trie partition) and those tables, and returns ``artifact →
  ArrayViewData``.

:func:`compile_executables` decides each plan's backend once, at compile
time, and returns one such group per plan. The engine's group step
(:meth:`repro.core.engine.LMFAO._group_tasks`) is where a compiled group
meets a trie: it checks the trie's order, prepares the tables once and
makes one ``execute`` call per partition; the process executor's worker
does the same for the partitions it is sent.

View contents cross the group boundary in one form, :class:`ArrayViewData`:
key columns and a value matrix (a scalar emission is one row with no key
columns). Generated Python's output dicts become one through
:func:`view_columns`. Native consumers read the columns, so a view one
native group produces and another consumes never becomes Python objects;
dict consumers read :func:`as_mapping`.

This module also hosts the **domain-parallel** execution mode: a group may
run once per level-0 trie partition (:func:`partition_tries`) with its
partial outputs merged by :func:`merge_partial_outputs` — disjoint
concatenation for aligned emissions, the one per-key sum
(:func:`sum_by_key`) for accumulating ones.
"""

from __future__ import annotations

import os
import threading
from functools import cached_property
from typing import Callable, Collection, Mapping, Sequence

import numpy as np

from repro.core import costmodel
from repro.core.plan import MultiOutputPlan, ViewBinding
from repro.data.keycodes import _group_codes, _key_order, index_keys
from repro.data.relation import Relation
from repro.data.trie import TrieIndex
from repro.query.functions import Function, is_indicator
from repro.util.errors import PlanError


def debug_checks_enabled() -> bool:
    """Whether ``LMFAO_DEBUG`` asks for (expensive) invariant assertions —
    the engine's run-consistency checks after every run."""
    return bool(os.environ.get("LMFAO_DEBUG"))


def _row_keys(key_columns: Sequence[np.ndarray], rows: int) -> list:
    """Dict keys of parallel key columns: scalars for one column, else
    tuples (``()`` for each of a scalar view's rows)."""
    if len(key_columns) == 1:
        return key_columns[0].tolist()
    if not key_columns:
        return [()] * rows
    return list(zip(*(column.tolist() for column in key_columns)))


class ArrayViewData:
    """View contents as columns: ``key_columns`` + ``value_matrix``.

    Every backend's outputs take this form. ``key_columns`` are in the
    producer's canonical group-by order, one row per key (keys distinct
    row to row, as every emission's are; a scalar view has no key columns
    and one row), and ``value_matrix`` holds one row of aggregates per
    key. The view is a value: nothing mutates it after construction.
    Columnar consumers — native binding preparation (:func:`view_columns`),
    the merges (:func:`sum_by_key`), the columnar top-k kernels — read the
    arrays; dict consumers read :func:`as_mapping`. ``len()`` is the row
    count, and a view pickles as its arrays alone.
    """

    __slots__ = ("key_columns", "value_matrix", "_mapping")

    def __init__(
        self, key_columns: Sequence[np.ndarray], value_matrix: np.ndarray
    ) -> None:
        key_columns = list(key_columns)
        rows = len(value_matrix)
        if value_matrix.ndim != 2 or any(len(c) != rows for c in key_columns):
            raise PlanError("ArrayViewData: ragged key/value columns")
        self.key_columns = key_columns
        self.value_matrix = value_matrix
        self._mapping: dict | None = None  # as_mapping's dict, once built

    @classmethod
    def from_arrays(
        cls, key_columns: Sequence[np.ndarray], value_matrix: np.ndarray
    ) -> "ArrayViewData":
        """The view over parallel key/value arrays: the backends' spelling."""
        return cls(key_columns, value_matrix)

    def __len__(self) -> int:
        return len(self.value_matrix)

    def __reduce__(self):
        return ArrayViewData, (self.key_columns, self.value_matrix)


def as_mapping(view: ArrayViewData) -> dict:
    """One view as the ``key → [aggregates]`` dict the Python backend emits.

    The single columns → dict conversion site (:func:`view_columns` is
    the reverse one). Keys are scalars for one key column, tuples
    otherwise, and ``()`` for a scalar view's row. The dict is built on
    the first call, in row order, and kept on the view: later calls
    return the same dict. Two threads racing on the first call may each
    build one; the dicts are equal, so either serves. Callers read the
    dict and never mutate it — a view is a value.
    """
    mapping = view._mapping
    if mapping is None:
        mapping = view._mapping = dict(
            zip(_row_keys(view.key_columns, len(view)), view.value_matrix.tolist())
        )
    return mapping


def view_columns(
    data: ArrayViewData | dict, group_by: tuple[str, ...], width: int, key_dtype=None
) -> tuple[list[np.ndarray], np.ndarray]:
    """One view as key columns (``group_by`` order) + a float64 value matrix.

    The single dict → columns conversion site, for generated Python's
    output dicts, native consumers (the NumPy and C binding preparation)
    and the ordered finisher (:func:`repro.core.topk.finish_ordered`). An
    :class:`ArrayViewData` hands over its arrays; a dict is converted in
    its key order — which is :func:`as_mapping`'s row order, so the round
    trip keeps rows and their order. ``key_dtype``
    (``None``: inferred per column, so an ``int`` column beside a
    ``float`` one stays integral) is the key columns' dtype; every array
    comes back C-contiguous.
    """
    if isinstance(data, ArrayViewData):
        return (
            [np.ascontiguousarray(c, dtype=key_dtype) for c in data.key_columns],
            np.ascontiguousarray(data.value_matrix, dtype=np.float64),
        )
    m = len(data)
    if m == 0:
        return (
            [np.empty(0, dtype=key_dtype or np.int64) for _ in group_by],
            np.zeros((0, width), dtype=np.float64),
        )
    keys = list(data.keys())
    columns = [keys] if len(group_by) == 1 else zip(*keys)
    values = np.asarray(list(data.values()), dtype=np.float64).reshape(m, width)
    return [np.asarray(c, dtype=key_dtype).reshape(m) for c in columns], values


# ------------------------------------------------------------ binding tables


class _BindingTable:
    """One scalar (non-carried) incoming view marshalled for probing.

    Key columns, in the consumer binding's key order, are indexed once by
    the key coder (:class:`~repro.data.keycodes.KeyIndex`, shared through
    ``built`` with the group's other bindings over equal key columns —
    :func:`~repro.data.keycodes.index_keys`) and value rows kept in key-id
    order, so a probe is a key lookup and one gather. Read-only after
    construction and shared across partitions.
    """

    def __init__(
        self,
        binding: ViewBinding,
        group_by: tuple[str, ...],
        data: ArrayViewData,
        built: list | None = None,
    ):
        self.width = binding.num_aggregates
        columns, values = view_columns(data, group_by, self.width)
        # a scalar view is keyed by exactly its group-by, so its keys are
        # distinct: key id i is producer row first_index[i], often row i
        self.keys = index_keys(
            [columns[group_by.index(attr)] for attr in binding.key],
            distinct=True, built=built,
        )
        first = self.keys.first_index
        self.values = values if _key_order(first) is None else values[first]

    def probe(self, probe_columns: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized lookup: ``(values matrix, found mask)`` per run.

        Missing keys yield ``found=False`` with an arbitrary (but
        in-bounds) values row — callers mask dead runs out of every sum.
        """
        key, found = self.keys.lookup(probe_columns)
        if self.keys.num_keys == 0:
            return np.zeros((len(key), self.width), dtype=np.float64), found
        return self.values[key], found


class _CarriedTable:
    """One carried incoming view flattened to CSR entry lists.

    Entries (producer rows) are grouped by local key (a
    :class:`~repro.data.keycodes.KeyIndex`, shared as for
    :class:`_BindingTable`) and stably ordered by key id, i.e. by key:
    ``entry_offsets[i] : entry_offsets[i + 1]`` bounds key row ``i``'s
    entries in the flattened ``carried_columns`` (one array per carried
    attribute) and ``agg_matrix``. Stability keeps producer order within each key — the
    order the interpreted entry lists iterate. ``subsums`` holds Σ over
    each key's entries of every aggregate (one ``np.add.reduceat``), so a
    sub-sum operand reads a per-run gather.
    """

    def __init__(
        self,
        binding: ViewBinding,
        group_by: tuple[str, ...],
        data: ArrayViewData,
        built: list | None = None,
    ):
        self.width = binding.num_aggregates
        columns, values = view_columns(data, group_by, self.width)
        self.keys = index_keys(
            [columns[group_by.index(attr)] for attr in binding.key], built=built
        )
        self.num_keys = self.keys.num_keys
        counts = np.bincount(self.keys.ids, minlength=self.num_keys)
        self.entry_offsets = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
        carried = [columns[group_by.index(attr)] for attr in binding.carried]
        order = _key_order(self.keys.ids)
        if order is not None:
            carried = [column[order] for column in carried]
            values = values[order]
        self.carried_columns = carried
        self.agg_matrix = values
        if self.num_keys:
            self.subsums = np.add.reduceat(values, self.entry_offsets[:-1], axis=0)
        else:
            self.subsums = np.zeros((0, self.width), dtype=np.float64)

    @cached_property
    def carried_counts(self) -> tuple[int, ...]:
        """The distinct count of each carried column (C's output key
        bounds read them), counted by the key coder on first read."""
        return tuple(_group_codes([column])[1] for column in self.carried_columns)

    @cached_property
    def carried_spans(self) -> tuple[tuple[int, int] | None, ...]:
        """``(least, greatest)`` of each carried column, ``None`` when the
        view is empty (C's direct output addressing reads them), taken on
        first read."""
        return tuple(
            (int(column.min()), int(column.max())) if len(column) else None
            for column in self.carried_columns
        )

    def probe(self, probe_columns: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized fetch: ``(key row, found mask)`` per run; ``key
        row`` indexes ``entry_offsets`` / ``subsums``, and is 0 for a miss
        (masked out downstream like scalar probe misses)."""
        return self.keys.lookup(probe_columns)

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


def prepare_binding_tables(
    plan: MultiOutputPlan,
    view_data: Mapping[str, ArrayViewData],
    view_group_by: Mapping[str, tuple[str, ...]],
) -> dict[str, _BindingTable | _CarriedTable]:
    """Every incoming view of ``plan`` as a probe table: the one binding
    index of the NumPy and C backends.

    Scalar views become :class:`_BindingTable`\\ s, carried views
    :class:`_CarriedTable`\\ s, both keyed by a
    :class:`~repro.data.keycodes.KeyIndex`: one per distinct key-column
    content among the group's bindings (equal columns and an equal
    ``distinct`` flag share the object), so a key is coded once however
    many bindings probe it. Tables are read-only and shared across
    concurrent per-partition executions. Every input is a columnar
    ``ArrayViewData``, read as arrays (:func:`view_columns`).
    """
    tables: dict[str, _BindingTable | _CarriedTable] = {}
    built: list = []
    for binding in plan.bindings:
        data = view_data.get(binding.view)
        if data is None:
            raise PlanError(f"missing incoming view data for {binding.view}")
        table_cls = _CarriedTable if binding.is_carried else _BindingTable
        tables[binding.view] = table_cls(
            binding, view_group_by[binding.view], data, built
        )
    return tables


# ------------------------------------------------------------- sum by key


def _stacked(
    pieces: Sequence[ArrayViewData],
) -> tuple[list[np.ndarray], np.ndarray]:
    """The pieces' rows one after another: key columns and value matrix."""
    return (
        [np.concatenate(column) for column in zip(*(p.key_columns for p in pieces))],
        np.concatenate([piece.value_matrix for piece in pieces]),
    )


def sum_by_key(pieces: Sequence[ArrayViewData]) -> ArrayViewData:
    """The per-key, per-slot sum of views with the same key columns.

    The one per-key summation: the partition merge, the incremental delta
    merge and the NumPy backend's stacked slot groups call it. A key is in
    the result iff some piece has it, and each of its slots is a left fold
    from ``0.0`` over the pieces in order (``np.bincount`` adds in input
    order). Rows come out in ascending key order
    (:func:`~repro.data.keycodes._group_codes`).
    Scalar pieces (no key columns) sum into one row, the same fold taken
    a row at a time over all slots at once. Inputs are not mutated.
    """
    keys, stacked = _stacked(pieces)
    if not keys:
        matrix = np.zeros((min(len(stacked), 1), stacked.shape[1]))
        for row in stacked:
            matrix[0] += row
        return ArrayViewData.from_arrays([], matrix)
    ids, num_keys, first_index = _group_codes(keys)
    keys = [column[first_index] for column in keys]
    matrix = np.empty((num_keys, stacked.shape[1]))
    for slot, column in enumerate(stacked.T):
        matrix[:, slot] = np.bincount(ids, weights=column, minlength=num_keys)
    return ArrayViewData.from_arrays(keys, matrix)


def _product_signature(
    product: tuple[tuple[str, str], ...], functions: Mapping[str, Function]
) -> str:
    """Trie-cache signature of a factor product, by *bound* function name
    (see :func:`bind_operands`)."""
    try:
        return "*".join(f"{functions[func].name}({attr})" for attr, func in product)
    except KeyError as missing:
        raise PlanError(
            f"no runtime function registered for {missing.args[0]!r}"
        ) from None


def holds_constant(
    product: tuple[tuple[str, str], ...], functions: Mapping[str, Function]
) -> bool:
    """Whether a factor product holds a folded-``WHERE`` indicator, whose
    constant is the request's (see :func:`bind_operands`)."""
    return any(is_indicator(functions[func]) for _attr, func in product)


def bind_operands(
    plan: MultiOutputPlan,
    trie: TrieIndex,
    functions: Mapping[str, Function],
    lists: bool = False,
) -> tuple[dict, dict]:
    """The trie arrays a plan's ``F<i>`` / ``P<j>`` operands read, for
    every backend: ``(farrs, psums)``, the level-function arrays and
    prefix-sum registers keyed by ``plan.level_functions`` /
    ``plan.row_products`` entries (generated Python's ``env.farrs`` /
    ``env.psums``, the C ``("farr", key)`` / ``("psum", product)`` roles);
    ``lists`` returns the Python-list views generated Python indexes.

    The trie caches key each array by the **bound** function's name (a
    level function is the one-factor product ``f(attr)``). Plans name
    functions by slot. On a plan-cache hit the rebound copy of the cached
    batch (:func:`repro.serve.fingerprint.bind_batch`) binds a slot name,
    which carries the cached batch's constant, to the request's function.
    Tries are shared across requests, so slot-name keys would serve one
    request's indicator arrays to another. Function names
    are unique per behaviour (the registry contract): a sound key. An
    array whose product holds a request's constant (:func:`holds_constant`)
    is built for this call and kept in neither cache.
    """
    level_products = [((attr, func),) for _level, attr, func in plan.level_functions]
    signatures = [
        _product_signature(product, functions)
        for product in (*level_products, *plan.row_products)
    ]
    farrs: dict = {}
    for key, product, signature in zip(
        plan.level_functions, level_products, signatures
    ):
        level, _attr, func = key
        keep = not holds_constant(product, functions)
        array = trie.level_function_array(level, signature, functions[func], keep)
        if lists:
            array = trie.operand_list((level, signature)) if keep else array.tolist()
        farrs[key] = array
    psums: dict = {}
    for product, signature in zip(plan.row_products, signatures[len(level_products):]):
        keep = not holds_constant(product, functions)
        array = trie.prefix_sum(signature, _product_column(product, functions), keep)
        if lists:
            array = trie.operand_list(signature) if keep else array.tolist()
        psums[product] = array
    return farrs, psums


def _product_column(
    product: tuple[tuple[str, str], ...], functions: Mapping[str, Function]
) -> Callable[[Relation], np.ndarray]:
    def compute(relation: Relation) -> np.ndarray:
        result: np.ndarray | None = None
        for attr, func_name in product:
            col = functions[func_name](relation.column(attr))
            result = col if result is None else result * col
        assert result is not None
        return result

    return compute


def reshape_binding(
    binding: ViewBinding, view_group_by: tuple[str, ...], data: ArrayViewData
) -> dict:
    """Re-key view contents for one consumer binding.

    ``data`` is keyed by the producer's canonical group-by and read
    through :func:`as_mapping`, so generated code probes a plain dict.
    Scalar bindings whose key order equals the producer's group-by get
    that dict as-is; carried bindings are grouped into entry lists per
    local key.
    """
    data = as_mapping(data)
    if not binding.is_carried:
        if binding.key == view_group_by:
            return data
        # Same attribute set, different order (cannot happen while both are
        # name-sorted, but stay correct if conventions diverge).
        positions = [view_group_by.index(a) for a in binding.key]
        reshaped: dict = {}
        for key, aggs in data.items():
            full = key if isinstance(key, tuple) else (key,)
            new_key = tuple(full[p] for p in positions)
            reshaped[new_key[0] if len(new_key) == 1 else new_key] = aggs
        return reshaped

    key_positions = [view_group_by.index(a) for a in binding.key]
    carried_positions = [view_group_by.index(a) for a in binding.carried]
    grouped: dict = {}
    for key, aggs in data.items():
        full = key if isinstance(key, tuple) else (key,)
        local = tuple(full[p] for p in key_positions)
        local_key = local[0] if len(local) == 1 else local
        carried_vals = tuple(full[p] for p in carried_positions)
        grouped.setdefault(local_key, []).append((carried_vals, aggs))
    return grouped


def trie_cache_key(node: str, order: tuple[str, ...]) -> tuple:
    """The canonical trie-cache key: ``(node, order)``.

    Defined once and shared by every consumer — the snapshot's trie memo
    (:attr:`~repro.core.snapshot.Snapshot.tries`, which maintained
    handles share with the engine's runs) and the process executor's
    shared-memory segment store (which keys exported tries by
    ``(snapshot version, this key)``).
    """
    return (node, order)


def node_trie(db, node: str, order: tuple[str, ...], cache: dict) -> TrieIndex:
    """The cached trie index for one node's relation in one attribute order.

    The cache key is :func:`trie_cache_key` — defined there, once, for
    every consumer.
    """
    key = trie_cache_key(node, order)
    trie = cache.get(key)
    if trie is None:
        trie = TrieIndex(db.relation(node), order)
        cache[key] = trie
    return trie


class LazyPythonGroup:
    """One plan's generated Python, built on first use.

    ``plan`` and ``backend`` are its own; every other attribute —
    ``source`` and the protocol's ``prepare_bindings`` / ``execute`` — is
    the :class:`~repro.core.codegen.CompiledGroup` that
    :func:`~repro.core.codegen.generate_group` builds on the first such
    read. A batch thus pays for the Python of the groups that run it (or
    whose source is read) and no other. The build is serialised: pool
    threads and server requests share one compiled batch, and a group is
    generated at most once.
    """

    backend = "python"

    def __init__(self, plan: MultiOutputPlan, share_terms: bool) -> None:
        self.plan = plan
        self._share_terms = share_terms
        self._group = None
        self._lock = threading.Lock()

    def __getattr__(self, name: str):
        if name.startswith("_"):  # not built state: a copy before __init__
            raise AttributeError(name)
        if self._group is None:
            from repro.core.codegen import generate_group

            with self._lock:
                if self._group is None:
                    self._group = generate_group(
                        self.plan, share_terms=self._share_terms
                    )
        return getattr(self._group, name)


def compile_executables(
    plans: Sequence[MultiOutputPlan],
    backend: str,
    share_terms: bool,
    attribute_kinds: Mapping[str, str],
    c_candidates: Collection[int] | None = None,
) -> list:
    """Compile every plan for ``backend``: one compiled group per plan.

    This is where a group's backend is decided, once, and each group's
    ``backend`` attribute records it. ``"python"``: a
    :class:`LazyPythonGroup` per plan. ``"numpy"``: a NumPy group per
    plan. ``"c"``: a C group where :func:`repro.core.cbackend.supports_plan`
    accepts the plan (integer keys), NumPy elsewhere. ``"auto"``: C for
    the plans in ``c_candidates`` (see :mod:`repro.core.cbackend`,
    "Candidates"), NumPy for the rest, and NumPy throughout without gcc.
    A C group's bound function keeps its shared object loaded. Called by
    :meth:`LMFAO.compile` and by each worker process's warm-up
    (:mod:`repro.core.mpexec`) — compiled code cannot cross a process
    boundary, plans can.
    """
    if backend == "python":
        return [LazyPythonGroup(plan, share_terms) for plan in plans]
    from repro.core import npbackend

    groups = npbackend.compile_numpy_groups(plans)
    if backend == "numpy":
        return groups
    from repro.core import cbackend

    try:
        native, _library = cbackend.compile_c_groups(
            plans, attribute_kinds, c_candidates, share_terms
        )
    except PlanError:
        # no gcc on this machine: auto degrades to numpy.
        if backend == "c":
            raise
        return groups
    return [c or numpy for c, numpy in zip(native, groups)]


# ------------------------------------------------------------ domain parallelism


def partition_tries(
    plan: MultiOutputPlan,
    trie: TrieIndex,
    partitions: int,
    threshold: int,
    concurrency: int | None = None,
) -> list[TrieIndex]:
    """The trie partitions one group should execute over (possibly just one).

    ``partitions`` is an advisory upper bound. Fan-out happens only when
    the configuration asks for it (``partitions > 1``), the plan's merge
    is provably safe (:attr:`MultiOutputPlan.partition_safe`), and the
    trie actually splits (≥ 2 level-0 runs). ``threshold`` is the minimum
    number of rows *per partition*: a 10k-row trie at the default 8192
    threshold now runs with one partition instead of splitting into four
    ~2.5k-row slices whose per-partition overhead exceeds their work
    (``threshold == 0`` forces the full fan-out — the differential test
    grids pin it to exercise partitioned paths on any input size).
    ``concurrency``, when given, further caps the fan-out at the number
    of threads that can actually run the partitions concurrently
    (:func:`repro.core.costmodel.effective_concurrency`).
    """
    k = costmodel.effective_partitions(
        trie.num_rows, partitions, threshold, concurrency
    )
    if k <= 1 or not plan.partition_safe:
        return [trie]
    return trie.partitions(k)


def merge_partial_outputs(
    plan: MultiOutputPlan, partial: Sequence[dict[str, ArrayViewData]]
) -> dict[str, ArrayViewData]:
    """Merge per-partition outputs of one group into the full outputs.

    Merge semantics per emission (see docs/architecture.md §Parallel):

    * **aligned** emissions (group-by = attribute-order prefix) are keyed by
      the level-0 attribute first, and level-0 values are disjoint across
      partitions — so the key columns and value matrices concatenate
      (disjoint union), in partition order;
    * **accumulating** emissions (hash / scalar) sum per key and slot
      (:func:`sum_by_key`), in partition order. A key exists in the full
      output iff some partition emitted it: key support is itself a sum
      over rows, so it is positive on the whole relation iff positive on
      some partition.

    Partition order is fixed (level-0 run order), which makes the merged
    result deterministic — independent of worker count and scheduling.
    The merge builds fresh arrays and never mutates its inputs.
    """
    if len(partial) == 1:
        return partial[0]
    merged: dict[str, ArrayViewData] = {}
    for emission in plan.emissions:
        pieces = [outputs[emission.artifact] for outputs in partial]
        if emission.aligned and emission.group_by:
            merged[emission.artifact] = ArrayViewData.from_arrays(*_stacked(pieces))
        else:
            merged[emission.artifact] = sum_by_key(pieces)
    return merged


def estimate_view_bytes(data: ArrayViewData) -> int:
    """A cheap, deterministic size estimate of one materialized view.

    The view cache's byte accounting (:mod:`repro.serve.viewcache`) needs
    a weight per entry without walking every key of a large view: the
    arrays' true ``nbytes`` plus a per-entry charge for the
    :func:`as_mapping` dict — counted whether or not that dict is built
    yet (this function never builds it), so a cache entry's weight does
    not change when a reader first reads it. Estimates are stable for a
    given view, which is all LRU weight accounting needs (the bound is
    approximate by design — see ``docs/serving.md`` §View cache).
    """
    entries = len(data)
    if entries == 0:
        return 64
    return int(
        sum(column.nbytes for column in data.key_columns)
        + data.value_matrix.nbytes
        + 64 * entries  # as_mapping's dict per entry, built or not
    )
