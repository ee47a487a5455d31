"""The compiled-group protocol: compile, execute, partition, merge.

Every backend compiles a :class:`MultiOutputPlan` to an object with the
same two methods and a ``backend`` name — the generated-Python
:class:`LazyPythonGroup`, the staged-array
:class:`~repro.core.npbackend.NumpyCompiledGroup` and the native
:class:`~repro.core.cbackend.CCompiledGroup`:

* ``prepare_bindings(view_data, view_group_by)`` marshals the incoming
  views into the backend's probe layout, once per group (reshaped dicts,
  sorted key-code tables, flattened entry arrays), read-only afterwards;
* ``execute(trie, view_data, view_group_by, functions, bind_entries=None)``
  runs the plan over one trie and returns ``artifact → ViewData``.

:func:`compile_executables` decides each plan's backend once, at compile
time, and returns one such group per plan; :func:`execute_plan` is the
one place a compiled group meets a trie.

View contents cross the group boundary in one of two forms. The
generated-Python group emits dictionaries ``group_by_key →
list_of_aggregate_values`` where the key is a scalar for
single-attribute group-bys and a tuple (in the view's canonical group-by
order) otherwise. The NumPy and C groups emit :class:`ArrayViewData`:
parallel key columns and a value matrix, with that same dictionary as a
mirror built only when a dict consumer first reads it. Native consumers
read the columns through :func:`view_columns`, so a view one native
group produces and another consumes never becomes Python objects.

This module also hosts the **domain-parallel** execution mode: a group may
run once per level-0 trie partition (:func:`partition_tries`) with its
partial outputs merged by :func:`merge_partial_outputs` — per-key summation
for accumulating emissions, disjoint concatenation for aligned ones.
"""

from __future__ import annotations

import os
import threading
from typing import Callable, Collection, Mapping, Sequence

import numpy as np

from repro.core import costmodel
from repro.core.plan import MultiOutputPlan, ViewBinding
from repro.data.relation import Relation
from repro.data.trie import TrieIndex
from repro.query.functions import Function
from repro.util.errors import PlanError

ViewData = dict


def debug_checks_enabled() -> bool:
    """Whether ``LMFAO_DEBUG`` asks for (expensive) invariant assertions.

    Consumers of columnar view state call
    :meth:`ArrayViewData.check_consistent` under this flag before trusting
    the arrays, so a dict/array desync fails loudly at the point of use
    instead of silently corrupting downstream aggregates.
    """
    return bool(os.environ.get("LMFAO_DEBUG"))


def _row_keys(key_columns: Sequence[np.ndarray]) -> list:
    """Dict keys of parallel key columns: scalars for one column, else tuples."""
    if len(key_columns) == 1:
        return key_columns[0].tolist()
    return list(zip(*(column.tolist() for column in key_columns)))


#: serialises mirror builds, so a view shared across threads builds once
_MIRROR_LOCK = threading.Lock()


class ArrayViewData(dict):
    """View contents as columns — ``key_columns`` + ``value_matrix`` — and
    the ``key → [aggregates]`` dict mirror of them.

    The NumPy and C backends both emit these through :meth:`from_arrays`.
    ``key_columns`` are in the producer's canonical group-by order, one
    row per key, and the row order is the mirror's key order. Columnar
    consumers — native binding preparation (:func:`view_columns`), the
    aligned partition merge, the columnar top-k kernels — read the arrays.
    Dict consumers see a dict like the Python backend's.

    **The mirror is built lazily.** :meth:`from_arrays` returns a view
    whose dict storage is still empty. The first dict-API read — ``[]``,
    ``get``, ``in``, iteration, ``keys`` / ``values`` / ``items``,
    ``==``, ``copy``, ``dict(x)`` — builds the mirror once and turns the
    object into a plain ``ArrayViewData``, which has no read overrides:
    from then on lookups run at ``dict.get`` speed. ``len()``,
    :attr:`has_columns`, :func:`estimate_view_bytes` and pickling never
    build it (:attr:`has_mirror` says whether it exists). A columnar view
    pickles as its arrays alone and unpickles unbuilt.

    Every mutating dict operation (``__setitem__``, ``update``, ``pop``,
    …) builds the mirror, then **auto-drops** the columnar arrays, so
    merge paths that grow or rewrite entries can never serve stale arrays
    to a columnar consumer. The one mutation the class cannot see is
    writing *through* a stored aggregate list (``data[key][slot] += x``);
    paths that do that must call :meth:`drop_columnar` themselves, and
    :meth:`check_consistent` (run by consumers under ``LMFAO_DEBUG``)
    catches any path that forgot.
    """

    __slots__ = ("key_columns", "value_matrix")

    #: whether the dict mirror exists (False only before the first read)
    has_mirror = True

    def __init__(self, *args, **kwargs) -> None:
        # dict.__init__ bulk-inserts without dispatching to __setitem__,
        # so construction does not count as a (drop-triggering) mutation.
        super().__init__(*args, **kwargs)
        self.key_columns: list[np.ndarray] | None = None
        self.value_matrix: np.ndarray | None = None

    @property
    def has_columns(self) -> bool:
        return self.value_matrix is not None

    def build_mirror(self) -> None:
        """Build the dict mirror if it is still pending (here: it is not)."""

    def drop_columnar(self) -> None:
        """Forget the columnar arrays (keep the dict contents)."""
        self.key_columns = None
        self.value_matrix = None

    def __reduce__(self):
        if self.has_columns:
            return ArrayViewData.from_arrays, (self.key_columns, self.value_matrix)
        return ArrayViewData, (dict(self),)

    # -- mutating dict operations invalidate the columnar mirror ------------
    def __setitem__(self, key, value) -> None:
        self.drop_columnar()
        super().__setitem__(key, value)

    def __delitem__(self, key) -> None:
        self.drop_columnar()
        super().__delitem__(key)

    def update(self, *args, **kwargs) -> None:
        self.drop_columnar()
        super().update(*args, **kwargs)

    def __ior__(self, other):
        # dict.__ior__ bulk-inserts at the C level without dispatching to
        # update/__setitem__, so it needs its own interception.
        self.drop_columnar()
        return super().__ior__(other)

    def setdefault(self, key, default=None):
        if key not in self:
            self.drop_columnar()
        return super().setdefault(key, default)

    def pop(self, *args):
        self.drop_columnar()
        return super().pop(*args)

    def popitem(self):
        self.drop_columnar()
        return super().popitem()

    def clear(self) -> None:
        self.drop_columnar()
        super().clear()

    def check_consistent(self) -> None:
        """Assert the columns are well-formed and the mirror matches them.

        No-op without columns; the mirror comparison is skipped (and the
        mirror not built) while it is pending. O(n) — called by columnar
        consumers under ``LMFAO_DEBUG`` (see :func:`debug_checks_enabled`)
        and by tests.
        """
        if not self.has_columns:
            return
        rows = len(self.value_matrix)
        assert self.value_matrix.ndim == 2 and all(
            len(column) == rows for column in self.key_columns
        ), "ArrayViewData columns desynchronised: ragged key/value arrays"
        if not self.has_mirror:
            return
        mirror = dict(zip(_row_keys(self.key_columns), self.value_matrix.tolist()))
        assert len(mirror) == rows and mirror == dict(self), (
            "ArrayViewData columnar state desynchronised from dict contents "
            "(a mutation bypassed drop_columnar)"
        )

    @staticmethod
    def from_arrays(
        key_columns: Sequence[np.ndarray], value_matrix: np.ndarray
    ) -> "ArrayViewData":
        """A view over parallel key/value arrays, its dict mirror pending.

        Keys must be distinct row to row (every emission's are).
        """
        data = _PendingMirror()
        data.key_columns = list(key_columns)
        data.value_matrix = value_matrix
        return data


class _PendingMirror(ArrayViewData):
    """An :class:`ArrayViewData` whose dict mirror is not built yet.

    Its dict storage is empty: every read override below builds the
    mirror, reassigns ``__class__`` to :class:`ArrayViewData` (same
    layout, no read overrides) and answers from the built dict. Mutations
    reach :meth:`drop_columnar`, which builds before dropping.
    """

    __slots__ = ()
    has_mirror = False

    def build_mirror(self) -> None:
        with _MIRROR_LOCK:
            if type(self) is _PendingMirror:  # another thread may have built it
                dict.update(
                    self,
                    zip(_row_keys(self.key_columns), self.value_matrix.tolist()),
                )
                self.__class__ = ArrayViewData

    def drop_columnar(self) -> None:
        self.build_mirror()
        ArrayViewData.drop_columnar(self)

    def __len__(self) -> int:
        return len(self.value_matrix)

    # comparisons re-dispatch once built, so a pending right operand is
    # built by its own (reflected) __eq__ / __ne__
    def __eq__(self, other):
        self.build_mirror()
        return self == other

    def __ne__(self, other):
        self.build_mirror()
        return self != other


def _read_after_build(name: str):
    method = getattr(dict, name)

    def read(self, *args):
        self.build_mirror()
        return method(self, *args)

    read.__name__ = name
    return read


for _name in (
    "__getitem__", "__contains__", "__iter__", "__reversed__", "__repr__",
    "__or__", "get", "keys", "values", "items", "copy",
):
    setattr(_PendingMirror, _name, _read_after_build(_name))
del _name


def view_columns(
    data: Mapping, group_by: tuple[str, ...], width: int, key_dtype=None
) -> tuple[list[np.ndarray], np.ndarray]:
    """One view as key columns (``group_by`` order) + a float64 value matrix.

    The single dict → columns conversion site for native consumers (the
    NumPy and C binding preparation). A columnar :class:`ArrayViewData`
    hands over its arrays without building its mirror; a dict is
    converted in its key order — which is the mirror's row order, so both
    paths yield the same rows in the same order. ``key_dtype`` (``None``:
    inferred) is the key columns' dtype; every array comes back
    C-contiguous. Under ``LMFAO_DEBUG`` an ``ArrayViewData`` is checked
    with :meth:`~ArrayViewData.check_consistent` first.
    """
    if isinstance(data, ArrayViewData):
        if debug_checks_enabled():
            data.check_consistent()
        if data.has_columns:
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
    keys = np.asarray(list(data.keys()), dtype=key_dtype).reshape(m, len(group_by))
    values = np.asarray(list(data.values()), dtype=np.float64).reshape(m, width)
    return [np.ascontiguousarray(keys[:, p]) for p in range(len(group_by))], values


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
    are unique per behaviour (the registry contract): a sound key.
    """
    level_products = [((attr, func),) for _level, attr, func in plan.level_functions]
    signatures = [
        _product_signature(product, functions)
        for product in (*level_products, *plan.row_products)
    ]
    farrs: dict = {}
    for key, signature in zip(plan.level_functions, signatures):
        level, _attr, func = key
        array = trie.level_function_array(level, signature, functions[func])
        farrs[key] = trie.operand_list((level, signature)) if lists else array
    psums: dict = {}
    for product, signature in zip(plan.row_products, signatures[len(level_products):]):
        array = trie.prefix_sum(signature, _product_column(product, functions))
        psums[product] = trie.operand_list(signature) if lists else array
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


def reshape_binding(binding: ViewBinding, view_group_by: tuple[str, ...], data: ViewData) -> dict:
    """Re-key view contents for one consumer binding.

    ``data`` is keyed by the producer's canonical group-by. Scalar bindings
    whose key order equals the producer's group-by are returned as-is —
    an :class:`ArrayViewData` with its mirror built here, so generated
    code probes a plain dict; carried bindings are grouped into entry
    lists per local key.
    """
    if not binding.is_carried:
        if binding.key == view_group_by:
            if isinstance(data, ArrayViewData):
                data.build_mirror()
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
            plans, attribute_kinds, c_candidates
        )
    except PlanError:
        # no gcc on this machine: auto degrades to numpy.
        if backend == "c":
            raise
        return groups
    return [c or numpy for c, numpy in zip(native, groups)]


def execute_plan(
    group,
    trie: TrieIndex,
    view_data: Mapping[str, ViewData],
    view_group_by: Mapping[str, tuple[str, ...]],
    functions: Mapping[str, Function],
    prepared_bindings: dict | None = None,
) -> dict[str, dict]:
    """Run one compiled group over a trie and incoming view contents.

    ``group`` is any backend's compiled group (see the module docstring).
    Both the batch executor and the incremental maintainer call this — the
    maintainer additionally passes *delta* tries (an index over just the
    inserted tuples) to obtain per-view deltas from the very same compiled
    code, since every emitted slot is a sum over the node's rows and
    therefore linear in the row multiset.

    The trie must be built in the plan's attribute order: compiled code
    addresses level arrays positionally, so a mismatch would not fail but
    aggregate the wrong attributes — checked here, for every backend.

    ``prepared_bindings`` (from ``group.prepare_bindings``) lets
    partitioned execution marshal the incoming views once and share them,
    read-only, across concurrent per-partition calls.
    """
    if trie.order != group.plan.order:
        raise PlanError(
            f"trie order {trie.order} does not match plan order {group.plan.order}"
        )
    return group.execute(
        trie, view_data, view_group_by, functions, bind_entries=prepared_bindings
    )


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
    plan: MultiOutputPlan, partial: Sequence[dict[str, dict]]
) -> dict[str, dict]:
    """Merge per-partition outputs of one group into the full outputs.

    Merge semantics per emission (see docs/architecture.md §Parallel):

    * **aligned** emissions (group-by = attribute-order prefix) are keyed by
      the level-0 attribute first, and level-0 values are disjoint across
      partitions — so the partial dicts concatenate (disjoint union). When
      every partial is a columnar :class:`ArrayViewData` (the NumPy and C
      backends), the key columns and value matrices concatenate instead,
      and the merged view stays columnar with its mirror pending;
    * **accumulating** emissions (hash / scalar) sum per key and slot, in
      partition order. A key exists in the full output iff some partition
      emitted it: key support is itself a sum over rows, so it is positive
      on the whole relation iff positive on some partition.

    Partition order is fixed (level-0 run order), which makes the merged
    result deterministic — independent of worker count and scheduling.

    The merge never mutates its inputs: accumulating emissions copy the
    first-seen value list per key before summing into it, and aligned
    merges build a fresh container. If a partial is an
    :class:`ArrayViewData`, any future mutating path through dict methods
    would auto-drop its columnar state; under ``LMFAO_DEBUG`` the
    columnar partials are additionally asserted consistent before use.
    """
    if len(partial) == 1:
        return partial[0]
    debug = debug_checks_enabled()
    merged: dict[str, dict] = {}
    for emission in plan.emissions:
        name = emission.artifact
        if emission.aligned and emission.group_by:
            pieces = [outputs[name] for outputs in partial]
            if all(
                isinstance(p, ArrayViewData) and p.has_columns for p in pieces
            ):
                if debug:
                    for piece in pieces:
                        piece.check_consistent()
                num_parts = len(pieces[0].key_columns)
                out: dict = ArrayViewData.from_arrays(
                    [
                        np.concatenate([p.key_columns[i] for p in pieces])
                        for i in range(num_parts)
                    ],
                    np.concatenate([p.value_matrix for p in pieces]),
                )
            else:
                out = {}
                for outputs in partial:
                    out.update(outputs[name])
        else:
            out = {}
            for outputs in partial:
                source = outputs[name]
                if debug and isinstance(source, ArrayViewData):
                    source.check_consistent()
                for key, values in source.items():
                    current = out.get(key)
                    if current is None:
                        out[key] = list(values)
                    else:
                        for slot, value in enumerate(values):
                            current[slot] += value
        merged[name] = out
    return merged


def execute_plan_partitioned(
    group,
    tries: Sequence[TrieIndex],
    view_data: Mapping[str, ViewData],
    view_group_by: Mapping[str, tuple[str, ...]],
    functions: Mapping[str, Function],
) -> dict[str, dict]:
    """Run one compiled group over trie partitions (serially) and merge.

    The sequential executor and the incremental maintainer both refresh
    groups through this path, so a partitioned configuration produces
    bit-identical state no matter which of them ran the group. The parallel
    engine scheduler fans the same per-partition calls out across its
    worker pool and merges with :func:`merge_partial_outputs` itself.
    """
    if len(tries) == 1:
        return execute_plan(group, tries[0], view_data, view_group_by, functions)
    prepared = group.prepare_bindings(view_data, view_group_by)
    partial = [
        execute_plan(group, trie, view_data, view_group_by, functions, prepared)
        for trie in tries
    ]
    return merge_partial_outputs(group.plan, partial)


def estimate_view_bytes(data: Mapping) -> int:
    """A cheap, deterministic size estimate of one materialized view.

    The view cache's byte accounting (:mod:`repro.serve.viewcache`) needs
    a weight per entry without walking every key of a large view. Columnar
    :class:`ArrayViewData` reports its arrays' true ``nbytes`` plus a
    per-entry charge for the dict mirror — counted whether or not the
    mirror is built yet (this function never builds it), so a cache
    entry's weight does not change when a reader first touches its dict.
    Plain dict views are estimated as ``entries × (per-key + per-aggregate
    cost)`` from one sampled entry. Estimates are stable for a given view,
    which is all LRU weight accounting needs (the bound is approximate by
    design — see ``docs/serving.md`` §View cache).
    """
    entries = len(data)
    if entries == 0:
        return 64
    if isinstance(data, ArrayViewData) and data.has_columns:
        return int(
            sum(column.nbytes for column in data.key_columns)
            + np.asarray(data.value_matrix).nbytes
            + 64 * entries  # dict-mirror overhead per entry, built or not
        )
    key, values = next(iter(data.items()))
    key_width = len(key) if isinstance(key, tuple) else 1
    per_entry = 64 + 28 * key_width + 32 * len(values)
    return 64 + entries * per_entry
