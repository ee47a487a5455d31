"""CSR trie index: the physical layout behind multi-output plans.

LMFAO organises a node's relation "logically as a trie: first grouped by the
first attribute in the order, then by the next one in the context of values
for the first, and so on" (paper, Section 2). This module materialises that
logical trie as a compact CSR-style index over the relation sorted by the
attribute order:

* level ``k`` holds one entry per distinct prefix ``(a_0 .. a_k)``: the
  attribute value of the run, its row range ``[row_start, row_end)`` in the
  sorted relation, and its child-run span ``[child_start, child_end)`` in
  level ``k+1``;
* **prefix-sum registers** over payload columns make any
  ``SUM(f(payload))`` over a run an O(1) subtraction — this is the
  substitution for the paper's compiled C++ row loops (docs/architecture.md,
  "Code generation"): the generated Python only ever iterates *distinct*
  prefixes, never rows.

Building the index costs one ``lexsort`` of the relation; the engine caches
one index per (node, attribute order) pair
(:func:`repro.core.runtime.trie_cache_key`), and a commit carries each
cached index of an updated node to the next version
(:meth:`TrieIndex.carried`) instead of sorting again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.data.keycodes import _composite_codes, _group_codes, match_bag
from repro.data.relation import Relation
from repro.util.errors import PlanError


@dataclass(frozen=True)
class TrieLevel:
    """One trie level: runs of equal ``(a_0..a_k)`` prefixes.

    ``values[i]`` is the level-attribute value of run ``i``;
    ``row_start[i]:row_end[i]`` is its row range in the sorted relation;
    ``child_start[i]:child_end[i]`` spans its runs in the next level
    (equal to the row range at the deepest level).
    """

    attribute: str
    values: np.ndarray
    row_start: np.ndarray
    row_end: np.ndarray
    child_start: np.ndarray
    child_end: np.ndarray

    @property
    def num_runs(self) -> int:
        return len(self.values)


class TrieIndex:
    """A relation sorted by an attribute order plus per-level run arrays."""

    def __init__(
        self, relation: Relation, order: Sequence[str], *, presorted: bool = False
    ) -> None:
        order = tuple(order)
        for name in order:
            if name not in relation.schema:
                raise PlanError(f"trie order attribute {name!r} not in {relation.name}")
        if len(set(order)) != len(order):
            raise PlanError(f"trie order has duplicates: {order}")
        self.order = order
        self.relation = relation if presorted else relation.sorted_by(order)
        self._levels = self._build_levels()
        self._reset_caches()

    @classmethod
    def from_sorted(cls, relation: Relation, order: Sequence[str]) -> "TrieIndex":
        """Index a relation that is *already* sorted by ``order``.

        The partitioning path: a contiguous row slice of a sorted relation
        is itself sorted, so a partition's index skips the ``lexsort`` and
        only pays the (vectorised, linear) run-boundary scan.
        """
        return cls(relation, order, presorted=True)

    def carried(
        self,
        relation: Relation,
        deletes: Relation | None,
        inserts: Relation | None,
    ) -> "TrieIndex":
        """This index moved to the next version of its relation.

        ``relation`` is this index's relation with ``deletes`` removed
        (per tuple, its lowest-indexed rows, as
        :meth:`~repro.data.relation.Relation.remove_rows` removes them) and
        ``inserts`` appended. The result is ``array_equal`` to
        ``TrieIndex(relation, order)`` and costs no sort of it: the
        deletes leave the sorted rows by lookup
        (:func:`~repro.data.keycodes.match_bag` — equal tuples sort in
        storage order, so the lowest-indexed ones go here too), and the
        sorted inserts enter where a stable sort of the appended relation
        puts them, after every row with an equal key: ``searchsorted(...,
        side="right")`` over order-preserving key codes. One linear copy
        per column, then :meth:`from_sorted`'s run scan.
        """
        names = relation.attribute_names
        columns = [self.relation.column(name) for name in names]
        if deletes is not None and deletes.num_rows:
            taken = match_bag(columns, [deletes.column(name) for name in names])[0]
            columns = [column[~taken] for column in columns]
        if inserts is not None and inserts.num_rows:
            n, added = len(columns[0]), inserts.num_rows
            comp, _coder = _composite_codes(
                [
                    np.concatenate((columns[names.index(a)], inserts.column(a)))
                    for a in self.order
                ]
            )
            if comp is None:  # no order attributes: every key is equal
                comp = np.zeros(n + added, dtype=np.int64)
            order = np.argsort(comp[n:], kind="stable")
            at = np.searchsorted(comp[:n], comp[n:][order], side="right")
            at += np.arange(added)
            kept = np.ones(n + added, dtype=bool)
            kept[at] = False
            merged = []
            for column, name in zip(columns, names):
                out = np.empty(n + added, dtype=column.dtype)
                out[kept] = column
                out[at] = inserts.column(name)[order]
                merged.append(out)
            columns = merged
        return TrieIndex.from_sorted(
            Relation(relation.schema, dict(zip(names, columns))), self.order
        )

    @classmethod
    def from_shared_parts(
        cls,
        relation: Relation,
        order: Sequence[str],
        levels: "list[TrieLevel]",
    ) -> "TrieIndex":
        """Assemble an index from an already-sorted relation and prebuilt levels.

        The shared-memory transport path (:mod:`repro.core.mpexec`): a
        worker process maps the parent's flat level arrays and sorted
        column buffers read-only and reassembles the index without paying
        the sort *or* the run-boundary scan — zero copies, zero pickling
        of relations. The caller owns the buffers' lifetime (the mapped
        segment must outlive the index). All derived caches (operand
        arrays, level lists) start empty and are recomputed per process,
        which is exactly the per-process warm-up the executor amortises
        across runs.
        """
        self = cls.__new__(cls)
        self.order = tuple(order)
        self.relation = relation
        self._levels = list(levels)
        self._reset_caches()
        return self

    def _reset_caches(self) -> None:
        """Empty every derived cache: the one list of them."""
        #: operand arrays (level-function values, prefix sums) by signature
        self._operands: dict[object, np.ndarray] = {}
        #: their Python-list views, by the same signature
        self._operand_lists: dict[object, list] = {}
        self._level_lists: dict[int, tuple[list, list, list, list, list]] = {}
        self._partition_cache: dict[int, list["TrieIndex"]] = {}
        #: distinct attribute values per level (:meth:`distinct_values`)
        self._distinct: dict[int, int] = {}
        #: least and greatest value per level (:meth:`value_span`)
        self._spans: dict[int, tuple[int, int] | None] = {}
        #: scratch cache for derived run geometry (parent maps, ancestor
        #: maps, span starts) computed by the NumPy backend — keyed and
        #: owned by repro.core.npbackend, invalidated with the index.
        self._np_cache: dict = {}

    def _build_levels(self) -> list[TrieLevel]:
        n = self.relation.num_rows
        levels: list[TrieLevel] = []
        if not self.order:
            return levels
        # boundaries[k] = sorted row indices where a new (a_0..a_k) prefix starts.
        change = np.zeros(n, dtype=bool)
        starts_per_level: list[np.ndarray] = []
        for name in self.order:
            col = self.relation.column(name)
            if n > 0:
                change[0] = True
                change[1:] |= col[1:] != col[:-1]
            starts_per_level.append(np.flatnonzero(change))
        row_counts = np.int64(n)
        for k, name in enumerate(self.order):
            starts = starts_per_level[k]
            ends = np.append(starts[1:], row_counts)
            col = self.relation.column(name)
            values = col[starts] if n > 0 else col[:0]
            if k + 1 < len(self.order):
                child_bounds = starts_per_level[k + 1]
                child_start = np.searchsorted(child_bounds, starts, side="left")
                child_end = np.searchsorted(child_bounds, ends, side="left")
            else:
                child_start = starts
                child_end = ends
            levels.append(
                TrieLevel(
                    attribute=name,
                    values=values,
                    row_start=starts,
                    row_end=ends,
                    child_start=child_start,
                    child_end=child_end,
                )
            )
        return levels

    # ---------------------------------------------------------------- accessors
    @property
    def levels(self) -> list[TrieLevel]:
        """Trie levels, outermost first."""
        return self._levels

    def level(self, k: int) -> TrieLevel:
        return self._levels[k]

    def distinct_values(self, k: int) -> int:
        """Number of distinct values of level ``k``'s attribute (cached).

        At level 0 every run is a distinct value; deeper, a value recurs
        under several prefixes. Counted by the key coder; the C backend
        sizes its hash output tables from these counts.
        """
        count = self._distinct.get(k)
        if count is None:
            count = self._distinct[k] = _group_codes([self._levels[k].values])[1]
        return count

    def value_span(self, k: int) -> tuple[int, int] | None:
        """``(least, greatest)`` value of level ``k``'s attribute (cached),
        ``None`` for an empty level. The C backend addresses an output's
        rows directly when its key parts' spans are narrow enough."""
        if k not in self._spans:
            values = self._levels[k].values
            self._spans[k] = (
                (int(values.min()), int(values.max())) if len(values) else None
            )
        return self._spans[k]

    @property
    def num_rows(self) -> int:
        return self.relation.num_rows

    def column(self, name: str) -> np.ndarray:
        """A column of the *sorted* relation."""
        return self.relation.column(name)

    # ------------------------------------------------------------- prefix sums
    def prefix_sum(
        self,
        signature: str,
        compute: Callable[[Relation], np.ndarray],
        keep: bool = True,
    ) -> np.ndarray:
        """Prefix-sum register for a row-level term, cached unless ``keep``
        is false.

        ``compute`` receives the sorted relation and returns one float per
        row (e.g. ``units * price`` or an indicator column). The returned
        array ``P`` has ``len+1`` entries with
        ``P[hi] - P[lo] == sum(term[lo:hi])``. Cached under ``signature``
        (see :meth:`operand_list`); a register built with ``keep=False``
        (one whose term holds a request's constant —
        :func:`repro.core.runtime.bind_operands`) is its caller's alone,
        so a stream of new constants leaves this index's caches as they
        were.
        """
        cached = self._operands.get(signature)
        if cached is not None:
            return cached
        term = np.asarray(compute(self.relation), dtype=np.float64)
        if term.shape != (self.relation.num_rows,):
            raise PlanError(
                f"prefix-sum term {signature!r} has shape {term.shape}, "
                f"expected ({self.relation.num_rows},)"
            )
        out = np.empty(len(term) + 1, dtype=np.float64)
        out[0] = 0.0
        np.cumsum(term, out=out[1:])
        out.setflags(write=False)
        if keep:
            self._operands[signature] = out
        return out

    # --------------------------------------------------------------- partitions
    def partitions(self, k: int) -> list["TrieIndex"]:
        """Slice this index into at most ``k`` disjoint sub-tries.

        Domain parallelism (paper §4): cuts are placed on **level-0 run
        boundaries**, balanced by row count, so each partition is a fully
        independent :class:`TrieIndex` over a contiguous range of the sorted
        relation and the *same* compiled group code runs unchanged over it.
        Because every level-0 run is a distinct value of the first order
        attribute, partitions have pairwise-disjoint level-0 value sets —
        the property the partial-aggregate merge relies on for aligned
        emissions. Partition indexes share the sorted relation's column
        buffers (zero copy) and reuse the partitioned-rebuild machinery of
        :meth:`from_sorted`.

        Returns ``[self]`` when the index cannot be split: ``k <= 1``, an
        empty attribute order, or fewer than two level-0 runs (including
        the empty relation). Never returns empty partitions. The result is
        cached per ``k``, so repeated executions over the same index (the
        decision-tree workload) also reuse every partition's prefix-sum
        registers and level lists.
        """
        if k <= 1 or not self._levels:
            return [self]
        level0 = self._levels[0]
        runs = level0.num_runs
        if runs <= 1:
            return [self]
        k = min(k, runs)
        cached = self._partition_cache.get(k)
        if cached is not None:
            return cached
        # Snap each row-count target to the nearest level-0 run boundary, so
        # partitions are balanced by rows (not runs) even under key skew.
        ends = level0.row_end
        cuts = []
        for i in range(1, k):
            target = (i * self.num_rows) // k
            at = int(np.searchsorted(ends, target, side="left"))
            lo = min(max(at, 1), runs - 1)
            hi = min(at + 1, runs - 1)
            near = abs(int(ends[lo - 1]) - target) <= abs(int(ends[hi - 1]) - target)
            cuts.append(lo if near else hi)
        bounds = [0, *dict.fromkeys(cuts), runs]
        if len(bounds) == 2:
            return [self]
        parts: list[TrieIndex] = []
        for lo_run, hi_run in zip(bounds, bounds[1:]):
            lo = int(level0.row_start[lo_run])
            hi = int(level0.row_end[hi_run - 1])
            parts.append(
                TrieIndex.from_sorted(self.relation.row_slice(lo, hi), self.order)
            )
        self._partition_cache[k] = parts
        return parts

    # ----------------------------------------------- interpreter/codegen views
    def level_lists(self, k: int) -> tuple[list, list, list, list, list]:
        """Level ``k`` arrays as plain Python lists (cached).

        Generated plan code runs per *distinct prefix* in pure Python;
        list indexing and native-int hashing are markedly faster there than
        numpy scalar access, so the runtime works off these lists.
        Returns ``(values, row_start, row_end, child_start, child_end)``.
        """
        cached = self._level_lists.get(k)
        if cached is None:
            lvl = self._levels[k]
            cached = (
                lvl.values.tolist(),
                lvl.row_start.tolist(),
                lvl.row_end.tolist(),
                lvl.child_start.tolist(),
                lvl.child_end.tolist(),
            )
            self._level_lists[k] = cached
        return cached

    def level_function_array(
        self,
        k: int,
        signature: str,
        compute: Callable[[np.ndarray], np.ndarray],
        keep: bool = True,
    ) -> np.ndarray:
        """``compute`` applied to the distinct values of level ``k``, cached
        unless ``keep`` is false.

        This materialises a per-run factor array: plans evaluate
        ``f(attr)`` once per distinct value, not once per row. The NumPy
        and C backends read the ndarray directly; the Python backend
        works off its :meth:`operand_list`. Cached under ``(k, signature)``;
        like a :meth:`prefix_sum` register, an array built with
        ``keep=False`` (an indicator holding a request's constant) is its
        caller's alone.
        """
        key = (k, signature)
        cached = self._operands.get(key)
        if cached is None:
            cached = np.ascontiguousarray(
                compute(self._levels[k].values), dtype=np.float64
            )
            cached.setflags(write=False)
            if keep:
                self._operands[key] = cached
        return cached

    def operand_list(self, key) -> list:
        """The operand array cached under ``key`` as a cached Python list
        (see :meth:`level_lists`): ``(k, signature)`` for a
        :meth:`level_function_array`, ``signature`` for a
        :meth:`prefix_sum`."""
        cached = self._operand_lists.get(key)
        if cached is None:
            cached = self._operand_lists[key] = self._operands[key].tolist()
        return cached

    def __repr__(self) -> str:
        runs = "x".join(str(lvl.num_runs) for lvl in self._levels)
        return f"TrieIndex({self.relation.name}, order={self.order}, runs={runs})"
