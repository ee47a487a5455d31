"""The one key coder: dense, order-preserving int64 codes for key columns.

NumPy's emissions and :func:`~repro.core.runtime.sum_by_key`, NumPy's
view probes and carried entry lists, C's carried entry order and every
distinct count code keys here. A column is coded by offset when it is
integral and its range is within the presence-scan bound
(:func:`_dense_enough`), else by rank among its sorted uniques; columns
combine in mixed radix into one composite (:func:`_composite_codes`).
The coding is recorded (:class:`KeyCoder`), so a probing level's columns
code into the same space, a value the producer lacks being a miss.
Grouping (:func:`_group_codes`) and lookup (:class:`KeyIndex`) use a
direct-address table while the space is within the bound, a sort or a
binary search beyond it; :func:`index_keys` builds one index per
distinct key-column content of a group. :func:`match_bag` matches tuples
as bags the same way: the wanted side is coded, the other side probes.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

#: composite key codes stay below this in int64: a radix step that would
#: reach it re-codes the running composite densely first.
_CODE_LIMIT = 2**62


def _dense_enough(space: int, n: int) -> bool:
    """The presence-scan bound: whether an O(space) table over ``n`` rows
    pays, for offset coding, grouping and probes alike."""
    return space <= max(4 * n, 1024)


class Coding(NamedTuple):
    """How one column was coded into ``[0, card)``: by offset ``lo``, or
    by rank among ``uniques`` when set."""

    card: int
    lo: int = 0
    uniques: np.ndarray | None = None

    def code(self, column: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Another column's codes in this space and a validity mask: a
        value outside ``[lo, lo + card)`` or absent from the uniques is a
        miss, coded 0 so composites stay in range."""
        if self.uniques is None:
            shifted = column - self.lo
            valid = (shifted >= 0) & (shifted < self.card)
            return np.where(valid, shifted, 0), valid
        pos = np.minimum(np.searchsorted(self.uniques, column), self.card - 1)
        valid = self.uniques[pos] == column
        return np.where(valid, pos, 0), valid


def _dense_codes(column: np.ndarray) -> tuple[np.ndarray, Coding]:
    """Non-negative int64 codes for one key column, plus its coding: a
    sort-free offset for a narrow integer column (categorical keys, the
    common case), else ``np.unique``'s sort."""
    if column.dtype.kind in "iu" and len(column):
        lo = int(column.min())
        span = int(column.max()) - lo + 1
        if _dense_enough(span, len(column)):
            return column.astype(np.int64) - lo, Coding(span, lo)
    uniques, inverse = np.unique(column, return_inverse=True)
    return inverse.astype(np.int64), Coding(max(len(uniques), 1), uniques=uniques)


class KeyCoder(NamedTuple):
    """How key columns became composites in ``[0, space)``: a
    ``(False, coding)`` step per column, and a ``(True, coding)`` step
    wherever the running composite was re-coded."""

    steps: tuple[tuple[bool, Coding], ...]
    space: int

    def code(self, columns: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        """Other key columns' composites in this space and a validity
        mask: a row misses when a value or a key prefix does."""
        valid = np.ones(len(columns[0]), dtype=bool)
        comp = None
        rest = iter(columns)
        for densify, coding in self.steps:
            codes, hit = coding.code(comp if densify else next(rest))
            valid &= hit
            comp = codes if comp is None or densify else comp * coding.card + codes
        return comp, valid


def _composite_codes(columns: list[np.ndarray]) -> tuple[np.ndarray | None, KeyCoder]:
    """Mixed-radix composite code per row, and the coder that made it.

    Before a radix step would pass :data:`_CODE_LIMIT`, the running
    composite is re-coded by :func:`_dense_codes`. The composite is
    **order-preserving** — every step maps larger values to larger codes
    — which is why every branch of :func:`_group_codes` enumerates groups
    in the same order. No columns give ``None`` in a space of one.
    """
    comp: np.ndarray | None = None
    space = 1
    steps: list[tuple[bool, Coding]] = []
    for column in columns:
        codes, coding = _dense_codes(column)
        if comp is not None and space * coding.card >= _CODE_LIMIT:
            comp, dense = _dense_codes(comp)
            steps.append((True, dense))
            space = dense.card
        steps.append((False, coding))
        comp = codes if comp is None else comp * coding.card + codes
        space *= coding.card
    return comp, KeyCoder(tuple(steps), space)


def _grouped(comp: np.ndarray | None, space: int) -> tuple[np.ndarray, int, np.ndarray]:
    """:func:`_group_codes` over composite codes already made."""
    n = 0 if comp is None else len(comp)
    if n == 0:
        return np.zeros(0, dtype=np.int64), 0, np.zeros(0, dtype=np.int64)
    if _dense_enough(space, n):
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


def _group_codes(columns: list[np.ndarray]) -> tuple[np.ndarray, int, np.ndarray]:
    """Group rows by their key tuple: ``(ids, num_keys, first_index)``.

    ``ids`` is a dense group id per row, ascending with the composite
    code (so groups enumerate in key order); ``first_index`` the first
    row of each group (so representative key values are
    ``column[first_index]``), and ``num_keys`` is the distinct count.
    Within the presence-scan bound the distinct codes come from an O(n)
    bincount presence scan; beyond it from a **packed value sort** —
    ``sort(comp * n + row_index)`` recovers a stable order via divmod,
    several times faster than an argsort — or, when that packing would
    overflow int64, a stable argsort. Every branch assigns the same ids
    and first rows (``np.unique``'s inverse and first occurrences).
    """
    comp, coder = _composite_codes(columns)
    return _grouped(comp, coder.space)


def _key_order(codes: np.ndarray) -> np.ndarray | None:
    """The stable order of rows by key, from their composites or group
    ids (both ascend in key order), or ``None`` when they already ascend."""
    if bool(np.all(codes[1:] >= codes[:-1])):
        return None
    return np.argsort(codes, kind="stable")


class KeyIndex:
    """Producer key columns grouped by key (``ids``, ``num_keys``,
    ``first_index`` as :func:`_group_codes` gives them) and ready to be
    probed: :meth:`lookup` codes probe columns into the producer's space
    and reads a direct-address table while that space is within the
    presence-scan bound of the producer's rows, else binary-searches the
    keys' ascending composites. O(rows) memory; read-only once built.

    ``distinct`` says the rows' keys are distinct (a scalar view keyed by
    exactly its group-by): within the bound the grouping is then skipped
    and key id ``i`` is row ``i``, so ids follow row order, not key order.
    """

    def __init__(self, columns: list[np.ndarray], distinct: bool = False) -> None:
        comp, self.coder = _composite_codes(columns)
        n = 0 if comp is None else len(comp)
        dense = _dense_enough(self.coder.space, n)
        if distinct and dense:
            self.ids = self.first_index = np.arange(n, dtype=np.int64)
            self.num_keys = n
        else:
            self.ids, self.num_keys, self.first_index = _grouped(comp, self.coder.space)
        self.key_comp = comp[self.first_index]
        self.table: np.ndarray | None = None
        if dense:
            self.table = np.full(self.coder.space, -1, dtype=np.int64)
            self.table[self.key_comp] = np.arange(self.num_keys, dtype=np.int64)

    def lookup(self, columns: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        """``(key id, found)`` per probe row; a miss has ``found=False``
        and key id 0."""
        n = len(columns[0])
        if self.num_keys == 0:
            return np.zeros(n, dtype=np.int64), np.zeros(n, dtype=bool)
        comp, found = self.coder.code(columns)
        if self.table is not None:
            key = self.table[comp]
            found &= key >= 0
        else:
            key = np.minimum(np.searchsorted(self.key_comp, comp), self.num_keys - 1)
            found &= self.key_comp[key] == comp
        return np.where(found, key, 0), found


def index_keys(
    columns: list[np.ndarray], distinct: bool = False, built: list | None = None
) -> KeyIndex:
    """The :class:`KeyIndex` of ``columns``: one already in ``built`` when
    it indexes equal columns (dtype and values) under the same
    ``distinct`` flag, else a new one, recorded there.

    ``built`` (``None``: no reuse) is one group's list, so the bindings of
    a group that share key-column content share one index.
    """
    if built is not None:
        for seen, flag, keys in built:
            if flag == distinct and len(seen) == len(columns) and all(
                a is b or a.dtype == b.dtype and np.array_equal(a, b)
                for a, b in zip(seen, columns)
            ):
                return keys
    keys = KeyIndex(columns, distinct)
    if built is not None:
        built.append((columns, distinct, keys))
    return keys


def _match_column(column: np.ndarray) -> np.ndarray:
    """A column as int64 values equal exactly where its values compare
    equal: a float column by the bits of its value, with ``-0.0`` folded
    into ``0.0`` and every NaN into one NaN (a NaN matches a NaN)."""
    if column.dtype.kind != "f":
        return column
    return np.where(np.isnan(column), np.nan, column + 0.0).view(np.int64)


def _occurrence(keys: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Each entry's occurrence number among the entries of its key, in
    index order (``counts`` is ``bincount(keys)``)."""
    order = np.argsort(keys, kind="stable")
    firsts = np.cumsum(counts) - counts
    rank = np.empty(len(keys), dtype=np.int64)
    rank[order] = np.arange(len(keys), dtype=np.int64) - firsts[keys[order]]
    return rank


def match_bag(
    rows: list[np.ndarray], wanted: list[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Match the ``wanted`` tuples against ``rows`` as bags, column-wise.

    A tuple wanted ``c`` times takes its ``c`` lowest-indexed equal rows
    (values compare as ``==``, and NaN matches NaN). Returns ``(taken,
    short)``: the mask of taken rows, and the mask of wanted occurrences
    left without a row — for each tuple, its last ones. The one bag
    matcher of the write path: staging's deletes
    (:meth:`~repro.data.relation.Relation.remove_rows`), a trie carried to
    the next version (:meth:`~repro.data.trie.TrieIndex.carried`) and a
    delete cancelling a pending insert
    (:func:`~repro.incremental.delta.coalesce_relation_deltas`).

    Nothing sorts ``rows``: the wanted tuples are coded once, each column
    of ``rows`` is coded only on the rows whose earlier columns all hold
    a wanted value, and those rows binary-search the wanted composites.
    O(|rows|) for the first column, O(|wanted| log |wanted|) besides.
    """
    taken = np.zeros(len(rows[0]), dtype=bool)
    if len(wanted[0]) == 0:
        return taken, np.zeros(0, dtype=bool)
    wanted = [_match_column(c) for c in wanted]
    comp, coder = _composite_codes(wanted)
    ids, num_keys, first_index = _grouped(comp, coder.space)
    key_comp = comp[first_index]
    # the coder's steps over the rows still in the running: a row leaves
    # at its first value (or key prefix) no wanted tuple holds
    hits = probe = None
    pairs = iter(zip(rows, wanted))
    for densify, coding in coder.steps:
        if densify:
            probe, hit = coding.code(probe)
        else:
            column, values = next(pairs)
            code, hit = coding.code(
                _match_column(column if hits is None else column[hits])
            )
            if coding.uniques is None:  # an offset range may hold gaps
                present = np.zeros(coding.card, dtype=bool)
                present[coding.code(values)[0]] = True
                hit &= present[code]
            probe = code if probe is None else probe * coding.card + code
        hits = np.flatnonzero(hit) if hits is None else hits[hit]
        probe = probe[hit]
    key = np.minimum(np.searchsorted(key_comp, probe), num_keys - 1)
    found = key_comp[key] == probe
    hits, key = hits[found], key[found]
    need = np.bincount(ids, minlength=num_keys)
    have = np.bincount(key, minlength=num_keys)
    taken[hits[_occurrence(key, have) < need[key]]] = True
    return taken, _occurrence(ids, need) >= have[ids]
