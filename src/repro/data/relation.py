"""Column-oriented relations backed by numpy arrays.

A :class:`Relation` is an immutable bag of tuples stored column-wise. All
engine operators (sort, select, project) return new relations sharing the
original column buffers where safe.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.data.keycodes import _group_codes, match_bag
from repro.data.schema import RelationSchema
from repro.data.types import coerce_column
from repro.util.errors import SchemaError


class Relation:
    """An immutable, column-stored relation instance of a schema."""

    def __init__(self, schema: RelationSchema, columns: Mapping[str, object]) -> None:
        self.schema = schema
        cols: dict[str, np.ndarray] = {}
        length: int | None = None
        for attr in schema.attributes:
            if attr.name not in columns:
                raise SchemaError(f"missing column {attr.name!r} for relation {schema.name}")
            col = coerce_column(columns[attr.name], attr.kind)
            if length is None:
                length = len(col)
            elif len(col) != length:
                raise SchemaError(
                    f"column {attr.name!r} has {len(col)} rows, expected {length}"
                )
            col.setflags(write=False)
            cols[attr.name] = col
        extra = set(columns) - set(cols)
        if extra:
            raise SchemaError(f"unknown columns for {schema.name}: {sorted(extra)}")
        self._columns = cols
        self._num_rows = length if length is not None else 0

    # ------------------------------------------------------------------ basics
    @property
    def name(self) -> str:
        """The relation's schema name."""
        return self.schema.name

    @property
    def num_rows(self) -> int:
        """Number of tuples (with duplicates)."""
        return self._num_rows

    def __len__(self) -> int:
        return self._num_rows

    @property
    def attribute_names(self) -> tuple[str, ...]:
        return self.schema.attribute_names

    def column(self, name: str) -> np.ndarray:
        """The (read-only) column array for ``name``."""
        try:
            return self._columns[name]
        except KeyError:
            raise SchemaError(f"relation {self.name} has no column {name!r}") from None

    def columns(self) -> dict[str, np.ndarray]:
        """All columns, keyed by attribute name."""
        return dict(self._columns)

    # -------------------------------------------------------------- constructors
    @staticmethod
    def from_rows(schema: RelationSchema, rows: Iterable[Sequence[object]]) -> "Relation":
        """Build a relation from an iterable of tuples in schema order."""
        rows = list(rows)
        names = schema.attribute_names
        if rows:
            width = len(rows[0])
            if width != len(names):
                raise SchemaError(
                    f"rows have {width} fields but {schema.name} has {len(names)} attributes"
                )
        columns = {
            name: [row[i] for row in rows] if rows else np.empty(0)
            for i, name in enumerate(names)
        }
        return Relation(schema, columns)

    def replace_columns(self, **columns: object) -> "Relation":
        """A copy of this relation with some columns replaced."""
        merged: dict[str, object] = dict(self._columns)
        merged.update(columns)
        return Relation(self.schema, merged)

    # ------------------------------------------------------------------ operators
    def take(self, indices: np.ndarray) -> "Relation":
        """Row subset / reorder by integer index array."""
        return Relation(
            self.schema, {name: col[indices] for name, col in self._columns.items()}
        )

    def row_slice(self, start: int, stop: int) -> "Relation":
        """The contiguous row range ``[start, stop)`` as a zero-copy view.

        Column buffers are shared with this relation (numpy slices), which
        is what makes trie partitioning cheap: a partition of a sorted
        relation is just a row range of it.
        """
        return Relation(
            self.schema, {name: col[start:stop] for name, col in self._columns.items()}
        )

    def filter(self, mask: np.ndarray) -> "Relation":
        """Row subset by boolean mask."""
        if mask.dtype != np.bool_ or len(mask) != self._num_rows:
            raise ValueError("mask must be a boolean array with one entry per row")
        return Relation(
            self.schema, {name: col[mask] for name, col in self._columns.items()}
        )

    def select(self, predicate: Callable[[dict[str, np.ndarray]], np.ndarray]) -> "Relation":
        """Filter by a vectorised predicate over the column dict."""
        return self.filter(np.asarray(predicate(self._columns), dtype=bool))

    def project(self, names: Sequence[str], distinct: bool = False) -> "Relation":
        """Project onto ``names`` (bag semantics unless ``distinct``)."""
        attrs = tuple(self.schema.attribute(n) for n in names)
        sub = RelationSchema(self.schema.name, attrs)
        rel = Relation(sub, {n: self._columns[n] for n in names})
        if distinct:
            order = rel.sorted_by(names)
            if order.num_rows == 0:
                return order
            # a row survives when ANY key column changed vs. the previous row
            keep = np.zeros(order.num_rows, dtype=bool)
            keep[0] = True
            for name in names:
                col = order.column(name)
                keep[1:] |= col[1:] != col[:-1]
            return order.filter(keep)
        return rel

    def sorted_by(self, names: Sequence[str]) -> "Relation":
        """Rows sorted lexicographically by ``names`` (stable)."""
        if self._num_rows == 0 or not names:
            return self
        keys = [self._columns[n] for n in reversed(list(names))]
        order = np.lexsort(keys)
        return self.take(order)

    def rename(self, new_name: str) -> "Relation":
        """Same data under a different relation name."""
        schema = RelationSchema(new_name, self.schema.attributes)
        return Relation(schema, dict(self._columns))

    # ------------------------------------------------------------------ updates
    def concat(self, other: "Relation") -> "Relation":
        """Append another instance of the same schema (bag union).

        The incremental-maintenance append path: inserted tuples arrive as a
        delta relation and are concatenated column-wise. Attribute names and
        order must match; the result keeps this relation's schema.
        """
        if other.attribute_names != self.attribute_names:
            raise SchemaError(
                f"cannot append {other.name} to {self.name}: attributes "
                f"{other.attribute_names} != {self.attribute_names}"
            )
        if other.num_rows == 0:
            return self
        return Relation(
            self.schema,
            {
                name: np.concatenate([self._columns[name], other.column(name)])
                for name in self.attribute_names
            },
        )

    def remove_rows(self, other: "Relation") -> "Relation":
        """Remove one occurrence per tuple of ``other`` (bag difference).

        The incremental-maintenance tombstone path: each delete tuple marks
        exactly one matching row, the lowest-indexed one still unmarked;
        duplicates in ``other`` remove that many occurrences. Matched by
        lookup (:func:`~repro.data.keycodes.match_bag`): this relation is
        never sorted. Raises :class:`SchemaError` when a tuple has no
        remaining match — a delete of a non-existent row is always a bug in
        the caller's delta, never silently ignored.
        """
        if other.attribute_names != self.attribute_names:
            raise SchemaError(
                f"cannot delete {other.name} rows from {self.name}: attributes "
                f"{other.attribute_names} != {self.attribute_names}"
            )
        if other.num_rows == 0:
            return self
        names = self.attribute_names
        taken, short = match_bag(
            [self._columns[n] for n in names], [other.column(n) for n in names]
        )
        if short.any():
            raise SchemaError(
                f"delete from {self.name}: {int(short.sum())} tuple(s) not "
                f"present, e.g. {other.row(int(np.argmax(short)))}"
            )
        return self.filter(~taken)

    # ------------------------------------------------------------------- access
    def iter_rows(self) -> Iterator[tuple[object, ...]]:
        """Iterate tuples in storage order (testing / small data only)."""
        cols = [self._columns[n] for n in self.attribute_names]
        for i in range(self._num_rows):
            yield tuple(col[i].item() for col in cols)

    def row(self, i: int) -> tuple[object, ...]:
        """The ``i``-th tuple."""
        return tuple(self._columns[n][i].item() for n in self.attribute_names)

    def distinct_count(self, name: str) -> int:
        """Number of distinct values in a column, counted by the key coder."""
        return _group_codes([self._columns[name]])[1]

    def __eq__(self, other: object) -> bool:
        """Bag equality: same schema and same multiset of tuples."""
        if not isinstance(other, Relation):
            return NotImplemented
        if self.schema.attribute_names != other.schema.attribute_names:
            return False
        if self.num_rows != other.num_rows:
            return False
        names = self.attribute_names
        a = self.sorted_by(names)
        b = other.sorted_by(names)
        return all(
            np.array_equal(a.column(n), b.column(n)) for n in names
        )

    def __hash__(self) -> int:  # pragma: no cover - relations are not hashable
        raise TypeError("Relation is unhashable")

    def __repr__(self) -> str:
        return f"Relation({self.name}, rows={self.num_rows}, attrs={self.attribute_names})"
