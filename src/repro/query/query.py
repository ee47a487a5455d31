"""Group-by aggregate queries over the join of the database."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.data.schema import DatabaseSchema
from repro.query.aggregates import Aggregate, OrderSpec
from repro.query.predicates import Predicate
from repro.util.errors import QueryError


@dataclass(frozen=True)
class Query:
    """``SELECT group_by, aggregates FROM D [WHERE where] GROUP BY group_by``.

    ``D`` is always the natural join of every database relation — the
    feature-extraction join of the paper. A query may carry several
    aggregates (e.g. the CART triple ``SUM(1), SUM(Y), SUM(Y^2)``); all share
    the query's group-by and WHERE conjunction.

    Attributes
    ----------
    name:
        Unique name within a batch; results are keyed by it.
    group_by:
        Group-by attributes, output order preserved. Empty for scalar
        aggregates.
    aggregates:
        One or more sum-product aggregates.
    where:
        Conjunction of simple comparison predicates; empty means no filter.
    order_by:
        Optional :class:`~repro.query.aggregates.OrderSpec` ranking the
        result rows by one aggregate, per partition. Ordered results are
        *finished*: :attr:`QueryResult.groups` is insertion-ordered by
        the spec's deterministic total order (and truncated by
        ``limit``), identically on every backend and execution path.
    limit:
        Optional top-k cut *per partition* (requires ``order_by``), an
        ``int``; ``None`` keeps every row, ordered. ``0`` is allowed and
        yields an empty result.
    """

    name: str
    group_by: tuple[str, ...] = ()
    aggregates: tuple[Aggregate, ...] = (Aggregate.count(),)
    where: tuple[Predicate, ...] = ()
    order_by: OrderSpec | None = None
    limit: int | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise QueryError("query name must be non-empty")
        if not self.aggregates:
            raise QueryError(f"query {self.name} needs at least one aggregate")
        if len(set(self.group_by)) != len(self.group_by):
            raise QueryError(f"query {self.name} repeats group-by attributes")
        if self.limit is not None and self.order_by is None:
            raise QueryError(f"query {self.name}: limit requires order_by")
        if self.order_by is not None:
            if not self.group_by:
                raise QueryError(
                    f"query {self.name}: order_by needs a group-by "
                    f"(a scalar result has nothing to rank)"
                )
            if self.order_by.agg_index >= len(self.aggregates):
                raise QueryError(
                    f"query {self.name}: order_by.agg_index "
                    f"{self.order_by.agg_index} out of range for "
                    f"{len(self.aggregates)} aggregate(s)"
                )
            unknown = set(self.order_by.partition_by) - set(self.group_by)
            if unknown:
                raise QueryError(
                    f"query {self.name}: order_by.partition_by attributes "
                    f"{sorted(unknown)} are not in the group-by"
                )
        if self.limit is not None:
            if not isinstance(self.limit, int) or isinstance(self.limit, bool):
                raise QueryError(
                    f"query {self.name}: limit must be an int, "
                    f"not {type(self.limit).__name__}"
                )
            if self.limit < 0:
                raise QueryError(f"query {self.name}: limit must be >= 0")

    @property
    def is_ordered(self) -> bool:
        """Whether results are finished (ranked, possibly truncated)."""
        return self.order_by is not None

    @property
    def attributes(self) -> tuple[str, ...]:
        """All attributes the query touches (group-by, factors, predicates)."""
        seen: dict[str, None] = dict.fromkeys(self.group_by)
        for agg in self.aggregates:
            seen.update(dict.fromkeys(agg.attributes))
        for pred in self.where:
            seen.setdefault(pred.attribute, None)
        return tuple(seen)

    def validate_against(self, schema: DatabaseSchema) -> None:
        """Raise :class:`QueryError` on references to unknown attributes."""
        known = set(schema.all_attributes)
        for attr in self.attributes:
            if attr not in known:
                raise QueryError(f"query {self.name}: unknown attribute {attr!r}")

    def __repr__(self) -> str:
        parts = [f"Query({self.name}: SELECT "]
        select = list(self.group_by) + [repr(a) for a in self.aggregates]
        parts.append(", ".join(select))
        parts.append(" FROM D")
        if self.where:
            parts.append(" WHERE " + " AND ".join(repr(p) for p in self.where))
        if self.group_by:
            parts.append(" GROUP BY " + ", ".join(self.group_by))
        if self.order_by is not None:
            parts.append(" ORDER BY " + repr(self.order_by))
        if self.limit is not None:
            parts.append(f" LIMIT {self.limit}")
        parts.append(")")
        return "".join(parts)


@dataclass
class QueryResult:
    """The result of one query: group-by tuples mapped to aggregate vectors.

    For scalar queries (no group-by) the mapping has the single key ``()``.
    Aggregate values follow the order of ``Query.aggregates``.

    For **ordered** queries (``query.order_by`` set) the mapping is
    *finished*: insertion order follows the spec's deterministic total
    order (partitions ascending, rows ranked within each partition) and
    only the per-partition top-``limit`` rows survive. :meth:`ranked`
    and :meth:`topk` expose that order directly.
    """

    query: Query
    groups: dict[tuple, tuple[float, ...]] = field(default_factory=dict)

    def scalar(self, index: int = 0) -> float:
        """The value of a no-group-by aggregate (0.0 on empty join)."""
        if self.query.group_by:
            raise QueryError(f"query {self.query.name} is grouped; use groups")
        if not self.groups:
            return 0.0
        return self.groups[()][index]

    def __getitem__(self, key: object) -> tuple[float, ...]:
        if not isinstance(key, tuple):
            key = (key,)
        return self.groups[key]

    def ranked(self) -> list[tuple[tuple, tuple[float, ...]]]:
        """The finished rows in rank order (ordered queries only)."""
        if self.query.order_by is None:
            raise QueryError(
                f"query {self.query.name} has no order_by; groups are a bag"
            )
        return list(self.groups.items())

    def topk(self, partition: object = ()) -> list[tuple[tuple, tuple[float, ...]]]:
        """One partition's ranked rows (ordered queries only).

        ``partition`` is the partition-key tuple in ``partition_by``
        order (a bare value is wrapped; the default ``()`` reads the
        single global partition of an empty ``partition_by``).
        """
        if self.query.order_by is None:
            raise QueryError(
                f"query {self.query.name} has no order_by; groups are a bag"
            )
        if not isinstance(partition, tuple):
            partition = (partition,)
        positions = [
            self.query.group_by.index(a)
            for a in self.query.order_by.partition_by
        ]
        return [
            (key, values)
            for key, values in self.groups.items()
            if tuple(key[p] for p in positions) == partition
        ]

    def __len__(self) -> int:
        return len(self.groups)

    def __repr__(self) -> str:
        return f"QueryResult({self.query.name}, groups={len(self.groups)})"
