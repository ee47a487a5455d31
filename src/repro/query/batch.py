"""Query batches: the unit of optimisation in LMFAO."""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.data.schema import DatabaseSchema
from repro.query.query import Query
from repro.util.errors import QueryError


class QueryBatch:
    """An ordered collection of uniquely named queries optimised together."""

    def __init__(self, queries: Iterable[Query]) -> None:
        self._queries: dict[str, Query] = {}
        for query in queries:
            if query.name in self._queries:
                raise QueryError(f"duplicate query name {query.name!r} in batch")
            self._queries[query.name] = query
        if not self._queries:
            raise QueryError("batch must contain at least one query")

    @property
    def queries(self) -> tuple[Query, ...]:
        return tuple(self._queries.values())

    def query(self, name: str) -> Query:
        try:
            return self._queries[name]
        except KeyError:
            raise QueryError(f"no query named {name!r} in batch") from None

    def __iter__(self) -> Iterator[Query]:
        return iter(self._queries.values())

    def __len__(self) -> int:
        return len(self._queries)

    def __contains__(self, name: str) -> bool:
        return name in self._queries

    @property
    def num_aggregates(self) -> int:
        """Total aggregates across all queries — the paper's batch-size metric."""
        return sum(len(q.aggregates) for q in self._queries.values())

    @property
    def attributes(self) -> tuple[str, ...]:
        """All attributes referenced anywhere in the batch, first-seen order."""
        seen: dict[str, None] = {}
        for query in self._queries.values():
            seen.update(dict.fromkeys(query.attributes))
        return tuple(seen)

    def validate_against(self, schema: DatabaseSchema) -> None:
        for query in self._queries.values():
            query.validate_against(schema)

    def __repr__(self) -> str:
        return f"QueryBatch(queries={len(self)}, aggregates={self.num_aggregates})"
