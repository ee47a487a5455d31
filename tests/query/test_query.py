"""Query and QueryResult semantics, plus batches."""

import pytest

from repro.query import Aggregate, Op, OrderSpec, Predicate, Query, QueryBatch
from repro.query.query import QueryResult
from repro.util.errors import QueryError


def test_query_attributes_cover_everything():
    q = Query(
        "q",
        group_by=("a",),
        aggregates=(Aggregate.sum("b"),),
        where=(Predicate("c", Op.LE, 5),),
    )
    assert q.attributes == ("a", "b", "c")


def test_query_validation(favorita_db):
    Query("q", group_by=("store",)).validate_against(favorita_db.schema)
    with pytest.raises(QueryError):
        Query("q", group_by=("nope",)).validate_against(favorita_db.schema)
    with pytest.raises(QueryError):
        Query("", group_by=("store",))
    with pytest.raises(QueryError):
        Query("q", group_by=("a", "a"))
    with pytest.raises(QueryError):
        Query("q", aggregates=())


@pytest.mark.parametrize("limit", [2.5, 2.0, "3", True])
def test_non_integer_limit_is_rejected_at_construction(limit):
    # a limit is part of the serving layer's coalescing identity, so it is
    # validated where the request is built, not at result finishing
    with pytest.raises(QueryError, match="limit must be an int"):
        Query("q", group_by=("a",), order_by=OrderSpec(), limit=limit)
    assert Query("q", group_by=("a",), order_by=OrderSpec(), limit=3).limit == 3


def test_query_result_scalar():
    q = Query("q")
    r = QueryResult(q, {(): (42.0,)})
    assert r.scalar() == 42.0
    assert QueryResult(q, {}).scalar() == 0.0
    grouped = Query("g", group_by=("a",))
    with pytest.raises(QueryError):
        QueryResult(grouped, {}).scalar()


def test_query_result_indexing():
    q = Query("q", group_by=("a",))
    r = QueryResult(q, {(3,): (1.0, 2.0)})
    assert r[3] == (1.0, 2.0)
    assert r[(3,)] == (1.0, 2.0)
    assert len(r) == 1


def test_batch_rejects_duplicates_and_empty():
    q = Query("q")
    with pytest.raises(QueryError):
        QueryBatch([q, Query("q", group_by=("a",))])
    with pytest.raises(QueryError):
        QueryBatch([])


def test_batch_aggregate_count():
    batch = QueryBatch(
        [
            Query("a", aggregates=(Aggregate.count(), Aggregate.sum("x"))),
            Query("b", aggregates=(Aggregate.count(),)),
        ]
    )
    assert batch.num_aggregates == 3
    assert len(batch) == 2
    assert "a" in batch and "c" not in batch
    with pytest.raises(QueryError):
        batch.query("c")


def test_predicate_evaluate_and_parse():
    import numpy as np

    p = Predicate("x", Op.parse("<>"), 2)
    assert p.op is Op.NE
    assert list(p.evaluate(np.array([1, 2, 3]))) == [True, False, True]
    with pytest.raises(QueryError):
        Op.parse("~~")
