"""Unit tests of the ordered-emission finisher.

The differential grids (``test_ordered_grid.py``) anchor end-to-end
correctness; this file pins the pieces in isolation: the one finisher,
fed both raw containers — a dict and a columnar ``ArrayViewData`` —
against the independent ranking oracle on adversarial raw stores, with
each key's per-position types kept, the query-layer validation, and the
ordered accessors on :class:`QueryResult`.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import topk
from repro.core.runtime import ArrayViewData
from repro.query import Aggregate, Factor, OrderSpec, Query
from repro.query.functions import identity
from repro.util.errors import QueryError

from tests.oracle import rank_reference
from repro.query.query import QueryResult


def _query(group_by, *, agg_index=0, descending=True, partition_by=(), limit=None):
    return Query(
        "Q",
        group_by=group_by,
        aggregates=(Aggregate((Factor("x", identity),)), Aggregate.count()),
        order_by=OrderSpec(
            agg_index=agg_index, descending=descending, partition_by=partition_by
        ),
        limit=limit,
    )


def _columnar(raw: dict, width: int) -> ArrayViewData:
    """``raw`` as columns, as the NumPy backend emits it (mirror pending)."""
    keys = list(raw)
    return ArrayViewData.from_arrays(
        [np.array([k[i] for k in keys]) for i in range(len(keys[0]) if keys else 0)],
        np.array([list(raw[k]) for k in keys], dtype=np.float64).reshape(
            len(keys), width
        ),
    )


@st.composite
def raw_stores(draw):
    """Random raw group stores with dense keys and heavy value collisions;
    the middle key column holds floats (one of them integral)."""
    n = draw(st.integers(0, 40))
    keys = draw(
        st.lists(
            st.tuples(
                st.integers(0, 3),
                st.sampled_from([0.5, 1.25, 2.0, 3.75, 4.5]),
                st.integers(0, 3),
            ),
            min_size=n,
            max_size=n,
            unique=True,
        )
    )
    # values drawn from a tiny domain: ties everywhere, including the
    # all-equal extreme when the domain collapses
    lo = draw(st.integers(0, 2))
    hi = draw(st.integers(lo, lo + draw(st.sampled_from([0, 1, 3]))))
    return {
        k: (float(draw(st.integers(lo, hi))), float(draw(st.integers(1, 3))))
        for k in keys
    }


@given(
    raw=raw_stores(),
    limit=st.sampled_from([None, 0, 1, 2, 5, 100]),
    descending=st.booleans(),
    parts=st.integers(0, 2),
    agg_index=st.integers(0, 1),
)
@settings(max_examples=120, deadline=None)
def test_both_finishers_match_the_oracle(raw, limit, descending, parts, agg_index):
    """The finisher ≡ oracle as a sequence from a dict and from columns,
    and a finished key's per-position types do not depend on which."""
    group_by = ("a", "b", "c")
    query = _query(
        group_by,
        agg_index=agg_index,
        descending=descending,
        partition_by=group_by[:parts],
        limit=limit,
    )
    full = QueryResult(query=query, groups=dict(raw))
    want = list(rank_reference(query, full).groups.items())
    key_types = []
    for raw_variant in (raw, _columnar(raw, 2)):
        got = list(topk.finish_ordered(query, raw_variant).items())
        assert got == want, type(raw_variant).__name__
        key_types.append([tuple(map(type, key)) for key, _ in got])
    assert key_types[0] == key_types[1]
    assert set(key_types[0]) <= {(int, float, int)}


# --------------------------------------------------------------- query layer


def test_query_validation_rejects_bad_order_specs():
    agg = (Aggregate((Factor("x", identity),)),)
    with pytest.raises(QueryError):
        Query("Q", group_by=("a",), aggregates=agg, limit=3)  # limit w/o order
    with pytest.raises(QueryError):
        Query("Q", aggregates=agg, order_by=OrderSpec())  # scalar ordered
    with pytest.raises(QueryError):
        Query(
            "Q", group_by=("a",), aggregates=agg, order_by=OrderSpec(agg_index=7)
        )
    with pytest.raises(QueryError):
        Query(
            "Q",
            group_by=("a",),
            aggregates=agg,
            order_by=OrderSpec(partition_by=("zzz",)),
        )
    with pytest.raises(QueryError):
        Query(
            "Q", group_by=("a",), aggregates=agg, order_by=OrderSpec(), limit=-1
        )
    with pytest.raises(QueryError):
        OrderSpec(agg_index=-1)
    with pytest.raises(QueryError):
        OrderSpec(partition_by=("a", "a"))


def test_query_repr_and_signature_cover_order():
    q = _query(("a", "b"), partition_by=("a",), limit=5)
    assert "ORDER BY" in repr(q) and "LIMIT 5" in repr(q)
    assert q.is_ordered
    plain = Query("Q", group_by=("a",), aggregates=(Aggregate.count(),))
    assert not plain.is_ordered
    assert OrderSpec(agg_index=1).signature != OrderSpec(agg_index=0).signature


def test_query_result_ranked_and_topk_accessors():
    query = _query(("a", "b"), partition_by=("a",), limit=2)
    groups = {(0, 1): (9.0, 1.0), (0, 2): (5.0, 1.0), (1, 0): (7.0, 2.0)}
    result = QueryResult(query=query, groups=groups)
    assert result.ranked() == list(groups.items())
    assert result.topk(partition=(0,)) == [
        ((0, 1), (9.0, 1.0)),
        ((0, 2), (5.0, 1.0)),
    ]
    assert result.topk(partition=(1,)) == [((1, 0), (7.0, 2.0))]
    plain = QueryResult(
        query=Query("P", group_by=("a",), aggregates=(Aggregate.count(),)),
        groups={(0,): (1.0,)},
    )
    with pytest.raises(QueryError):
        plain.ranked()
