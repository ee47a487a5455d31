"""Ordered top-k under maintenance: maintained handle vs recompute oracle.

Deletes are the hard case for truncated results: a row evicted from the
top-k by an earlier round must *reappear* when the rows above it are
deleted — information a result-only maintainer would have forgotten.
The maintainer keeps the full raw store per ordered query precisely for
this, and finishes a changed one afresh through the engine's one result
seam (:func:`repro.core.engine._to_query_result`). Every test here is
differential: after each apply the handle's finished results must equal
a from-scratch engine over the current database **as a sequence** (rank
and tie order included), under insert-only, delete-only and mixed delta
rounds, and through the server's group-committed write path where
several queued deltas coalesce into one refresh. The CI write leg runs
this module under ``LMFAO_DEBUG=1``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import EngineConfig, LMFAO
from repro.data import Attribute, Database, Relation, RelationSchema
from repro.query import Aggregate, Factor, OrderSpec, Query, QueryBatch
from repro.query.functions import identity
from repro.serve import AggregateServer

from tests.oracle import assert_ordered_equal, ordered_oracle

_C = Attribute.categorical
_F = Attribute.continuous


def _db(n=600, seed=21):
    rng = np.random.default_rng(seed)
    fact = Relation(
        RelationSchema("Fact", (_C("k"), _C("g"), _C("h"), _F("x"))),
        {
            "k": rng.integers(0, 20, n),
            "g": rng.integers(0, 5, n),
            "h": rng.integers(0, 4, n),
            "x": rng.integers(-3, 7, n).astype(float),
        },
    )
    dim = Relation(
        RelationSchema("Dim", (_C("k"), _C("w"), _F("z"))),
        {
            "k": np.arange(20),
            "w": rng.integers(0, 4, 20),
            "z": rng.integers(1, 5, 20).astype(float),
        },
    )
    return Database([fact, dim])


def _batch():
    return QueryBatch(
        [
            Query(
                "topk_gh",
                group_by=("g", "h"),
                aggregates=(
                    Aggregate((Factor("x", identity),)),
                    Aggregate.count(),
                ),
                order_by=OrderSpec(
                    agg_index=0, descending=True, partition_by=("g",)
                ),
                limit=2,
            ),
            Query(
                "ordered_h",
                group_by=("h",),
                aggregates=(Aggregate((Factor("x", identity),)),),
                order_by=OrderSpec(agg_index=0, descending=False),
            ),
            Query(
                "plain_g",
                group_by=("g",),
                aggregates=(Aggregate.count(),),
            ),
        ]
    )


def _insert(rng, count=25):
    return {
        "Fact": {
            "k": rng.integers(0, 20, count),
            "g": rng.integers(0, 5, count),
            "h": rng.integers(0, 4, count),
            "x": rng.integers(-3, 7, count).astype(float),
        }
    }


def _assert_handle_matches_recompute(handle):
    fresh = handle.recompute()
    join = handle.db.materialize_join()
    for query in handle.compiled.batch:
        got = handle[query.name]
        want = fresh.results[query.name]
        if query.is_ordered:
            assert list(got.groups.items()) == list(want.groups.items()), (
                f"{query.name}: maintained order diverged from recompute"
            )
            assert_ordered_equal(got, ordered_oracle(join, query))
        else:
            assert got.groups == want.groups


@pytest.mark.parametrize("mode", ["auto", "rescan"])
def test_ordered_maintained_equals_recompute_over_mixed_rounds(mode):
    engine = LMFAO(_db(), EngineConfig(incremental_mode=mode))
    handle = engine.maintain(_batch())
    rng = np.random.default_rng(99)
    for step in range(5):
        kind = ("insert", "delete", "mixed", "insert", "mixed")[step]
        if kind == "insert":
            outcome = handle.apply(inserts=_insert(rng))
        else:
            fact = handle.db.relation("Fact")
            mask = np.zeros(len(fact), dtype=bool)
            victims = rng.choice(len(fact), size=min(15, len(fact)), replace=False)
            mask[victims] = True
            if kind == "delete":
                outcome = handle.apply(deletes={"Fact": mask})
            else:
                outcome = handle.apply(
                    inserts=_insert(rng), deletes={"Fact": mask}
                )
        assert outcome.version == step + 1
        _assert_handle_matches_recompute(handle)


def test_delete_resurrects_evicted_rows():
    """A key pushed out of the top-k must come back when its betters go.

    Partition g=0 has three h-groups with sums 30 > 20 > 10; at k=2 the
    sum-10 group is evicted. Deleting the sum-30 rows must bring it back
    — bit-placed, not merely present.
    """
    rows = []
    for h, (copies, each) in enumerate([(3, 10.0), (2, 10.0), (1, 10.0)]):
        rows += [(h, 0, h, each)] * copies  # k joins Dim below
    fact = Relation(
        RelationSchema("Fact", (_C("k"), _C("g"), _C("h"), _F("x"))),
        {
            "k": np.array([r[0] for r in rows]),
            "g": np.array([r[1] for r in rows]),
            "h": np.array([r[2] for r in rows]),
            "x": np.array([r[3] for r in rows]),
        },
    )
    dim = Relation(
        RelationSchema("Dim", (_C("k"), _C("w"))),
        {"k": np.arange(3), "w": np.zeros(3, dtype=int)},
    )
    engine = LMFAO(Database([fact, dim]), EngineConfig(incremental_mode="auto"))
    batch = QueryBatch(
        [
            Query(
                "top2",
                group_by=("g", "h"),
                aggregates=(Aggregate((Factor("x", identity),)),),
                order_by=OrderSpec(
                    agg_index=0, descending=True, partition_by=("g",)
                ),
                limit=2,
            )
        ]
    )
    handle = engine.maintain(batch)
    assert [k for k, _ in handle["top2"].ranked()] == [(0, 0), (0, 1)]
    mask = fact.column("h") == 0  # delete every sum-30 row
    handle.apply(deletes={"Fact": mask})
    assert [k for k, _ in handle["top2"].ranked()] == [(0, 1), (0, 2)]
    _assert_handle_matches_recompute(handle)


def test_ordered_through_group_committed_write_queue():
    """Server-routed handle: coalesced group commits refresh ordered
    results identically to applying each delta sequentially."""
    db = _db(n=300, seed=4)
    batch = _batch()
    with AggregateServer(db, EngineConfig()) as server:
        handle = server.maintain(batch)
        rng = np.random.default_rng(7)
        deltas = [_insert(rng, 10) for _ in range(4)]
        for delta in deltas:
            handle.apply(inserts=delta)
        fact = server.engine.snapshot().db.relation("Fact")
        mask = np.zeros(len(fact), dtype=bool)
        mask[:20] = True
        handle.apply(deletes={"Fact": mask})
        _assert_handle_matches_recompute(handle)
        # sequential oracle: same deltas, one at a time, fresh engine
        oracle_engine = LMFAO(db, EngineConfig())
        oracle_handle = oracle_engine.maintain(batch)
        for delta in deltas:
            oracle_handle.apply(inserts=delta)
        oracle_handle.apply(deletes={"Fact": mask})
        for query in batch:
            if query.is_ordered:
                assert list(handle[query.name].groups.items()) == list(
                    oracle_handle[query.name].groups.items()
                )
