"""Structural fingerprint semantics: what hits, what misses, what rebinds.

The contract under test (docs/serving.md §Keying rules): two batches share
a fingerprint iff the compiled artefacts of one execute the other exactly
after constant rebinding — changed *constants* hit, changed *shapes* miss,
and changed constant-equality *partitions* miss (they would change
indicator deduplication, hence plan structure).
"""

import pytest

from repro.core import EngineConfig, LMFAO
from repro.paper import FAVORITA_TREE
from repro.query import Aggregate, Factor, Op, Predicate, Query, QueryBatch
from repro.serve import batch_fingerprint, bind_batch
from repro.util.errors import PlanError


def _engine(db, **kwargs):
    return LMFAO(db, EngineConfig(join_tree_edges=FAVORITA_TREE, **kwargs))


def _batch(t_units=3.0, t_item=10.0, op=Op.LE, group_by=("store",), name="Q2"):
    return QueryBatch(
        [
            Query(
                "Q1",
                aggregates=(Aggregate.sum("units"),),
                where=(Predicate("units", op, t_units),),
            ),
            Query(
                name,
                group_by=group_by,
                aggregates=(Aggregate.sum("units"), Aggregate.count()),
                where=(
                    Predicate("units", op, t_units),
                    Predicate("item", Op.GE, t_item),
                ),
            ),
        ]
    )


def _fp(engine, batch):
    return batch_fingerprint(batch, engine.tree, engine.config)


# ----------------------------------------------------------------- equality
def test_identical_batches_fingerprint_equal(favorita_db):
    engine = _engine(favorita_db)
    fp1, c1 = _fp(engine, _batch())
    fp2, c2 = _fp(engine, _batch())
    assert fp1 == fp2 and c1 == c2
    assert hash(fp1) == hash(fp2)


def test_changed_constants_fingerprint_equal_constants_differ(favorita_db):
    """The cache's raison d'être: same shape, new thresholds → hit."""
    engine = _engine(favorita_db)
    fp1, c1 = _fp(engine, _batch(t_units=3.0, t_item=10.0))
    fp2, c2 = _fp(engine, _batch(t_units=7.0, t_item=25.0))
    assert fp1 == fp2
    assert c1 != c2
    assert c1 == (("<=", 3.0), (">=", 10.0))
    assert c2 == (("<=", 7.0), (">=", 25.0))


# --------------------------------------------------------------- inequality
def test_changed_predicate_op_fingerprints_differ(favorita_db):
    engine = _engine(favorita_db)
    assert _fp(engine, _batch(op=Op.LE))[0] != _fp(engine, _batch(op=Op.LT))[0]


def test_changed_group_by_and_query_name_fingerprints_differ(favorita_db):
    engine = _engine(favorita_db)
    base = _fp(engine, _batch())[0]
    assert base != _fp(engine, _batch(group_by=("item",)))[0]
    assert base != _fp(engine, _batch(name="Q2b"))[0]


def test_changed_aggregate_shape_fingerprints_differ(favorita_db):
    engine = _engine(favorita_db)
    squared = QueryBatch(
        [
            Query(
                "Q1",
                aggregates=(
                    Aggregate.product((Factor("units"), Factor("units"))),
                ),
                where=(Predicate("units", Op.LE, 3.0),),
            )
        ]
    )
    plain = QueryBatch(
        [
            Query(
                "Q1",
                aggregates=(Aggregate.sum("units"),),
                where=(Predicate("units", Op.LE, 3.0),),
            )
        ]
    )
    assert _fp(engine, squared)[0] != _fp(engine, plain)[0]


def test_constant_equality_partition_enters_the_fingerprint(favorita_db):
    """(5, 9) vs (7, 7): distinct constants collapsing to one value change
    indicator deduplication, hence plan structure — must be a miss."""
    engine = _engine(favorita_db)

    def pair(a, b):
        return QueryBatch(
            [
                Query(
                    "Q",
                    aggregates=(Aggregate.count(),),
                    where=(
                        Predicate("units", Op.LE, a),
                        Predicate("item", Op.LE, b),
                    ),
                )
            ]
        )

    fp_distinct, _ = _fp(engine, pair(5.0, 9.0))
    fp_collided, _ = _fp(engine, pair(7.0, 7.0))
    fp_distinct2, _ = _fp(engine, pair(2.0, 11.0))
    assert fp_distinct != fp_collided
    assert fp_distinct == fp_distinct2  # both two-distinct-constant shapes


def test_config_and_tree_enter_the_fingerprint(favorita_db):
    # pin both backends explicitly: the CI legs rewrite EngineConfig
    # defaults (tests/conftest.py), so a default-vs-numpy comparison
    # would collapse under LMFAO_TEST_BACKEND=numpy
    e1 = _engine(favorita_db, backend="python")
    e2 = _engine(favorita_db, backend="numpy")
    e3 = LMFAO(favorita_db)  # constructed (not pinned) join tree
    batch = _batch()
    assert _fp(e1, batch)[0] != _fp(e2, batch)[0]
    if e3.tree.edges != e1.tree.edges:
        assert _fp(e1, batch)[0] != (
            batch_fingerprint(batch, e3.tree, e1.config)[0]
        )


# ----------------------------------------------------------------- binding
def test_bind_batch_maps_indicator_slots_to_request_functions(favorita_db):
    engine = _engine(favorita_db)
    cached = engine.compile(_batch(t_units=3.0, t_item=10.0))
    rebound = bind_batch(cached, _batch(t_units=7.0, t_item=25.0))
    # the cached slot names key the request's functions
    assert rebound.functions["ind[<=3]"].name == "ind[<=7]"
    assert rebound.functions["ind[>=10]"].name == "ind[>=25]"
    # non-indicator functions pass through untouched
    assert rebound.functions["id"] is cached.functions["id"]


def test_bind_batch_is_identity_on_equal_constants(favorita_db):
    engine = _engine(favorita_db)
    cached = engine.compile(_batch())
    rebound = bind_batch(cached, _batch())
    assert rebound.functions == cached.functions


def test_bind_batch_rejects_shape_divergence(favorita_db):
    engine = _engine(favorita_db)
    cached = engine.compile(_batch())
    with pytest.raises(PlanError, match="fingerprints should have differed"):
        bind_batch(cached, _batch(op=Op.LT))
