"""Degenerate inputs and failure injection."""

import numpy as np
import pytest

from repro.core import EngineConfig, LMFAO
from repro.data import Attribute, Database, Relation, RelationSchema
from repro.query import Aggregate, Op, Predicate, Query, QueryBatch
from repro.util.errors import PlanError, QueryError

C = Attribute.categorical
F = Attribute.continuous


def _single_relation_db():
    rel = Relation(
        RelationSchema("R", (C("a"), C("b"), F("x"))),
        {"a": [1, 1, 2, 2], "b": [1, 2, 1, 2], "x": [1.0, 2.0, 3.0, 4.0]},
    )
    return Database([rel])


def test_single_relation_database():
    """No join tree edges, no views — pure multi-output over one relation."""
    db = _single_relation_db()
    run = LMFAO(db).run(
        QueryBatch(
            [
                Query("total", aggregates=(Aggregate.sum("x"),)),
                Query("by_a", group_by=("a",), aggregates=(Aggregate.count(),)),
                Query("by_ab", group_by=("a", "b"), aggregates=(Aggregate.sum("x"),)),
            ]
        )
    )
    assert run.compiled.num_views == 0
    assert run.results["total"].scalar() == 10.0
    assert run.results["by_a"].groups == {(1,): (2.0,), (2,): (2.0,)}
    assert run.results["by_ab"].groups[(2, 2)] == (4.0,)


def test_where_eliminates_everything():
    db = _single_relation_db()
    run = LMFAO(db).run(
        QueryBatch(
            [
                Query(
                    "none",
                    group_by=("a",),
                    aggregates=(Aggregate.sum("x"),),
                    where=(Predicate("x", Op.GT, 100.0),),
                )
            ]
        )
    )
    # indicator semantics: groups survive with zeroed sums
    assert all(v == (0.0,) for v in run.results["none"].groups.values())


def test_group_by_whole_key_one_row_per_group():
    db = _single_relation_db()
    run = LMFAO(db).run(
        QueryBatch(
            [Query("q", group_by=("a", "b"), aggregates=(Aggregate.count(),))]
        )
    )
    assert all(v == (1.0,) for v in run.results["q"].groups.values())
    assert len(run.results["q"].groups) == 4


def test_duplicate_heavy_data():
    """All rows identical: one run per level, counts carry multiplicity."""
    rel = Relation(
        RelationSchema("R", (C("a"), F("x"))),
        {"a": np.ones(50, dtype=np.int64), "x": np.full(50, 2.0)},
    )
    db = Database([rel])
    run = LMFAO(db).run(
        QueryBatch([Query("q", group_by=("a",), aggregates=(Aggregate.sum("x"),))])
    )
    assert run.results["q"].groups == {(1,): (100.0,)}


def test_unknown_backend_is_rejected(favorita_db):
    from repro.paper import example_queries

    # rejected up front, at engine construction …
    with pytest.raises(PlanError):
        LMFAO(favorita_db, EngineConfig(backend="rust"))
    # … and again at compile time if the config was swapped afterwards
    engine = LMFAO(favorita_db, EngineConfig())
    engine.config = EngineConfig(backend="rust")
    with pytest.raises(PlanError):
        engine.compile(example_queries())


def test_missing_view_data_raises(favorita_db, favorita_engine):
    """Executing a group without its inputs is an internal error, loudly."""
    from repro.core.runtime import execute_plan
    from repro.data import TrieIndex
    from repro.paper import example_queries

    compiled = favorita_engine.compile(example_queries())
    index = next(i for i, p in enumerate(compiled.plans) if p.bindings)
    plan = compiled.plans[index]
    trie = TrieIndex(favorita_db.relation(plan.node), plan.order)
    with pytest.raises(PlanError):
        execute_plan(
            compiled.python[index],
            trie,
            view_data={},
            view_group_by={},
            functions=compiled.functions,
        )


def test_batch_with_hundreds_of_scalar_aggregates():
    """Wide merged views: hundreds of aggregates through one group."""
    db = _single_relation_db()
    from repro.query.aggregates import Factor

    queries = [
        Query(
            f"q{i}",
            aggregates=(Aggregate.sum("x").with_factor(Factor("a")),),
            where=(Predicate("x", Op.LE, float(i)),),
        )
        for i in range(150)
    ]
    run = LMFAO(db).run(QueryBatch(queries))
    # q4 and beyond see all rows: sum(a*x) = 1+2+6+8 = 17
    assert run.results["q149"].scalar() == 17.0
    assert run.results["q0"].scalar() == 0.0
