"""Code generation: determinism, options, carried blocks, guards."""

import pytest

from repro.core import EngineConfig, LMFAO
from repro.paper import FAVORITA_TREE, example_queries
from repro.query import Aggregate, Query, QueryBatch

from tests.helpers import assert_results_equal, oracle


def _compile(db, batch, **config):
    engine = LMFAO(db, EngineConfig(join_tree_edges=FAVORITA_TREE, **config))
    return engine, engine.compile(batch)


def test_codegen_is_deterministic(favorita_db):
    _, first = _compile(favorita_db, example_queries())
    _, second = _compile(favorita_db, example_queries())
    for a, b in zip(first.executables["python"], second.executables["python"]):
        assert a.source == b.source


def test_share_terms_off_still_correct(favorita_db, favorita_join):
    engine, compiled = _compile(
        favorita_db, example_queries(), share_scan_terms=False
    )
    run = engine.execute(compiled)
    for query in example_queries():
        assert_results_equal(run.results[query.name], oracle(favorita_join, query))
    # without sharing, no hoisted term variables are emitted
    sales_source = next(
        c.source
        for c in compiled.executables["python"]
        if "G" in c.plan.group_name and c.plan.node == "Sales"
    )
    assert "t0 =" not in sales_source


def test_carried_block_codegen(favorita_db, favorita_join):
    """Two-categorical query spanning relations exercises carried blocks."""
    query = Query(
        "cc", group_by=("class", "city"), aggregates=(Aggregate.count(),)
    )
    engine = LMFAO(favorita_db, EngineConfig(join_tree_edges=FAVORITA_TREE))
    run = engine.run(QueryBatch([query]))
    assert_results_equal(run.results["cc"], oracle(favorita_join, query))
    plans = run.compiled.plans
    assert any(plan.carried_blocks for plan in plans)


def test_support_guard_emitted_when_chain_descends(favorita_db):
    """V_S→I emits below its chain's anchor, so it must carry a support
    guard (otherwise empty-join keys would appear with value 0)."""
    _, compiled = _compile(favorita_db, example_queries())
    sales_plan = next(p for p in compiled.plans if p.node == "Sales" and p.bindings)
    view_emission = next(e for e in sales_plan.emissions if e.kind == "view")
    assert view_emission.slots[0].support is not None
    index = compiled.plans.index(sales_plan)
    assert "> 0:" in compiled.generated_source(index)


def test_generated_function_has_no_free_variables(favorita_db):
    """The generated source compiles in an empty namespace and only needs
    the env argument."""
    _, compiled = _compile(favorita_db, example_queries())
    for code in compiled.executables["python"]:
        namespace = {}
        exec(compile(code.source, "<test>", "exec"), namespace)
        assert callable(namespace["_run_group"])


def test_row_products_and_level_functions_recorded(favorita_db):
    batch = QueryBatch(
        [Query("q", aggregates=(Aggregate.sum("units"),))]
    )
    _, compiled = _compile(favorita_db, batch)
    plan = next(p for p in compiled.plans if p.node == "Sales")
    assert (("units", "id"),) in plan.row_products
