"""F3 — Figure 3: the multi-output plan for Group 6.

Asserts the plan shape the paper draws (trie order item→date→store, shared
β between Q1 and V_S→I, one V_I→S lookup per item) and benchmarks the
execution of that single group, factorised versus unfactorised.
"""

from __future__ import annotations

import pytest

from repro.core import EngineConfig, LMFAO
from repro.paper import EXAMPLE_ROOTS, FAVORITA_TREE
from repro.query import Aggregate, Query, QueryBatch
from repro.query.aggregates import Factor
from repro.paper import g as g_fn, h as h_fn


def _figure3_batch() -> QueryBatch:
    q1 = Query("Q1", aggregates=(Aggregate.sum("units"),))
    q2 = Query(
        "Q2",
        group_by=("store",),
        aggregates=(Aggregate((Factor("item", g_fn), Factor("date", h_fn))),),
    )
    q3 = Query("Q3", group_by=("class",), aggregates=(Aggregate.sum("units"),))
    return QueryBatch([q1, q2, q3])


def _engine(db, **overrides):
    return LMFAO(
        db,
        EngineConfig(
            join_tree_edges=FAVORITA_TREE, root_override=EXAMPLE_ROOTS, **overrides
        ),
    )


@pytest.mark.parametrize("factorize", [True, False], ids=["factorized", "flat"])
def test_figure3_group_execution(benchmark, favorita_bench, factorize, report):
    engine = _engine(favorita_bench, factorize=factorize)
    compiled = engine.compile(_figure3_batch())
    run = benchmark.pedantic(
        lambda: engine.execute(compiled), rounds=5, iterations=1, warmup_rounds=1
    )

    sales_plan = next(
        p for i, p in enumerate(compiled.plans)
        if "Q1" in compiled.group_plan.groups[i].artifact_names
    )
    stats = sales_plan.statistics()
    if factorize:
        assert sales_plan.order == ("item", "date", "store")
        report("F3 Figure 3", "trie order (Group 6)", "item,date,store",
               ",".join(sales_plan.order))
        report("F3 Figure 3", "beta nodes (factorized)", "shared chains (β0-β3)",
               str(stats["beta_nodes"]))
        emissions = {e.artifact: e for e in sales_plan.emissions}
        q1_beta = emissions["Q1"].slots[0].beta
        view_name = next(a for a in emissions if "Sales_Items" in a)
        shared = sales_plan.betas[q1_beta].child == emissions[view_name].slots[0].beta
        report("F3 Figure 3", "Q1 and V_S→I share β1", "yes", "yes" if shared else "no")
        assert shared
    else:
        report("F3 Figure 3", "beta nodes (unfactorized)", "-", str(stats["beta_nodes"]))
