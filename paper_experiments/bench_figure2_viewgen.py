"""F2 — Figure 2: view generation and grouping on the running example.

Regenerates the exact structure of Figure 2 (six merged views, seven
groups, the dependency DAG) and benchmarks the view-generation +
grouping pipeline.
"""

from __future__ import annotations

from repro.core import EngineConfig, LMFAO
from repro.paper import EXAMPLE_ROOTS, FAVORITA_TREE, example_queries


def test_figure2_structure(benchmark, favorita_bench, report):
    engine = LMFAO(
        favorita_bench,
        EngineConfig(join_tree_edges=FAVORITA_TREE, root_override=EXAMPLE_ROOTS),
    )
    batch = example_queries()

    compiled = benchmark(engine.compile, batch)

    counts = compiled.view_plan.edge_view_counts()
    assert sum(counts.values()) == 6
    assert compiled.num_groups == 7
    assert compiled.roots == EXAMPLE_ROOTS
    edges = set(compiled.group_plan.dependency_edges())

    report("F2 Figure 2", "merged views for Q1-Q3", "6", str(sum(counts.values())))
    report("F2 Figure 2", "view groups", "7", str(compiled.num_groups))
    report("F2 Figure 2", "group dependency edges", "6", str(len(edges)))
    report(
        "F2 Figure 2",
        "roots (Q1,Q2,Q3)",
        "Sales,Sales,Items",
        ",".join(compiled.roots[q] for q in ("Q1", "Q2", "Q3")),
    )
