"""The demonstration scenario of Section 4, as a terminal walkthrough.

Mirrors the four tabs of the LMFAO demo UI (Figure 4):

  (a) View Generation — join tree annotated with per-direction view
      counts; view/output listing; root re-assignment;
  (b) View Groups — the group dependency graph (also exported as DOT);
  (c) Code Generation — the specialised code of a chosen group;
  (d) Application — runs the aggregate batch and reports timings.

Run:  python examples/demo_walkthrough.py [scale]
"""

from __future__ import annotations

import sys

from repro import EngineConfig, LMFAO, favorita
from repro.inspect import (
    render_dependency_dot,
    render_group_graph,
    render_join_tree,
    render_view_list,
)
from repro.ml import covariance_batch, favorita_features
from repro.paper import FAVORITA_TREE


def main(scale: float = 0.1) -> None:
    db = favorita(scale=scale, seed=17)
    spec = favorita_features(db)
    batch = covariance_batch(spec)
    print(
        f"== Input tab ==\ndatabase: favorita (scale={scale}), application: "
        f"linear regression\nbatch: {batch.num_aggregates} aggregates in "
        f"{len(batch)} queries\n"
    )

    engine = LMFAO(db, EngineConfig(join_tree_edges=FAVORITA_TREE))
    compiled = engine.compile(batch)

    print("== (a) View Generation tab ==")
    print(render_join_tree(engine.tree, compiled.view_plan))
    print(f"\n{compiled.num_views} merged views; outputs per root:")
    roots: dict[str, int] = {}
    for root in compiled.roots.values():
        roots[root] = roots.get(root, 0) + 1
    for root, count in sorted(roots.items()):
        print(f"  {root:<14} {count:>5} queries")
    print("\nviews computed at Sales:")
    print(render_view_list(compiled.view_plan, node="Sales") or "  (none)")

    print("\n== re-assigning a root (the drop-down interaction) ==")
    one_query = batch.queries[1].name
    pinned = LMFAO(
        db,
        EngineConfig(
            join_tree_edges=FAVORITA_TREE, root_override={one_query: "Items"}
        ),
    ).compile(batch)
    print(
        f"pinning {one_query} to Items: {compiled.num_views} -> "
        f"{pinned.num_views} views, {compiled.num_groups} -> "
        f"{pinned.num_groups} groups"
    )

    print("\n== (b) View Groups tab ==")
    print(render_group_graph(compiled.group_plan))
    dot = render_dependency_dot(compiled.group_plan)
    print(f"\n(DOT export: {len(dot.splitlines())} lines, render with graphviz)")

    print("\n== (c) Code Generation tab ==")
    largest = max(
        range(compiled.num_groups),
        key=lambda i: compiled.generated_source(i).count("\n"),
    )
    source = compiled.generated_source(largest)
    name = compiled.group_plan.groups[largest].name
    lines = source.splitlines()
    print(f"group {name}: {len(lines)} generated lines; first 30:")
    print("\n".join(lines[:30]))

    print("\n== (d) Application tab ==")
    run = engine.execute(compiled)
    print("aggregate computation timings:")
    for phase, seconds in run.timings.items():
        print(f"  {phase:<10} {seconds * 1e3:8.1f} ms")
    slowest = sorted(run.group_times.items(), key=lambda kv: -kv[1])[:5]
    print("slowest groups:")
    for group_name, seconds in slowest:
        print(f"  {group_name:<20} {seconds * 1e3:8.1f} ms")


if __name__ == "__main__":
    main(float(sys.argv[1]) if len(sys.argv) > 1 else 0.1)
