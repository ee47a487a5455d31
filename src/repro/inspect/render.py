"""Render engine internals as text (the demonstration's Figure 4 tabs).

The interactive demo lets users inspect (a) the join tree annotated with
view counts per direction, (b) the view groups and their dependency graph,
(c) the generated code per group, and (d) application timings. All of those
artefacts exist on :class:`repro.core.engine.CompiledBatch`; this module
renders them for terminals, plus Graphviz DOT output for the dependency
graph.
"""

from __future__ import annotations

from repro.core.engine import CompiledBatch
from repro.core.groups import GroupPlan
from repro.core.viewgen import ViewPlan
from repro.jointree.jointree import JoinTree


def render_join_tree(
    tree: JoinTree, view_plan: ViewPlan | None = None, root: str | None = None
) -> str:
    """ASCII join tree; with a view plan, edges show per-direction view counts."""
    root = root or tree.nodes[0]
    counts = view_plan.edge_view_counts() if view_plan is not None else {}
    lines: list[str] = []

    def label(child: str, parent: str) -> str:
        up = counts.get((child, parent), 0)
        down = counts.get((parent, child), 0)
        decorations = []
        if up:
            decorations.append(f"{up}↑")
        if down:
            decorations.append(f"{down}↓")
        return f" [{' '.join(decorations)}]" if decorations else ""

    def visit(node: str, parent: str | None, prefix: str, last: bool) -> None:
        if parent is None:
            lines.append(node)
        else:
            connector = "`-- " if last else "|-- "
            lines.append(f"{prefix}{connector}{node}{label(node, parent)}")
        children = [n for n in tree.neighbors(node) if n != parent]
        for i, child in enumerate(children):
            extension = "    " if (last or parent is None) else "|   "
            child_prefix = prefix + ("" if parent is None else extension)
            visit(child, node, child_prefix, i == len(children) - 1)

    visit(root, None, "", True)
    return "\n".join(lines)


def render_view_list(view_plan: ViewPlan, node: str | None = None) -> str:
    """The views (optionally only those computed at ``node``) with users."""
    lines = []
    for view in view_plan.views.values():
        if node is not None and view.source != node:
            continue
        users = ", ".join(view_plan.queries_using.get(view.name, ()))
        gb = ", ".join(view.group_by)
        lines.append(
            f"{view.name}: {view.source} -> {view.target}  "
            f"group by [{gb}]  aggregates={view.num_aggregates}  used by {users}"
        )
    for output in view_plan.outputs:
        if node is not None and output.node != node:
            continue
        gb = ", ".join(output.group_by)
        lines.append(
            f"{output.name}: output at {output.node}  group by [{gb}]  "
            f"aggregates={len(output.aggregates)}"
        )
    return "\n".join(lines)


def render_group_graph(group_plan: GroupPlan) -> str:
    """The group dependency DAG as indented text."""
    lines = []
    for group in group_plan.groups:
        deps = group_plan.dependencies.get(group.index, ())
        dep_names = ", ".join(group_plan.groups[d].name for d in deps) or "-"
        artifacts = ", ".join(group.artifact_names)
        lines.append(f"{group.name}: [{artifacts}]  depends on: {dep_names}")
    return "\n".join(lines)


def render_dependency_dot(group_plan: GroupPlan) -> str:
    """Graphviz DOT source for the group dependency graph (Figure 2, right)."""
    lines = ["digraph lmfao_groups {", "  rankdir=BT;"]
    for group in group_plan.groups:
        artifacts = "\\n".join(group.artifact_names)
        lines.append(f'  {group.name} [shape=box, label="{group.name}\\n{artifacts}"];')
    for producer, consumer in group_plan.dependency_edges():
        lines.append(f"  {producer} -> {consumer};")
    lines.append("}")
    return "\n".join(lines)


def describe_compiled_batch(compiled: CompiledBatch) -> str:
    """A full multi-section report over one compiled batch."""
    sections = []
    sections.append("== Join tree (views per direction) ==")
    sections.append(render_join_tree(compiled.tree, compiled.view_plan))
    sections.append("")
    sections.append("== Root assignment ==")
    for name, root in compiled.roots.items():
        sections.append(f"  {name} -> {root}")
    sections.append("")
    sections.append(
        f"== Views ({compiled.num_views}) and outputs ({len(compiled.view_plan.outputs)}) =="
    )
    sections.append(render_view_list(compiled.view_plan))
    sections.append("")
    sections.append(f"== Groups ({compiled.num_groups}) ==")
    sections.append(render_group_graph(compiled.group_plan))
    sections.append("")
    sections.append("== Generated code sizes ==")
    for index, group in enumerate(compiled.group_plan.groups):
        loc = compiled.generated_source(index).count("\n")
        sections.append(f"  {group.name}: {loc} generated lines")
    return "\n".join(sections)
