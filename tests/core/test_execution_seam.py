"""The group-execution seam stays a seam: one step, one walk, one delta run.

Structural guard (an ``ast`` walk over ``src/repro``, no execution): the
decisions that make up "run one group over one trie" — partition
fan-out, the recorded cost-model decision, the trie-order check, the
one preparation of a group's tables and the per-partition execute —
each have exactly one call site, inside the engine's group step
(:meth:`repro.core.engine.LMFAO.execute_group`), plus the process
executor's worker-local combine. Every compiled group's ``execute``
takes ``(trie, tables, functions)``. The step's one caller is the DAG
walk (:meth:`repro.core.engine.LMFAO.walk_groups`), which walks runs and
maintained rounds alike: nothing under ``incremental/`` walks the
execution order or steps a group itself, and the one ad hoc trie a
group steps over is a round's trie of inserted tuples. The serving
layer never reaches the step: it imports no execution primitive from
:mod:`repro.core.runtime`, nothing from :mod:`repro.incremental.rules`,
and touches no engine private of the step.

Below the step, the same holds for compilation: a plan is lowered once
and keeps its lowering, every γ/β/slot product's operands are resolved
once, by that lowering, the loop nest of a lowered plan is walked in one
place (:mod:`repro.core.loopnest`; the source backends are emitters of
it), the NumPy backend executes the same slot groups and operand tuples
the walker emits with one emission path, every backend fetches its
operand arrays through one binder
(:func:`repro.core.runtime.bind_operands`), every backend's compiler is
called from one place (:func:`repro.core.runtime.compile_executables`),
gcc is spawned to compile and a shared object loaded in one place each
(:mod:`repro.core.cbackend`), and the runtime drives one compiled-group
protocol instead of branching on a native/Python pair.

Kernels choose their algorithm from the data they hold: NumPy has one
grouper and the top-k layer one columnar finisher, and neither the cost
model nor a forcing environment variable picks between variants.

An ordered result is finished in one place: the engine's result seam
(:func:`repro.core.engine._to_query_result`) is the only caller of
:func:`repro.core.topk.finish_ordered`, which reads any raw container
through the one dict → columns conversion and keeps no heap kernel
beside its columnar one. Maintained handles finish their dirty queries
through the same seam: nothing under ``incremental/`` imports the top-k
layer or builds a ``QueryResult`` of its own, and the delta merge
reports no per-key change set. Ordering is known to the finisher alone:
no emission, emission mode, view signature or group-cache key carries
it, and in the serving layer it enters only the request identity
:func:`repro.serve.fingerprint.batch_fingerprint` returns beside the
structural key.

A view is its columns: :class:`~repro.core.runtime.ArrayViewData` has no
base class and keeps no second copy of its contents, and one function
(:func:`repro.core.runtime.as_mapping`) turns its columns into a dict.
Views are summed per key by one kernel,
:func:`repro.core.runtime.sum_by_key`, which the partition merge, the
delta merge and NumPy's stacked slot groups call, and no code but the
one dict → columns conversion asks whether a view is a dict.

Keys are coded one way (:mod:`repro.data.keycodes`): the NumPy probes,
the carried entry lists on both backends and every distinct count go
through the coder the emissions group with, and neither backend sorts,
searches or uniques keys itself.

C sizes its open-addressing output tables by one rule
(:func:`repro.core.cbackend._table_capacity`), from the output's key
bound, and collects a hash output as its dense rows, never by gathering
the occupied slots. Whether an output is addressed directly instead is
the key coder's presence-scan bound, read in one place; C adds no size
constant for it, and one emitter leaf writes every accumulated row.

An incoming view is indexed one way for both native backends: NumPy and
C probe the same binding tables
(:func:`repro.core.runtime.prepare_binding_tables`), which get one
:class:`~repro.data.keycodes.KeyIndex` per distinct key-column content
from the key coder (:func:`~repro.data.keycodes.index_keys`, its only
builder); C reads their recorded coding through one lookup in its
prelude, codes a level's key once however many bindings probe it, and
hashes no binding keys.

A group's backend is decided one way: at compile, by
:func:`repro.core.runtime.compile_executables`, which returns one
compiled group per plan; a run reads it and never re-selects.
A group is planned and compiled in one place, the engine's group-cache
miss path (:meth:`repro.core.engine.LMFAO._plan_groups`), and every cache
is an instance of the one :class:`repro.util.lru.LRUCache`.

A ``WHERE`` predicate reaches execution one way: folded into an indicator
factor at compile time, re-bound on a plan-cache hit. Nothing below the
query layer evaluates a predicate against a column. A request's constants
reach the engine one way too: in the ``CompiledBatch`` it executes, which
on a plan-cache hit is the cached one copied with the request's batch and
functions; nothing rides beside it.

A write reaches the store one way: the engine's commit
(:meth:`repro.core.engine.LMFAO.commit`) builds the successor snapshot,
advances every maintained handle, installs and flips them; a direct
handle apply and the server's group commit both call it.

A snapshot version has one lifetime, owned by the engine's snapshot
store: reader pins live there and nowhere else, the process executor
keeps no pin table of its own, and a version's shared-memory segments
are dropped from one place (the engine's reclaim of a dead version —
the store's GC hook, or a commit that failed before its install). The
DAG walk knows no executor; only the group step ships work to one.

CART asks the engine for one batch per tree node, from one call site,
and picks splits from the columns of its results.

One behavioural check rides along: compilation pays only for the code a
run uses — a group's Python is generated when it first runs on Python or
its source is read, once, whichever thread gets there first.
"""

from __future__ import annotations

import ast
import dataclasses
import sys
import threading
import time
from functools import cache
from pathlib import Path

import repro
from repro.core import EngineConfig, LMFAO
from repro.core.cbackend import _PRELUDE, generate_c_source
from repro.core.engine import ViewSeeds
from repro.paper import FAVORITA_TREE, example_queries
from repro.serve import view_identities

from tests.core.test_source_identity import DIGESTS, _corpus, source_digest
from tests.helpers import walk_all

SRC = Path(repro.__file__).resolve().parent


@cache
def _modules() -> dict[str, ast.Module]:
    return {
        path.relative_to(SRC).as_posix(): ast.parse(path.read_text())
        for path in sorted(SRC.rglob("*.py"))
    }


def _call_sites(name: str) -> list[str]:
    """``file:line`` of every call whose callee is (an attribute) ``name``."""
    sites = []
    for module, tree in _modules().items():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            callee = node.func
            called = (
                callee.id if isinstance(callee, ast.Name)
                else callee.attr if isinstance(callee, ast.Attribute)
                else None
            )
            if called == name:
                sites.append(f"{module}:{node.lineno}")
    return sites


def test_group_step_owns_every_execution_decision():
    for name in ("partition_tries", "group_decision"):
        sites = _call_sites(name)
        assert len(sites) == 1, f"{name} called from {sites}"
        assert sites[0].startswith("core/engine.py:"), sites


def _enclosing(matches) -> list[str]:
    """``file:function`` of the innermost function around every node for
    which ``matches(node)`` holds."""
    sites = []

    def visit(node, module: str, function: str | None) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if matches(node):
            sites.append(f"{module}:{function}")
        for child in ast.iter_child_nodes(node):
            visit(child, module, function)

    for module, tree in _modules().items():
        visit(tree, module, None)
    return sites


def _enclosing_functions(name: str) -> list[str]:
    """``file:function`` of the innermost function around every call whose
    callee is (an attribute) ``name``."""
    return _enclosing(
        lambda node: isinstance(node, ast.Call) and _called_name(node) == name
    )


def test_one_predicate_path():
    # a predicate becomes an indicator at compile time and on a plan-cache
    # rebind, nowhere else
    assert sorted(set(_enclosing_functions("as_indicator"))) == [
        "core/engine.py:_fold_predicates", "serve/fingerprint.py:bind_batch",
    ]
    # and no execution layer filters rows by one
    for module, tree in _modules().items():
        if not module.startswith(("core/", "incremental/", "serve/")):
            continue
        for node in ast.walk(tree):
            assert not (
                isinstance(node, ast.Call) and _called_name(node) == "evaluate"
            ), f"{module}:{node.lineno} evaluates a predicate"
            named = (
                node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute)
                else node.arg if isinstance(node, (ast.arg, ast.keyword))
                else node.name if isinstance(node, ast.FunctionDef)
                else None
            )
            assert named != "shared_predicates", f"{module}:{node.lineno}"


def _node_names(node: ast.AST) -> tuple[str, ...]:
    """The identifiers one ``ast`` node introduces or refers to."""
    if isinstance(node, ast.Name):
        return (node.id,)
    if isinstance(node, ast.Attribute):
        return (node.attr,)
    if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
        return (node.name,)
    if isinstance(node, ast.alias):
        return (node.name, node.asname or node.name)
    if isinstance(node, ast.arg):
        return (node.arg,)
    return ()


def _definition(
    module: str, name: str, kind=ast.FunctionDef, inside: str | None = None
):
    scope = _modules()[module]
    if inside is not None:
        scope = next(
            node for node in ast.walk(scope)
            if isinstance(node, ast.ClassDef) and node.name == inside
        )
    return next(
        node for node in ast.walk(scope)
        if isinstance(node, kind) and node.name == name
    )


def test_one_compiled_batch_per_request():
    # no side object carries a request's constants beside its compilation
    for module, tree in _modules().items():
        for node in ast.walk(tree):
            assert "PlanBinding" not in _node_names(node), f"{module}:{node.lineno}"
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                assert "PlanBinding" not in node.value, f"{module}:{node.lineno}"
    for module, name, inside in (
        ("core/engine.py", "execute", "LMFAO"),
        ("core/engine.py", "_execute_pinned", "LMFAO"),
        ("serve/fingerprint.py", "view_identities", None),
        ("serve/server.py", "_view_seeds", "AggregateServer"),
    ):
        args = _definition(module, name, inside=inside).args
        params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        assert "binding" not in params, f"{module}:{name} takes a binding"
    group_run = _definition("core/engine.py", "GroupRun", ast.ClassDef)
    fields = {
        node.target.id for node in group_run.body
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
    }
    assert "functions" not in fields and "compiled" in fields, fields
    # a CompiledBatch is built by compile() and copied by bind_batch alone
    assert _enclosing_functions("CompiledBatch") == ["core/engine.py:compile"]
    copies = []

    def visit(node, module: str, function: str | None) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if (
            isinstance(node, ast.Call)
            and _called_name(node) in {"replace", "copy", "deepcopy"}
            and node.args
            and "compiled" in _node_names(node.args[0])
        ):
            copies.append(f"{module}:{function}")
        for child in ast.iter_child_nodes(node):
            visit(child, module, function)

    for module, tree in _modules().items():
        visit(tree, module, None)
    assert copies == ["serve/fingerprint.py:bind_batch"], copies


_RETIRED_SELECTION = (
    "select_executable", "choose_backend", "_select_native",
    "native_group_count", "GeneratedPython",
)


def test_backend_decided_at_compile():
    # a group's backend is fixed when the batch compiles: no run-time
    # selector, no per-backend table keyed by a backend name
    for module, tree in _modules().items():
        for node in ast.walk(tree):
            texts = list(_node_names(node))
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                texts.append(node.value)
            for name in _RETIRED_SELECTION:
                assert not any(name in text for text in texts), (
                    f"{module}:{getattr(node, 'lineno', '?')} names {name}"
                )
            if (
                isinstance(node, ast.Subscript)
                and "executables" in _node_names(node.value)
                and isinstance(node.slice, ast.Constant)
                and isinstance(node.slice.value, str)
            ):
                raise AssertionError(
                    f"{module}:{node.lineno} indexes executables by backend name"
                )


def test_one_commit_path():
    for name in ("with_relations", "install", "_advance_state", "_commit_state"):
        assert _enclosing_functions(name) == ["core/engine.py:commit"], name
    # a trie is carried to the next version only by the successor snapshot
    # the commit builds, and one bag matcher serves every delete match
    assert _enclosing_functions("carried") == ["core/snapshot.py:with_relations"]
    assert sorted(_enclosing_functions("match_bag")) == [
        "data/relation.py:remove_rows", "data/trie.py:carried",
        "incremental/delta.py:_cancel_inserts",
    ]
    for module, tree in _modules().items():
        for node in ast.walk(tree):
            assert not (
                isinstance(node, ast.Attribute) and node.attr == "rec"
            ), f"{module}:{node.lineno} packs rows into a record array"
    for module, tree in _modules().items():
        for node in ast.walk(tree):
            named = (
                node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute)
                else node.name if isinstance(node, ast.FunctionDef)
                else None
            )
            assert named != "stage_deltas", f"{module}:{node.lineno}"


def test_one_version_lifetime():
    executor = {f.name for f in _functions("core/mpexec.py")}
    assert not executor & {"retain", "release", "_collect_locked"}, executor
    pins = [
        f"{module}:{node.lineno}"
        for module, tree in _modules().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "_pins"
    ]
    assert pins and {site.split(":")[0] for site in pins} == {
        "core/snapshot.py"
    }, pins
    assert _enclosing_functions("drop_version") == [
        "core/engine.py:_reclaim_snapshot_version"
    ]
    (walk,) = [f for f in _functions("core/engine.py") if f.name == "walk_groups"]
    # (it reads config.executor only to pick its scheduler)
    names = {n.id for n in ast.walk(walk) if isinstance(n, ast.Name)}
    attrs = {n.attr for n in ast.walk(walk) if isinstance(n, ast.Attribute)}
    assert "executor" not in names, names
    assert not attrs & {"_process_executor", "_mpexec", "retain", "release"}


def _receiver(call: ast.Call) -> str | None:
    """The name an attribute call is made on: ``group`` for
    ``group.execute(...)``, ``engine`` for ``self.engine.execute(...)``."""
    if not isinstance(call.func, ast.Attribute):
        return None
    return next(iter(_node_names(call.func.value)), None)


def _compiled_groups() -> list[tuple[str, ast.ClassDef]]:
    """``(module, class)`` of every compiled group: the classes that
    implement the protocol's ``prepare_bindings``."""
    return [
        (module, node)
        for module, tree in _modules().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        and "prepare_bindings" in {
            f.name for f in node.body if isinstance(f, ast.FunctionDef)
        }
    ]


def test_partitioned_execute_has_two_homes():
    # a compiled group meets its partitions in the group step's calls and
    # in the worker-local combine, and both prepare its tables once there
    for name in ("prepare_bindings", "execute"):
        homes = sorted({
            f"{module}:{function}"
            for module, function, call in _calls_in_functions(name)
            if name == "prepare_bindings" or _receiver(call) == "group"
        })
        assert homes == [
            "core/engine.py:_group_tasks", "core/mpexec.py:_worker_main",
        ], (name, homes)


def _calls_in_functions(name: str) -> list[tuple[str, str | None, ast.Call]]:
    """``(module, innermost function, call)`` of every call to ``name``."""
    found = []

    def visit(node, module: str, function: str | None) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call) and _called_name(node) == name:
            found.append((module, function, node))
        for child in ast.iter_child_nodes(node):
            visit(child, module, function)

    for module, tree in _modules().items():
        visit(tree, module, None)
    return found


def test_one_dag_walk_for_runs_and_rounds():
    # the engine's group step runs only inside the DAG walk; the other
    # execute_group is the process executor's, which only the step's
    # shipping call reaches
    steps = sorted(
        (f"{module}:{function}", _receiver(call))
        for module, function, call in _calls_in_functions("execute_group")
    )
    assert steps == [
        ("core/engine.py:_ship_group", "executor"),
        ("core/engine.py:walk_groups", "self"),
    ], steps
    # every compiled group executes over a trie and the tables the group
    # step prepared, and nothing else calls a compiled group's execute:
    # every other ``execute`` call runs a compiled batch on an engine
    groups = sorted(f"{module}:{cls.name}" for module, cls in _compiled_groups())
    assert groups == [
        "core/cbackend.py:CCompiledGroup",
        "core/codegen.py:CompiledGroup",
        "core/npbackend.py:NumpyCompiledGroup",
    ], groups
    for module, cls in _compiled_groups():
        execute = _definition(module, "execute", inside=cls.name)
        assert [a.arg for a in execute.args.posonlyargs + execute.args.args] == [
            "self", "trie", "tables", "functions",
        ], f"{module}:{cls.name}.execute"
        assert not execute.args.kwonlyargs and not execute.args.defaults
        assert execute.args.vararg is None and execute.args.kwarg is None
    for module, function, call in _calls_in_functions("execute"):
        if _receiver(call) == "group":
            continue
        assert call.args and _node_names(call.args[0]) == ("compiled",), (
            f"{module}:{call.lineno} calls execute on {_receiver(call)}"
        )
    # a maintained round is a run of that walk: nothing under incremental/
    # walks the execution order or steps a group itself
    for module, tree in _modules().items():
        if not module.startswith("incremental/"):
            continue
        for node in ast.walk(tree):
            assert not (
                isinstance(node, ast.Attribute) and node.attr == "execution_order"
            ), f"{module}:{node.lineno} reads the execution order"
            assert not (
                isinstance(node, ast.Call)
                and _called_name(node) in {"execute_group", "_group_tasks"}
            ), f"{module}:{node.lineno} steps a group"


def test_one_cache_entry_constructor():
    # delta code runs in maintained rounds only: the one ad hoc trie a
    # group steps over is the round's trie of inserted tuples (the other
    # trie build is the snapshot memo's); the view cache carries or drops
    # its entries and has no updater to build
    builds = sorted(
        f"{module}:{function}"
        for module, function, _call in _calls_in_functions("TrieIndex")
    )
    assert builds == ["core/runtime.py:node_trie", "incremental/maintain.py:step"], (
        builds
    )
    assert _call_sites("ViewUpdater") == []


def test_serving_layer_stays_above_the_seam():
    for module, tree in _modules().items():
        if not module.startswith("serve/"):
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module:
                if node.module == "repro.core.runtime":
                    imported = {alias.name for alias in node.names}
                    assert imported <= {"estimate_view_bytes"}, (
                        f"{module} imports {sorted(imported)} from the runtime"
                    )
                assert node.module != "repro.data.trie", module
                assert node.module != "repro.incremental.rules", module
            if isinstance(node, ast.Attribute):
                assert not node.attr.startswith(
                    ("_execute_", "_partition_", "_group_tasks", "_ship_group")
                ) or (
                    # the server's own request entry point
                    module == "serve/server.py"
                    and node.attr == "_execute_pinned"
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"
                ), f"{module}:{node.lineno} reaches {node.attr}"


def _called_name(call: ast.Call) -> str | None:
    callee = call.func
    if isinstance(callee, ast.Name):
        return callee.id
    return callee.attr if isinstance(callee, ast.Attribute) else None


def _functions(module: str) -> list[ast.FunctionDef]:
    return [
        node for node in ast.walk(_modules()[module])
        if isinstance(node, ast.FunctionDef)
    ]


def test_one_loop_nest_walker():
    # the level recursion lives in the walker; the source backends hold
    # syntax leaves only — nothing in them recurses
    homes = [
        module for module in _modules()
        for function in _functions(module) if function.name == "emit_loops"
    ]
    assert homes == ["core/loopnest.py"], homes
    for module in ("core/codegen.py", "core/cbackend.py"):
        recursive = [
            function.name
            for function in _functions(module)
            if not function.name.startswith("__")
            and any(
                isinstance(node, ast.Call) and _called_name(node) == function.name
                for node in ast.walk(function)
            )
        ]
        assert not recursive, f"{module} recurses in {recursive}"
    writers = [
        f"{module}:{node.name}"
        for module, tree in _modules().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and node.name.endswith("Writer")
    ]
    assert writers == ["core/loopnest.py:SourceWriter"], writers


def _attribute_reads(module: str, attr: str) -> list[str]:
    return [
        f"{module}:{node.lineno}"
        for node in ast.walk(_modules()[module])
        if isinstance(node, ast.Attribute) and node.attr == attr
    ]


def test_numpy_executes_the_lowered_slot_groups():
    # each plan is lowered once, by the plan itself, for every backend
    lowerings = _call_sites("lower_plan")
    assert [site.split(":")[0] for site in lowerings] == ["core/plan.py"], lowerings
    # a level hosts one tuple of slot groups, aligned emissions included
    assert not [
        site for module in _modules()
        for site in _attribute_reads(module, "aligned_emissions")
    ]
    # NumPy: one function building the columnar outputs, and no slot
    # partition of its own — the slot groups come from the lowering
    numpy = "core/npbackend.py"
    builders = [
        function.name for function in _functions(numpy)
        if any(
            isinstance(node, ast.Call) and _called_name(node) == "from_arrays"
            for node in ast.walk(function)
        )
    ]
    assert builders == ["_output"], builders
    assert not _attribute_reads(numpy, "has_carried_keys")
    for node in ast.walk(_modules()[numpy]):
        if isinstance(node, ast.Call) and _called_name(node) != "_emission_mask":
            assert not any(
                isinstance(arg, ast.Attribute) and arg.attr == "support"
                for arg in node.args
            ), f"{numpy}:{node.lineno} partitions slots by support"


def _bound_signature_sites() -> list[str]:
    """``file:line`` of every f-string ``f"{<function>.name}({attr})"``:
    the trie-cache signature of a bound function applied to an attribute."""

    def named(part, name: str) -> bool:
        value = getattr(part, "value", None)
        return isinstance(part, ast.FormattedValue) and (
            isinstance(value, ast.Attribute) and value.attr == name
            or isinstance(value, ast.Name) and value.id == name
        )

    sites = []
    for module, tree in _modules().items():
        for node in ast.walk(tree):
            if not isinstance(node, ast.JoinedStr):
                continue
            parts = node.values
            for i in range(len(parts) - 3):
                func, opening, attr, closing = parts[i:i + 4]
                if (
                    named(func, "name") and named(attr, "attr")
                    and isinstance(opening, ast.Constant) and opening.value == "("
                    and isinstance(closing, ast.Constant)
                    and str(closing.value).startswith(")")
                ):
                    sites.append(f"{module}:{node.lineno}")
    return sites


def test_one_operand_resolution():
    # the lowering is the only place a Term becomes an operand; the walker
    # joins operand expressions and NumPy multiplies operand arrays over
    # the same lowered tuples, and neither knows a term class
    dispatches = [
        f"{module}:{node.lineno}"
        for module, tree in _modules().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and _called_name(node) == "isinstance"
        and any(
            isinstance(arg, ast.Name) and arg.id == "FactorTerm"
            for arg in node.args[1:]
        )
    ]
    assert [site.split(":")[0] for site in dispatches] == ["core/lowering.py"], (
        dispatches
    )
    for module in ("core/loopnest.py", "core/npbackend.py"):
        imported = {
            alias.name
            for node in ast.walk(_modules()[module])
            if isinstance(node, ast.ImportFrom)
            for alias in node.names
        }
        assert not {name for name in imported if name.endswith("Term")}, module
        # no operand order rebuilt: no node's terms / parent / child, no
        # slot's γ / β / carried factors read (``self.parent`` is NumPy's
        # run geometry, not a γ node's)
        rebuilt = [
            f"{module}:{node.lineno} reads .{node.attr}"
            for node in ast.walk(_modules()[module])
            if isinstance(node, ast.Attribute)
            and node.attr in {
                "terms", "parent", "child", "gamma", "beta", "carried_factors",
            }
            and not (isinstance(node.value, ast.Name) and node.value.id == "self")
        ]
        assert not rebuilt, rebuilt
    # the bound-function trie-cache signature has one home, reached only
    # through the binder every backend fetches its F<i> / P<j> arrays from
    signatures = _bound_signature_sites()
    assert len(signatures) == 1 and signatures[0].startswith("core/runtime.py:"), (
        signatures
    )
    products = _call_sites("_product_signature")
    assert len(products) == 1 and products[0].startswith("core/runtime.py:"), products
    binders = sorted(site.split(":")[0] for site in _call_sites("bind_operands"))
    assert binders == [
        "core/cbackend.py", "core/codegen.py", "core/npbackend.py",
    ], binders


def test_one_compiled_group_protocol():
    for name in ("compile_c_groups", "compile_numpy_groups", "generate_group"):
        sites = _call_sites(name)
        assert len(sites) == 1, f"{name} called from {sites}"
        assert sites[0].startswith("core/runtime.py:"), sites
    # the runtime drives the protocol: no module-level binding dispatcher,
    # no executable-or-None pair left to branch on
    runtime = _modules()["core/runtime.py"]
    assert "prepare_bindings" not in {f.name for f in _functions("core/runtime.py")}
    for node in ast.walk(runtime):
        if isinstance(node, ast.Compare) and isinstance(node.left, ast.Name):
            assert node.left.id != "native", f"core/runtime.py:{node.lineno}"


def test_python_generated_only_when_run(favorita_db, monkeypatch):
    # the generated-Python table builds a group when it first runs on
    # Python or its source is read — once, however many threads ask
    from repro.core import codegen

    made: list = []
    generate = codegen.generate_group

    def counted(plan, share_terms=True):
        made.append(plan)
        time.sleep(0.002)  # hold the build open for racing first uses
        return generate(plan, share_terms=share_terms)

    monkeypatch.setattr(codegen, "generate_group", counted)

    def engine(backend: str) -> LMFAO:
        return LMFAO(favorita_db, EngineConfig(
            join_tree_edges=FAVORITA_TREE, backend=backend,
            executor="thread", workers=1, partitions=1,
        ))

    def built(compiled) -> list[int]:
        return sorted(
            index for index, plan in enumerate(compiled.plans)
            for made_plan in made if made_plan is plan
        )

    # NumPy runs every group: compile + execute generate no Python
    numpy = engine("numpy")
    compiled = numpy.compile(example_queries())
    numpy.execute(compiled)
    assert made == []
    # reading one group's source builds that group, and keeps it
    source = compiled.generated_source(1)
    assert compiled.generated_source(1) == source
    assert built(compiled) == [1]
    # the source read through the table is the pinned corpus's
    made.clear()
    assert source_digest("paper_example") == DIGESTS["paper_example"]
    assert len(made) == len(compiled.plans)

    # a group skipped for view-cache seeds is never generated, and
    # keying the views for the cache generates nothing
    python = engine("python")
    reference = python.compile(example_queries())
    seeding = walk_all(python, reference)
    seeded = next(
        index for index, plan in enumerate(reference.plans)
        if not plan.produced_queries
    )
    seeds = {
        name: seeding.view_data[name]
        for name in reference.plans[seeded].produced_views
    }
    # the seeding engine's groups are built and cached: compiling the
    # batch there again reuses their Python, so seed a fresh engine
    made.clear()
    assert python.compile(example_queries()).executables == reference.executables
    python = engine("python")
    compiled = python.compile(example_queries())
    view_identities(compiled)
    assert made == []
    result = python.execute(compiled, view_seeds=ViewSeeds(seeds=seeds))
    assert compiled.group_plan.groups[seeded].name in result.skipped_groups
    assert seeded not in built(compiled)
    assert len(built(compiled)) == compiled.num_groups - len(result.skipped_groups)

    # eight threads on the first execute of one shared batch: one build
    # per group, and every result bit-exact against a sequential run
    expected = engine("python").run(example_queries()).results
    made.clear()
    python = engine("python")
    shared = python.compile(example_queries())
    results: list = [None] * 8
    barrier = threading.Barrier(len(results))

    def first_execute(slot: int) -> None:
        barrier.wait(timeout=30)
        results[slot] = python.execute(shared).results

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [
            threading.Thread(target=first_execute, args=(slot,))
            for slot in range(len(results))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert built(shared) == list(range(shared.num_groups))
    assert len(made) == shared.num_groups
    for got in results:
        assert got is not None
        for name, want in expected.items():
            assert list(got[name].groups.items()) == list(want.groups.items())


def _parameters(function: ast.FunctionDef) -> set[str]:
    args = function.args
    return {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}


def test_kernels_choose_for_themselves():
    # no kernel variant is forced from outside: the cost model, the
    # finishers and the NumPy backend read no environment variable
    for module in ("core/costmodel.py", "core/topk.py", "core/npbackend.py"):
        reads = [
            f"{module}:{node.lineno}"
            for node in ast.walk(_modules()[module])
            if isinstance(node, ast.Attribute) and node.attr in {"environ", "getenv"}
            or isinstance(node, ast.Name) and node.id in {"environ", "getenv"}
        ]
        assert not reads, reads
    # one NumPy grouper, and no strategy to hand it
    numpy = "core/npbackend.py"
    groupers = [
        node.name for node in ast.walk(_modules()[numpy])
        if isinstance(node, ast.ClassDef) and node.name.endswith("Grouper")
    ]
    assert len(groupers) == 1, groupers
    taking = [f.name for f in _functions(numpy) if "strategy" in _parameters(f)]
    assert not taking, taking
    # one columnar top-k finisher, returning the finished groups alone
    finishers = [f.name for f in _functions("core/topk.py")]
    assert not [name for name in finishers if name.endswith("_sort")], finishers
    finish = next(f for f in _functions("core/topk.py") if f.name == "finish_ordered")
    assert not [
        node.lineno for node in ast.walk(finish)
        if isinstance(node, ast.Return) and isinstance(node.value, ast.Tuple)
    ]
    decision = next(
        f for f in _functions("core/costmodel.py") if f.name == "group_decision"
    )
    assert "adaptive" not in _parameters(decision)


def _imports(module: str) -> set[str]:
    """Every module, and every ``module.name``, one source file imports."""
    names = set()
    for node in ast.walk(_modules()[module]):
        if isinstance(node, ast.Import):
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            names |= {base} | {f"{base}.{alias.name}" for alias in node.names}
    return names


def test_one_ordered_finisher():
    assert _enclosing_functions("finish_ordered") == [
        "core/engine.py:_to_query_result"
    ]
    for module, tree in _modules().items():
        if not module.startswith("incremental/"):
            continue
        assert "repro.core.topk" not in _imports(module), module
        builds = [
            node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and _called_name(node) == "QueryResult"
        ]
        assert not builds, f"{module}:{builds} builds a QueryResult"
    assert not {
        name for name in _imports("core/topk.py") if name.split(".")[0] == "heapq"
    }
    args = _definition("incremental/rules.py", "merge_delta_outputs").args
    assert [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs] == [
        "target", "delta"
    ]
    assert args.vararg is None and args.kwarg is None


def test_ordering_lives_in_the_finisher():
    from repro.core.lowering import LoweredEmission
    from repro.core.plan import Emission

    def named(node) -> str | None:
        if isinstance(node, ast.Name):
            return node.id
        if isinstance(node, ast.Attribute):
            return node.attr
        return node.name if isinstance(node, ast.alias) else None

    assert not _enclosing(lambda node: named(node) == "MODE_TOPK")
    assert "order" not in {f.name for f in dataclasses.fields(Emission)}
    modes = [f.name for f in dataclasses.fields(LoweredEmission) if "mode" in f.name]
    assert modes == ["mode"], modes
    # below the finisher nothing reads a query's ordering; the serving
    # layer reads it once, into the request identity
    reads = _enclosing(
        lambda node: isinstance(node, ast.Attribute)
        and node.attr in ("order_by", "limit")
        and isinstance(node.ctx, ast.Load)
    )
    stray = sorted({
        site for site in reads
        if site.startswith(("core/", "serve/"))
        and not site.startswith("core/topk.py:")
        and site not in (
            "core/engine.py:_to_query_result",
            "core/engine.py:columns",  # refuses an ordered query's raw store
            "serve/fingerprint.py:batch_fingerprint",
        )
    })
    assert not stray, stray


def test_cart_runs_node_batches_from_one_site_and_reads_columns():
    # CART grows from one node-batch run site beside the indicator
    # histogram's, and reads every result through RunResult.columns, never
    # a groups dict
    cart = _modules()["ml/cart.py"]
    runs = [
        site for site in _enclosing_functions("run") if site.startswith("ml/cart.py:")
    ]
    assert sorted(runs) == ["ml/cart.py:_candidate_thresholds", "ml/cart.py:_evaluate"]
    reads = [
        node.lineno for node in ast.walk(cart)
        if isinstance(node, ast.Attribute) and node.attr == "groups"
    ]
    assert not reads, f"ml/cart.py:{reads} reads a groups dict"
    assert "_grow" not in {function.name for function in _functions("ml/cart.py")}


def _gcc_calls() -> list[tuple[str, str | None, bool]]:
    """``(file:line, callee, is the version probe)`` of every call whose
    first argument is a command list starting with ``"gcc"``."""
    calls = []
    for module, tree in _modules().items():
        for node in ast.walk(tree):
            if not (
                isinstance(node, ast.Call) and node.args
                and isinstance(node.args[0], ast.List)
            ):
                continue
            words = [e.value for e in node.args[0].elts if isinstance(e, ast.Constant)]
            if words[:1] == ["gcc"]:
                calls.append(
                    (f"{module}:{node.lineno}", _called_name(node), "--version" in words)
                )
    return calls


def test_one_native_build_and_load_site():
    # gcc is spawned to compile in one place (one process per group, no
    # link step) and probed in one other, a shared object is loaded in
    # one, and the C compiler is entered only through the runtime's table
    calls = sorted(_gcc_calls(), key=lambda call: call[2])
    assert [call[1:] for call in calls] == [("Popen", False), ("run", True)], calls
    assert all(call[0].startswith("core/cbackend.py:") for call in calls), calls
    loads = _call_sites("CDLL")
    assert len(loads) == 1 and loads[0].startswith("core/cbackend.py:"), loads
    builds = _call_sites("compile_c_groups")
    assert len(builds) == 1 and builds[0].startswith("core/runtime.py:"), builds


def _dict_to_array_sites(prefix: str) -> list[str]:
    """``module:function`` of every numpy array built from a mapping's
    ``keys()`` / ``values()`` / ``items()`` under ``prefix``."""
    sites = set()
    for module in _modules():
        if not module.startswith(prefix):
            continue
        for function in _functions(module):
            for node in ast.walk(function):
                if not (
                    isinstance(node, ast.Call)
                    and _called_name(node) in {"asarray", "array", "fromiter"}
                ):
                    continue
                if any(
                    isinstance(inner, ast.Call)
                    and _called_name(inner) in {"keys", "values", "items"}
                    for arg in node.args
                    for inner in ast.walk(arg)
                ):
                    sites.add(f"{module}:{function.name}")
    return sorted(sites)


def test_one_dict_to_columns_conversion():
    # native consumers read views through one helper, which uses the
    # producer's columns when they are live; the C backend returns its
    # output tables as columns and builds no dict of its own
    assert _dict_to_array_sites("core/") == ["core/runtime.py:view_columns"]
    wrapper = next(
        node for node in ast.walk(_modules()["core/cbackend.py"])
        if isinstance(node, ast.ClassDef) and node.name == "CCompiledGroup"
    )
    for node in ast.walk(wrapper):
        if isinstance(node, ast.Call):
            assert _called_name(node) not in {"dict", "tolist", "zip"}, (
                f"core/cbackend.py:{node.lineno} builds Python containers"
            )
    assert "from_arrays" in {
        _called_name(node) for node in ast.walk(wrapper) if isinstance(node, ast.Call)
    }


_RETIRED_MIRROR = (
    "_PendingMirror", "build_mirror", "drop_columnar", "check_consistent",
    "has_mirror", "has_columns", "_MIRROR_LOCK",
)


def test_a_view_is_its_columns():
    from repro.core.runtime import ArrayViewData

    assert ArrayViewData.__mro__ == (ArrayViewData, object)
    view = _definition("core/runtime.py", "ArrayViewData", kind=ast.ClassDef)
    assert view.bases == [] and view.keywords == []
    for module, tree in _modules().items():
        for node in ast.walk(tree):
            texts = list(_node_names(node))
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                texts.append(node.value)
            for name in _RETIRED_MIRROR:
                assert not any(name in text for text in texts), (
                    f"{module}:{getattr(node, 'lineno', '?')} names {name}"
                )
    # the one columns -> dict conversion
    assert _enclosing_functions("_row_keys") == ["core/runtime.py:as_mapping"]


def _isinstance_sites(*classes: str) -> list[str]:
    """``file:function`` of every ``isinstance`` test against one of
    ``classes`` (named alone or in a tuple)."""
    sites = []
    for module in _modules():
        for function in _functions(module):
            for node in ast.walk(function):
                if not (
                    isinstance(node, ast.Call)
                    and _called_name(node) == "isinstance"
                    and len(node.args) == 2
                ):
                    continue
                named = {
                    name for part in ast.walk(node.args[1])
                    for name in _node_names(part)
                }
                if named & set(classes):
                    sites.append(f"{module}:{function.name}")
    return sorted(sites)


def test_one_sum_by_key():
    # the partition merge, the delta merge and NumPy's stacked slot groups
    # sum per key through the one kernel
    assert sorted(_enclosing_functions("sum_by_key")) == [
        "core/npbackend.py:_output",
        "core/runtime.py:merge_partial_outputs",
        "incremental/rules.py:merge_delta_outputs",
    ]
    # and neither merge reads a view as a dict
    for module, name in (
        ("core/runtime.py", "merge_partial_outputs"),
        ("incremental/rules.py", "merge_delta_outputs"),
    ):
        calls = {
            _called_name(node) for node in ast.walk(_definition(module, name))
            if isinstance(node, ast.Call)
        }
        assert not calls & {"as_mapping", "items", "update"}, (name, calls)
    # a view is never a dict: only the dict -> columns conversion asks;
    # the fingerprint's test is of an EngineConfig field, not a view
    assert _isinstance_sites("dict", "ArrayViewData") == [
        "core/runtime.py:view_columns", "serve/fingerprint.py:_config_key",
    ]


def test_c_tables_sized_by_one_rule():
    # one capacity function sizes every C hash table: the output tables,
    # which _attempt allocates (C builds no binding tables)
    functions = {function.name for function in _functions("core/cbackend.py")}
    assert {name for name in functions if "capacity" in name} == {"_table_capacity"}
    assert "_next_pow2" not in functions
    assert sorted(set(_enclosing_functions("_table_capacity"))) == [
        "core/cbackend.py:_attempt",
    ]
    # collect takes a hash output's first n dense rows: nothing in the
    # attempt indexes by occupancy or reinterprets a buffer as booleans
    attempt = _definition("core/cbackend.py", "_attempt", inside="CCompiledGroup")
    for node in ast.walk(attempt):
        if isinstance(node, ast.Subscript):
            used = {
                text for part in ast.walk(node.slice)
                for text in (
                    *_node_names(part),
                    *([part.value] if isinstance(part, ast.Constant) else []),
                )
            }
            assert not {"occ", "out_occ"} & used, f"core/cbackend.py:{node.lineno}"
        if isinstance(node, ast.Call) and _called_name(node) == "view":
            assert not any(
                isinstance(arg, ast.Name) and arg.id == "bool" for arg in node.args
            ), f"core/cbackend.py:{node.lineno}"


def test_one_binding_index():
    # a KeyIndex is built only by the key coder's index_keys, which reuses
    # one per key-column content; the two binding tables call it, and
    # they are built only by prepare_binding_tables, which hands each
    # group's tables one list of the indexes built so far
    assert _enclosing_functions("KeyIndex") == ["data/keycodes.py:index_keys"]
    callers = [
        f"{module}:{cls.name}"
        for module, tree in _modules().items()
        for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
        for node in ast.walk(cls)
        if isinstance(node, ast.Call) and _called_name(node) == "index_keys"
    ]
    assert sorted(callers) == [
        "core/runtime.py:_BindingTable", "core/runtime.py:_CarriedTable",
    ]
    assert len(_call_sites("index_keys")) == len(callers)
    for table in ("_BindingTable", "_CarriedTable"):
        assert set(_enclosing_functions(table)) <= {
            "core/runtime.py:prepare_binding_tables"
        }, table
    # ... which one function prepares for both backends
    for module, cls in (
        ("core/npbackend.py", "NumpyCompiledGroup"),
        ("core/cbackend.py", "CCompiledGroup"),
    ):
        method = _definition(module, "prepare_bindings", inside=cls)
        calls = {
            _called_name(node) for node in ast.walk(method)
            if isinstance(node, ast.Call)
        }
        assert calls == {"prepare_binding_tables"}, (module, calls)
    assert sorted(_enclosing_functions("prepare_binding_tables")) == [
        "core/cbackend.py:prepare_bindings", "core/npbackend.py:prepare_bindings",
    ]
    # C keeps no binding hash tables: none of their argument roles, and
    # the key mixer only accumulates hash outputs
    retired = {
        "bind_count", "bind_keys", "bind_mask", "bind_occ", "bind_tk",
        "bind_lo", "bind_hi",
    }
    for node in ast.walk(_modules()["core/cbackend.py"]):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            assert node.value not in retired, f"core/cbackend.py:{node.lineno}"
    assert [
        function.split("(")[0].split()[-1]
        for function in _PRELUDE.split("\nstatic ")[1:]
        if "lmfao_mix(" in function
    ] == ["lmfao_mix", "lmfao_row"]
    # one binding lookup, in the prelude: every probe codes its key at
    # most once, through it or through its coding half
    assert _PRELUDE.count("static int64_t lmfao_lookup(") == 1
    assert _PRELUDE.count("static int64_t lmfao_code(") == 1
    database, batch, config = _corpus()["carried_class_city"]
    engine = LMFAO(database(), EngineConfig(backend="python", **config))
    compiled = engine.compile(batch())
    for index, plan in enumerate(compiled.plans):
        source, _args = generate_c_source(plan, f"lmfao_run_g{index}")
        assert "_occ" not in source
        probes = source.count("lmfao_lookup(") + source.count("lmfao_code(")
        assert probes == len(plan.bindings)
        assert "lmfao_mix(" not in source


def test_c_codes_keys_once_and_addresses_rows_by_the_coder_bound():
    module = _modules()["core/cbackend.py"]
    # direct output addressing reads the key coder's one presence-scan
    # bound, in one place, and cbackend adds no size constant for it: its
    # module-level numbers are the artifact bound, the keys a first output
    # table is sized for (read where tables are sized and where the bound
    # is taken) and the share flags
    imported = {
        alias.name for node in ast.walk(module)
        if isinstance(node, ast.ImportFrom) and node.module == "repro.data.keycodes"
        for alias in node.names
    }
    assert "_dense_enough" in imported
    assert [
        site for site in _enclosing_functions("_dense_enough")
        if site.startswith("core/")
    ] == ["core/cbackend.py:key_spaces"]
    numbered = {
        target.id
        for node in module.body if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in ast.walk(
            node.targets[0] if isinstance(node, ast.Assign) else node.target
        )
        if isinstance(target, ast.Name)
        and any(
            isinstance(leaf, ast.Constant) and type(leaf.value) is int
            for leaf in ast.walk(node.value)
        )
    }
    assert numbered == {
        "ARTIFACT_BYTES", "_KEY_CAP", "_SHARE_FLAGS",
    }, numbered
    assert _enclosing(
        lambda node: isinstance(node, ast.Name) and node.id == "_KEY_CAP"
        and isinstance(node.ctx, ast.Load)
    ) == ["core/cbackend.py:key_spaces", "core/cbackend.py:_attempt"]
    # accumulate_row, which the walker calls from one place, is the one
    # writer of accumulated rows: no other C text takes a row from the
    # prelude's one slot finder (direct and hashed alike) or adds into an
    # output, and generated code touches no row slot itself
    assert _enclosing_functions("accumulate_row") == ["core/loopnest.py:emit_output"]
    assert _PRELUDE.count("lmfao_row(") == 1  # its definition
    writers = _enclosing(
        lambda node: isinstance(node, ast.Constant) and isinstance(node.value, str)
        and ("lmfao_row(" in node.value or "] +=" in node.value)
    )
    writers = {
        site for site in writers
        if site.startswith("core/cbackend.py:") and not site.endswith(":None")
    }
    assert writers == {"core/cbackend.py:accumulate_row"}, writers
    # a level's key is coded once: the first binding probing it codes it,
    # later ones read a flag and at most look it up themselves
    database, batch, config = _corpus()["covariance_retailer"]
    engine = LMFAO(database(), EngineConfig(backend="python", **config))
    compiled = engine.compile(batch())
    shared = 0
    for index, plan in enumerate(compiled.plans):
        source, args = generate_c_source(plan, f"lmfao_run_g{index}")
        keys: dict = {}
        for binding in plan.bindings:
            probe = (binding.bind_level, binding.key_levels)
            keys.setdefault(probe, []).append(binding)
        leaders = sum(len(bindings) > 1 for bindings in keys.values())
        flags = sum(len(bindings) - 1 for bindings in keys.values())
        shared += flags
        assert source.count("lmfao_code(") == leaders
        assert [a.role[0] for a in args].count("bind_share") == flags
        assert source.count(" : lmfao_lookup(") == flags
        assert "_row[" not in source
    assert shared


def test_one_key_coder():
    # neither backend codes, searches or sorts keys of its own: probes,
    # carried entry lists and counts go through the key coder
    for module in ("core/npbackend.py", "core/cbackend.py"):
        own = [
            f"{module}:{node.lineno}"
            for node in ast.walk(_modules()[module])
            if isinstance(node, ast.Call)
            and (
                _called_name(node) in {"searchsorted", "unique", "lexsort"}
                or _called_name(node) == "astype"
                and any(isinstance(a, ast.Name) and a.id == "object" for a in node.args)
            )
        ]
        assert not own, own
    # the second scheme and the copied counter are gone, and the coder's
    # helpers have one home
    homes: dict[str, list[str]] = {}
    for module, tree in _modules().items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                homes.setdefault(node.name, []).append(module)
    for retired in ("_ProbeTable", "_composite", "_lex_sorted", "distinct_count"):
        assert retired not in homes, (retired, homes[retired])
    for helper in ("_dense_codes", "_composite_codes", "_group_codes", "KeyIndex"):
        assert homes[helper] == ["data/keycodes.py"], (helper, homes[helper])
    # one presence-scan bound, max(4 * n, 1024), in one function
    bounds = set()

    def visit(node, module: str, function: str | None) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if (
            isinstance(node, ast.Call) and _called_name(node) == "max"
            and any(
                isinstance(a, ast.BinOp) and isinstance(a.op, ast.Mult)
                and 4 in {getattr(side, "value", None) for side in (a.left, a.right)}
                for a in node.args
            )
            and any(getattr(a, "value", None) == 1024 for a in node.args)
        ):
            bounds.add(f"{module}:{function}")
        for child in ast.iter_child_nodes(node):
            visit(child, module, function)

    for module, tree in _modules().items():
        visit(tree, module, None)
    assert bounds == {"data/keycodes.py:_dense_enough"}, bounds


def test_one_group_compile():
    # a group is decomposed (a hit re-checked under LMFAO_DEBUG) and
    # compiled at one call site each, on the engine's group-cache miss
    # path; only the process executor's warm-up recompiles shipped plans
    def calls(name: str, prefix: str) -> list[str]:
        return [site for site in _enclosing_functions(name) if site.startswith(prefix)]

    assert calls("decompose_group", "core/") == ["core/engine.py:_plan_groups"]
    assert calls("compile_executables", "core/engine.py") == [
        "core/engine.py:_plan_groups"
    ]
    # one cache constructor, under util/
    homes = [
        module for module, tree in _modules().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and node.name == "LRUCache"
    ]
    assert homes == ["util/lru.py"], homes
