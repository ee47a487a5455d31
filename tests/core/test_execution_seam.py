"""The group-execution seam stays a seam: one step, one walk, one delta run.

Structural guard (an ``ast`` walk over ``src/repro``, no execution): the
decisions that make up "run one group over one trie" — partition
fan-out, the recorded cost-model decision, the partitioned execute —
each have exactly one call site, inside the engine's group step
(:meth:`repro.core.engine.LMFAO.execute_group`), plus the process
executor's worker-local combine. Only maintained handles run delta code
(:func:`repro.incremental.rules.numeric_delta_run`). The serving layer
never reaches the step: it imports no execution primitive from
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
grouper and the top-k layer one finisher per container, and neither the
cost model nor a forcing environment variable picks between variants.

A group's backend is decided one way: at compile, by
:func:`repro.core.runtime.compile_executables`, which returns one
compiled group per plan; a run reads it and never re-selects.

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

One behavioural check rides along: compilation pays only for the code a
run uses — a group's Python is generated when it first runs on Python or
its source is read, once, whichever thread gets there first.
"""

from __future__ import annotations

import ast
import sys
import threading
import time
from functools import cache
from pathlib import Path

import repro
from repro.core import EngineConfig, LMFAO
from repro.core.engine import ViewSeeds
from repro.paper import FAVORITA_TREE, example_queries
from repro.serve import view_identities

from tests.core.test_source_identity import DIGESTS, source_digest
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


def _enclosing_functions(name: str) -> list[str]:
    """``file:function`` of the innermost function around every call whose
    callee is (an attribute) ``name``."""
    sites = []

    def visit(node, module: str, function: str | None) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call) and _called_name(node) == name:
            sites.append(f"{module}:{function}")
        for child in ast.iter_child_nodes(node):
            visit(child, module, function)

    for module, tree in _modules().items():
        visit(tree, module, None)
    return sites


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
    for module, tree in _modules().items():
        for node in ast.walk(tree):
            named = (
                node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute)
                else node.name if isinstance(node, ast.FunctionDef)
                else None
            )
            assert named != "stage_deltas", f"{module}:{node.lineno}"


def test_partitioned_execute_has_two_homes():
    # the group step's inline loop and the worker-local combine
    sites = sorted(_call_sites("execute_plan_partitioned"))
    assert [site.split(":")[0] for site in sites] == [
        "core/engine.py", "core/mpexec.py",
    ], sites


def test_one_cache_entry_constructor():
    # delta code runs in maintained handles only; the view cache carries
    # or drops its entries and has no updater to build
    sites = _call_sites("numeric_delta_run")
    assert [site.split(":")[0] for site in sites] == [
        "incremental/maintain.py"
    ], sites
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
    made.clear()
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
    # one top-k finisher per container, returning the finished groups alone
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
