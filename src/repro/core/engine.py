"""The LMFAO engine: batch in, all aggregate results out.

:class:`LMFAO` wires the three layers of the paper together:

1. **view generation** — join tree (built or supplied), per-query roots,
   aggregate pushdown, view merging (:mod:`repro.core.viewgen`);
2. **multi-output optimisation** — grouping, attribute orders, γ/β
   decomposition (:mod:`repro.core.groups`, :mod:`repro.core.orders`,
   :mod:`repro.core.decompose`);
3. **code generation** — one specialised function per group
   (:mod:`repro.core.codegen`), executed over the dependency DAG.

Per-query ``WHERE`` conjunctions are folded into the sum-product as
indicator factors — the trick that lets a batch of differently-filtered
decision-tree aggregates share a single scan. It is the only way a predicate
reaches execution: tries index whole base relations, and a plan-cache hit
re-binds the indicator functions in a copy of the cached
:class:`CompiledBatch` (:func:`repro.serve.fingerprint.bind_batch`).

Every optimisation is individually switchable through
:class:`EngineConfig`, which is what the ablation benchmarks exercise.

Execution is **snapshot-isolated**: all trie/relation state lives in
immutable versioned :class:`~repro.core.snapshot.Snapshot` objects held by
a :class:`~repro.core.snapshot.SnapshotStore`; :meth:`LMFAO.run` pins the
version it started on, and every write installs its successor version
atomically through one commit path (:meth:`LMFAO.commit`), so queries
never observe a half-applied delta. The compile pipeline sits behind a
fingerprintable boundary: a :class:`CompiledBatch`'s plans are pure
structure, and only its ``batch`` and ``functions`` carry a request's
predicate constants — the compile-once serving layer (:mod:`repro.serve`)
rebinds those two fields and executes the copy like any other compiled
batch.
"""

from __future__ import annotations

import heapq
import threading
import time
import weakref
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Mapping

import numpy as np

from repro.core import costmodel, topk
from repro.core.decompose import decompose_group
from repro.core.groups import GroupPlan, build_groups
from repro.core.orders import GroupOrder, order_group
from repro.core.plan import MultiOutputPlan
from repro.core.snapshot import Snapshot, SnapshotStore
from repro.core.runtime import (
    ArrayViewData,
    LazyPythonGroup,
    compile_executables,
    debug_checks_enabled,
    execute_plan,
    execute_plan_partitioned,
    merge_partial_outputs,
    node_trie,
    partition_tries,
    trie_cache_key,
)
from repro.core.viewgen import ViewGenerator, ViewPlan
from repro.data.catalog import Database
from repro.data.trie import TrieIndex
from repro.jointree.construction import build_join_tree
from repro.jointree.jointree import JoinTree
from repro.jointree.roots import assign_roots
from repro.query.aggregates import Aggregate, Factor
from repro.query.batch import QueryBatch
from repro.query.functions import Function
from repro.query.query import Query, QueryResult
from repro.util.errors import PlanError
from repro.util.timer import Stopwatch


@dataclass(frozen=True)
class EngineConfig:
    """Engine options; the defaults are full-LMFAO.

    The dataclass itself is a plain frozen value; validation runs when a
    config reaches an engine — :meth:`validate` is called by
    ``LMFAO(...)`` and again by every ``compile()`` — except where a field
    says otherwise below. Every execution-affecting field also enters the
    plan-cache fingerprint of the serving layer
    (:func:`repro.serve.fingerprint.batch_fingerprint`): engines with
    different configs never share compiled artefacts.

    **Optimisation switches** (toggled by the layer ablation,
    ``paper_experiments/bench_ablation.py``; the first four are on by
    default and each ``=False`` disables one layer):

    ``merge_views`` (bool, default True)
        no value validation. ``False`` disables cross-query view merging —
        each query keeps its own views (paper §2.1/Figure 2: merged view
        DAG; §4 ablation);
    ``multi_output`` (bool, default True)
        no value validation. ``False`` means one group per view/output —
        no shared scans (paper §2.2: grouping views at a node; Figure 2's
        seven groups);
    ``factorize`` (bool, default True)
        no value validation. ``False`` disables γ/β sharing and pushdown —
        every term is evaluated at the deepest loop level of its artifact
        (paper §2.2/Figure 3: the α/β decomposition);
    ``share_scan_terms`` (bool, default True)
        no value validation. ``False`` disables hoisting of repeated term
        reads in the generated code — every γ/β update re-evaluates its
        trie/prefix-sum expressions (paper §2.3: code specialisation);
    ``single_root`` (str | None, default None)
        validated at ``compile()``: must be ``"auto"`` (pick the largest
        relation) or the name of a join-tree node, else
        :class:`~repro.util.errors.PlanError`. Forces every query onto one
        root — the paper's strawman of one rooted tree for the whole batch
        (§2.1, root assignment discussion).

    **Planning overrides:**

    ``root_override`` (dict[str, str] | None, default None)
        query name → join-tree node, pinning individual query roots;
        unknown node names are rejected by root assignment
        (:func:`repro.jointree.roots.assign_roots`) with a ``PlanError``.
        Remaining queries keep the cost-based assignment (paper §2.1:
        "we choose Sales as root for Q1 and Q2, Items for Q3");
    ``join_tree_edges`` (tuple[tuple[str, str], ...] | None, default None)
        explicit join-tree edge list instead of the constructed tree —
        how tests pin the paper's Figure 2 tree. Validated by the
        :class:`~repro.jointree.jointree.JoinTree` constructor (unknown
        relations, disconnected forests and running-intersection
        violations raise :class:`~repro.util.errors.SchemaError`).

    **Execution** (all validated by :meth:`validate`, with messages
    naming ``EngineConfig.<field>`` and the offending value):

    ``workers`` (int, default 1)
        must be an integer ≥ 1. 1 = the DAG walk
        (:meth:`LMFAO.walk_groups`) runs groups one at a time on the
        caller's thread. More, under the thread executor, make the same
        walk an event-driven scheduler exploiting **task parallelism** —
        independent groups of the dependency DAG run concurrently — and,
        combined with ``partitions``, **domain parallelism**: each large
        group fans out across trie partitions under the same shared
        worker budget (paper §2.3, §4). Under ``executor="process"`` it
        sizes the worker-process pool instead;
    ``partitions`` (int, default 1)
        must be an integer ≥ 1; 1 = no domain parallelism. Number of
        disjoint level-0 trie partitions a group's scan is split into.
        Per-partition partial outputs are merged deterministically in
        partition order: per-key summation for accumulating emissions,
        disjoint concatenation for aligned ones. Takes effect for
        ``workers == 1`` too (serial partitioned execution), which keeps
        every configuration differentially testable against the
        sequential baseline;
    ``parallel_threshold`` (int, default 8192)
        must be an integer ≥ 0 (rows). Minimum number of trie rows before
        a group's scan fans out across partitions — small groups run
        unpartitioned to avoid per-partition overhead;
    ``backend`` (str, default "numpy")
        must be one of ``"numpy"`` (whole-level array programs over the
        trie — segment-reduction sums, vectorized probes, CSR entry-list
        expansion for carried views; every plan shape runs natively, no
        fallback class), ``"python"`` (specialised Python over the same
        trie runtime — the paper's generated C++ transposed to Python,
        §2.3; the ablation's backend), ``"c"`` (generated C compiled with
        gcc, one shared object per group kept in a byte-bounded per-user
        artifact directory, so compiling the same group again only loads
        it — see :mod:`repro.core.cbackend`; carried blocks included; a
        plan with a non-integer trie level, view key or group-by
        attribute compiles to NumPy instead; ``compile()`` raises
        ``PlanError`` if gcc is missing), or ``"auto"`` (C for the groups
        whose node relation reaches
        :func:`repro.core.costmodel.native_worthwhile`'s row cut in the
        compile snapshot, so gcc runs only where the scan is large, and
        NumPy for the rest; gcc missing is not an error, every group
        just compiles to NumPy). ``compile()`` decides each group's
        backend once (:func:`repro.core.runtime.compile_executables`);
        runs never revisit it.
        Unordered results are bags whose row order is the backend's;
        ordered results rank identically on every backend, and float
        sums may differ from generated Python in the last ulp
        (integer-valued data is bit-exact).
        ``"auto"`` requires ``adaptive=True`` and the thread executor.
        The C backend's ctypes calls release the GIL and the generated
        functions are reentrant, so ``workers > 1`` gives real
        multicore scaling there; NumPy releases the GIL inside large
        kernels (partial scaling, no gcc needed); the Python backend
        stays GIL-serialised but goes through the same scheduler and
        merge paths;
    ``adaptive`` (bool, default True)
        no value validation (any truthy value works, but
        ``backend="auto"`` demands it on). ``True`` lets the cost model
        (:mod:`repro.core.costmodel`) treat ``partitions`` and
        ``workers`` as **advisory upper bounds**: partition fan-out is
        capped at the threads that can actually run concurrently.
        ``False`` restores the literal static knobs (the ablation
        baseline). Adaptive decisions are data-dependent and re-decided
        per execution — they never enter compiled artefacts or the
        serving layer's structural fingerprints (:class:`EngineConfig`
        itself, including this flag, does);
    ``executor`` (str, default "thread")
        must be ``"thread"`` or ``"process"`` — how the group step
        (:meth:`LMFAO.execute_group`) turns a group's trie partitions
        into partial outputs. ``"thread"`` keeps both parallelism axes on
        the in-process thread pool (real scaling only where the backend
        releases the GIL). ``"process"`` walks groups one at a time and
        ships each group's partitions to a persistent pool of worker
        processes (:mod:`repro.core.mpexec`): they travel as read-only
        ``multiprocessing.shared_memory`` segments (never pickled),
        workers recompile each batch's plans once per process, and
        partials merge local-combine-then-tree-reduce — bit-identical
        merge semantics to the sequential path. Groups that cannot ship
        (single partition, functions that are not transportable by name)
        transparently run in-process. Engines with ``executor="process"``
        own OS resources; call :meth:`LMFAO.close` (or use the engine as
        a context manager) to reclaim them deterministically.

    **Incremental maintenance** (see :meth:`LMFAO.maintain`; beyond the
    paper, which recomputes batches from scratch):

    ``incremental_mode`` (str, default "auto")
        validated at ``maintain()`` (not at engine construction): must be
        ``"auto"`` (view deltas computed over a trie of just the changed
        tuples where exact — insert-only changes at the group's own node
        — then merged into a copy of the view, so O(|view|) per round;
        rescan otherwise) or ``"rescan"`` (re-execute dirty
        groups over their cached full tries; bit-for-bit equal to
        recomputation).

    Examples
    --------
    Validation is eager and the error names the offending field::

        >>> EngineConfig(workers=0).validate()
        Traceback (most recent call last):
            ...
        repro.util.errors.PlanError: EngineConfig.workers must be an integer >= 1 (1 = sequential), got 0
        >>> EngineConfig(backend="rust").validate()
        Traceback (most recent call last):
            ...
        repro.util.errors.PlanError: EngineConfig.backend must be one of 'python', 'numpy', 'c', 'auto', got 'rust'
        >>> EngineConfig(partitions=4).validate().partitions
        4
    """

    merge_views: bool = True
    multi_output: bool = True
    factorize: bool = True
    share_scan_terms: bool = True
    single_root: str | None = None
    root_override: dict[str, str] | None = None
    join_tree_edges: tuple[tuple[str, str], ...] | None = None
    workers: int = 1
    partitions: int = 1
    parallel_threshold: int = 8192
    backend: str = "numpy"
    executor: str = "thread"
    adaptive: bool = True
    incremental_mode: str = "auto"

    def validate(self) -> "EngineConfig":
        """Reject nonsensical execution knobs, with actionable messages.

        Called by ``LMFAO(...)`` and ``compile()``; returns ``self`` so it
        chains. See the class docstring for the per-field rules.
        """
        _validate_execution_config(self)
        return self


@dataclass
class CompiledBatch:
    """All artefacts of compiling one batch (inspectable, reusable).

    A compiled batch is **pure structure**: nothing in it depends on the
    database *contents* (only on schema, statistics-driven planning
    choices, and the batch's shape), so it can be executed against any
    :class:`~repro.core.snapshot.Snapshot` of the same schema — this is
    what lets the incremental maintainer re-drive groups over updated
    data, and what the serving layer's structural plan cache
    (:mod:`repro.serve`) exploits to reuse one compilation across
    requests.

    Two fields belong to the request, the rest is compile-time
    structure. ``batch`` is the request (results are collected against
    its queries) and ``functions`` maps every plan slot name to the
    runtime :class:`~repro.query.functions.Function` it runs. A plan-cache
    hit gets a copy of the cached batch with just these two replaced
    (:func:`repro.serve.fingerprint.bind_batch`): for an indicator slot
    ``ind[<=5]`` compiled from ``x <= 5``, a request with ``x <= 7`` binds
    the ``ind[<=7]`` function under the ``ind[<=5]`` key. Trie-side caches
    key on the bound function's own name, so rebound constants never
    collide in shared caches (see
    :func:`repro.core.runtime._product_signature`). Everything else —
    ``folded``, ``view_plan``, ``group_plan``, ``orders``, ``plans``,
    ``executables``, ``python``, ``execution_order`` — is shared with the
    cached batch, so a rebound copy's ``folded`` still holds the
    constants it was compiled with.

    Field notes: ``folded`` is ``batch`` with every ``WHERE`` predicate
    folded into indicator factors;
    ``execution_order`` a topological order of ``group_plan``'s
    dependency DAG; ``executables`` one compiled group per plan
    (:func:`repro.core.runtime.compile_executables`), each implementing
    the compiled-group protocol, its ``backend`` (``"python"``,
    ``"numpy"`` or ``"c"``) decided here at compile and never per run;
    ``python`` one :class:`~repro.core.runtime.LazyPythonGroup` per plan,
    whose Python is generated on first use — the inspectable source
    (:meth:`generated_source`), and under ``backend="python"`` the same
    list as ``executables``.
    """

    batch: QueryBatch
    folded: QueryBatch
    tree: JoinTree
    roots: dict[str, str]
    view_plan: ViewPlan
    group_plan: GroupPlan
    orders: list[GroupOrder]
    plans: list[MultiOutputPlan]
    functions: dict[str, Function]
    execution_order: list[int]
    executables: list
    python: list[LazyPythonGroup]

    @property
    def num_views(self) -> int:
        return self.view_plan.num_views

    @property
    def num_groups(self) -> int:
        return self.group_plan.num_groups

    @cached_property
    def view_group_by(self) -> dict[str, tuple[str, ...]]:
        """View name → its canonical group-by (pure structure, memoized)."""
        return {name: view.group_by for name, view in self.view_plan.views.items()}

    @cached_property
    def producers(self) -> dict[str, int]:
        """View/query name → index of the group that emits it (memoized)."""
        return {
            emission.artifact: index
            for index, plan in enumerate(self.plans)
            for emission in plan.emissions
        }

    def generated_source(self, group_index: int) -> str:
        """The generated Python for one group — the demo's code tab."""
        return self.python[group_index].source


@dataclass
class ViewSeeds:
    """Pre-materialized views seeded into one execution, plus a publish sink.

    Built by the serving layer from view-cache hits
    (:mod:`repro.serve.viewcache`): ``seeds`` maps view name → already
    computed ``ViewData`` for *this* compilation at *this* snapshot
    version. The engine skips every group whose produced views are all
    seeded (or otherwise unneeded) — a fully seeded subtree never
    touches a trie — and feeds seeded data to the groups that do run.
    Seeded containers are treated strictly read-only; every downstream
    path builds fresh containers (see
    :meth:`~repro.core.runtime.merge_partial_outputs` and the
    copy-on-write maintainer merges), so sharing one cached view across
    concurrent runs is safe.

    ``publish`` (optional) is called once per view the run *computed*
    (never for seeds echoed back) as ``publish(name, data)``, after all
    groups finish but while the run's snapshot pin is still held — the
    serving layer uses it to install fresh entries in the view cache.
    """

    seeds: dict[str, dict] = field(default_factory=dict)
    publish: object | None = None


@dataclass
class GroupRun:
    """The per-run state one pass over a compiled batch's groups shares.

    What the group step (:meth:`LMFAO.execute_group`) reads — the
    compilation (with the runtime functions bound for this request), the
    pinned snapshot, the views computed (or seeded) so far — and what the
    DAG walk (:meth:`LMFAO.walk_groups`) writes back. The engine's own
    runs and the incremental maintainer's rounds each build one;
    ``snapshot`` may stay None when every group is stepped over an
    explicit (delta) trie.
    """

    compiled: CompiledBatch
    snapshot: Snapshot | None = None
    #: view name → contents: inputs of downstream groups, seeded or computed.
    view_data: dict[str, dict] = field(default_factory=dict)
    #: query name → raw (unfinished) groups.
    query_raw: dict[str, dict] = field(default_factory=dict)
    #: group name → wall-clock seconds / cost-model decision record.
    group_times: dict[str, float] = field(default_factory=dict)
    decisions: dict[str, dict] = field(default_factory=dict)

    def adopt(self, index: int, outputs: dict[str, dict], started: float) -> None:
        """Store one finished group's outputs and its wall-clock."""
        for emission in self.compiled.plans[index].emissions:
            store = self.view_data if emission.kind == "view" else self.query_raw
            store[emission.artifact] = outputs[emission.artifact]
        name = self.compiled.group_plan.groups[index].name
        self.group_times[name] = time.perf_counter() - started


@dataclass
class RunResult:
    """Results of one batch run plus instrumentation.

    ``results`` maps query name → :class:`~repro.query.query.QueryResult`;
    ``timings`` holds the phase laps (``compile`` — absent when a cached
    plan was executed directly — ``execute``, ``collect``) and
    ``group_times`` per-group wall-clock keyed by group name.
    ``snapshot_version`` records which database version the run was
    pinned to: every value read came from exactly that
    :class:`~repro.core.snapshot.Snapshot`, no matter what maintenance
    installed concurrently — the serving layer's isolation tests compare
    results against the per-version oracle through this field.
    """

    results: dict[str, QueryResult]
    compiled: CompiledBatch
    timings: dict[str, float]
    group_times: dict[str, float] = field(default_factory=dict)
    snapshot_version: int = 0
    #: per-group execution record of this run (the backend fixed at
    #: compile, the partition count the cost model chose, rows scanned) —
    #: see :func:`repro.core.costmodel.group_decision`. Data-dependent
    #: observability only; never part of compiled artefacts.
    decisions: dict[str, dict] = field(default_factory=dict)
    #: names of groups skipped entirely because every view they produce
    #: was seeded from the view cache (empty without :class:`ViewSeeds`).
    #: Skipped groups have no ``group_times`` / ``decisions`` entries.
    skipped_groups: tuple[str, ...] = ()

    def __getitem__(self, query_name: str) -> QueryResult:
        return self.results[query_name]

    @property
    def total_time(self) -> float:
        return sum(self.timings.values())


class LMFAO:
    """The engine. Construct once per database; run many batches.

    Caches trie indexes (per node and attribute order) and carries
    them across runs — the decision-tree workload recompiles aggregates per
    tree node but reuses every trie.

    All data state lives in an immutable versioned
    :class:`~repro.core.snapshot.Snapshot` behind a
    :class:`~repro.core.snapshot.SnapshotStore`: :meth:`run` pins the
    current version on entry and reads only from it, while :meth:`commit`
    installs successor versions atomically and advances every maintained
    handle (:meth:`maintain`) with them — concurrent queries never block
    behind maintenance and never observe a half-applied delta.
    ``engine.db`` always denotes the *current* version's database.
    """

    def __init__(self, db: Database, config: EngineConfig | None = None) -> None:
        self.config = config or EngineConfig()
        self.config.validate()
        if self.config.join_tree_edges is not None:
            self.tree = JoinTree(db.schema, list(self.config.join_tree_edges))
        else:
            self.tree = build_join_tree(db.schema)
        self._snapshots = SnapshotStore(Snapshot(version=0, db=db, tries={}))
        # every live maintained handle follows every commit; both are
        # guarded by the commit lock (see commit())
        self._commit_lock = threading.RLock()
        self._handles: weakref.WeakSet = weakref.WeakSet()
        self._mpexec = None
        self._mpexec_lock = threading.Lock()
        # when a superseded version loses its last reader pin, drop its
        # shared-memory trie segments too (no-op for the thread executor).
        # The hook holds the engine weakly, so a dropped engine — and its
        # snapshots and tries — is freed without waiting for the cyclic
        # collector.
        reclaim = weakref.WeakMethod(self._reclaim_snapshot_version)

        def hook(version: int) -> None:
            method = reclaim()
            if method is not None:
                method(version)

        self._snapshots.add_reclaim_hook(hook)

    # ----------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Release owned OS resources (idempotent; engine stays queryable).

        Only ``executor="process"`` engines hold any: the worker pool and
        its shared-memory segments. Unclosed engines are also reclaimed at
        garbage collection, but an explicit ``close()`` — or using the
        engine as a context manager — makes the teardown deterministic.
        """
        with self._mpexec_lock:
            executor, self._mpexec = self._mpexec, None
        if executor is not None:
            executor.close()

    def __enter__(self) -> "LMFAO":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _process_executor(self):
        """The lazily started multiprocess executor (``executor="process"``)."""
        with self._mpexec_lock:
            if self._mpexec is None:
                from repro.core import mpexec

                self._mpexec = mpexec.ProcessExecutor(
                    workers=self.config.workers,
                    backend=self.config.backend,
                    share_terms=self.config.share_scan_terms,
                    attribute_kinds=_attribute_kinds(self.db.schema),
                )
            return self._mpexec

    @property
    def db(self) -> Database:
        """The current snapshot's database (advances under maintenance)."""
        return self._snapshots.current().db

    def snapshot(self) -> Snapshot:
        """Peek the current version: an immutable view of all data state.

        The returned object is safe to read for as long as the caller
        holds it (Python references keep it alive), but it does **not**
        hold a GC pin — use :meth:`pin_snapshot` when the version's
        auxiliary resources (shared-memory trie segments under
        ``executor="process"``) must survive concurrent commits.
        """
        return self._snapshots.current()

    def pin_snapshot(self) -> Snapshot:
        """Pin the current version against garbage collection.

        Every call must be paired with exactly one
        :meth:`release_snapshot` (pins are refcounted and nest).
        :meth:`execute` pins internally; the serving layer additionally
        pins across its async submission queue.
        """
        return self._snapshots.pin()

    def release_snapshot(self, version: int) -> None:
        """Release one :meth:`pin_snapshot` refcount; may trigger GC."""
        self._snapshots.unpin(version)

    def _reclaim_snapshot_version(self, version: int) -> None:
        """Snapshot-GC hook: unlink the dead version's shm segments."""
        with self._mpexec_lock:
            executor = self._mpexec
        if executor is not None:
            executor.drop_version(version)

    # ------------------------------------------------------------------ compile
    def compile(
        self, batch: QueryBatch, snapshot: Snapshot | None = None
    ) -> CompiledBatch:
        """Run all three optimisation layers; returns executable artefacts.

        ``snapshot`` pins the database version planning statistics come
        from (cardinalities, domain sizes for root assignment and
        attribute orders); default is the current version. :meth:`run`
        passes its pinned snapshot so planning and execution read the
        same version even under concurrent maintenance.
        """
        db = (snapshot or self._snapshots.current()).db
        batch.validate_against(db.schema)
        config = self.config
        config.validate()
        functions = _collect_functions(batch)
        folded = _fold_predicates(batch, functions)

        roots = self._assign_roots(folded, db)
        generator = ViewGenerator(
            db, self.tree, merge_across_queries=config.merge_views
        )
        view_plan = generator.generate(folded, roots)
        group_plan = build_groups(view_plan, multi_output=config.multi_output)

        orders: list[GroupOrder] = []
        plans: list[MultiOutputPlan] = []
        for group in group_plan.groups:
            order = order_group(group, view_plan, db)
            orders.append(order)
            plans.append(decompose_group(group, order, factorize=config.factorize))
        c_candidates = None
        if config.backend == "auto":
            # C only where it will run (see repro.core.cbackend, "Candidates")
            c_candidates = {
                index for index, plan in enumerate(plans)
                if costmodel.native_worthwhile(db.cardinality(plan.node))
            }
        executables = compile_executables(
            plans,
            config.backend,
            config.share_scan_terms,
            _attribute_kinds(db.schema),
            c_candidates,
        )
        python = (
            executables if config.backend == "python"
            else [LazyPythonGroup(plan, config.share_scan_terms) for plan in plans]
        )

        return CompiledBatch(
            batch=batch,
            folded=folded,
            tree=self.tree,
            roots=roots,
            view_plan=view_plan,
            group_plan=group_plan,
            orders=orders,
            plans=plans,
            functions=functions,
            execution_order=_topological_order(group_plan),
            executables=executables,
            python=python,
        )

    # --------------------------------------------------------------------- run
    def run(self, batch: QueryBatch) -> RunResult:
        """Compile (if needed) and execute a batch.

        The snapshot is pinned *before* compilation: planning statistics
        and execution read the same database version even if maintenance
        installs a successor mid-run (the pin also keeps the version's
        shared-memory segments mapped until the run completes).
        """
        watch = Stopwatch()
        snapshot = self._snapshots.pin()
        try:
            with watch.lap("compile"):
                compiled = self.compile(batch, snapshot=snapshot)
            return self.execute(compiled, watch=watch, snapshot=snapshot)
        finally:
            self._snapshots.unpin(snapshot.version)

    # -------------------------------------------------------------- incremental
    def maintain(self, batch: QueryBatch):
        """Compile a batch once and keep its results maintained under updates.

        Returns a :class:`repro.incremental.MaintainedBatch` handle: the
        batch is compiled and executed once, then ``handle.apply(inserts=...,
        deletes=...)`` updates base relations and propagates deltas only
        through the affected views of the compiled DAG — no re-planning, no
        recompilation, no full rescans of untouched join-tree nodes. See
        ``incremental_mode`` on :class:`EngineConfig` for the maintenance
        strategy switch.

        The handle is built and registered under the commit lock, so it
        starts at the current version and follows every later
        :meth:`commit`, whichever writer calls it.
        """
        from repro.incremental.maintain import MaintainedBatch

        with self._commit_lock:
            handle = MaintainedBatch(self, self.compile(batch))
            self._handles.add(handle)
        return handle

    def commit(self, deltas: Mapping) -> tuple[int, dict]:
        """Install one normalised delta map as a single snapshot transition.

        The one commit path: a direct ``handle.apply`` and the serving
        layer's group commit both end here. Under the commit lock it
        stages every updated relation (a delta that cannot apply, such as
        the delete of an absent tuple, raises before anything changes),
        builds the successor snapshot, advances every registered
        maintained handle against it off to the side, installs the
        successor and then flips the handles. A failure at any point
        leaves the store and every handle on the last good version.

        ``deltas`` maps relation names to
        :class:`~repro.incremental.delta.RelationDelta` (see
        :func:`~repro.incremental.delta.normalize_deltas`). Returns
        ``(version, by_handle)``: the installed version and each handle's
        :class:`~repro.incremental.maintain.ApplyResult`. Empty ``deltas``
        install nothing.
        """
        with self._commit_lock:
            snapshot = self._snapshots.current()
            if not deltas:
                return snapshot.version, {}
            staged = {
                name: delta.apply_to(snapshot.db.relation(name))
                for name, delta in deltas.items()
            }
            successor = snapshot.with_relations(staged)
            advanced = [
                (handle, *handle._advance_state(deltas, successor))
                for handle in list(self._handles)
            ]
            self._snapshots.install(successor)
            by_handle = {}
            for handle, state, result in advanced:
                handle._commit_state(state)
                by_handle[handle] = result
            return successor.version, by_handle

    def execute(
        self,
        compiled: CompiledBatch,
        watch: Stopwatch | None = None,
        snapshot: Snapshot | None = None,
        view_seeds: ViewSeeds | None = None,
    ) -> RunResult:
        """Execute an already compiled batch.

        ``snapshot`` pins the database version all reads come from
        (default: the current one — pinned here, once, so the run is
        isolated from concurrently installed versions either way).
        ``view_seeds`` pre-materializes views from the serving layer's
        view cache (see :class:`ViewSeeds`): groups whose produced views
        are all seeded are skipped outright, and computed views are
        published back through ``view_seeds.publish``.

        The executed version is pinned for the duration (a caller-supplied
        snapshot gains a nested pin), so snapshot GC can never reclaim it
        — or unlink its shared-memory segments — mid-run.
        """
        watch = watch or Stopwatch()
        if snapshot is None:
            snapshot = self._snapshots.pin()
        else:
            self._snapshots.repin(snapshot)
        try:
            return self._execute_pinned(compiled, watch, snapshot, view_seeds)
        finally:
            self._snapshots.unpin(snapshot.version)

    @staticmethod
    def _skippable_groups(
        compiled: CompiledBatch, seeds: dict[str, dict]
    ) -> set[int]:
        """Group indices a seeded execution can skip entirely.

        Walked in *reverse* execution order so consumers are decided
        before their producers: a group must run iff it produces a query
        (queries are never cached) or a view some running consumer needs
        and the seeds do not provide; everything else is skipped. A
        partial hit therefore prunes exactly the seeded subtrees.
        """
        skipped: set[int] = set()
        needed: set[str] = set()
        for index in reversed(compiled.execution_order):
            plan = compiled.plans[index]
            if plan.produced_queries or any(
                name in needed for name in plan.produced_views
            ):
                needed.update(
                    name for name in plan.consumed_views if name not in seeds
                )
            else:
                skipped.add(index)
        return skipped

    def _execute_pinned(
        self,
        compiled: CompiledBatch,
        watch: Stopwatch,
        snapshot: Snapshot,
        view_seeds: ViewSeeds | None,
    ) -> RunResult:
        run = GroupRun(compiled, snapshot)
        seeds: dict[str, dict] = view_seeds.seeds if view_seeds is not None else {}
        skipped: set[int] = set()
        if seeds:
            run.view_data.update(seeds)
            skipped = self._skippable_groups(compiled, seeds)

        with watch.lap("execute"):
            self.walk_groups(run, skipped)

        if view_seeds is not None and view_seeds.publish is not None:
            # still inside the run's snapshot pin: the version (and its
            # auxiliary resources) cannot be reclaimed mid-publish.
            for name, data in run.view_data.items():
                if seeds.get(name) is not data:
                    view_seeds.publish(name, data)

        with watch.lap("collect"):
            results: dict[str, QueryResult] = {}
            for query in compiled.batch:
                results[query.name] = _to_query_result(
                    query, run.query_raw[query.name]
                )
        result = RunResult(
            results=results,
            compiled=compiled,
            timings=watch.laps,
            group_times=run.group_times,
            snapshot_version=snapshot.version,
            decisions=run.decisions,
            skipped_groups=tuple(
                compiled.group_plan.groups[index].name for index in sorted(skipped)
            ),
        )
        if debug_checks_enabled():
            _debug_check_run_consistency(result)
        return result

    # ------------------------------------------------------------------ helpers
    def _assign_roots(self, batch: QueryBatch, db: Database) -> dict[str, str]:
        config = self.config
        if config.single_root is not None:
            root = config.single_root
            if root == "auto":
                root = max(self.tree.nodes, key=db.cardinality)
            if root not in self.tree.nodes:
                raise PlanError(
                    f"EngineConfig.single_root {root!r} is not a join-tree node"
                )
            return {query.name: root for query in batch}
        return assign_roots(db, self.tree, batch, override=config.root_override)

    # ------------------------------------------------------ group execution seam
    def execute_group(
        self, run: GroupRun, index: int, trie: TrieIndex | None = None
    ) -> dict[str, dict]:
        """The group step: one compiled group over one trie → its outputs.

        The single place a group turns into execution, for every caller —
        the DAG walk (:meth:`walk_groups`), the incremental maintainer's
        dirty-path rescans and the numeric delta run
        (:func:`repro.incremental.rules.numeric_delta_run`). ``trie=None``
        scans the group's node under ``run.snapshot`` (its cached trie);
        an explicit ``trie`` is ad hoc — a delta trie over just the
        inserted tuples — and always runs in-process, since no snapshot
        trie key addresses it. Records the cost model's
        decision in ``run.decisions`` and returns the merged outputs
        without storing them: adoption (plain store, or the maintainer's
        diff-tracking merge) belongs to the caller.
        """
        return merge_partial_outputs(
            run.compiled.plans[index],
            [task() for task in self._group_tasks(run, index, trie)],
        )

    def _group_tasks(
        self,
        run: GroupRun,
        index: int,
        trie: TrieIndex | None = None,
        pooled: bool = False,
    ) -> list[Callable[[], dict]]:
        """Plan one group's execution: the calls that produce its partials.

        Everything data-dependent about running a group is decided here
        and nowhere else — the trie, the partition fan-out, the recorded
        :func:`~repro.core.costmodel.group_decision` (its backend is the
        compiled group's, fixed at compile) — and the partitions
        become partial-producing calls the executor-specific way:

        * ``executor="process"`` and the snapshot's trie actually split
          and the plan's functions travel by name: one call shipping the
          partitions to the worker pool (canonical chunk grid, pairwise
          tree reduce — :meth:`_ship_group`);
        * ``pooled`` (the thread scheduler): bindings marshalled once,
          then one call per partition for the shared pool;
        * otherwise one call running the partitions in order on the
          caller's thread (:func:`execute_plan_partitioned`).

        :func:`merge_partial_outputs` over the calls' results, in list
        order, is the group's output in every case: a partition-order
        left fold in-process, the identity over the single shipped or
        inline result. The fallbacks from shipping are bit-identical to
        it, so they are purely performance decisions.
        """
        compiled, config = run.compiled, self.config
        plan = compiled.plans[index]
        shippable = trie is None and config.executor == "process"
        if trie is None:
            snapshot = run.snapshot
            trie = node_trie(snapshot.db, plan.node, plan.order, snapshot.tries)
        group = compiled.executables[index]
        tries = partition_tries(
            plan, trie, config.partitions, config.parallel_threshold,
            # adaptive=False keeps the literal static fan-out
            costmodel.effective_concurrency(config) if config.adaptive else None,
        )
        # distinct key per group; plain dict assignment is safe across the
        # scheduler pool's threads.
        run.decisions[compiled.group_plan.groups[index].name] = (
            costmodel.group_decision(
                plan, trie, backend=group.backend, partitions=len(tries)
            )
        )
        if len(tries) > 1 and shippable:
            from repro.core import mpexec

            if mpexec.plan_transportable(plan, compiled.functions):
                return [lambda: self._ship_group(run, index, tries)]
        group_by, functions = compiled.view_group_by, compiled.functions
        if len(tries) > 1 and pooled:
            prepared = group.prepare_bindings(run.view_data, group_by)
            return [
                lambda part=part: execute_plan(
                    group, part, run.view_data, group_by, functions, prepared
                )
                for part in tries
            ]
        return [
            lambda: execute_plan_partitioned(
                group, tries, run.view_data, group_by, functions
            )
        ]

    def _ship_group(self, run: GroupRun, index: int, tries) -> dict[str, dict]:
        """Run one group's partitions in the worker pool (``executor="process"``).

        The partitions travel as one snapshot-pinned shared-memory segment
        keyed by ``(version, trie cache key)``; only the views the plan
        binds and the functions it resolves are sent along.
        """
        from repro.core import mpexec

        plan = run.compiled.plans[index]
        snapshot = run.snapshot
        executor = self._process_executor()
        executor.retain(snapshot.version)
        try:
            export = executor.export(
                snapshot.version,
                trie_cache_key(plan.node, plan.order),
                tries,
            )
            needed_views = {b.view for b in plan.bindings}
            return executor.execute_group(
                run.compiled,
                index,
                export,
                {v: run.view_data[v] for v in needed_views if v in run.view_data},
                {v: run.compiled.view_group_by[v] for v in needed_views},
                {
                    name: run.compiled.functions[name]
                    for name in mpexec.plan_function_names(plan)
                },
            )
        finally:
            executor.release(snapshot.version)

    def walk_groups(self, run: GroupRun, skipped: set[int] = frozenset()) -> None:
        """The DAG walk: every non-skipped group through the group step.

        One walk for every configuration; ``run`` collects the outputs,
        decisions and per-group wall-clock. What varies is only who runs
        the step's partial-producing calls:

        * the **thread scheduler** (``executor="thread"``, ``workers > 1``)
          is event-driven over both parallelism axes. *Task parallelism*:
          a group is launched as soon as its dependencies complete.
          *Domain parallelism*: a launched group first runs a *prepare*
          task (the group step's planning half — trie build, partitioning,
          one-time view marshalling), then one task per trie partition;
          partials merge in partition order on the scheduler thread. All
          tasks, across all in-flight groups, share one ``workers``-sized
          pool and none ever blocks on another, so the pool cannot
          deadlock. The scheduler sleeps in
          :func:`concurrent.futures.wait`; a completed group re-checks
          only its **consumers** for launch, and any task exception
          propagates out of the run immediately, cancelling work that has
          not started;
        * otherwise groups run one at a time, in ``execution_order``, on
          the caller's thread — no pool, no futures. Under
          ``executor="process"`` each step ships its own partitions to
          the worker pool, and the snapshot version stays retained for
          the whole walk: concurrent maintenance installing successors
          can never unlink a segment a worker still maps, nor make a
          later group of this run re-export one.
        """
        config = self.config
        if config.executor == "thread" and config.workers > 1:
            self._walk_pooled(run, skipped)
            return
        executor = None
        if config.executor == "process":
            executor = self._process_executor()
            executor.retain(run.snapshot.version)
        try:
            for index in run.compiled.execution_order:
                if index not in skipped:
                    started = time.perf_counter()
                    run.adopt(index, self.execute_group(run, index), started)
        finally:
            if executor is not None:
                executor.release(run.snapshot.version)

    def _walk_pooled(self, run: GroupRun, skipped: set[int]) -> None:
        """:meth:`walk_groups` under the thread scheduler (see there)."""
        compiled = run.compiled
        num_groups = compiled.num_groups
        remaining = {
            i: set(compiled.group_plan.dependencies.get(i, ()))
            for i in range(num_groups)
        }
        consumers = _consumers_index(compiled.group_plan)
        # seeded-skip groups count as done from the start: their outputs
        # are already in view_data, so consumers may launch over them.
        done: set[int] = set(skipped)
        launched: set[int] = set(skipped)
        pending: dict = {}  # Future -> (index, None) prepare | (index, p) partition
        partial: dict[int, list] = {}  # index -> per-partition outputs
        outstanding: dict[int, int] = {}  # index -> partitions still running
        started: dict[int, float] = {}

        def prepare(index: int):
            started[index] = time.perf_counter()
            return self._group_tasks(run, index, pooled=True)

        pool = ThreadPoolExecutor(max_workers=self.config.workers)

        def launch(index: int) -> None:
            launched.add(index)
            pending[pool.submit(prepare, index)] = (index, None)

        try:
            for index in range(num_groups):
                if index not in launched and remaining[index] <= done:
                    launch(index)
            while len(done) < num_groups:
                if not pending:
                    raise PlanError("group dependency graph is not schedulable")
                ready, _ = wait(set(pending), return_when=FIRST_COMPLETED)
                for future in ready:
                    index, part = pending.pop(future)
                    if part is None:
                        tasks = future.result()
                        partial[index] = [None] * len(tasks)
                        outstanding[index] = len(tasks)
                        for p, task in enumerate(tasks):
                            pending[pool.submit(task)] = (index, p)
                        continue
                    partial[index][part] = future.result()
                    outstanding[index] -= 1
                    if outstanding[index]:
                        continue
                    del outstanding[index]
                    run.adopt(
                        index,
                        merge_partial_outputs(
                            compiled.plans[index], partial.pop(index)
                        ),
                        started[index],
                    )
                    done.add(index)
                    for consumer in consumers.get(index, ()):
                        if consumer not in launched and remaining[consumer] <= done:
                            launch(consumer)
        except BaseException:
            # Drop every half-merged partial so nothing incomplete can
            # reach the run's stores, then cancel all queued tasks and
            # wait out the running ones — ``cancel_futures`` covers tasks
            # a worker thread may still be submitting results for, so the
            # raise below never leaves the pool accepting work.
            partial.clear()
            outstanding.clear()
            raise
        finally:
            pool.shutdown(wait=True, cancel_futures=True)


# ------------------------------------------------------------------ module fns


def _validate_execution_config(config: EngineConfig) -> None:
    """Reject nonsensical execution knobs up front, with actionable messages."""
    if not isinstance(config.workers, int) or config.workers < 1:
        raise PlanError(
            f"EngineConfig.workers must be an integer >= 1 "
            f"(1 = sequential), got {config.workers!r}"
        )
    if not isinstance(config.partitions, int) or config.partitions < 1:
        raise PlanError(
            f"EngineConfig.partitions must be an integer >= 1 "
            f"(1 = no domain parallelism), got {config.partitions!r}"
        )
    if not isinstance(config.parallel_threshold, int) or config.parallel_threshold < 0:
        raise PlanError(
            f"EngineConfig.parallel_threshold must be an integer >= 0 rows, "
            f"got {config.parallel_threshold!r}"
        )
    if config.backend not in {"python", "numpy", "c", "auto"}:
        raise PlanError(
            f"EngineConfig.backend must be one of 'python', 'numpy', 'c', "
            f"'auto', got {config.backend!r}"
        )
    if config.executor not in {"thread", "process"}:
        raise PlanError(
            f"EngineConfig.executor must be one of 'thread', 'process', "
            f"got {config.executor!r}"
        )
    if config.backend == "auto" and not config.adaptive:
        raise PlanError(
            "EngineConfig.backend='auto' is a cost-model decision and "
            "requires adaptive=True"
        )
    if config.backend == "auto" and config.executor == "process":
        raise PlanError(
            "EngineConfig.backend='auto' is not available with "
            "executor='process' (worker processes warm one backend per "
            "batch); pick an explicit backend"
        )


def _attribute_kinds(schema) -> dict[str, str]:
    """Attribute name → ``"categorical"`` / ``"continuous"`` (what the C
    backend's :func:`~repro.core.cbackend.supports_plan` decides on)."""
    return {
        attr: schema.attribute_kind(attr).value for attr in schema.all_attributes
    }


def _collect_functions(batch: QueryBatch) -> dict[str, Function]:
    functions: dict[str, Function] = {}
    for query in batch:
        for aggregate in query.aggregates:
            for factor in aggregate.factors:
                functions.setdefault(factor.function.name, factor.function)
    return functions


def _fold_predicates(
    batch: QueryBatch, functions: dict[str, Function]
) -> QueryBatch:
    """Fold every WHERE predicate into indicator factors."""
    queries: list[Query] = []
    for query in batch:
        if not query.where:
            queries.append(query)
            continue
        indicator_factors = []
        for predicate in query.where:
            fn = predicate.as_indicator()
            fn = functions.setdefault(fn.name, fn)
            indicator_factors.append(Factor(predicate.attribute, fn))
        new_aggs = tuple(
            Aggregate(agg.factors + tuple(indicator_factors))
            for agg in query.aggregates
        )
        queries.append(replace(query, aggregates=new_aggs, where=()))
    return QueryBatch(queries)


def _consumers_index(group_plan: GroupPlan) -> dict[int, list[int]]:
    """Inverted dependency map: producer group -> its consumer groups."""
    consumers: dict[int, list[int]] = {}
    for consumer, producers in group_plan.dependencies.items():
        for producer in producers:
            consumers.setdefault(producer, []).append(consumer)
    return consumers


def _topological_order(group_plan: GroupPlan) -> list[int]:
    indegree = {
        i: len(group_plan.dependencies.get(i, ())) for i in range(group_plan.num_groups)
    }
    consumers = _consumers_index(group_plan)
    # heapq keeps deterministic smallest-index-first order without the
    # O(n²) of list.pop(0) on wide DAGs.
    ready = [i for i, d in indegree.items() if d == 0]
    heapq.heapify(ready)
    order: list[int] = []
    while ready:
        index = heapq.heappop(ready)
        order.append(index)
        for consumer in consumers.get(index, ()):
            indegree[consumer] -= 1
            if indegree[consumer] == 0:
                heapq.heappush(ready, consumer)
    if len(order) != group_plan.num_groups:
        raise PlanError("cyclic group dependencies — grouping bug")
    return order


def _to_query_result(query: Query, raw: dict) -> QueryResult:
    """Finish one query's raw group store into its published result.

    This is the single seam where ordered queries are ranked and
    truncated (see :mod:`repro.core.topk`) — once, over the full merged
    raw groups. Both the engine's collect phase and the incremental
    maintainer's result refresh go through it, so ordered results are
    bit-identical no matter which path produced the raw store.
    """
    if query.order_by is not None:
        return QueryResult(query=query, groups=topk.finish_ordered(query, raw))
    if (
        isinstance(raw, ArrayViewData)
        and raw.has_columns
        and raw.key_columns
        and raw.value_matrix.dtype == np.float64
    ):
        # columnar: the same keys, values and row order as the dict path
        # below, read straight off the arrays without building the mirror
        keys = zip(*(column.tolist() for column in raw.key_columns))
        values = map(tuple, raw.value_matrix.tolist())
        return QueryResult(query=query, groups=dict(zip(keys, values)))
    groups: dict[tuple, tuple[float, ...]] = {}
    for key, values in raw.items():
        if not isinstance(key, tuple):
            key = (key,)
        groups[key] = tuple(float(v) for v in values)
    return QueryResult(query=query, groups=groups)


def _debug_check_run_consistency(run: RunResult) -> None:
    """LMFAO_DEBUG invariants tying decisions/timings/skips together.

    Every executed group must have exactly one decision record and one
    wall-clock entry; skipped groups must have neither.
    """
    all_groups = {g.name for g in run.compiled.group_plan.groups}
    skipped = set(run.skipped_groups)
    executed = all_groups - skipped
    assert skipped <= all_groups, (
        f"skipped_groups {sorted(skipped - all_groups)} not in the plan"
    )
    assert set(run.decisions) == executed, (
        f"decision records diverge from executed groups: "
        f"{sorted(set(run.decisions) ^ executed)}"
    )
    assert set(run.group_times) == executed, (
        f"group_times diverge from executed groups: "
        f"{sorted(set(run.group_times) ^ executed)}"
    )
