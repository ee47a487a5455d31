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
decision-tree aggregates share a single scan. Predicates shared by *every*
query in a batch can optionally be pushed into physical filters on the base
relations instead (``push_shared_predicates``).

Every optimisation is individually switchable through
:class:`EngineConfig`, which is what the ablation benchmarks exercise.

Execution is **snapshot-isolated**: all trie/relation state lives in
immutable versioned :class:`~repro.core.snapshot.Snapshot` objects held by
a :class:`~repro.core.snapshot.SnapshotStore`; :meth:`LMFAO.run` pins the
version it started on, and incremental maintenance installs successor
versions atomically (:mod:`repro.incremental.maintain`), so queries never
observe a half-applied delta. The compile pipeline sits behind a
fingerprintable boundary: :class:`CompiledBatch` is pure structure, and a
:class:`PlanBinding` (built by :mod:`repro.serve.fingerprint`) re-binds
per-request predicate constants at execution time — the compile-once
serving layer (:mod:`repro.serve`) is built on exactly these two seams.
"""

from __future__ import annotations

import heapq
import threading
import time
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Mapping

from repro.core import costmodel, topk
from repro.core.decompose import decompose_group
from repro.core.groups import GroupPlan, build_groups
from repro.core.orders import GroupOrder, order_group
from repro.core.plan import MultiOutputPlan
from repro.core.snapshot import Snapshot, SnapshotStore
from repro.core.runtime import (
    compile_executables,
    debug_checks_enabled,
    execute_plan,
    execute_plan_partitioned,
    merge_partial_outputs,
    node_trie,
    partition_tries,
    select_executable,
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
from repro.query.predicates import Predicate
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
    ``push_shared_predicates`` (bool, default False)
        no value validation. ``True`` turns predicates common to *every*
        query of the batch into physical filters on the base relations
        instead of indicator factors (paper §3.2: decision-tree path
        conditions);
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
    ``backend`` (str, default "python")
        must be one of ``"python"`` (specialised Python over the trie
        runtime — the paper's generated C++ transposed to Python, §2.3),
        ``"numpy"`` (whole-level array programs over the same trie —
        segment-reduction sums, vectorized probes, CSR entry-list
        expansion for carried views; every plan shape runs natively, no
        fallback class), ``"c"`` (generated C compiled with gcc,
        carried blocks included; per-group fallback to Python when a
        plan has a non-integer trie level, view key or group-by
        attribute; ``compile()`` raises ``PlanError`` if gcc is
        missing), or ``"auto"`` (the cost model picks per group at
        execution time: tiny tries stay on interpreted Python, larger
        ones run compiled C when the group has a C implementation, else
        NumPy — see :func:`repro.core.costmodel.choose_backend`; gcc
        missing is not an error, the C candidates just stay absent).
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
        (:mod:`repro.core.costmodel`) treat ``partitions``, ``workers``
        and the NumPy grouping strategy as **advisory upper bounds**:
        partition fan-out is capped at the threads that can actually run
        concurrently, hash emissions switch to sort-based grouping when
        their keys are nearly unique, and ``backend="auto"`` picks a
        backend per group. ``False`` restores the literal static knobs
        (the ablation baseline). Adaptive decisions are data-dependent
        and re-decided per execution — they never enter compiled
        artefacts or the serving layer's structural fingerprints
        (:class:`EngineConfig` itself, including this flag, does);
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
        one of ``"numeric"`` (O(|Δ|) view deltas computed over a trie of
        just the changed tuples — insert-only changes at the group's own
        node — and a ``PlanError`` on deletes rather than a silent
        fallback), ``"rescan"`` (re-execute dirty groups over their
        cached full tries; bit-for-bit equal to recomputation), or
        ``"auto"`` (numeric where exact, rescan otherwise);
    ``incremental_cutoff`` (bool, default True)
        no value validation. ``False`` disables delta cutoff: downstream
        groups re-run even when a refreshed view turned out identical
        (ablation of the dirty-path scheduler).

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
    push_shared_predicates: bool = False
    single_root: str | None = None
    root_override: dict[str, str] | None = None
    join_tree_edges: tuple[tuple[str, str], ...] | None = None
    workers: int = 1
    partitions: int = 1
    parallel_threshold: int = 8192
    backend: str = "python"
    executor: str = "thread"
    adaptive: bool = True
    incremental_mode: str = "auto"
    incremental_cutoff: bool = True

    def validate(self) -> "EngineConfig":
        """Reject nonsensical execution knobs, with actionable messages.

        Called by ``LMFAO(...)`` and ``compile()``; returns ``self`` so it
        chains. See the class docstring for the per-field rules.
        """
        _validate_execution_config(self)
        return self


@dataclass(frozen=True)
class PlanBinding:
    """Per-request constants bound to a structurally cached :class:`CompiledBatch`.

    Produced by :func:`repro.serve.fingerprint.bind_batch` when a
    plan-cache hit serves a batch that is structurally identical to the
    compiled one but differs in ``WHERE``-predicate constants. The
    compiled artefacts — view plan, groups, orders, every backend's
    executables — are reused verbatim; everything constant-dependent is
    swapped at execution time through this object:

    ``batch``
        the *request* batch. Results are collected against its
        :class:`~repro.query.query.Query` objects (same names and
        group-bys as the compiled batch, by fingerprint equality), so the
        returned :class:`~repro.query.query.QueryResult`\\ s carry the
        request's predicates, not the cached batch's;
    ``functions``
        plan slot name → runtime :class:`~repro.query.functions.Function`.
        Keys are the *compiled* batch's function names (what the plan IR
        references); values are the request's functions — for an
        indicator slot ``ind[<=5]`` compiled from ``x <= 5``, a request
        with ``x <= 7`` binds the ``ind[<=7]`` function under the
        ``ind[<=5]`` key. Trie-side caches key on the *bound* function's
        own name, so re-bound constants never collide in shared caches
        (see :func:`repro.core.runtime._product_signature`);
    ``shared_predicates``
        the request's pushed-down predicate constants (only non-empty
        under ``push_shared_predicates=True``); the trie cache key
        includes their true values, so differently-filtered requests get
        distinct physical tries.
    """

    batch: QueryBatch
    functions: dict[str, Function]
    shared_predicates: tuple[Predicate, ...]


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
    requests, re-binding predicate constants via :class:`PlanBinding`.

    Field notes: ``batch`` is the original request; ``folded`` the same
    batch with non-shared predicates folded into indicator factors;
    ``execution_order`` a topological order of ``group_plan``'s
    dependency DAG; ``shared_predicates`` the predicates pushed into
    physical filters (empty unless ``push_shared_predicates``);
    ``executables`` the per-backend table of compiled groups
    (:func:`repro.core.runtime.compile_executables`): backend name →
    one entry per group, each implementing the compiled-group protocol.
    ``"python"`` is always present and complete; ``"numpy"`` / ``"c"``
    exist when ``config.backend`` compiles them (``"auto"``: both, ``"c"``
    absent without gcc) and hold ``None`` for a group that backend does
    not cover; ``c_library`` keeps the C groups' shared object loaded.
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
    shared_predicates: tuple[Predicate, ...]
    execution_order: list[int]
    executables: dict[str, list]
    c_library: object | None = None

    @property
    def native_group_count(self) -> int:
        """How many groups have a non-Python (C or NumPy) implementation."""
        return sum(
            any(
                table[index] is not None
                for backend, table in self.executables.items()
                if backend != "python"
            )
            for index in range(len(self.plans))
        )

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
        return self.executables["python"][group_index].source


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
    compilation, the runtime functions and pushed-down predicates bound
    for this request, the pinned snapshot, the views computed (or seeded)
    so far — and what the DAG walk (:meth:`LMFAO.walk_groups`) writes
    back. The engine's own runs, the incremental maintainer's rounds and
    the view-cache refresh each build one; ``snapshot`` may stay None
    when every group is stepped over an explicit (delta) trie.
    """

    compiled: CompiledBatch
    functions: Mapping[str, Function]
    shared: tuple[Predicate, ...]
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
    #: per-group execution decisions the cost model made for this run
    #: (backend, partition count, grouping strategy per hash emission) —
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

    Caches trie indexes (per node, attribute order and filter) and carries
    them across runs — the decision-tree workload recompiles aggregates per
    tree node but reuses every trie.

    All data state lives in an immutable versioned
    :class:`~repro.core.snapshot.Snapshot` behind a
    :class:`~repro.core.snapshot.SnapshotStore`: :meth:`run` pins the
    current version on entry and reads only from it, while incremental
    maintenance (:meth:`maintain`) installs successor versions atomically
    — concurrent queries never block behind maintenance and never observe
    a half-applied delta. ``engine.db`` always denotes the *current*
    version's database.
    """

    def __init__(self, db: Database, config: EngineConfig | None = None) -> None:
        self.config = config or EngineConfig()
        self.config.validate()
        if self.config.join_tree_edges is not None:
            self.tree = JoinTree(db.schema, list(self.config.join_tree_edges))
        else:
            self.tree = build_join_tree(db.schema)
        self._snapshots = SnapshotStore(Snapshot(version=0, db=db, tries={}))
        self._mpexec = None
        self._mpexec_lock = threading.Lock()
        # when a superseded version loses its last reader pin, drop its
        # shared-memory trie segments too (no-op for the thread executor).
        self._snapshots.add_reclaim_hook(self._reclaim_snapshot_version)

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
                    adaptive=self.config.adaptive,
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

    @property
    def _trie_cache(self) -> dict:
        """The current snapshot's trie memo (back-compat accessor)."""
        return self._snapshots.current().tries

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

        shared: tuple[Predicate, ...] = ()
        if config.push_shared_predicates:
            shared = batch.shared_predicates()
        folded = _fold_predicates(batch, shared, functions)

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
        executables, c_library = compile_executables(
            plans,
            config.backend,
            config.share_scan_terms,
            config.adaptive,
            _attribute_kinds(db.schema),
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
            shared_predicates=shared,
            execution_order=_topological_order(group_plan),
            executables=executables,
            c_library=c_library,
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
        ``incremental_mode`` / ``incremental_cutoff`` on
        :class:`EngineConfig` for the maintenance strategy switches.
        """
        from repro.incremental.maintain import MaintainedBatch

        return MaintainedBatch(self, self.compile(batch))

    def execute(
        self,
        compiled: CompiledBatch,
        watch: Stopwatch | None = None,
        snapshot: Snapshot | None = None,
        binding: PlanBinding | None = None,
        view_seeds: ViewSeeds | None = None,
    ) -> RunResult:
        """Execute an already compiled batch.

        ``snapshot`` pins the database version all reads come from
        (default: the current one — pinned here, once, so the run is
        isolated from concurrently installed versions either way).
        ``binding`` re-binds per-request predicate constants onto a
        structurally cached compilation (see :class:`PlanBinding`); when
        None the compiled batch executes with its own constants.
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
            return self._execute_pinned(
                compiled, watch, snapshot, binding, view_seeds
            )
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
        binding: PlanBinding | None,
        view_seeds: ViewSeeds | None,
    ) -> RunResult:
        # a binding carries the request's batch, functions and pushed-down
        # predicates under the compiled batch's own field names
        bound = compiled if binding is None else binding
        batch = bound.batch
        run = GroupRun(compiled, bound.functions, bound.shared_predicates, snapshot)
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
            for query in batch:
                results[query.name], strategy = _to_query_result(
                    query, run.query_raw[query.name]
                )
                if strategy is not None:
                    # an ordered query's kernel choice lands in the
                    # producing group's decision record (queries are
                    # never seeded, so that group always executed).
                    entry = run.decisions.get(_producer_name(compiled, query.name))
                    if entry is not None:
                        entry.setdefault("topk", {})[query.name] = strategy
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
            _debug_check_run_consistency(batch, result)
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

    def _trie(
        self,
        node: str,
        order: tuple[str, ...],
        shared: tuple[Predicate, ...],
        snapshot: Snapshot,
    ) -> TrieIndex:
        return node_trie(snapshot.db, node, order, shared, snapshot.tries)

    def _select_native(self, compiled: CompiledBatch, index: int, rows: int):
        """One group's executable and the backend name it runs as.

        Static backends take the configured backend's entry of
        ``compiled.executables``; ``backend="auto"`` asks the cost model to
        pick per group from the trie's row count — interpreted Python for
        tiny tries, compiled C when this group has a C candidate, else
        NumPy. Either way a group the chosen backend does not cover runs
        (and is recorded) as generated Python.
        """
        backend = self.config.backend
        if backend == "auto":
            c_table = compiled.executables.get("c")
            backend = costmodel.choose_backend(
                rows, bool(c_table) and c_table[index] is not None
            )
        return select_executable(compiled.executables, index, backend)

    # ------------------------------------------------------ group execution seam
    def execute_group(
        self, run: GroupRun, index: int, trie: TrieIndex | None = None
    ) -> dict[str, dict]:
        """The group step: one compiled group over one trie → its outputs.

        The single place a group turns into execution, for every caller —
        the DAG walk (:meth:`walk_groups`), the incremental maintainer's
        dirty-path rescans and the numeric delta run
        (:func:`repro.incremental.rules.numeric_delta_run`). ``trie=None``
        scans the group's node under ``run.snapshot`` (cached trie, shared
        predicates pushed down); an explicit ``trie`` is ad hoc — a delta
        trie over just the inserted tuples — and always runs in-process,
        since no snapshot trie key addresses it. Records the cost model's
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
        and nowhere else — the trie, the executable (per group under
        ``backend="auto"``), the partition fan-out, the recorded
        :func:`~repro.core.costmodel.group_decision` — and the partitions
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
            trie = self._trie(plan.node, plan.order, run.shared, run.snapshot)
        group, backend = self._select_native(compiled, index, trie.num_rows)
        tries = partition_tries(
            plan, trie, config.partitions, config.parallel_threshold,
            # adaptive=False keeps the literal static fan-out
            costmodel.effective_concurrency(config) if config.adaptive else None,
        )
        # distinct key per group; plain dict assignment is safe across the
        # scheduler pool's threads.
        run.decisions[compiled.group_plan.groups[index].name] = (
            costmodel.group_decision(
                plan, trie, backend=backend, partitions=len(tries),
                adaptive=config.adaptive,
            )
        )
        if len(tries) > 1 and shippable:
            from repro.core import mpexec

            if mpexec.plan_transportable(plan, run.functions):
                return [lambda: self._ship_group(run, index, tries)]
        group_by = compiled.view_group_by
        if len(tries) > 1 and pooled:
            prepared = group.prepare_bindings(run.view_data, group_by)
            return [
                lambda part=part: execute_plan(
                    group, part, run.view_data, group_by, run.functions, prepared
                )
                for part in tries
            ]
        return [
            lambda: execute_plan_partitioned(
                group, tries, run.view_data, group_by, run.functions
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
                trie_cache_key(snapshot.db, plan.node, plan.order, run.shared),
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
                    name: run.functions[name]
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
    batch: QueryBatch,
    shared: tuple[Predicate, ...],
    functions: dict[str, Function],
) -> QueryBatch:
    """Fold non-shared WHERE predicates into indicator factors."""
    shared_sigs = {p.signature for p in shared}
    queries: list[Query] = []
    for query in batch:
        remaining = [p for p in query.where if p.signature not in shared_sigs]
        if not remaining:
            queries.append(
                query if not query.where else replace(query, where=tuple())
            )
            continue
        indicator_factors = []
        for predicate in remaining:
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


def _to_query_result(query: Query, raw: dict) -> tuple[QueryResult, str | None]:
    """Finish one query's raw group store into its published result, plus
    the top-k kernel that ranked it (``None`` for an unordered query).

    This is the single seam where ordered queries are ranked and
    truncated (see :mod:`repro.core.topk`) — once, over the full merged
    raw groups. Both the engine's collect phase and the incremental
    maintainer's result refresh go through it, so ordered results are
    bit-identical no matter which path produced the raw store.
    """
    if query.order_by is not None:
        groups, strategy = topk.finish_ordered(query, raw)
        return QueryResult(query=query, groups=groups), strategy
    groups: dict[tuple, tuple[float, ...]] = {}
    for key, values in raw.items():
        if not isinstance(key, tuple):
            key = (key,)
        groups[key] = tuple(float(v) for v in values)
    return QueryResult(query=query, groups=groups), None


def _producer_name(compiled: CompiledBatch, artifact: str) -> str:
    """Name of the group whose plan emits one view or query."""
    return compiled.group_plan.groups[compiled.producers[artifact]].name


def _debug_check_run_consistency(batch: QueryBatch, run: RunResult) -> None:
    """LMFAO_DEBUG invariants tying decisions/timings/skips together.

    Every executed group must have exactly one decision record and one
    wall-clock entry; skipped groups must have neither; and every ordered
    query must have its top-k kernel choice recorded under its producing
    group (queries are never view-cache seeded, so the producer ran).
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
    for query in batch:
        if query.order_by is None:
            continue
        producer = _producer_name(run.compiled, query.name)
        assert producer in executed, (
            f"ordered query {query.name} has no executed producer group"
        )
        recorded = run.decisions[producer].get("topk", {}).get(query.name)
        assert recorded in (costmodel.STRATEGY_HEAP, costmodel.STRATEGY_SORT), (
            f"ordered query {query.name} missing top-k strategy in "
            f"decisions[{producer!r}]: {recorded!r}"
        )
