"""The maintained-batch handle: compile once, apply deltas many times.

:class:`MaintainedBatch` keeps a compiled batch's entire intermediate state
alive — every view's contents, every query's raw groups, and the trie
indexes of every join-tree node — and refreshes exactly the affected slice
of it per update round:

1. **base update** — each delta is applied to its relation (append /
   tombstone), and only that node's tries change: each is carried to the
   new relation by the delta
   (:meth:`repro.core.snapshot.Snapshot.with_relations`), so a rescan
   below reads a warm trie equal to a cold build;
2. **dirty-path walk** — the round is a :class:`MaintainedRound`, which
   the engine's one DAG walk (:meth:`~repro.core.engine.LMFAO.walk_groups`)
   walks like any run, on the thread scheduler when ``workers > 1``. The
   walk asks the round, once a group's producers are done, whether and
   over which trie to step it: a group steps only when its node's
   relation changed or one of its incoming views changed this round;
   everything off the path keeps its cached outputs;
3. **per-group maintenance** — a stepped group is refreshed either by the
   **numeric** delta step (insert-only change at its own node: the group
   step runs the same compiled group code over a trie of just the
   inserted tuples and
   :func:`~repro.incremental.rules.merge_delta_outputs` adds the emitted
   deltas in — exact because every slot is a sum over the node's rows,
   hence linear in the row multiset, and key sets only grow under
   inserts) or by a **rescan** (re-execute over the node's full trie with
   refreshed inputs — bit-identical to a from-scratch run). Both are the
   engine's one group step
   (:meth:`~repro.core.engine.LMFAO.execute_group`), and the round
   records ``group_times`` and ``decisions`` for them as a run does;
4. **delta cutoff** — a refreshed view whose rows equal its previous
   ones, as bags (:func:`~repro.incremental.rules.same_rows`), stops
   dirtying its consumers (always on);
5. **finish** — every query whose raw groups changed is finished afresh
   by :func:`~repro.core.engine._to_query_result`, the seam a run's
   collect phase uses. An ordered query's raw store is kept **full**, so
   a delete can bring back a row an earlier round had cut at ``k``, and
   the result is ranked exactly as a from-scratch run ranks it.

No re-planning, no code generation, and no scans of untouched nodes happen
after construction. ``EngineConfig.incremental_mode`` selects the strategy:
``"auto"`` (numeric where exact, rescan otherwise) or ``"rescan"`` (always
rescan; the maintained state stays bit-for-bit equal to recomputation).

**One commit path.** Every write to an engine — a direct :meth:`apply`,
or a group commit of :class:`repro.serve.AggregateServer`'s write queue —
goes through :meth:`repro.core.engine.LMFAO.commit`, and **every** live
handle of that engine follows every commit. Under the engine's commit
lock the commit builds a complete *successor version* off to the side —
a new :class:`~repro.core.snapshot.Snapshot` (structurally sharing
unchanged relations and tries) plus, per handle, copy-on-write view/query
stores (untouched artifacts are carried by reference, numeric merges build
new views for the artifacts they update) — then installs the snapshot
into the engine's :class:`~repro.core.snapshot.SnapshotStore` (so
subsequent :meth:`~repro.core.engine.LMFAO.run` calls see the new data,
while in-flight runs keep the version they pinned) and flips each
handle's state pointer. Readers of :attr:`results` /
:meth:`view_contents` therefore always observe one complete version —
never a half-applied delta — and a commit that fails anywhere leaves the
engine and every handle exactly as they were.

A handle built by :meth:`repro.serve.AggregateServer.maintain` enqueues
its delta on the server's write queue and blocks for the
:class:`ApplyResult` of the group commit that covered it (several queued
writes may land in one snapshot transition — the handle is refreshed
once, over the composed delta, bit-exact vs applying each delta
sequentially). The full contract is in ``docs/serving.md``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Mapping

from repro.core.engine import (
    CompiledBatch,
    GroupRun,
    LMFAO,
    RunResult,
    _debug_check_run_consistency,
    _to_query_result,
)
from repro.core.runtime import ArrayViewData, as_mapping, debug_checks_enabled
from repro.core.snapshot import Snapshot
from repro.data.catalog import Database
from repro.data.trie import TrieIndex
from repro.incremental.delta import RelationDelta, normalize_deltas
from repro.incremental.rules import merge_delta_outputs, same_rows
from repro.query.query import QueryResult
from repro.util.errors import PlanError

_MODES = ("auto", "rescan")


@dataclass
class ApplyResult:
    """Outcome of one apply round: refreshed results plus maintenance stats."""

    #: all query results of the *new* version (what the handle now serves).
    results: dict[str, QueryResult]
    #: queries whose groups actually changed this round.
    refreshed_queries: tuple[str, ...]
    #: views whose contents actually changed this round.
    refreshed_views: tuple[str, ...]
    relations_changed: tuple[str, ...]
    #: groups maintained by the numeric step (a delta run over the
    #: inserted tuples, then an O(|view|) copy-on-write merge).
    groups_numeric: int
    #: groups re-executed over their full (cached) trie.
    groups_rescanned: int
    #: groups skipped entirely — off the dirty path or cut off.
    groups_skipped: int
    seconds: float
    #: the snapshot version this round installed (unchanged on empty deltas).
    version: int = 0

    def __getitem__(self, query_name: str) -> QueryResult:
        return self.results[query_name]


@dataclass(frozen=True)
class _MaintainedVersion:
    """One immutable version of a handle's full maintained state.

    The snapshot carries the relations and trie memo; the stores carry
    every view's contents and every query's raw groups over exactly that
    snapshot. Versions share untouched artifacts structurally — an apply
    copies only what it refreshes.
    """

    snapshot: Snapshot
    view_data: dict[str, ArrayViewData] = field(repr=False)
    query_raw: dict[str, ArrayViewData] = field(repr=False)
    results: dict[str, QueryResult] = field(repr=False)


@dataclass
class MaintainedRound(GroupRun):
    """One update round as a run of the engine's DAG walk.

    :meth:`step` is the dirty-path rule: a group whose node's relation
    and incoming views are all unchanged this round is not stepped (it
    keeps its outputs); an insert-only change at its own node, with no
    incoming view changed and ``numeric`` on, steps it over a trie of the
    inserted tuples; anything else rescans the node's trie under the
    successor snapshot. :meth:`adopt` takes a stepped group's outputs in
    copy-on-write — numeric deltas merged
    (:func:`~repro.incremental.rules.merge_delta_outputs`), rescans
    replacing — into the stores the round started from copies of, and
    notes the artifacts that changed. The walk asks :meth:`step` only
    when a group's producers are adopted, so the choice reads their
    changes, and both run on the walk's own thread.
    """

    deltas: Mapping[str, RelationDelta] = field(default_factory=dict)
    numeric: bool = True
    #: group indices by how this round treated them: stepped over the
    #: inserted tuples and merged, rescanned, or not stepped
    merged: set[int] = field(default_factory=set)
    rescanned: set[int] = field(default_factory=set)
    skipped: set[int] = field(default_factory=set)
    refreshed_views: set[str] = field(default_factory=set)
    dirty_queries: set[str] = field(default_factory=set)

    @property
    def skipped_groups(self) -> tuple[str, ...]:
        groups = self.compiled.group_plan.groups
        return tuple(groups[index].name for index in sorted(self.skipped))

    def step(self, index: int) -> tuple[bool, TrieIndex | None]:
        plan = self.compiled.plans[index]
        delta = self.deltas.get(plan.node)
        upstream = any(v in self.refreshed_views for v in plan.consumed_views)
        if delta is None and not upstream:
            self.skipped.add(index)
            return False, None
        if self.numeric and delta is not None and delta.insert_only and not upstream:
            self.merged.add(index)
            return True, TrieIndex(delta.inserts, plan.order)
        # over the node's full (cached) trie: same cut points, partition
        # order and offload decision as a from-scratch run, so a rescan
        # stays bit-identical to one
        self.rescanned.add(index)
        return True, None

    def adopt(
        self, index: int, outputs: dict[str, ArrayViewData], started: float
    ) -> None:
        adopted = dict(outputs)
        for emission in self.compiled.plans[index].emissions:
            is_view = emission.kind == "view"
            name = emission.artifact
            old = (self.view_data if is_view else self.query_raw)[name]
            if index in self.merged:
                adopted[name], changed = merge_delta_outputs(old, outputs[name])
            else:
                changed = not same_rows(old, outputs[name])
            if changed:
                (self.refreshed_views if is_view else self.dirty_queries).add(name)
        super().adopt(index, adopted, started)


class MaintainedBatch:
    """A compiled batch plus its maintained state. Built by :meth:`LMFAO.maintain`."""

    def __init__(self, engine: LMFAO, compiled: CompiledBatch) -> None:
        if engine.config.incremental_mode not in _MODES:
            raise PlanError(
                f"EngineConfig.incremental_mode must be one of "
                f"{', '.join(repr(m) for m in _MODES)}, "
                f"got {engine.config.incremental_mode!r}"
            )
        self.compiled = compiled
        self.config = engine.config
        self.applies = 0
        self._engine = engine
        # the server's write queue, set by AggregateServer.maintain
        self._router = None
        # Pin the engine's current snapshot. Its trie memo is *shared* (the
        # memo only gains immutable entries, so warming it here warms the
        # engine's runs too); successor versions built by apply() share
        # every unchanged node's tries structurally.
        run = GroupRun(compiled, engine.snapshot())
        engine.walk_groups(run)
        results = {
            query.name: _to_query_result(query, run.query_raw[query.name])
            for query in compiled.batch
        }
        self._state = _MaintainedVersion(
            run.snapshot, run.view_data, run.query_raw, results
        )

    # ---------------------------------------------------------------- accessors
    @property
    def results(self) -> dict[str, QueryResult]:
        """Current (maintained) results, keyed by query name.

        Reading this property pins one complete version: the returned dict
        belongs to the latest installed :class:`_MaintainedVersion` and is
        never mutated by later applies (they install fresh dicts).
        """
        return self._state.results

    def result(self, query_name: str) -> QueryResult:
        return self._state.results[query_name]

    def __getitem__(self, query_name: str) -> QueryResult:
        return self._state.results[query_name]

    @property
    def database(self) -> Database:
        """The current database version (original plus all applied deltas)."""
        return self._state.snapshot.db

    @property
    def db(self) -> Database:
        """Alias of :attr:`database` (parity with ``LMFAO.db``)."""
        return self._state.snapshot.db

    @property
    def version(self) -> int:
        """The snapshot version the handle currently serves."""
        return self._state.snapshot.version

    def view_contents(self, view_name: str) -> dict:
        """Maintained contents of one internal view (inspection/testing),
        as a ``key → [aggregates]`` dict."""
        return as_mapping(self._state.view_data[view_name])

    def recompute(self) -> "RunResult":
        """From-scratch run over the current database — the oracle baseline.

        Builds a fresh engine (cold tries, recompilation) so the comparison
        in benchmarks and differential tests is honest.
        """
        # closed on the way out: a process-executor engine owns a worker
        # pool and shm segments that would otherwise wait for a cyclic GC
        with LMFAO(self._state.snapshot.db, self.config) as fresh:
            return fresh.run(self.compiled.batch)

    # -------------------------------------------------------------------- apply
    def apply(self, inserts=None, deletes=None) -> ApplyResult:
        """Update base relations and propagate deltas through affected views.

        ``inserts`` / ``deletes`` map relation names to tuples to add /
        remove — each value a :class:`Relation`, a row sequence, a column
        mapping, or (deletes only) a boolean mask over the current
        instance. A server-bound handle enqueues the delta on its server's
        group-committed write queue and blocks for the commit that covers
        it; a direct handle commits at once. Both end in the engine's one
        commit path (:meth:`~repro.core.engine.LMFAO.commit`), which every
        handle of the engine follows. The returned :class:`ApplyResult`
        carries this handle's new results plus per-round stats.
        """
        deltas = normalize_deltas(self.db, inserts, deletes)
        if not deltas:  # the no-op round: nothing staged, version kept
            self.applies += 1
            return ApplyResult(
                results=self.results,
                refreshed_queries=(),
                refreshed_views=(),
                relations_changed=(),
                groups_numeric=0,
                groups_rescanned=0,
                groups_skipped=0,
                seconds=0.0,
                version=self.version,
            )
        if self._router is not None:
            return self._router.submit(deltas, handle=self).result()
        return self._engine.commit(deltas)[1][self]

    def _advance_state(
        self, deltas: Mapping[str, RelationDelta], snapshot: Snapshot
    ) -> tuple[_MaintainedVersion, ApplyResult]:
        """Compute the successor maintained state, entirely off to the side.

        ``snapshot`` is the (not yet installed) direct successor carrying
        ``deltas``'s staged relations. Nothing is published: the engine's
        commit installs the snapshot and then flips the handle via
        :meth:`_commit_state`, so a failure anywhere in here leaves both
        the handle and the engine exactly as they were. The dirty-path
        walk, numeric/rescan choice and copy-on-write merge discipline are
        identical for single deltas and for group-composed ones.
        """
        start = time.perf_counter()
        state = self._state
        if snapshot.version != state.snapshot.version + 1:
            raise PlanError(
                f"maintained handle at version {state.snapshot.version} "
                f"cannot advance to non-successor version {snapshot.version}"
            )
        # the successor version is built off to the side (copy-on-write);
        # a downstream group reads its upstream views refreshed-this-round
        run = MaintainedRound(
            self.compiled,
            snapshot,
            dict(state.view_data),
            dict(state.query_raw),
            deltas=deltas,
            numeric=self.config.incremental_mode != "rescan",
        )
        self._engine.walk_groups(run)
        if debug_checks_enabled():
            _debug_check_run_consistency(run)
        results = dict(state.results)
        for query in self.compiled.batch:
            if query.name in run.dirty_queries:
                results[query.name] = _to_query_result(
                    query, run.query_raw[query.name]
                )
        new_state = _MaintainedVersion(
            snapshot, run.view_data, run.query_raw, results
        )
        result = ApplyResult(
            results=results,
            refreshed_queries=tuple(sorted(run.dirty_queries)),
            refreshed_views=tuple(sorted(run.refreshed_views)),
            relations_changed=tuple(sorted(deltas)),
            groups_numeric=len(run.merged),
            groups_rescanned=len(run.rescanned),
            groups_skipped=len(run.skipped),
            seconds=time.perf_counter() - start,
            version=snapshot.version,
        )
        return new_state, result

    def _commit_state(self, new_state: _MaintainedVersion) -> None:
        """Flip the handle to an already-installed successor state."""
        self._state = new_state
        self.applies += 1

    def __repr__(self) -> str:
        return (
            f"MaintainedBatch(queries={len(self.compiled.batch)}, "
            f"views={self.compiled.num_views}, groups={self.compiled.num_groups}, "
            f"applies={self.applies}, version={self.version})"
        )
