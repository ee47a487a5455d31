"""Multiprocess domain parallelism over shared-memory tries.

Thread-based domain parallelism cannot beat the GIL for the Python and
NumPy backends, so this module runs a group's trie partitions in **worker
processes** instead — without ever pickling a trie or a relation:

* **Shared-memory transport** — the CSR trie is already a handful of flat
  numpy arrays (sorted column buffers plus five level arrays per level).
  :func:`export_tries` packs every partition's arrays into one
  ``multiprocessing.shared_memory`` segment and describes the layout with a
  picklable :class:`TrieExport`; a worker maps the segment and reassembles
  each partition zero-copy via :meth:`TrieIndex.from_shared_parts`.
* **Warm-up protocol** — compiled artefacts (generated code, native C or
  NumPy groups) hold unpicklable state, so workers receive the *plans* once
  per batch and recompile locally. The warmed batch is cached per process,
  amortised across every subsequent run of the same compilation (the
  decision-tree workload), exactly like the parent's plan cache.
* **Merge topology** — following the distributed-aggregation literature
  (PAPERS.md), each worker first **locally combines** the partials of its
  contiguous partition chunks with :func:`merge_partial_outputs`, then the
  parent **tree-reduces** the per-chunk partials pairwise. The chunk grid
  is **canonical**: it depends only on the partition list (contiguous in
  level-0 order, at most :data:`LOCAL_COMBINE_FANOUT` chunks), never on
  the worker count — chunks are dealt to workers round-robin — so the
  floating-point association of every per-key sum is fixed and results
  are deterministic across worker counts, exactly like the thread path.
* **Snapshot-pinned lifecycle** — segments are keyed by
  ``(snapshot version, trie cache key)``. :meth:`ProcessExecutor.retain`
  pins a version for the duration of a run; incremental maintenance
  installing a successor never unlinks a segment a running worker still
  maps — garbage collection only reclaims unpinned, superseded versions
  (workers are told to drop their mappings first).

Views travel as arrays: a columnar
:class:`~repro.core.runtime.ArrayViewData` pickles as its key columns and
value matrix alone, so the bindings sent to a worker and the NumPy/C
partials it returns carry no dict mirror either way.
Functions travel by name (:meth:`repro.query.functions.Function.__reduce__`);
:func:`plan_transportable` gates offloading so plans referencing custom
lambdas fall back to in-process execution rather than failing in a worker.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import traceback
import uuid
import weakref
from dataclasses import dataclass
from multiprocessing import shared_memory
from multiprocessing.connection import wait as _connection_wait
from typing import Mapping, Sequence

import numpy as np

from repro.core import cbackend
from repro.core.plan import MultiOutputPlan
from repro.core.runtime import (
    compile_executables,
    execute_plan_partitioned,
    merge_partial_outputs,
)
from repro.data.relation import Relation
from repro.data.schema import RelationSchema
from repro.data.trie import TrieIndex, TrieLevel
from repro.query.functions import Function, transportable
from repro.util.errors import PlanError

#: every segment this module creates starts with this prefix, so leak
#: checks (tests/conftest.py) can scan ``/dev/shm`` for strays.
SEGMENT_PREFIX = "lmfao_"

#: upper bound on the canonical local-combine chunk grid: a group's
#: partitions are split into at most this many contiguous chunks (fewer
#: when there are fewer partitions), **independent of the worker count**.
#: Beyond this many partitions the surplus amortises into worker-local
#: combines; keeping the grid a function of the partition list alone is
#: what makes merged float sums deterministic across worker counts.
LOCAL_COMBINE_FANOUT = 16

#: names of segments currently created (and not yet unlinked) by this
#: process — the leak-checking fixture asserts this drains to empty.
_ACTIVE_SEGMENTS: set[str] = set()


def active_segment_names() -> list[str]:
    """Names of shared-memory segments this process has not unlinked yet."""
    return sorted(_ACTIVE_SEGMENTS)


# --------------------------------------------------------------- transportability


def plan_function_names(plan: MultiOutputPlan) -> set[str]:
    """Every function slot name one plan's execution resolves at runtime."""
    names = {func_name for _, _, func_name in plan.level_functions}
    for product in plan.row_products:
        names.update(func_name for _, func_name in product)
    return names


def plan_transportable(
    plan: MultiOutputPlan, functions: Mapping[str, Function]
) -> bool:
    """Whether every function the plan references survives pickle-by-name.

    False routes the group to in-process execution — a custom lambda
    registered only in the parent cannot be reconstructed in a fresh
    worker (see :func:`repro.query.functions.transportable`).
    """
    for name in plan_function_names(plan):
        fn = functions.get(name)
        if fn is None or not transportable(fn):
            return False
    return True


# ------------------------------------------------------------- segment layout


@dataclass(frozen=True)
class _ArraySpec:
    """One flat array inside a segment: where it lives and what it is."""

    offset: int
    dtype: str
    length: int


@dataclass(frozen=True)
class _LevelSpec:
    """The five CSR arrays of one trie level, by segment position."""

    attribute: str
    values: _ArraySpec
    row_start: _ArraySpec
    row_end: _ArraySpec
    child_start: _ArraySpec
    child_end: _ArraySpec


@dataclass(frozen=True)
class _PartitionSpec:
    """One trie partition: its sorted column buffers plus level arrays."""

    columns: tuple[tuple[str, _ArraySpec], ...]
    levels: tuple[_LevelSpec, ...]


@dataclass(frozen=True)
class TrieExport:
    """A picklable description of one segment full of trie partitions.

    The parent ships this (tiny) object; the worker attaches the named
    segment and rebuilds any partition's :class:`TrieIndex` zero-copy.
    """

    segment: str
    nbytes: int
    schema: RelationSchema
    order: tuple[str, ...]
    partitions: tuple[_PartitionSpec, ...]

    @property
    def num_partitions(self) -> int:
        return len(self.partitions)


def export_tries(
    tries: Sequence[TrieIndex],
) -> tuple[TrieExport, shared_memory.SharedMemory]:
    """Pack trie partitions into one shared-memory segment.

    All partitions share one segment (one shm file descriptor per trie,
    not per array); arrays are 64-byte aligned. The caller owns the
    returned :class:`~multiprocessing.shared_memory.SharedMemory` and must
    eventually unlink it (:class:`ProcessExecutor` does this through its
    snapshot-pinned segment store).
    """
    first = tries[0]
    schema = first.relation.schema
    staged: list[tuple[_ArraySpec, np.ndarray]] = []
    cursor = 0

    def stage(array: np.ndarray) -> _ArraySpec:
        nonlocal cursor
        array = np.ascontiguousarray(array)
        cursor = -(-cursor // 64) * 64
        spec = _ArraySpec(offset=cursor, dtype=array.dtype.str, length=len(array))
        staged.append((spec, array))
        cursor += array.nbytes
        return spec

    partitions = []
    for trie in tries:
        columns = tuple(
            (name, stage(trie.relation.column(name)))
            for name in schema.attribute_names
        )
        levels = tuple(
            _LevelSpec(
                attribute=level.attribute,
                values=stage(level.values),
                row_start=stage(level.row_start),
                row_end=stage(level.row_end),
                child_start=stage(level.child_start),
                child_end=stage(level.child_end),
            )
            for level in trie.levels
        )
        partitions.append(_PartitionSpec(columns=columns, levels=levels))

    name = f"{SEGMENT_PREFIX}{os.getpid():x}_{uuid.uuid4().hex[:12]}"
    shm = shared_memory.SharedMemory(name=name, create=True, size=max(1, cursor))
    for spec, array in staged:
        destination = np.ndarray(
            (spec.length,), dtype=np.dtype(spec.dtype), buffer=shm.buf,
            offset=spec.offset,
        )
        destination[...] = array
    _ACTIVE_SEGMENTS.add(shm.name)
    export = TrieExport(
        segment=shm.name,
        nbytes=shm.size,
        schema=schema,
        order=tuple(first.order),
        partitions=tuple(partitions),
    )
    return export, shm


def attach_partition(
    shm: shared_memory.SharedMemory, export: TrieExport, index: int
) -> TrieIndex:
    """Rebuild one exported partition as a zero-copy :class:`TrieIndex`.

    Every array is an ndarray view over the mapped segment — the segment
    must stay mapped for the index's lifetime (the worker's segment cache
    guarantees this).
    """
    spec = export.partitions[index]

    def view(array_spec: _ArraySpec) -> np.ndarray:
        array = np.ndarray(
            (array_spec.length,),
            dtype=np.dtype(array_spec.dtype),
            buffer=shm.buf,
            offset=array_spec.offset,
        )
        array.setflags(write=False)
        return array

    relation = Relation(
        export.schema, {name: view(s) for name, s in spec.columns}
    )
    levels = [
        TrieLevel(
            attribute=level.attribute,
            values=view(level.values),
            row_start=view(level.row_start),
            row_end=view(level.row_end),
            child_start=view(level.child_start),
            child_end=view(level.child_end),
        )
        for level in spec.levels
    ]
    return TrieIndex.from_shared_parts(relation, export.order, levels)


def _unlink_segment(shm: shared_memory.SharedMemory) -> None:
    try:
        shm.close()
    except BufferError:  # a live ndarray still views the buffer
        pass
    try:
        shm.unlink()
    except FileNotFoundError:
        pass
    _ACTIVE_SEGMENTS.discard(shm.name)


# ------------------------------------------------------------------ worker side


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    # Python 3.11 registers even *attached* segments with the resource
    # tracker, but workers inherit the parent's tracker process (the fd
    # travels in the spawn preparation data), whose registry is a set —
    # the attach-register is a harmless duplicate of the parent's own
    # create-register, and the parent's unlink clears it. Explicitly
    # unregistering here would instead strip the parent's registration
    # and make the real unlink trip a tracker KeyError.
    return shared_memory.SharedMemory(name=name)


def _close_quietly(shm: shared_memory.SharedMemory) -> None:
    try:
        shm.close()
    except BufferError:
        # Some trie cache still views the buffer; the mapping dies with
        # the process, and only the parent unlinks the named segment.
        pass


def _warm_batch(payload):
    """Recompile one batch's plans in this process (the warm-up): the
    pool's backend decides each group exactly as the parent's compile
    did, C groups loaded from the parent's artifact directory."""
    plans, backend, share_terms, attribute_kinds, artifact_dir = payload
    cbackend.ARTIFACT_DIR = artifact_dir
    return compile_executables(plans, backend, share_terms, attribute_kinds)


def _worker_main(conn) -> None:
    """Worker loop: warm batches, execute partition chunks, drop segments.

    Messages arrive in pipe order, so a ``warm`` preceding the first
    ``exec`` of a batch needs no acknowledgement round-trip. Any failure
    is reported as ``("error", traceback)`` — the parent turns it into a
    :class:`PlanError`; a vanished pipe ends the loop.
    """
    batches: dict = {}  # batch key -> per-group executables
    segments: dict = {}  # segment name -> SharedMemory
    tries: dict = {}  # (segment name, partition index) -> TrieIndex
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        kind = message[0]
        if kind == "close":
            break
        try:
            if kind == "warm":
                _, key, payload = message
                batches[key] = _warm_batch(payload)
            elif kind == "drop":
                _, names = message
                for name in names:
                    for cached in [k for k in tries if k[0] == name]:
                        del tries[cached]
                    shm = segments.pop(name, None)
                    if shm is not None:
                        _close_quietly(shm)
            elif kind == "exec":
                (_, key, group_index, export, part_indices,
                 view_data, view_group_by, functions) = message
                groups = batches[key]
                shm = segments.get(export.segment)
                if shm is None:
                    shm = _attach_segment(export.segment)
                    segments[export.segment] = shm
                chunk = []
                for part in part_indices:
                    trie = tries.get((export.segment, part))
                    if trie is None:
                        trie = attach_partition(shm, export, part)
                        tries[(export.segment, part)] = trie
                    chunk.append(trie)
                outputs = execute_plan_partitioned(
                    groups[group_index], chunk, view_data, view_group_by, functions
                )
                conn.send(("done", outputs))
            else:
                raise RuntimeError(f"unknown executor message {kind!r}")
        except BaseException:
            try:
                conn.send(("error", traceback.format_exc()))
            except (BrokenPipeError, OSError):
                break
    for shm in segments.values():
        _close_quietly(shm)
    try:
        conn.close()
    except OSError:
        pass


# ------------------------------------------------------------------ parent side


def _default_start_method() -> str:
    """``forkserver`` where available (safe with the serving layer's
    threads, cheap restarts), else ``spawn``."""
    methods = multiprocessing.get_all_start_methods()
    if "forkserver" in methods:
        return "forkserver"
    return "spawn" if "spawn" in methods else methods[0]


@dataclass
class _Segment:
    export: TrieExport
    shm: shared_memory.SharedMemory
    version: int


def _release_resources(procs: list, conns: list, segments: dict) -> None:
    """Tear down a pool and unlink its segments (idempotent; runs at
    :meth:`ProcessExecutor.close` or, failing that, at garbage
    collection / interpreter exit through ``weakref.finalize``)."""
    for conn in conns:
        try:
            conn.send(("close",))
        except Exception:
            pass
    for conn in conns:
        try:
            conn.close()
        except Exception:
            pass
    for proc in procs:
        proc.join(timeout=5.0)
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=5.0)
    procs.clear()
    conns.clear()
    for segment in list(segments.values()):
        _unlink_segment(segment.shm)
    segments.clear()


class ProcessExecutor:
    """A persistent pool of worker processes executing trie partitions.

    One executor per engine; thread-safe (the serving layer calls
    :meth:`execute_group` from many request threads — a single lock
    serialises pool traffic, while the workers themselves run truly in
    parallel). The pool is lazy: processes start on first use and are
    respawned after a crash.
    """

    def __init__(
        self,
        workers: int,
        backend: str,
        share_terms: bool,
        attribute_kinds: dict[str, str],
        start_method: str | None = None,
    ) -> None:
        self.workers = max(1, int(workers))
        self.backend = backend
        self.share_terms = share_terms
        self.attribute_kinds = dict(attribute_kinds)
        method = (
            start_method
            or os.environ.get("LMFAO_MP_START")
            or _default_start_method()
        )
        if method not in multiprocessing.get_all_start_methods():
            method = _default_start_method()
        self.start_method = method
        self._lock = threading.RLock()
        self._closed = False
        self._procs: list = []
        self._conns: list = []
        self._warmed: list[set] = []  # per worker: batch keys warmed
        self._segments: dict[tuple, _Segment] = {}
        self._pins: dict[int, int] = {}  # snapshot version -> active runs
        self._latest_version = -1
        self._batch_keys: dict[int, int] = {}
        self._batch_counter = 0
        self._finalizer = weakref.finalize(
            self, _release_resources, self._procs, self._conns, self._segments
        )

    # ------------------------------------------------------------------ pool
    def _context(self):
        context = multiprocessing.get_context(self.start_method)
        if self.start_method == "forkserver":
            try:
                context.set_forkserver_preload(["repro.core.mpexec"])
            except Exception:
                pass
        return context

    def _ensure_pool_locked(self) -> None:
        if self._closed:
            raise PlanError("process executor is closed")
        if self._conns:
            return
        context = self._context()
        for _ in range(self.workers):
            parent_conn, child_conn = context.Pipe()
            proc = context.Process(
                target=_worker_main, args=(child_conn,), daemon=True
            )
            proc.start()
            child_conn.close()
            self._procs.append(proc)
            self._conns.append(parent_conn)
            self._warmed.append(set())

    def _abort_locked(self, reason: str):
        """Kill the pool and surface a clean error; next use respawns."""
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
        for proc in self._procs:
            proc.join(timeout=5.0)
        for conn in self._conns:
            try:
                conn.close()
            except Exception:
                pass
        self._procs.clear()
        self._conns.clear()
        self._warmed.clear()
        raise PlanError(f"process executor: {reason}")

    # -------------------------------------------------------- segment lifecycle
    def retain(self, version: int) -> None:
        """Pin a snapshot version for the duration of one run.

        While pinned, no segment of that version is unlinked — ``apply``
        installing a successor mid-run can never tear a mapped trie out
        from under a worker.
        """
        with self._lock:
            self._latest_version = max(self._latest_version, version)
            self._pins[version] = self._pins.get(version, 0) + 1

    def release(self, version: int) -> None:
        """Unpin a version and reclaim unpinned, superseded segments."""
        with self._lock:
            count = self._pins.get(version, 0) - 1
            if count > 0:
                self._pins[version] = count
            else:
                self._pins.pop(version, None)
            self._collect_locked()

    def _collect_locked(self) -> None:
        stale = [
            key
            for key, segment in self._segments.items()
            if segment.version < self._latest_version
            and segment.version not in self._pins
        ]
        if not stale:
            return
        names = [self._segments[key].export.segment for key in stale]
        for conn in self._conns:
            try:
                conn.send(("drop", names))
            except Exception:
                pass
        for key in stale:
            _unlink_segment(self._segments.pop(key).shm)

    def export(
        self, version: int, trie_key: tuple, tries: Sequence[TrieIndex]
    ) -> TrieExport:
        """The cached segment for one partitioned trie (export on miss).

        Keyed by ``(snapshot version, trie cache key)`` — re-running the
        same compilation over the same snapshot (the decision-tree
        workload, the serving layer's plan-cache hits) pays the segment
        copy exactly once per version.
        """
        with self._lock:
            self._latest_version = max(self._latest_version, version)
            segment = self._segments.get((version, trie_key))
            if segment is None:
                export, shm = export_tries(tries)
                segment = _Segment(export=export, shm=shm, version=version)
                self._segments[(version, trie_key)] = segment
            return segment.export

    def drop_version(self, version: int) -> None:
        """Unlink every segment of one garbage-collected snapshot version.

        Called by the engine's snapshot-GC reclaim hook once no reader
        pin can reach ``version``. A version still pinned *here* (a run
        in flight between ``retain``/``release``) is left alone — the
        executor's own :meth:`release` collects it once the run ends —
        as is a closed executor (teardown already unlinks everything).
        """
        with self._lock:
            if self._closed or version in self._pins:
                return
            stale = [
                key
                for key, segment in self._segments.items()
                if segment.version == version
            ]
            if not stale:
                return
            names = [self._segments[key].export.segment for key in stale]
            for conn in self._conns:
                try:
                    conn.send(("drop", names))
                except Exception:
                    pass
            for key in stale:
                _unlink_segment(self._segments.pop(key).shm)

    def segment_names(self) -> list[str]:
        """Names of the segments currently held (tests observe lifecycle)."""
        with self._lock:
            return sorted(
                segment.shm.name for segment in self._segments.values()
            )

    # --------------------------------------------------------------- execution
    def _batch_key(self, compiled) -> int:
        # keyed on the group plan, which every rebound copy of a cached
        # batch shares (bind_batch): a worker warms each compilation once
        structure = compiled.group_plan
        key = self._batch_keys.get(id(structure))
        if key is None:
            key = self._batch_counter
            self._batch_counter += 1
            self._batch_keys[id(structure)] = key
            # evict on GC so a recycled id() can never alias a stale key
            weakref.finalize(structure, self._batch_keys.pop, id(structure), None)
        return key

    def execute_group(
        self,
        compiled,
        group_index: int,
        export: TrieExport,
        view_data: Mapping[str, dict],
        view_group_by: Mapping[str, tuple[str, ...]],
        functions: Mapping[str, Function],
    ) -> dict[str, dict]:
        """Run one group's partitions across the pool and merge the partials.

        Partitions are split into a **canonical** grid of contiguous
        chunks in level-0 order — at most :data:`LOCAL_COMBINE_FANOUT` of
        them, a function of the partition list alone, never of the worker
        count — dealt to workers round-robin (a worker drains its queue
        in order). Each worker locally combines each chunk, the parent
        tree-reduces the per-chunk results pairwise; with the chunk grid
        and the reduce topology both worker-independent, the float
        association of every merged sum is fixed and results are
        deterministic across worker counts. Worker death surfaces as
        :class:`PlanError` (never a hang) and marks the pool for respawn;
        in-worker exceptions carry the worker traceback.
        """
        plan = compiled.plans[group_index]
        with self._lock:
            self._ensure_pool_locked()
            key = self._batch_key(compiled)
            num_parts = export.num_partitions
            num_chunks = min(LOCAL_COMBINE_FANOUT, num_parts)
            chunks = [
                list(range(
                    (c * num_parts) // num_chunks,
                    ((c + 1) * num_parts) // num_chunks,
                ))
                for c in range(num_chunks)
            ]
            payload = None
            # conn -> FIFO of chunk indices still owed by that worker
            pending: dict = {conn: [] for conn in self._conns}
            for index, chunk in enumerate(chunks):
                conn = self._conns[index % len(self._conns)]
                worker = index % len(self._conns)
                try:
                    if key not in self._warmed[worker]:
                        if payload is None:
                            payload = (
                                tuple(compiled.plans),
                                self.backend,
                                self.share_terms,
                                self.attribute_kinds,
                                cbackend.ARTIFACT_DIR,
                            )
                        conn.send(("warm", key, payload))
                        self._warmed[worker].add(key)
                    conn.send((
                        "exec", key, group_index, export, chunk,
                        dict(view_data), dict(view_group_by), dict(functions),
                    ))
                except (BrokenPipeError, OSError):
                    self._abort_locked(
                        "a worker process died before accepting work; "
                        "the pool will be restarted on next use"
                    )
                pending[conn].append(index)
            pending = {conn: owed for conn, owed in pending.items() if owed}
            partials: list = [None] * num_chunks
            while pending:
                for conn in _connection_wait(list(pending)):
                    try:
                        reply = conn.recv()
                    except (EOFError, OSError):
                        self._abort_locked(
                            "a worker process died mid-execution (partition "
                            "results lost); the pool will be restarted on "
                            "next use"
                        )
                    if reply[0] == "error":
                        self._abort_locked(
                            f"group execution failed in a worker:\n{reply[1]}"
                        )
                    owed = pending[conn]
                    partials[owed.pop(0)] = reply[1]
                    if not owed:
                        del pending[conn]
            return _tree_reduce(plan, partials)

    # ----------------------------------------------------------------- teardown
    def close(self) -> None:
        """Shut the pool down and unlink every segment (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._warmed.clear()
            self._pins.clear()
        self._finalizer()


def _tree_reduce(
    plan: MultiOutputPlan, partials: Sequence[dict]
) -> dict[str, dict]:
    """Pairwise merge of per-chunk partials, in partition order."""
    level = list(partials)
    while len(level) > 1:
        reduced = [
            merge_partial_outputs(plan, [level[i], level[i + 1]])
            for i in range(0, len(level) - 1, 2)
        ]
        if len(level) % 2:
            reduced.append(level[-1])
        level = reduced
    return level[0]
