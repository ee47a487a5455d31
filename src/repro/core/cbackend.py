"""Optional C code-generation backend (the paper's native codegen).

The published LMFAO emits C++ compiled with g++; this module restores that
fidelity where a toolchain is available: each :class:`MultiOutputPlan` is
lowered to C99, compiled to a shared object of its own with one
``gcc -O1 -fira-region=one -fPIC -shared`` step (:data:`CFLAGS`) and
invoked through ctypes. A group is one long function, and gcc's
register allocator builds a region per loop by default; one region cuts
gcc's time and memory several-fold on the largest groups, and the
kernels run as fast.

The generated C mirrors the Python backend statement for statement — both are emitters of the one loop-nest walker
(:mod:`repro.core.loopnest`): same trie loops, probes, γ/β locals, support
guards and output updates — so the two backends are differentially testable.

Runtime data layout (all buffers allocated by Python as numpy arrays and
passed as a single ``void**`` argument vector):

* trie levels — the CSR arrays of :class:`repro.data.trie.TrieIndex`;
* scalar incoming views — flattened entry arrays (key part columns + a
  row-major aggregate matrix); the generated prologue builds an
  open-addressing hash table (linear probing, splitmix64 mixing) in
  preallocated buffers;
* carried incoming views — entries sorted by local key; a hash table maps
  each distinct key to its contiguous entry range (sub-sums and keyed
  emissions iterate ranges);
* outputs — aligned emissions append into arrays sized by the emission
  level's run count; accumulating emissions use a preallocated
  open-addressing table whose slots hold the key and a row index: a new
  key takes the next dense row of the value array, so a call touches
  only ``n × width`` doubles, not one row per slot. The table may fill
  half its slots; overflow makes the function return 1 and the wrapper
  retries with quadrupled capacities (results are a pure function of the
  inputs, so the retry is safe). Collect gathers the rows in slot order.
  The filled key/value arrays leave as a columnar
  :class:`~repro.core.runtime.ArrayViewData`; no Python dict is built
  unless a dict consumer reads the view.

Supported plans: integer (categorical) trie levels, view keys and group-by
attributes. :func:`supports_plan` reports this; at compile,
:func:`repro.core.runtime.compile_executables` gives every other plan a
NumPy group (e.g. Rk-means' float dimensions).

**Concurrency.** Generated functions are reentrant: they touch only their
argument vector, every mutable buffer (view hash tables, output tables) is
allocated fresh per call by :meth:`CCompiledGroup._attempt`, and the shared
input arrays (trie levels, prefix sums, view entries) are ``const`` on the
C side and read-only numpy arrays on the Python side. Calls go through
``ctypes.CDLL``, which **releases the GIL** for the duration of the native
call — so the engine's domain-parallel mode (one call per trie partition,
see ``repro.core.runtime``) gets real multicore scaling on this backend.

**Artifacts.** Compiled groups outlive the engine that built them, so a
set-up after the first pays ``dlopen``, not gcc:

* *key* — a group's shared object is ``<key>.so``, ``key`` the sha256 of
  the gcc version line, :data:`CFLAGS`, the shared prelude and the
  group's generated source (:func:`artifact_key`). Constants enter the
  generated code as arguments, so one key serves every binding of a
  shape; the symbol name carries the group index.
* *location* — :data:`ARTIFACT_DIR`, by default
  ``<tempfile.gettempdir()>/lmfao-c-<uid>`` resolved per compile (it
  follows ``TMPDIR``), created with mode 0700.
* *ownership* — the directory is used only when it is a real directory
  (not a symlink) owned by this user and writable by nobody else;
  otherwise a compile builds in a private temporary directory that is
  removed once its objects are loaded, exactly as correct, just not
  kept.
* *install* — a hit ``dlopen``\\ s the file and refreshes its mtime; a file
  that does not load (a truncated or foreign ``.so``) counts as a miss.
  Misses run one gcc each, all at once, into
  ``<key>.<pid>.<random>.tmp``; the temporary is loaded and then renamed
  into place with ``os.replace``, so concurrent builders of one key
  (threads, or ``executor="process"`` workers warming the same batch)
  each install an identical file. A gcc failure reaps every child and
  removes every temporary before :class:`PlanError` is raised.
* *bound* — after each install the least recently used ``.so`` files (by
  mtime) are evicted until the directory holds at most
  :data:`ARTIFACT_BYTES`. Evicting a loaded artifact is safe: the mapping
  outlives the unlink, and content addressing keeps glibc's by-path
  ``dlopen`` reuse correct.

**Candidates.** :func:`compile_c_groups` compiles every supported plan
unless given ``candidates``. Under ``backend="auto"`` the engine passes
only the groups whose node relation, in the compile snapshot, reaches the
cost model's cut (:func:`repro.core.costmodel.native_worthwhile`): below
it gcc and the ctypes marshalling cost more than the scan saves, so
those groups compile to NumPy instead, and a group runs C exactly where
a candidate was built.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import secrets
import stat
import subprocess
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Collection, Mapping, Sequence

import numpy as np

from repro.core.loopnest import LoopNestEmitter
from repro.core.lowering import (
    MODE_ALIGNED,
    MODE_HASH,
    MODE_SCALAR,
    base_emission_mode,
)
from repro.core.plan import Emission, MultiOutputPlan, ViewBinding
from repro.core.runtime import ArrayViewData, bind_operands, view_columns
from repro.data.trie import TrieIndex
from repro.query.functions import Function
from repro.util.errors import PlanError

_PRELUDE = r"""
#include <stdint.h>

static inline uint64_t lmfao_mix(uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}
"""

#: the one gcc step per group — C source on stdin, a shared object out;
#: part of every artifact key
CFLAGS = ("-O1", "-fira-region=one", "-fPIC", "-shared")

#: byte bound of the artifact directory (least recently used evicted first)
ARTIFACT_BYTES = 256 << 20

#: the artifact directory; ``None`` = ``<tempfile.gettempdir()>/lmfao-c-<uid>``
ARTIFACT_DIR: str | os.PathLike | None = None


@functools.cache
def gcc_version() -> str | None:
    """First line of ``gcc --version``; None without a usable gcc on PATH.

    Probed once per process.
    """
    try:
        done = subprocess.run(
            ["gcc", "--version"], capture_output=True, text=True, check=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.partition("\n")[0]


def gcc_available() -> bool:
    """True when a usable ``gcc`` is on PATH."""
    return gcc_version() is not None


def supports_plan(plan: MultiOutputPlan, attribute_kinds: Mapping[str, str]) -> bool:
    """Whether the C backend can execute ``plan``.

    ``attribute_kinds`` maps attribute name to ``"categorical"`` /
    ``"continuous"``; every trie level, view key and emission key must be
    integer (carried blocks are supported — their keys and carried
    attributes are group-by attributes, hence categorical by check below).
    """
    for level in plan.relation_levels:
        if attribute_kinds.get(level.attr) != "categorical":
            return False
    for emission in plan.emissions:
        for attr in emission.group_by:
            if attribute_kinds.get(attr) != "categorical":
                return False
    for block in plan.carried_blocks:
        for attr in block.key + block.carried:
            if attribute_kinds.get(attr) != "categorical":
                return False
    return True


# ---------------------------------------------------------------------------
# source generation
# ---------------------------------------------------------------------------


@dataclass
class _ArgSpec:
    """One slot of the void** argument vector, in order."""

    name: str  # C variable name
    ctype: str  # C pointer type
    role: tuple  # how the Python wrapper fills it


def generate_c_source(plan: MultiOutputPlan, symbol: str) -> tuple[str, list[_ArgSpec]]:
    """Lower one plan to a C function ``int32_t <symbol>(void** a)``.

    Returns the source and the ordered argument specs the wrapper must
    provide. A return value of 1 signals output-table overflow (retry with
    larger buffers).
    """
    emitter = CEmitter(plan, symbol)
    return emitter.generate(), emitter.args


def _mix(keys: list[str]) -> str:
    return " ^ ".join(
        f"lmfao_mix((uint64_t){key} + {p})" for p, key in enumerate(keys)
    )


class CEmitter(LoopNestEmitter):
    """C99 syntax leaves: open-addressing probes, entry ranges, flat outputs.

    Term hoisting is always on (C consts). The walker's ``B<i>`` / ``O<i>``
    positions name the argument-vector slots declared by :meth:`prologue`.
    """

    const_decl = "const double "
    accum_decl = "double "
    end = ";"
    block_end = "}"
    guard_form = "if ({}) {{"
    count_cast = "(double)"
    indent = 1

    def __init__(self, plan: MultiOutputPlan, symbol: str) -> None:
        super().__init__(plan)
        self.symbol = symbol
        self.args: list[_ArgSpec] = []
        #: carried block index → position of the binding that fetches it
        self.block_binding = {
            cb.index: self.binding_index[cb.view] for cb in plan.carried_blocks
        }

    def _arg(self, name: str, ctype: str, role: tuple) -> None:
        self.args.append(_ArgSpec(name=name, ctype=ctype, role=role))

    def _ev(self, i: int, row: str, agg_index: int) -> str:
        width = self.plan.bindings[i].num_aggregates
        return f"B{i}_ev[{row} * {width} + {agg_index}]"

    def prologue(self) -> None:
        plan, w, arg = self.plan, self.w, self._arg

        # ---------------- argument layout ----------------------------------
        arg("NROWS_P", "const int64_t*", ("nrows",))
        for k in range(self.lowered.num_levels):
            for part in ("vals", "rs", "re", "cs", "ce"):
                arg(f"L{k}_{part}", "const int64_t*", ("level", k, part))
        arg("NRUNS_P", "const int64_t*", ("run_counts",))  # per-level run counts
        for i, key in enumerate(plan.level_functions):
            arg(f"F{i}", "const double*", ("farr", key))
        for i, product in enumerate(plan.row_products):
            arg(f"P{i}", "const double*", ("psum", product))
        for i, binding in enumerate(plan.bindings):
            kparts = len(binding.key)
            arg(f"B{i}_m", "const int64_t*", ("bind_count", binding.view))
            for p in range(kparts):
                arg(f"B{i}_ek{p}", "const int64_t*", ("bind_keys", binding.view, p))
            arg(f"B{i}_ev", "const double*", ("bind_vals", binding.view))
            arg(f"B{i}_mask_p", "const int64_t*", ("bind_mask", binding.view))
            arg(f"B{i}_occ", "int8_t*", ("bind_occ", binding.view))
            for p in range(kparts):
                arg(f"B{i}_k{p}", "int64_t*", ("bind_tk", binding.view, p))
            arg(f"B{i}_lo", "int64_t*", ("bind_lo", binding.view))
            arg(f"B{i}_hi", "int64_t*", ("bind_hi", binding.view))
            for p in range(len(binding.carried)):
                arg(
                    f"CB{binding.block}_c{p}",
                    "const int64_t*",
                    ("bind_carried", binding.view, p),
                )
        for i, emission in enumerate(plan.emissions):
            mode = base_emission_mode(emission)
            if mode == MODE_SCALAR:
                arg(f"O{i}_v", "double*", ("out_scalar", i))
                continue
            if mode == MODE_HASH:
                arg(f"O{i}_mask_p", "const int64_t*", ("out_mask", i))
                arg(f"O{i}_occ", "int8_t*", ("out_occ", i))
                arg(f"O{i}_row", "int64_t*", ("out_row", i))
            for p in range(len(emission.group_by)):
                arg(f"O{i}_k{p}", "int64_t*", ("out_keys", i, p))
            arg(f"O{i}_v", "double*", ("out_vals", i))
            arg(f"O{i}_n", "int64_t*", ("out_count", i))

        # ---------------- build the view hash tables -------------------------
        w.line("const int64_t NROWS = NROWS_P[0];")
        w.line("(void)NROWS; (void)NRUNS_P;")
        for i, binding in enumerate(plan.bindings):
            kparts = range(len(binding.key))
            w.line(f"const int64_t B{i}_mask = B{i}_mask_p[0];")
            w.open(f"for (int64_t e = 0; e < B{i}_m[0]; e++) {{")
            hi = "e + 1"
            if binding.is_carried:
                # entries arrive sorted by key: hash distinct keys to ranges
                same = " && ".join(f"B{i}_ek{p}[e] == B{i}_ek{p}[e-1]" for p in kparts)
                w.line(f"if (e > 0 && {same}) continue;")
                w.line("int64_t hi = e + 1;")
                cont = " && ".join(f"B{i}_ek{p}[hi] == B{i}_ek{p}[e]" for p in kparts)
                w.line(f"while (hi < B{i}_m[0] && {cont}) hi++;")
                hi = "hi"
            # else one table entry per view entry: key -> row range [e, e+1)
            parts = _mix([f"B{i}_ek{p}[e]" for p in kparts])
            w.line(f"uint64_t h = ({parts}) & (uint64_t)B{i}_mask;")
            w.line(f"while (B{i}_occ[h]) h = (h + 1) & (uint64_t)B{i}_mask;")
            w.line(f"B{i}_occ[h] = 1;")
            for p in kparts:
                w.line(f"B{i}_k{p}[h] = B{i}_ek{p}[e];")
            w.line(f"B{i}_lo[h] = e; B{i}_hi[h] = {hi};")
            w.close()

    def epilogue(self) -> str:
        self.w.line("return 0;")
        unpack = "\n".join(
            f"    {spec.ctype} {spec.name} = ({spec.ctype})a[{i}];"
            for i, spec in enumerate(self.args)
        )
        return f"int32_t {self.symbol}(void** a) {{\n{unpack}\n" + self.w.text() + "}\n"

    def loop_header(self, level: int) -> str:
        if level == 0:
            return "for (int64_t r0 = 0; r0 < NRUNS_P[0]; r0++) {"
        up = level - 1
        return (
            f"for (int64_t r{level} = L{up}_cs[r{up}]; "
            f"r{level} < L{up}_ce[r{up}]; r{level}++) {{"
        )

    def level_value(self, level: int) -> str:
        return f"const int64_t v{level} = L{level}_vals[r{level}]; (void)v{level};"

    def probe(self, i: int, binding: ViewBinding) -> None:
        w = self.w
        keys = [f"v{level}" for level in binding.key_levels]
        w.line(f"int64_t sl_B{i} = -1, hi_B{i} = -1;")
        w.open("{")
        w.line(f"uint64_t h = ({_mix(keys)}) & (uint64_t)B{i}_mask;")
        w.open(f"while (B{i}_occ[h]) {{")
        match = " && ".join(f"B{i}_k{p}[h] == {key}" for p, key in enumerate(keys))
        w.line(
            f"if ({match}) {{ sl_B{i} = B{i}_lo[h]; hi_B{i} = B{i}_hi[h]; break; }}"
        )
        w.line(f"h = (h + 1) & (uint64_t)B{i}_mask;")
        w.close()
        w.close()
        w.line(f"if (sl_B{i} < 0) continue;")
        if not binding.is_carried:
            w.line(f"(void)hi_B{i};")

    def view_aggregate(self, i: int, agg_index: int) -> str:
        return self._ev(i, f"sl_B{i}", agg_index)

    def open_entries(self, block: int, keyed: bool) -> None:
        i = self.block_binding[block]
        e = f"e{block}" if keyed else "e"
        self.w.open(f"for (int64_t {e} = sl_B{i}; {e} < hi_B{i}; {e}++) {{")

    def entry_aggregate(self, block: int, agg_index: int, keyed: bool) -> str:
        row = f"e{block}" if keyed else "e"
        return self._ev(self.block_binding[block], row, agg_index)

    def carried_key(self, block: int, pos: int) -> str:
        return f"CB{block}_c{pos}[e{block}]"

    def append_row(self, index: int, emission: Emission, keys, values) -> None:
        w, width = self.w, emission.width
        w.open("{")
        w.line(f"const int64_t n = O{index}_n[0];")
        for p, key in enumerate(keys):
            w.line(f"O{index}_k{p}[n] = {key};")
        for slot, value in values:
            w.line(f"O{index}_v[n * {width} + {slot}] = {value};")
        w.line(f"O{index}_n[0] = n + 1;")
        w.close()

    def accumulate_row(
        self, index: int, emission: Emission, keys, values, keyed: bool
    ) -> None:
        w, width = self.w, emission.width
        w.open("{")
        w.line(f"const int64_t mask = O{index}_mask_p[0];")
        w.line(f"uint64_t h = ({_mix([f'({key})' for key in keys])}) & (uint64_t)mask;")
        w.open("while (1) {")
        w.open(f"if (!O{index}_occ[h]) {{")
        w.line(f"const int64_t n = O{index}_n[0];")
        w.line("if (2 * (n + 1) > mask + 1) return 1;")
        w.line(f"O{index}_occ[h] = 1;")
        for p, key in enumerate(keys):
            w.line(f"O{index}_k{p}[h] = {key};")
        w.line(f"O{index}_row[h] = n;")
        w.line(f"for (int j = 0; j < {width}; j++) O{index}_v[n * {width} + j] = 0.0;")
        w.line(f"O{index}_n[0] = n + 1;")
        w.line("break;")
        w.close()
        match = " && ".join(f"O{index}_k{p}[h] == ({key})" for p, key in enumerate(keys))
        w.line(f"if ({match}) break;")
        w.line("h = (h + 1) & (uint64_t)mask;")
        w.close()
        w.line(f"const int64_t row = O{index}_row[h];")
        for slot, value in values:
            w.line(f"O{index}_v[row * {width} + {slot}] += {value};")
        w.close()

    def write_scalar(self, index: int, emission: Emission, values) -> None:
        for j, value in enumerate(values):
            self.w.line(f"O{index}_v[{j}] = {value};")


# ---------------------------------------------------------------------------
# compilation and execution
# ---------------------------------------------------------------------------


def _next_pow2(n: int) -> int:
    size = 8
    while size < n:
        size <<= 1
    return size


class CCompiledGroup:
    """One plan compiled to native code, with its marshaling logic.

    Implements the compiled-group protocol (``prepare_bindings`` /
    ``execute`` — see :mod:`repro.core.runtime`)."""

    backend = "c"

    def __init__(self, plan: MultiOutputPlan, symbol: str, args: list[_ArgSpec],
                 source: str) -> None:
        self.plan = plan
        self.symbol = symbol
        self.args = args
        self.source = source
        self.fn = None  # bound by _bind; keeps its shared object loaded

    # ------------------------------------------------------------- marshaling
    def prepare_bindings(self, view_data, view_group_by) -> dict:
        """Entry arrays for every binding, marshalled once per group.

        Partitioned execution shares the returned dict (read-only numpy
        arrays — the generated C takes them as ``const``) across all
        concurrent per-partition calls; only the hash-table scratch buffers
        are per-call, which keeps the generated functions reentrant.
        """
        return {
            binding.view: self._binding_entries(binding, view_data, view_group_by)
            for binding in self.plan.bindings
        }

    def _binding_entries(self, binding, view_data, view_group_by):
        """Entry arrays for one binding: key part cols, carried cols, aggs.

        Read through :func:`~repro.core.runtime.view_columns` — a columnar
        view from a native producer is used as is, never turned into
        Python objects. Carried bindings are sorted by their local key so
        the generated prologue can hash distinct keys to contiguous ranges.
        """
        group_by = view_group_by[binding.view]
        columns, vals = view_columns(
            view_data[binding.view], group_by, binding.num_aggregates, np.int64
        )
        key_cols = [columns[group_by.index(a)] for a in binding.key]
        carried_cols = [columns[group_by.index(a)] for a in binding.carried]
        if binding.is_carried and len(vals) > 1:
            order = np.lexsort(tuple(reversed(key_cols)))
            key_cols = [c[order] for c in key_cols]
            carried_cols = [c[order] for c in carried_cols]
            vals = vals[order]
        return key_cols, carried_cols, vals

    def execute(
        self,
        trie: TrieIndex,
        view_data: Mapping[str, dict],
        view_group_by: Mapping[str, tuple[str, ...]],
        functions: Mapping[str, Function],
        bind_entries: dict | None = None,
    ) -> dict[str, dict]:
        if self.fn is None:
            raise PlanError("C group not loaded")
        plan = self.plan

        if bind_entries is None:
            bind_entries = self.prepare_bindings(view_data, view_group_by)
        run_counts = np.array(
            [trie.level(k).num_runs for k in range(len(plan.relation_levels))]
            or [0],
            dtype=np.int64,
        )

        capacity_boost = 1
        for _attempt in range(24):
            outputs = self._attempt(
                trie, plan, bind_entries, view_data, functions, run_counts,
                capacity_boost,
            )
            if outputs is not None:
                return outputs
            capacity_boost *= 4
        raise PlanError(f"{plan.group_name}: C output tables kept overflowing")

    def _attempt(self, trie, plan, bind_entries, view_data, functions, run_counts,
                 capacity_boost):
        holders: list[np.ndarray] = []
        argv = (ctypes.c_void_p * len(self.args))()

        def put(i: int, array: np.ndarray) -> None:
            holders.append(array)
            argv[i] = array.ctypes.data

        def bind_capacity(view: str) -> int:
            return _next_pow2(2 * max(1, len(view_data[view])))

        farrs, psums = bind_operands(plan, trie, functions)
        out_buffers: dict[int, dict] = {}

        def out_capacity(index: int) -> int:
            emission = plan.emissions[index]
            mode = base_emission_mode(emission)
            if mode == MODE_SCALAR:
                return 1
            host = max(s.level for s in emission.slots)
            runs = trie.level(host).num_runs if host >= 0 else 1
            if mode == MODE_ALIGNED:
                return max(1, runs)
            # The host level's run count bounds the distinct keys but wildly
            # overshoots when the group-by domain is small (e.g. 256 keys
            # under millions of runs); cap the initial table and let the
            # overflow-retry loop grow it for genuinely large outputs.
            return _next_pow2(4 * max(1, min(runs, 65536)) * capacity_boost)

        for i, spec in enumerate(self.args):
            role = spec.role
            kind = role[0]
            if kind == "nrows":
                put(i, np.array([trie.num_rows], dtype=np.int64))
            elif kind == "run_counts":
                put(i, run_counts)
            elif kind == "level":
                _, k, part = role
                level = trie.level(k)
                array = {
                    "vals": level.values,
                    "rs": level.row_start,
                    "re": level.row_end,
                    "cs": level.child_start,
                    "ce": level.child_end,
                }[part]
                put(i, np.ascontiguousarray(array, dtype=np.int64))
            elif kind == "farr":
                put(i, farrs[role[1]])
            elif kind == "psum":
                put(i, psums[role[1]])
            elif kind == "bind_count":
                put(i, np.array([len(view_data[role[1]])], dtype=np.int64))
            elif kind == "bind_keys":
                put(i, bind_entries[role[1]][0][role[2]])
            elif kind == "bind_carried":
                put(i, bind_entries[role[1]][1][role[2]])
            elif kind == "bind_vals":
                put(i, bind_entries[role[1]][2])
            elif kind == "bind_mask":
                put(i, np.array([bind_capacity(role[1]) - 1], dtype=np.int64))
            elif kind == "bind_occ":
                put(i, np.zeros(bind_capacity(role[1]), dtype=np.int8))
            elif kind in {"bind_tk", "bind_lo", "bind_hi"}:
                # written by the prologue before any read (occ gates reads)
                put(i, np.empty(bind_capacity(role[1]), dtype=np.int64))
            elif kind in {"out_scalar", "out_keys", "out_vals", "out_count",
                          "out_mask", "out_occ", "out_row"}:
                index = role[1]
                buffers = out_buffers.setdefault(index, {})
                emission = plan.emissions[index]
                width = emission.width
                capacity = out_capacity(index)
                # keys/rows/vals need no zeroing: the generated code writes
                # every slot it later reads (occupancy and counts gate the
                # reads), and np.empty leaves untouched pages unmapped
                if kind == "out_scalar":
                    array = buffers.setdefault(
                        "vals", np.empty(width, dtype=np.float64)
                    )
                elif kind == "out_keys":
                    array = buffers.setdefault(
                        ("keys", role[2]), np.empty(capacity, dtype=np.int64)
                    )
                elif kind == "out_row":
                    array = buffers.setdefault(
                        "row", np.empty(capacity, dtype=np.int64)
                    )
                elif kind == "out_vals":
                    if base_emission_mode(emission) == MODE_HASH:
                        capacity //= 2  # dense rows: the overflow check's limit
                    array = buffers.setdefault(
                        "vals", np.empty(capacity * width, dtype=np.float64)
                    )
                elif kind == "out_count":
                    array = buffers.setdefault("count", np.zeros(1, dtype=np.int64))
                elif kind == "out_mask":
                    array = buffers.setdefault(
                        "mask", np.array([capacity - 1], dtype=np.int64)
                    )
                else:  # out_occ
                    array = buffers.setdefault("occ", np.zeros(capacity, dtype=np.int8))
                put(i, array)
            else:  # pragma: no cover
                raise PlanError(f"unknown argument role {role!r}")

        status = self.fn(argv)
        if status != 0:
            return None

        outputs: dict[str, dict] = {}
        for index, emission in enumerate(plan.emissions):
            mode = base_emission_mode(emission)
            buffers = out_buffers[index]
            width = emission.width
            if mode == MODE_SCALAR:
                outputs[emission.artifact] = {(): list(buffers["vals"])}
                continue
            kparts = len(emission.group_by)
            if mode == MODE_ALIGNED:
                n = int(buffers["count"][0])
                vals = buffers["vals"][: n * width].reshape(n, width)
                keys = [buffers[("keys", p)][:n] for p in range(kparts)]
            else:
                # gathered in slot order, one dense row per occupied slot
                occ = buffers["occ"].view(bool)
                vals = buffers["vals"].reshape(-1, width)[buffers["row"][occ]]
                keys = [buffers[("keys", p)][occ] for p in range(kparts)]
            outputs[emission.artifact] = ArrayViewData.from_arrays(keys, vals)
        return outputs


def artifact_key(source: str) -> str:
    """The content address of one group's shared object (see the module
    docstring): sha256 of the gcc version line, :data:`CFLAGS`, the
    prelude and the group's source."""
    digest = hashlib.sha256()
    for part in (gcc_version() or "", " ".join(CFLAGS), _PRELUDE, source):
        digest.update(part.encode())
        digest.update(b"\0")
    return digest.hexdigest()


def _artifact_dir() -> Path | None:
    """:data:`ARTIFACT_DIR` (created 0700 when missing) if this user owns
    it and nobody else can write it; None otherwise."""
    path = Path(
        ARTIFACT_DIR if ARTIFACT_DIR is not None
        else Path(tempfile.gettempdir()) / f"lmfao-c-{os.getuid()}"
    )
    try:
        path.mkdir(mode=0o700, exist_ok=True)
        info = os.lstat(path)
    except OSError:
        return None
    if (
        not stat.S_ISDIR(info.st_mode)  # a symlink, or not a directory
        or info.st_uid != os.getuid()
        or info.st_mode & (stat.S_IWGRP | stat.S_IWOTH)
    ):
        return None
    return path


def _bind(group: CCompiledGroup, path: Path) -> ctypes.CDLL:
    """Load ``path`` and bind ``group.fn`` to its symbol."""
    library = ctypes.CDLL(str(path))
    fn = getattr(library, group.symbol)
    fn.argtypes = [ctypes.POINTER(ctypes.c_void_p)]
    fn.restype = ctypes.c_int32
    group.fn = fn
    return library


def _load(directory: Path, groups: list[CCompiledGroup]) -> list[ctypes.CDLL]:
    """Bind every group from ``directory``: hits are loaded, misses built."""
    libraries, misses = [], []
    for group in groups:
        path = directory / f"{artifact_key(group.source)}.so"
        try:
            os.utime(path)  # a hit moves to the back of the eviction order
            libraries.append(_bind(group, path))
        except (OSError, AttributeError):  # absent, or not a loadable artifact
            misses.append((group, path))
    if misses:
        libraries += _build(misses)
        _evict(directory)
    return libraries


def _build(misses: list[tuple[CCompiledGroup, Path]]) -> list[ctypes.CDLL]:
    """One gcc per missing artifact, all running at once.

    Each output is loaded under its private temporary name, then renamed
    into place. Every child is reaped and every temporary removed before
    this returns or raises — the first failure raises :class:`PlanError`
    after the siblings are killed.
    """
    builds = []
    try:
        for group, path in misses:
            temporary = path.with_name(
                f"{path.stem}.{os.getpid()}.{secrets.token_hex(4)}.tmp"
            )
            process = subprocess.Popen(
                ["gcc", *CFLAGS, "-x", "c", "-o", str(temporary), "-"],
                stdin=subprocess.PIPE,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
                text=True,
            )
            builds.append((group, path, temporary, process))
            try:
                with process.stdin:
                    process.stdin.write(_PRELUDE + group.source)
            except BrokenPipeError:
                pass  # gcc exited early; its status and stderr are read below
        for group, _path, _temporary, process in builds:
            stderr = process.stderr.read()
            if process.wait() != 0:
                raise PlanError(f"gcc failed on {group.symbol}:\n{stderr[:4000]}")
        libraries = []
        for group, path, temporary, _process in builds:
            libraries.append(_bind(group, temporary))
            os.replace(temporary, path)
        return libraries
    finally:
        for _group, _path, temporary, process in builds:
            if process.poll() is None:
                process.kill()
            process.wait()
            process.stderr.close()
            temporary.unlink(missing_ok=True)


def _evict(directory: Path) -> None:
    """Unlink the least recently used artifacts until ``directory`` holds at
    most :data:`ARTIFACT_BYTES`; a loaded one stays mapped."""
    entries = []
    for path in directory.glob("*.so"):
        try:
            info = path.stat()
        except FileNotFoundError:  # evicted by a concurrent compile
            continue
        entries.append((info.st_mtime, info.st_size, path))
    total = sum(size for _mtime, size, _path in entries)
    for _mtime, size, path in sorted(entries):
        if total <= ARTIFACT_BYTES:
            break
        path.unlink(missing_ok=True)
        total -= size


def compile_c_groups(
    plans: Sequence[MultiOutputPlan],
    attribute_kinds: Mapping[str, str],
    candidates: Collection[int] | None = None,
) -> tuple[list, tuple[ctypes.CDLL, ...] | None]:
    """Lower supported plans to C; the runtime gives the others NumPy.

    ``candidates`` (plan indices) restricts compilation to those plans;
    None compiles every supported one. Returns ``(groups, library)``: one
    entry per plan (``None`` where it is not a supported candidate) and
    the loaded shared objects (``None`` when nothing compiled; each
    group's bound function also keeps its own loaded). Raises
    :class:`PlanError` without gcc or when gcc fails.
    """
    if not gcc_available():
        raise PlanError("backend='c' requires gcc on PATH")
    native_groups: list = [None] * len(plans)
    for i, plan in enumerate(plans):
        if candidates is not None and i not in candidates:
            continue
        if not supports_plan(plan, attribute_kinds):
            continue
        symbol = f"lmfao_run_g{i}"
        source, args = generate_c_source(plan, symbol)
        native_groups[i] = CCompiledGroup(
            plan=plan, symbol=symbol, args=args, source=source
        )
    native = [group for group in native_groups if group is not None]
    if not native:
        return native_groups, None
    directory = _artifact_dir()
    if directory is not None:
        return native_groups, tuple(_load(directory, native))
    with tempfile.TemporaryDirectory(prefix="lmfao-c-") as private:
        return native_groups, tuple(_load(Path(private), native))
