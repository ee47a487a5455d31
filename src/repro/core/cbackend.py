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
* incoming views — the binding tables NumPy probes
  (:func:`~repro.core.runtime.prepare_binding_tables`), which hold one
  :class:`~repro.data.keycodes.KeyIndex` per distinct key-column content
  of the group. A binding's index arrives as its recorded coding
  (:func:`_index_descriptor`) and its direct-address ``table``, or the
  ``key_comp`` a binary search reads. The prelude's ``lmfao_code`` codes
  a probe key, ``lmfao_find`` reads a code's id (``-1`` on a miss), and
  ``lmfao_lookup`` is the two in one. Bindings probed at one level with
  one key (its *key levels*) code it once: the first codes it, and each
  later one reads a flag (``B<i>_sh``, set per call by
  :func:`_shares_coding`) that says whether both indexes address their
  keys directly in one coding (it reads its own table at the first's
  code) or not (it looks the key up itself). A scalar binding's
  aggregates are row ``id`` of its ``values``; a carried binding's
  entries are ``entry_offsets[id] .. entry_offsets[id + 1]`` of its
  ``carried_columns`` and ``agg_matrix``;
* outputs — aligned emissions append into arrays sized by the emission
  level's run count; scalar emissions write their slots into one shared
  buffer. Accumulating (hash) emissions keep a slot array whose slots
  hold a row index (``-1`` when free): a new key takes the next dense
  row of the key and value arrays, so a call touches only ``n`` keys and
  ``n × width`` doubles, and the rows come out in first-seen trie-scan
  order. The prelude's one ``lmfao_row`` finds or takes a key's row; the
  emission's addressing array (``O<i>_ad``;
  :meth:`CCompiledGroup.key_spaces`) says, per call, how it finds the
  key's slot and how many rows the output holds:

  - *direct* — when the key space, the product of the key parts' value
    spans (:meth:`TrieIndex.value_span`, ``_CarriedTable.carried_spans``),
    passes :func:`~repro.data.keycodes._dense_enough` over the emission's
    key bound (the product of the key attributes' distinct counts, and,
    for keys of trie levels only, at most the emitting level's runs)
    capped at :data:`_KEY_CAP` keys, the slot is the key's mixed-radix
    offset in that space: no hash and no probe loop; the rows are the
    bound's;
  - *hash* — otherwise an open-addressing table, sized from the same
    capped bound, so its footprint follows the number of groups, not of
    rows. The table may fill half its slots.

  On both paths a new key beyond the output's rows makes the function
  return 1 and the wrapper retries with quadrupled capacities (results
  are a pure function of the inputs, so the retry is safe); a direct
  output's rows grow up to its slots, so a bound that was too low costs a
  retry, never a write out of bounds. Both paths write the same rows in
  the same order. The key/value
  arrays — a scalar emission's one row included — leave as a columnar
  :class:`~repro.core.runtime.ArrayViewData`; a Python dict of it is
  built only by :func:`~repro.core.runtime.as_mapping`.

Supported plans: integer (categorical) trie levels, view keys and group-by
attributes. :func:`supports_plan` reports this; at compile,
:func:`repro.core.runtime.compile_executables` gives every other plan a
NumPy group (e.g. Rk-means' float dimensions).

**Concurrency.** Generated functions are reentrant: they touch only their
argument vector, the only mutable buffers (the output tables) are
allocated fresh per call by :meth:`CCompiledGroup._attempt`, and the shared
input arrays (trie levels, prefix sums, binding tables) are ``const`` on
the C side and read-only numpy arrays on the Python side. Calls go through
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
import signal
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
    emission_mode,
)
from repro.core.plan import Emission, MultiOutputPlan, ViewBinding
from repro.core.runtime import (
    ArrayViewData,
    bind_operands,
    debug_checks_enabled,
    prepare_binding_tables,
)
from repro.data.keycodes import KeyIndex, _dense_enough
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

/* position of value in sorted[0 .. n), or -1 */
static int64_t lmfao_rank(const int64_t* sorted, int64_t n, int64_t value) {
    int64_t lo = 0, hi = n;
    while (lo < hi) {
        const int64_t mid = lo + (hi - lo) / 2;
        if (sorted[mid] < value) lo = mid + 1; else hi = mid;
    }
    return lo < n && sorted[lo] == value ? lo : -1;
}

/* A probe key's composite code in a KeyIndex's recorded coding, or -1
   on a miss. ix = {steps, num_keys, direct, then per step {densify, lo,
   card, uniques at ix[.] or -1}, then the uniques}. */
static int64_t lmfao_code(const int64_t* ix, const int64_t* key) {
    if (ix[1] == 0) return -1;
    int64_t comp = 0;
    const int64_t* step = ix + 3;
    for (int64_t s = 0; s < ix[0]; s++, step += 4) {
        const int64_t value = step[0] ? comp : *key++;
        const uint64_t shifted = (uint64_t)value - (uint64_t)step[1];
        const int64_t code = step[3] >= 0 ? lmfao_rank(ix + step[3], step[2], value)
                             : shifted < (uint64_t)step[2] ? (int64_t)shifted : -1;
        if (code < 0) return -1;
        comp = step[0] ? code : comp * step[2] + code;
    }
    return comp;
}

/* The key id of a code (-1: a miss); kt is the direct-address table
   when ix says direct, else the ascending key composites. */
static inline int64_t lmfao_find(const int64_t* ix, const int64_t* kt,
                                 int64_t comp) {
    if (comp < 0) return -1;
    return ix[2] ? kt[comp] : lmfao_rank(kt, ix[1], comp);
}

/* KeyIndex.lookup for one probe key: its key id, or -1 on a miss. */
static int64_t lmfao_lookup(const int64_t* ix, const int64_t* kt,
                            const int64_t* key) {
    return lmfao_find(ix, kt, lmfao_code(ix, key));
}

/* An accumulating output's row for key[0 .. parts): the row holding the
   key, else the next dense row n[0], which the key takes with its width
   values zeroed; -1 when the output already holds its ad[1] rows. The
   key's slot is its mixed-radix offset when ad[0] says direct (per part
   {lo, stride} from ad[2]), else found by open addressing over 2 * ad[1]
   slots (a power of two). */
static inline int64_t lmfao_row(const int64_t* ad, int64_t* slots,
                                int64_t* const* columns, const int64_t* key,
                                int parts, int64_t* n, double* vals, int width) {
    uint64_t h = 0;
    int64_t row;
    if (ad[0]) {
        for (int p = 0; p < parts; p++)
            h += (uint64_t)(key[p] - ad[2 + 2 * p]) * (uint64_t)ad[3 + 2 * p];
        row = slots[h];
    } else {
        const uint64_t mask = 2 * (uint64_t)ad[1] - 1;
        for (int p = 0; p < parts; p++) h ^= lmfao_mix((uint64_t)key[p] + p);
        for (h &= mask; (row = slots[h]) >= 0; h = (h + 1) & mask) {
            int p = 0;
            while (p < parts && columns[p][row] == key[p]) p++;
            if (p == parts) break;
        }
    }
    if (row >= 0) return row;
    row = n[0];
    if (row >= ad[1]) return -1;
    slots[h] = row;
    for (int p = 0; p < parts; p++) columns[p][row] = key[p];
    for (int j = 0; j < width; j++) vals[row * width + j] = 0.0;
    n[0] = row + 1;
    return row;
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


def generate_c_source(
    plan: MultiOutputPlan, symbol: str, share_terms: bool = True
) -> tuple[str, list[_ArgSpec]]:
    """Lower one plan to a C function ``int32_t <symbol>(void** a)``.

    Returns the source and the ordered argument specs the wrapper must
    provide. A return value of 1 signals output-table overflow (retry with
    larger buffers). ``share_terms`` hoists trie-function operands into
    ``t<n>`` consts (:class:`~repro.core.loopnest.LoopNestEmitter`).
    """
    emitter = CEmitter(plan, symbol, share_terms)
    return emitter.generate(), emitter.args


class CEmitter(LoopNestEmitter):
    """C99 syntax leaves: key-index probes, entry ranges, flat outputs.

    Hoisted terms are C consts. The walker's ``B<i>`` / ``O<i>`` positions
    name the argument-vector slots declared by :meth:`prologue`.
    """

    const_decl = "const double "
    accum_decl = "double "
    end = ";"
    block_end = "}"
    guard_form = "if ({}) {{"
    count_cast = "(double)"
    indent = 1

    def __init__(
        self, plan: MultiOutputPlan, symbol: str, share_terms: bool = True
    ) -> None:
        super().__init__(plan, share_terms)
        self.symbol = symbol
        self.args: list[_ArgSpec] = []
        #: carried block index → position of the binding that fetches it
        self.block_binding = {
            cb.index: self.binding_index[cb.view] for cb in plan.carried_blocks
        }
        #: binding position → the first binding probed at its level with
        #: its key levels, for every binding that is not that first one
        self.key_leader: dict[int, int] = {}
        first: dict[tuple, int] = {}
        for i, binding in enumerate(plan.bindings):
            leader = first.setdefault((binding.bind_level, binding.key_levels), i)
            if leader != i:
                self.key_leader[i] = leader

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
            view = binding.view
            arg(f"B{i}_ix", "const int64_t*", ("bind_index", view))
            arg(f"B{i}_kt", "const int64_t*", ("bind_table", view))
            if i in self.key_leader:
                leader = plan.bindings[self.key_leader[i]].view
                arg(f"B{i}_sh", "const int64_t*", ("bind_share", view, leader))
            if not binding.is_carried:
                arg(f"B{i}_ev", "const double*", ("bind_array", view, "values"))
                continue
            arg(f"B{i}_ev", "const double*", ("bind_array", view, "agg_matrix"))
            arg(f"B{i}_off", "const int64_t*", ("bind_array", view, "entry_offsets"))
            for p in range(len(binding.carried)):
                role = ("bind_carried", view, p)
                arg(f"CB{binding.block}_c{p}", "const int64_t*", role)
        for i, emission in enumerate(plan.emissions):
            mode = emission_mode(emission)
            if mode == MODE_SCALAR:
                arg(f"O{i}_v", "double*", ("out_scalar", i))
                continue
            if mode == MODE_HASH:
                arg(f"O{i}_ad", "const int64_t*", ("out_addr", i))
                arg(f"O{i}_row", "int64_t*", ("out_row", i))
            for p in range(len(emission.group_by)):
                arg(f"O{i}_k{p}", "int64_t*", ("out_keys", i, p))
            arg(f"O{i}_v", "double*", ("out_vals", i))
            arg(f"O{i}_n", "int64_t*", ("out_count", i))

        w.line("const int64_t NROWS = NROWS_P[0];")
        w.line("(void)NROWS; (void)NRUNS_P;")

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
        key = "(const int64_t[]){" + ", ".join(
            f"v{level}" for level in binding.key_levels
        ) + "}"
        lookup = f"lmfao_lookup(B{i}_ix, B{i}_kt, {key})"
        leader = self.key_leader.get(i)
        if leader is not None:  # its key is coded already: _shares_coding
            w.line(
                f"const int64_t id_B{i} = B{i}_sh[0] ? B{i}_kt[c_B{leader}] : {lookup};"
            )
        elif i in self.key_leader.values():  # the level's one coding of its key
            w.line(f"const int64_t c_B{i} = lmfao_code(B{i}_ix, {key});")
            w.line(f"const int64_t id_B{i} = lmfao_find(B{i}_ix, B{i}_kt, c_B{i});")
        else:
            w.line(f"const int64_t id_B{i} = {lookup};")
        w.line(f"if (id_B{i} < 0) continue;")

    def view_aggregate(self, i: int, agg_index: int) -> str:
        return self._ev(i, f"id_B{i}", agg_index)

    def open_entries(self, block: int, keyed: bool) -> None:
        i = self.block_binding[block]
        e = f"e{block}" if keyed else "e"
        self.w.open(
            f"for (int64_t {e} = B{i}_off[id_B{i}]; "
            f"{e} < B{i}_off[id_B{i} + 1]; {e}++) {{"
        )

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
        """Take the key's row from the prelude's one ``lmfao_row`` (its
        addressing in ``O<i>_ad``), then add the values."""
        w, width = self.w, emission.width
        columns = ", ".join(f"O{index}_k{p}" for p in range(len(keys)))
        w.open("{")
        w.line(
            f"const int64_t row = lmfao_row(O{index}_ad, O{index}_row, "
            f"(int64_t* const[]){{{columns}}}, (const int64_t[]){{{', '.join(keys)}}}, "
            f"{len(keys)}, O{index}_n, O{index}_v, {width});"
        )
        w.line("if (row < 0) return 1;")
        for slot, value in values:
            w.line(f"O{index}_v[row * {width} + {slot}] += {value};")
        w.close()

    def write_scalar(self, index: int, emission: Emission, values) -> None:
        for j, value in enumerate(values):
            self.w.line(f"O{index}_v[{j}] = {value};")


# ---------------------------------------------------------------------------
# compilation and execution
# ---------------------------------------------------------------------------


#: distinct keys a hash output table is first sized for; an emission whose
#: key bound is larger overflows its first table and is retried larger. A
#: direct-addressed output's slot array is held to the same keys.
_KEY_CAP = 65536


def _table_capacity(keys: float) -> int:
    """Slots of an open-addressing table for ``keys`` keys: the least power
    of two, at least 8, that holds them at most half full.

    The one sizing rule of the hash output tables: a table takes its
    emission's key bound (capped at :data:`_KEY_CAP`) times the overflow
    retry's growth.
    """
    size = 8
    while size < 2 * (keys + 1):
        size <<= 1
    return size


def _index_descriptor(keys: KeyIndex) -> np.ndarray:
    """One binding's recorded coding as the int64 array ``lmfao_lookup``
    reads: ``steps, num_keys, direct``, then per coding step ``densify,
    lo, card, start`` — ``start`` the position of the step's uniques in
    this array, ``-1`` for an offset step — then the uniques."""
    steps = keys.coder.steps
    head = [len(steps), keys.num_keys, keys.table is not None]
    uniques, start = [], len(head) + 4 * len(steps)
    for densify, coding in steps:
        if coding.uniques is None:
            head += [densify, coding.lo, coding.card, -1]
        else:
            head += [densify, coding.lo, coding.card, start]
            uniques.append(coding.uniques)
            start += len(coding.uniques)
    return np.concatenate([head, *uniques]).astype(np.int64)


#: a later binding's ``B<i>_sh`` flag, 1 when it reads its own table at
#: its leader's code (see :func:`_shares_coding`), else 0; one read-only
#: array the ``B<i>_sh`` slots point into
_SHARE_FLAGS = np.arange(2, dtype=np.int64)
_SHARE_FLAGS.setflags(write=False)


def _shares_coding(keys: KeyIndex, leader: KeyIndex, descriptors: dict) -> bool:
    """Whether a binding probed after ``leader`` at one level with one key
    reads its own direct-address table at the leader's code: both indexes
    address their keys directly and record one coding (one shared index
    does). Otherwise it looks its key up itself."""
    if keys.table is None or leader.table is None:
        return False
    mine, theirs = (_descriptor(descriptors, k) for k in (keys, leader))
    return bool(mine[0] == theirs[0] and np.array_equal(mine[3:], theirs[3:]))


def _descriptor(descriptors: dict, keys: KeyIndex) -> np.ndarray:
    """:func:`_index_descriptor` of ``keys``, once per call."""
    descriptor = descriptors.get(id(keys))
    if descriptor is None:
        descriptor = descriptors[id(keys)] = _index_descriptor(keys)
    return descriptor


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
        #: hash emission index → its slots' key-part tuples, each with the
        #: deepest level that emits it (read by :meth:`key_spaces`)
        self._hash_keys: dict[int, dict[tuple, int]] = {}
        for index, emission in enumerate(plan.emissions):
            if emission_mode(emission) != MODE_HASH:
                continue
            shapes = self._hash_keys[index] = {}
            for slot in emission.slots:
                shapes[slot.key_parts] = max(slot.level, shapes.get(slot.key_parts, -1))
        #: every slot but the outputs': the trie's, operands, binding tables
        self._input_slots = [
            (i, spec.role) for i, spec in enumerate(args)
            if not spec.role[0].startswith("out_")
        ]
        #: emission index → its argument slots by role kind (key slots by
        #: position)
        self._out_slots: dict[int, dict] = {}
        for i, spec in enumerate(args):
            kind = spec.role[0]
            if kind.startswith("out_"):
                slots = self._out_slots.setdefault(spec.role[1], {"keys": []})
                if kind == "out_keys":
                    slots["keys"].append(i)
                else:
                    slots[kind] = i
        #: scalar emission index → the offset of its slots in the one buffer
        #: every scalar emission writes into, and their argument slots
        self._scalar_at: dict[int, int] = {}
        slots, offsets, width = [], [], 0
        for index, emission in enumerate(plan.emissions):
            if emission_mode(emission) == MODE_SCALAR:
                self._scalar_at[index] = width
                slots.append(self._out_slots[index]["out_scalar"])
                offsets.append(8 * width)
                width += emission.width
        self._scalar_width = width
        self._scalar_slots = np.array(slots, dtype=np.intp)
        self._scalar_bytes = np.array(offsets, dtype=np.uintp)
        #: every other emission, in order: its position is its count's
        self._rowed = [
            (index, slots) for index, slots in self._out_slots.items()
            if index not in self._scalar_at
        ]

    # ------------------------------------------------------------- marshaling
    def prepare_bindings(self, view_data, view_group_by) -> dict:
        """Every incoming view as the binding table NumPy probes
        (:func:`~repro.core.runtime.prepare_binding_tables`), once per
        group.

        Partitioned execution shares the returned tables (read-only numpy
        arrays — the generated C takes them as ``const``) across all
        concurrent per-partition calls; only the output tables are
        per-call, which keeps the generated functions reentrant.
        """
        return prepare_binding_tables(self.plan, view_data, view_group_by)

    def key_spaces(
        self, trie: TrieIndex, tables: dict
    ) -> tuple[dict[int, int], dict[int, tuple[int, list[int]]]]:
        """Every hash emission's key bound, and the direct addressing of
        those whose key space is dense enough.

        A key part takes at most its attribute's distinct count: a trie
        level's (:meth:`TrieIndex.distinct_values`) or its carried
        column's (``_CarriedTable.carried_counts``); a key, at most the
        product. A key of trie levels only is also at most one per run of
        the level that emits it. Slots keyed differently add their bounds.
        Under ``LMFAO_DEBUG`` (:func:`~repro.core.runtime.debug_checks_enabled`)
        :meth:`execute` checks every hash output's row count against its
        bound.

        A key part's values lie in its source's span
        (:meth:`TrieIndex.value_span`, ``_CarriedTable.carried_spans``;
        a shape with an empty source emits nothing), a key in the product
        of its parts' spans, merged over the emission's slot shapes. When
        :func:`~repro.data.keycodes._dense_enough` accepts that space for
        the bound (at most :data:`_KEY_CAP` keys), the emission is
        addressed directly: ``(space, addressing)``, the addressing being
        each key part's least value and mixed-radix stride (the tail of
        ``O<i>_ad``).
        """
        bounds: dict[int, int] = {}
        direct: dict[int, tuple[int, list[int]]] = {}
        for index, shapes in self._hash_keys.items():
            total = 0
            spans: list = [None] * len(self.plan.emissions[index].group_by)
            for parts, host in shapes.items():
                bound, shape = 1, []
                for part in parts:
                    if part.kind == "rel":
                        bound *= trie.distinct_values(part.level)
                        shape.append(trie.value_span(part.level))
                    else:
                        table = tables[self.plan.block_binding(part.level).view]
                        bound *= table.carried_counts[part.pos]
                        shape.append(table.carried_spans[part.pos])
                if all(part.kind == "rel" for part in parts):
                    bound = min(bound, trie.level(host).num_runs)
                total += bound
                if None in shape:
                    continue
                for p, (lo, hi) in enumerate(shape):
                    if spans[p] is not None:
                        lo, hi = min(lo, spans[p][0]), max(hi, spans[p][1])
                    spans[p] = (lo, hi)
            bounds[index] = total
            space, addressing = 1, []
            for span in reversed(spans):
                lo, hi = span or (0, 0)
                addressing[:0] = [lo, space]
                space *= hi - lo + 1
            # the keys the first hash table would be sized for: so the
            # slot array is never much larger than that table, however
            # loose a bound of carried key parts is
            if _dense_enough(space, min(total, _KEY_CAP)):
                direct[index] = (space, addressing)
        return bounds, direct

    def execute(
        self, trie: TrieIndex, tables: dict, functions: Mapping[str, Function]
    ) -> dict[str, ArrayViewData]:
        if self.fn is None:
            raise PlanError("C group not loaded")
        plan = self.plan
        # inputs: the arrays argv points at, alive through every attempt
        argv, inputs = self._bind_inputs(trie, tables, functions)
        bounds, direct = self.key_spaces(trie, tables)
        capacity_boost = 1
        for _attempt in range(24):
            outputs = self._attempt(argv, trie, direct, bounds, capacity_boost)
            if outputs is None:
                capacity_boost *= 4
                continue
            if debug_checks_enabled():
                for index, bound in bounds.items():
                    artifact = plan.emissions[index].artifact
                    if len(outputs[artifact]) > bound:
                        raise PlanError(
                            f"{plan.group_name}: {len(outputs[artifact])} keys "
                            f"in {artifact}, above its bound {bound}"
                        )
            return outputs
        raise PlanError(f"{plan.group_name}: C output tables kept overflowing")

    def _bind_inputs(self, trie, tables, functions) -> tuple[ctypes.Array, list]:
        """A fresh argument vector for one call with every input slot
        filled: the trie's row count, run counts and level arrays, the
        operand arrays and the binding tables. Returns it with the arrays
        its slots point at, which must outlive the call."""
        argv = (ctypes.c_void_p * len(self.args))()
        farrs, psums = bind_operands(self.plan, trie, functions)
        inputs: list = []
        descriptors: dict = {}
        for i, role in self._input_slots:
            kind = role[0]
            if kind == "nrows":
                array = np.array([trie.num_rows], dtype=np.int64)
            elif kind == "run_counts":
                array = np.array(
                    [trie.level(k).num_runs for k in range(len(self.plan.relation_levels))]
                    or [0],
                    dtype=np.int64,
                )
            elif kind == "level":
                _, k, part = role
                level = trie.level(k)
                array = np.ascontiguousarray(
                    {
                        "vals": level.values,
                        "rs": level.row_start,
                        "re": level.row_end,
                        "cs": level.child_start,
                        "ce": level.child_end,
                    }[part],
                    dtype=np.int64,
                )
            elif kind == "farr":
                array = farrs[role[1]]
            elif kind == "psum":
                array = psums[role[1]]
            elif kind == "bind_index":
                array = _descriptor(descriptors, tables[role[1]].keys)
            elif kind == "bind_table":
                keys = tables[role[1]].keys
                array = keys.key_comp if keys.table is None else keys.table
            elif kind == "bind_share":
                shares = _shares_coding(
                    tables[role[1]].keys, tables[role[2]].keys, descriptors
                )
                array = _SHARE_FLAGS[int(shares):]
            elif kind == "bind_array":
                array = getattr(tables[role[1]], role[2])
            elif kind == "bind_carried":
                array = np.ascontiguousarray(
                    tables[role[1]].carried_columns[role[2]], dtype=np.int64
                )
            else:  # pragma: no cover
                raise PlanError(f"unknown argument role {role!r}")
            inputs.append(array)
            argv[i] = array.ctypes.data
        return argv, inputs

    def _attempt(self, argv, trie, direct, bounds, capacity_boost):
        """One call with fresh output buffers; ``None`` when an output
        outgrew its rows. Keys and values need no zeroing: the generated code
        writes every row it later reads (the count gates the reads), and
        np.empty leaves untouched pages unmapped. Slots start free (-1)."""
        plan = self.plan
        scalars = np.empty(max(self._scalar_width, 1), dtype=np.float64)
        pointers = np.frombuffer(argv, dtype=np.uintp)
        pointers[self._scalar_slots] = scalars.ctypes.data + self._scalar_bytes
        counts = np.zeros(max(len(self._rowed), 1), dtype=np.int64)
        buffers, addressing = [], []
        for position, (index, slots) in enumerate(self._rowed):
            emission = plan.emissions[index]
            table = None
            if index not in bounds:  # aligned
                host = max(s.level for s in emission.slots)
                rows = max(1, trie.level(host).num_runs)
            elif index in direct:
                # a key beyond the bound returns 1, and the retry grows
                # the rows up to the slots
                table, strides = direct[index]
                rows = max(1, min(bounds[index] * capacity_boost, table))
                address = [1, rows, *strides]
            else:
                table = _table_capacity(min(bounds[index], _KEY_CAP) * capacity_boost)
                rows = table // 2  # the overflow check's limit
                address = [0, rows] + [0, 0] * len(emission.group_by)
            keys = [np.empty(rows, dtype=np.int64) for _ in emission.group_by]
            vals = np.empty(rows * emission.width, dtype=np.float64)
            for p, slot in enumerate(slots["keys"]):
                argv[slot] = keys[p].ctypes.data
            argv[slots["out_vals"]] = vals.ctypes.data
            argv[slots["out_count"]] = counts.ctypes.data + 8 * position
            row = None
            if table is not None:
                row = np.full(table, -1, dtype=np.int64)
                argv[slots["out_row"]] = row.ctypes.data
                addressing.append((slots["out_addr"], address))
            buffers.append((rows, keys, vals, row))
        if addressing:
            flat = np.array(
                [value for _slot, address in addressing for value in address],
                dtype=np.int64,
            )
            at = flat.ctypes.data
            for slot, address in addressing:
                argv[slot] = at
                at += 8 * len(address)

        if self.fn(argv) != 0:
            return None

        outputs: dict[str, ArrayViewData] = {}
        for index, offset in self._scalar_at.items():
            emission = plan.emissions[index]
            vals = scalars[offset:offset + emission.width].reshape(1, emission.width)
            outputs[emission.artifact] = ArrayViewData.from_arrays([], vals)
        for position, (index, _slots) in enumerate(self._rowed):
            emission, width = plan.emissions[index], plan.emissions[index].width
            rows, keys, vals, _row = buffers[position]
            n = int(counts[position])
            vals = vals[: n * width].reshape(n, width)
            keys = [column[:n] for column in keys]
            if n < rows and index in bounds:
                # dense rows in first-seen order; copied, so a kept view
                # holds its n rows and not the table's spare room
                vals = vals.copy()
                keys = [column.copy() for column in keys]
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
    after the siblings are killed. Each gcc leads a process group of its
    own, so a kill reaches the ``cc1`` / ``as`` / ``ld`` it has started.
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
                start_new_session=True,
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
                os.killpg(process.pid, signal.SIGKILL)
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
    share_terms: bool = True,
) -> tuple[list, tuple[ctypes.CDLL, ...] | None]:
    """Lower supported plans to C; the runtime gives the others NumPy.

    ``candidates`` (plan indices) restricts compilation to those plans;
    None compiles every supported one. ``share_terms`` is
    :attr:`~repro.core.engine.EngineConfig.share_scan_terms`. Returns
    ``(groups, library)``: one entry per plan (``None`` where it is not a
    supported candidate) and the loaded shared objects (``None`` when
    nothing compiled; each group's bound function also keeps its own
    loaded). Raises :class:`PlanError` without gcc or when gcc fails.
    """
    if not gcc_available():
        raise PlanError("backend='c' requires gcc on PATH")
    native_groups: list = [None] * len(plans)
    for i, plan in enumerate(plans):
        if candidates is not None and i not in candidates:
            continue
        if not supports_plan(plan, attribute_kinds):
            continue
        # named for the group's index (a plan's group is G<index>_<node>),
        # not its position in ``plans``: a group built among a later
        # batch's group-cache misses emits the same source as in a first
        # compile, so it loads the same artifact
        symbol = "lmfao_run_g" + plan.group_name[1:].split("_", 1)[0]
        source, args = generate_c_source(plan, symbol, share_terms)
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
