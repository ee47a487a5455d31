"""Cost-based adaptive execution decisions (trie statistics → strategy).

The engine's execution knobs — ``partitions``, ``backend``, and the
grouping strategy behind every hash emission — used to be applied
verbatim from :class:`~repro.core.engine.EngineConfig`, which produced
two recorded performance bugs: ``partitions=4``
made the NumPy backend *slower* than sequential on a machine with one
usable core, and carried-heavy plans lost most of their vectorisation
win to dense-key grouping over high-cardinality keys. This module is the
paper-faithful fix: LMFAO's thesis is picking the right execution
strategy *per aggregate*, so the knobs become **advisory upper bounds**
and a small cost model — fed only by statistics the engine already has,
namely trie level geometry — makes the final call per group and per
emission.

Decision table (see docs/architecture.md §Lowering IR & cost model):

====================  ====================================================
decision              rule
====================  ====================================================
partition count       ``min(config.partitions, rows // threshold,
                      concurrency)`` — at least ``threshold`` rows *per
                      partition* and never more partitions than threads
                      that can actually run them (``threshold == 0``
                      disables the model: forced fan-out, used by the
                      differential test grids);
concurrency           1 when the backend is GIL-bound under the thread
                      executor (pure Python), else
                      ``min(workers, usable cores)``;
group-by strategy     per hash emission: **sort** (packed value sort +
                      reduceat) when the estimated distinct-key count is
                      a large fraction of the grouped items **and** the
                      composite code space exceeds the dense
                      presence-scan regime (nearly-unique wide keys:
                      hash degrades to a full ``np.unique`` sort there);
                      **hash** (dense-key bincount) everywhere else —
                      the crossover the hash-vs-sort empirical study
                      (arXiv 2411.13245) reports, calibrated against
                      the grouper microbenchmarks;
backend (``"auto"``)  per group: tiny tries stay on interpreted Python
                      (staging overhead dominates), otherwise C when a
                      compiled group exists, else NumPy.
====================  ====================================================

All decisions are **data-dependent and re-decided at execution time**,
like re-bound predicate constants — they never enter compiled artefacts
or the serving layer's structural fingerprints.

``LMFAO_FORCE_STRATEGY=hash|sort|auto`` overrides the per-emission
strategy globally (test hook: the bit-exactness grids force both paths
and assert identical outputs).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

from repro.core.lowering import MODE_HASH, base_emission_mode
from repro.core.plan import Emission, MultiOutputPlan
from repro.util.errors import PlanError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine imports us)
    from repro.core.engine import EngineConfig
    from repro.data.trie import TrieIndex

#: env var forcing the grouping strategy of every hash emission (also
#: accepts ``heap``/``sort`` to force the ordered-emission finishing
#: kernel, so one CI matrix axis drives both grids).
FORCE_STRATEGY_ENV = "LMFAO_FORCE_STRATEGY"

#: env var forcing the ordered-emission (top-k) finishing kernel alone;
#: takes precedence over :data:`FORCE_STRATEGY_ENV` for that decision.
FORCE_TOPK_ENV = "LMFAO_FORCE_TOPK"

#: below this many trie rows a group stays on interpreted Python under
#: ``backend="auto"`` — array-program staging costs more than the loop.
SMALL_TRIE_ROWS = 2048

#: sort-based grouping wins once estimated distinct keys exceed this
#: fraction of the grouped items (nearly-unique keys); hash-flavoured
#: dense-code bincount wins below it (heavy key repetition).
SORT_DISTINCT_FRACTION = 0.25

#: the hash grouper's dense presence scan applies while the composite
#: code space stays within this factor of the item count (mirrors
#: ``npbackend._group_codes``); inside that regime hash always wins, so
#: sort is only considered beyond it (where hash degrades to an
#: ``np.unique`` full sort without the sort path's cheap permutation).
DENSE_SPACE_FACTOR = 4

#: sorting arrays this small is never worth deciding about; stay on hash.
MIN_SORT_ITEMS = 1024

STRATEGY_HASH = "hash"
STRATEGY_SORT = "sort"
STRATEGY_HEAP = "heap"
_VALID_FORCE = {STRATEGY_HASH, STRATEGY_SORT, STRATEGY_HEAP, "auto", ""}
_VALID_FORCE_TOPK = {STRATEGY_HEAP, STRATEGY_SORT, "auto", ""}

#: sort-based finishing wins once ``k`` covers this fraction of the
#: grouped items — below it the bounded-heap selection's ``O(n)`` pass
#: beats the full ``O(n log n)`` sort (see docs/architecture.md
#: §Ordered emissions).
TOPK_HEAP_FRACTION = 0.25


def forced_strategy() -> str | None:
    """The ``LMFAO_FORCE_STRATEGY`` grouping override, or None when
    unset/auto. ``'heap'`` is a valid value but forces only the ordered
    finishing kernel (:func:`topk_strategy`), never grouping."""
    raw = os.environ.get(FORCE_STRATEGY_ENV, "")
    if raw not in _VALID_FORCE:
        raise PlanError(
            f"{FORCE_STRATEGY_ENV} must be 'hash', 'sort', 'heap' or "
            f"'auto', got {raw!r}"
        )
    return raw if raw in {STRATEGY_HASH, STRATEGY_SORT} else None


def forced_topk() -> str | None:
    """The forced ordered-finishing kernel, or None when unset/auto.

    ``LMFAO_FORCE_TOPK=heap|sort`` pins the kernel directly;
    ``LMFAO_FORCE_STRATEGY=heap|sort`` pins it too (one CI axis forces
    both the grouping and finishing grids), with the dedicated variable
    taking precedence. Invalid values fail fast, mirroring
    :func:`forced_strategy`.
    """
    raw = os.environ.get(FORCE_TOPK_ENV, "")
    if raw not in _VALID_FORCE_TOPK:
        raise PlanError(
            f"{FORCE_TOPK_ENV} must be 'heap', 'sort' or 'auto', got {raw!r}"
        )
    if raw in {STRATEGY_HEAP, STRATEGY_SORT}:
        return raw
    shared = os.environ.get(FORCE_STRATEGY_ENV, "")
    if shared in {STRATEGY_HEAP, STRATEGY_SORT}:
        return shared
    return None


def topk_strategy(limit: int | None, items: int) -> str:
    """``'heap'`` or ``'sort'`` for finishing one ordered emission.

    ``items`` is the full grouped-row count the finisher ranks over (the
    *group size* of the raw output — known exactly at finish time, not
    estimated). Bounded-heap selection wins while ``k`` stays a small
    fraction (:data:`TOPK_HEAP_FRACTION`) of the items; a full sort wins
    when ``k`` approaches the input or there is no cut at all
    (``limit is None``: every row survives, ranked). Both kernels
    realise the same deterministic total order, so the choice is purely
    a cost decision — forced both ways by the ordered differential
    grids via :func:`forced_topk`.
    """
    forced = forced_topk()
    if forced is not None:
        return forced
    if limit is None or items <= MIN_SORT_ITEMS // 8:
        return STRATEGY_SORT
    if limit <= TOPK_HEAP_FRACTION * items:
        return STRATEGY_HEAP
    return STRATEGY_SORT


def usable_cores() -> int:
    """CPU cores this process may actually run on (affinity-aware)."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return max(1, os.cpu_count() or 1)


# --------------------------------------------------------------- statistics


@dataclass(frozen=True)
class TrieStats:
    """The cheap statistics every decision reads: row count, per-level
    run counts (run count at level *k* = distinct length-(k+1) prefixes,
    an upper bound on the level attribute's distinct values), and
    per-level integer value spans (``max - min + 1``; None for float
    levels, whose code space is effectively unbounded). Runs bound the
    *distinct-key* estimate; spans bound the *dense code space* the hash
    grouper would have to scan."""

    rows: int
    level_runs: tuple[int, ...]
    level_spans: tuple[int | None, ...] | None = None

    @classmethod
    def from_trie(cls, trie: "TrieIndex") -> "TrieStats":
        spans = []
        for k in range(len(trie.order)):
            values = trie.level(k).values
            if values.dtype.kind in "iu" and len(values):
                spans.append(int(values.max()) - int(values.min()) + 1)
            elif len(values):
                spans.append(None)
            else:
                spans.append(1)
        return cls(
            rows=trie.num_rows,
            level_runs=tuple(
                trie.level(k).num_runs for k in range(len(trie.order))
            ),
            level_spans=tuple(spans),
        )

    def runs(self, level: int) -> int:
        if level < 0 or level >= len(self.level_runs):
            return 1
        return self.level_runs[level]

    def span(self, level: int) -> int | None:
        """Dense-code span of the level attribute (None = unbounded)."""
        if self.level_spans is None:
            return None
        if level < 0 or level >= len(self.level_spans):
            return 1
        return self.level_spans[level]


# ------------------------------------------------------------- partitioning


def effective_partitions(
    rows: int, partitions: int, threshold: int, concurrency: int | None = None
) -> int:
    """How many partitions a scan should actually fan out into.

    ``partitions`` is the config's advisory upper bound. ``threshold``
    is re-interpreted as minimum rows *per partition* (the old gate
    compared it against total rows, so a 10k-row trie at the default
    8192 threshold still split four ways and paid 4× staging overhead
    for ~2.5k-row slices). ``concurrency`` caps the fan-out at the
    number of threads that can actually run concurrently — partitioning
    beyond it only adds merge work (the recorded 0.20s → 0.53s numpy
    regression: 4 partitions on one usable core).

    ``threshold == 0`` is the explicit escape hatch: forced fan-out with
    no downgrades, preserving the differential grids and benchmarks that
    pin it to exercise partitioned code paths on any machine.
    """
    if partitions <= 1:
        return 1
    if threshold <= 0:
        return partitions
    k = min(partitions, rows // threshold)
    if concurrency is not None:
        k = min(k, max(1, concurrency))
    return max(1, k)


def effective_concurrency(config: "EngineConfig") -> int:
    """Threads that can make simultaneous progress under this config.

    Pure-Python execution under the thread executor is GIL-serialised —
    partitioning it can only lose. The C and NumPy backends release the
    GIL inside native calls / large kernels, and the process executor
    sidesteps it entirely; they scale up to ``min(workers, cores)``.
    """
    if config.executor == "thread" and config.backend == "python":
        return 1
    return min(max(1, config.workers), usable_cores())


# --------------------------------------------------------- emission strategy


def emission_strategy(emission: Emission, stats: TrieStats) -> str:
    """``'hash'`` or ``'sort'`` for one emission's grouped accumulation.

    Only hash-mode emissions group at all; aligned and scalar emissions
    always report ``'hash'`` (a no-op for them). Sort needs **both** of
    (arXiv 2411.13245's criteria, calibrated against the grouper
    microbenchmarks):

    * *nearly-unique keys* — the distinct-key bound (product of run
      counts at the relation key parts' own levels, capped at the item
      count) is a large fraction of the grouped items. Carried key
      parts contribute nothing: entry fan-out multiplies items and
      distinct keys by the same factor, so it cancels out of the
      fraction — and saturating the bound instead would flip every
      carried emission to sort, which measures ~30% slower than hash
      on the carried benchmark batch;
    * *outside the dense regime* — the composite code space (product
      of the relation parts' integer value spans; unbounded for float
      or carried parts) exceeds :data:`DENSE_SPACE_FACTOR` × items.
      Inside it the hash grouper's O(n) presence scan is unbeatable;
      beyond it hash degrades to a full ``np.unique`` sort, and the
      sort path's packed value sort wins.

    Everything else — heavy key repetition, small inputs, dense code
    spaces — stays on hash.
    """
    # the *base* mode decides grouping: an ordered (topk) emission still
    # accumulates its full groups like its host mode, so it gets the same
    # hash-vs-sort grouping decision (the ranked cut is a separate,
    # finish-time decision — see topk_strategy)
    forced = forced_strategy()
    if forced is not None:
        return (
            forced if base_emission_mode(emission) == MODE_HASH
            else STRATEGY_HASH
        )
    if base_emission_mode(emission) != MODE_HASH:
        return STRATEGY_HASH
    host = max(slot.level for slot in emission.slots)
    items = stats.runs(host)
    if items < MIN_SORT_ITEMS:
        return STRATEGY_HASH
    distinct_bound = 1
    space: int | None = 1
    for part in emission.slots[0].key_parts:
        if part.kind != "rel":
            space = None  # carried columns: span unknown, assume wide
            continue
        part_span = stats.span(part.level)
        # distinct values at a level ≤ its run (prefix) count AND its
        # integer value span — the span is the tight bound for deep
        # levels, where every prefix is distinct but the attribute
        # itself has a small domain.
        part_card = stats.runs(part.level)
        if part_span is not None:
            part_card = min(part_card, part_span)
        distinct_bound = min(items, distinct_bound * part_card)
        if space is not None:
            space = None if part_span is None else space * part_span
    if distinct_bound < SORT_DISTINCT_FRACTION * items:
        return STRATEGY_HASH
    if space is not None and space <= DENSE_SPACE_FACTOR * items:
        return STRATEGY_HASH
    return STRATEGY_SORT


def emission_strategies(
    plan: MultiOutputPlan, trie: "TrieIndex"
) -> dict[str, str]:
    """Per-artifact grouping strategy for one (plan, trie) execution."""
    stats = TrieStats.from_trie(trie)
    return {
        emission.artifact: emission_strategy(emission, stats)
        for emission in plan.emissions
    }


def resolve_strategies(
    plan: MultiOutputPlan, trie: "TrieIndex", adaptive: bool = True
) -> dict[str, str] | None:
    """What one execution should use: the model's per-emission choices,
    or None (= static hash everywhere) when adaptivity is off and no
    :data:`FORCE_STRATEGY_ENV` override is in force. Deterministic per
    (plan, trie), so concurrent partition executions of one group always
    agree."""
    if not adaptive and forced_strategy() is None:
        return None
    return emission_strategies(plan, trie)


# ------------------------------------------------------------ backend choice


def native_worthwhile(rows: int) -> bool:
    """Whether a trie of ``rows`` rows leaves interpreted Python under
    ``backend="auto"`` — the one cut: :func:`choose_backend` applies it
    per execution, and ``LMFAO.compile`` builds a C candidate only for
    groups whose node relation reaches it (a relation's row count bounds
    its trie's)."""
    return rows >= SMALL_TRIE_ROWS


def choose_backend(rows: int, has_c: bool) -> str:
    """Per-group backend under ``backend="auto"``.

    Tiny tries stay on the interpreted Python loop (per-call staging of
    the array program or the ctypes marshalling dominates actual work);
    past that, compiled C when this group has a compiled implementation,
    else the NumPy array program.
    """
    if not native_worthwhile(rows):
        return "python"
    return "c" if has_c else "numpy"


# ----------------------------------------------------------- run reporting


def group_decision(
    plan: MultiOutputPlan,
    trie: "TrieIndex",
    *,
    backend: str,
    partitions: int,
    adaptive: bool = True,
) -> dict:
    """The record of what the model chose for one group's execution.

    ``strategies`` reports the grouping strategy per hash emission: what
    :func:`resolve_strategies` decides on the NumPy backend (the only one
    with both paths), and the structurally fixed ``'hash'`` elsewhere.
    Recorded on :class:`~repro.core.engine.RunResult` (the ``core.*``
    decision metrics of ``bench/`` sum it per operation) — never part of
    compiled artefacts or fingerprints.
    """
    hash_emissions = [
        e.artifact
        for e in plan.emissions
        if base_emission_mode(e) == MODE_HASH
    ]
    if backend == "numpy":
        resolved = resolve_strategies(plan, trie, adaptive=adaptive) or {}
        strategies = {
            name: resolved.get(name, STRATEGY_HASH) for name in hash_emissions
        }
    else:
        strategies = {name: STRATEGY_HASH for name in hash_emissions}
    return {
        "backend": backend,
        "partitions": partitions,
        "rows": trie.num_rows,
        "strategies": strategies,
    }
