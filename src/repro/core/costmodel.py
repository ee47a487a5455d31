"""Cost-based execution decisions: what the engine alone can decide.

The engine's execution knobs — ``partitions``, ``workers`` and
``backend="auto"`` — used to be applied verbatim from
:class:`~repro.core.engine.EngineConfig`, which produced a recorded
performance bug: ``partitions=4`` made the NumPy backend *slower* than
sequential on a machine with one usable core. Under ``adaptive=True``
the knobs are **advisory upper bounds**, and this small model — fed only
by row counts and the machine's usable cores — makes the final call per
group: the backend at compile, the partition count per run.

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
backend (``"auto"``)  per group, **at compile**: C when the group's
                      relation reaches ``SMALL_TRIE_ROWS`` in the compile
                      snapshot (:func:`native_worthwhile`), else NumPy.
====================  ====================================================

Kernels below that level choose their algorithm from the data they hold
(the NumPy grouper from its key code space, the top-k finisher from each
partition's size against ``k``), so the model has no kernel variant to
pick. The backend is fixed in the compiled batch (each group's
``backend``); only the partition count is **data-dependent and
re-decided at execution time**, like re-bound predicate constants — it
never enters compiled artefacts or the serving layer's structural
fingerprints.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING

from repro.core.lowering import MODE_HASH, emission_mode
from repro.core.plan import MultiOutputPlan

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine imports us)
    from repro.core.engine import EngineConfig
    from repro.data.trie import TrieIndex

#: below this many relation rows ``LMFAO.compile`` builds no C candidate
#: under ``backend="auto"`` — gcc and the ctypes marshalling cost more
#: than the scan they would speed up.
SMALL_TRIE_ROWS = 2048


def usable_cores() -> int:
    """CPU cores this process may actually run on (affinity-aware)."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return max(1, os.cpu_count() or 1)


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


# ------------------------------------------------------------ backend choice


def native_worthwhile(rows: int) -> bool:
    """Whether a relation of ``rows`` rows earns a C candidate under
    ``backend="auto"``: ``LMFAO.compile`` builds C only for groups whose
    node relation reaches this cut in the compile snapshot."""
    return rows >= SMALL_TRIE_ROWS


# ----------------------------------------------------------- run reporting


def group_decision(
    plan: MultiOutputPlan,
    trie: "TrieIndex",
    *,
    backend: str,
    partitions: int,
) -> dict:
    """The record of what the model chose for one group's execution.

    Recorded on :class:`~repro.core.engine.RunResult` (the ``core.*``
    decision metrics of ``bench/`` sum it per operation) — never part of
    compiled artefacts or fingerprints. ``strategies`` names the grouping
    of each hash emission: ``'hash'``, the one way every backend groups.
    """
    return {
        "backend": backend,
        "partitions": partitions,
        "rows": trie.num_rows,
        "strategies": {
            e.artifact: "hash"
            for e in plan.emissions
            if emission_mode(e) == MODE_HASH
        },
    }
