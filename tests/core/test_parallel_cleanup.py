"""Failure hygiene of the thread scheduler (:meth:`LMFAO.walk_groups` under
``executor="thread"``, ``workers > 1``).

A group that raises mid-execution must propagate its exception out of
``run()`` promptly — queued tasks cancelled, the pool drained, no
half-merged partial output leaked into the run's result stores — and the
engine must stay fully usable for the next batch.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.core import EngineConfig, LMFAO
from repro.data import Attribute, Database, Relation, RelationSchema
from repro.query import Aggregate, Factor, Query, QueryBatch
from repro.query.functions import Function

C = Attribute.categorical


class Boom(RuntimeError):
    pass


def _db(rows: int = 4000) -> Database:
    fact = Relation(
        RelationSchema("A", (C("k"), C("g"))),
        {"k": [i % 50 for i in range(rows)], "g": [i % 7 for i in range(rows)]},
    )
    return Database([fact])


def _raise(_values: np.ndarray) -> np.ndarray:
    raise Boom("injected failure")


def _parallel_config() -> EngineConfig:
    # pinned: the CI legs rewrite EngineConfig defaults, and this file
    # specifically targets the thread scheduler's cleanup path.
    return EngineConfig(
        workers=4, partitions=4, parallel_threshold=0, executor="thread"
    )


def test_parallel_failure_propagates_without_hanging():
    db = _db()
    bad = QueryBatch([
        Query(
            "q_bad",
            group_by=("g",),
            aggregates=(Aggregate((Factor("k", Function("boom", _raise)),)),),
        ),
    ])
    engine = LMFAO(db, _parallel_config())
    before = threading.active_count()
    start = time.monotonic()
    with pytest.raises(Boom):
        engine.run(bad)
    assert time.monotonic() - start < 30, "failed run did not return promptly"
    # shutdown(wait=True, cancel_futures=True) drained the pool: no
    # scheduler worker threads survive the failed run.
    deadline = time.monotonic() + 10
    while threading.active_count() > before and time.monotonic() < deadline:
        time.sleep(0.01)
    assert threading.active_count() <= before, "leaked pool threads"


def test_parallel_failure_leaks_no_partial_results_and_engine_stays_usable():
    db = _db()
    good = QueryBatch(
        [Query("q", group_by=("g",), aggregates=(Aggregate.count(),))]
    )
    mixed = QueryBatch([
        Query("q", group_by=("g",), aggregates=(Aggregate.count(),)),
        Query(
            "q_bad",
            group_by=("g",),
            aggregates=(Aggregate((Factor("k", Function("boom2", _raise)),)),),
        ),
    ])
    engine = LMFAO(db, _parallel_config())
    baseline = LMFAO(db, EngineConfig(workers=1, partitions=1)).run(good)
    with pytest.raises(Boom):
        engine.run(mixed)
    # the engine is reusable after the failure, and the rerun's results
    # are complete and bit-identical to the sequential baseline — nothing
    # half-merged from the failed run shadows them.
    run = engine.run(good)
    assert run.results["q"].groups == baseline.results["q"].groups
    assert run.results["q"].groups


def test_parallel_failure_repeats_deterministically():
    """Every retry of a failing batch raises (no poisoned scheduler state
    swallowing the second failure)."""
    db = _db()
    bad = QueryBatch([
        Query(
            "q_bad",
            group_by=("g",),
            aggregates=(Aggregate((Factor("k", Function("boom3", _raise)),)),),
        ),
    ])
    engine = LMFAO(db, _parallel_config())
    for _ in range(3):
        with pytest.raises(Boom):
            engine.run(bad)
