"""Test helpers: the brute-force oracle and result comparison."""

from __future__ import annotations

import math
from contextlib import contextmanager
from unittest import mock

from repro.baselines.common import evaluate_on_join
from repro.core.engine import GroupRun
from repro.core.npbackend import NumpyCompiledGroup
from repro.core.runtime import ArrayViewData
from repro.data.catalog import Database
from repro.data.relation import Relation
from repro.query.query import Query, QueryResult


def oracle(db_or_join: Database | Relation, query: Query) -> QueryResult:
    """Ground truth: evaluate over the materialised join.

    Uses indicator semantics for WHERE (the engine's folded semantics):
    every join group appears, zeroed where the predicate fails.
    """
    join = (
        db_or_join
        if isinstance(db_or_join, Relation)
        else db_or_join.materialize_join()
    )
    return evaluate_on_join(query, join, where_mode="indicator")


def assert_results_equal(
    actual: QueryResult,
    expected: QueryResult,
    rel_tol: float = 1e-9,
    abs_tol: float = 1e-9,
) -> None:
    """Bag equality of grouped aggregate results with float tolerance."""
    assert set(actual.groups) == set(expected.groups), (
        f"{actual.query.name}: group keys differ; "
        f"missing={sorted(set(expected.groups) - set(actual.groups))[:5]} "
        f"extra={sorted(set(actual.groups) - set(expected.groups))[:5]}"
    )
    for key, want in expected.groups.items():
        got = actual.groups[key]
        assert len(got) == len(want), f"width mismatch at {key}"
        for g, w in zip(got, want):
            assert math.isclose(g, w, rel_tol=rel_tol, abs_tol=abs_tol), (
                f"{actual.query.name}[{key}]: {g} != {w}"
            )


def walk_all(engine, compiled) -> GroupRun:
    """Every group of ``compiled`` through the engine's DAG walk, pinned to
    the current snapshot; the run holds each view's and query's raw store."""
    snapshot = engine.pin_snapshot()
    try:
        run = GroupRun(compiled, snapshot)
        engine.walk_groups(run)
    finally:
        engine.release_snapshot(snapshot.version)
    return run


def drop_zero_groups(result: QueryResult) -> QueryResult:
    """Remove groups whose aggregates are all zero.

    Normalisation for comparing indicator semantics (engine) against SQL
    WHERE semantics (filtering baselines).
    """
    groups = {
        key: values
        for key, values in result.groups.items()
        if any(v != 0.0 for v in values)
    }
    return QueryResult(query=result.query, groups=groups)


def mapping_built(view) -> bool:
    """Whether :func:`repro.core.runtime.as_mapping` has built ``view``'s
    dict (it is kept on the view once built)."""
    return view._mapping is not None


@contextmanager
def numpy_outputs_columnar():
    """Within the block, every non-scalar output a NumPy group returns
    must be a columnar ``ArrayViewData`` (groups run
    in this process; process-executor workers are not observed)."""
    execute = NumpyCompiledGroup.execute

    def checked(group, *args, **kwargs):
        outputs = execute(group, *args, **kwargs)
        for emission in group.plan.emissions:
            data = outputs[emission.artifact]
            assert not emission.group_by or isinstance(data, ArrayViewData), (
                f"{group.plan.group_name}: {emission.artifact} is not columnar"
            )
        return outputs

    with mock.patch.object(NumpyCompiledGroup, "execute", checked):
        yield
