"""Views handed between groups that run on different backends.

A compiled batch fixes one executable per group at compile, and under
``backend="auto"`` (or ``"c"`` with plans C does not cover) one batch
hands views from C groups to NumPy groups and back; ``backend="python"``
runs generated Python throughout. These tests force every mix by
compiling the same batch once per backend and dealing the executables
out round-robin into one batch (``dataclasses.replace(compiled,
executables=[...])``), then check two things:

* results stay **bit-exact** against ``backend="python"`` on the
  integer-valued generated instances, for every rotation phase (so each
  group meets each backend) and with partitioned execution on;
* a view produced by a native group and consumed only by native groups
  crosses the boundary as columns: its dict mirror is never built.
"""

from __future__ import annotations

import itertools
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings

from repro import retailer_features
from repro.core import EngineConfig, LMFAO
from repro.core.cbackend import gcc_available, supports_plan
from repro.core.engine import ViewSeeds
from repro.core.runtime import ArrayViewData
from repro.ml.covariance import covariance_batch
from repro.util.errors import CyclicSchemaError

from tests.helpers import assert_results_equal
from tests.strategies import carried_instances, instances

_HAS_C = gcc_available()
_ROTATION = ("c", "numpy", "python") if _HAS_C else ("numpy", "python")
_SETTINGS = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def _config(**overrides) -> EngineConfig:
    # pinned: the CI legs rewrite EngineConfig defaults
    base = dict(workers=1, partitions=1, parallel_threshold=0, executor="thread")
    return EngineConfig(**{**base, **overrides})


def _compile_each(db, batch, backends) -> dict:
    """``batch`` compiled once per backend: the same plans, one executable
    list each (``"c"``: C for every supported group, NumPy for the rest)."""
    return {
        backend: LMFAO(db, _config(backend=backend)).compile(batch)
        for backend in backends
    }


def _deal(compiles: dict, rotation):
    """One batch whose group ``i`` runs the executable that the next
    backend of ``rotation`` compiled for it (NumPy where that is ``"c"``
    and C does not cover the group)."""
    base = compiles[rotation[0]]
    picks = itertools.cycle(rotation)
    return replace(
        base,
        executables=[
            compiles[next(picks)].executables[index]
            for index in range(len(base.plans))
        ],
    )


def _groups_on(compiled, backend: str) -> set[str]:
    return {
        compiled.group_plan.groups[index].name
        for index, group in enumerate(compiled.executables)
        if group.backend == backend
    }


def _mixed_runs_match_python(instance) -> None:
    try:
        baseline = LMFAO(instance.db, _config(backend="python")).run(instance.batch)
    except CyclicSchemaError:
        pytest.skip("generated schema had a disconnected join graph")
    compiles = _compile_each(instance.db, instance.batch, _ROTATION)
    with_c = _groups_on(compiles["c"], "c") if _HAS_C else set()
    if _HAS_C:
        assert with_c == _supported_groups(instance.db, compiles["c"])
    for partitions in (1, 2):
        engine = LMFAO(instance.db, _config(backend="numpy", partitions=partitions))
        ran_c: set[str] = set()
        for phase in range(len(_ROTATION)):
            rotation = _ROTATION[phase:] + _ROTATION[:phase]
            run = engine.execute(_deal(compiles, rotation))
            ran_c.update(
                name for name, decision in run.decisions.items()
                if decision["backend"] == "c"
            )
            for name, expected in baseline.results.items():
                assert run.results[name].groups == expected.groups, (
                    f"rotation {rotation}, partitions={partitions}: {name} "
                    f"diverged from backend='python'"
                )
        # over the phases every group is dealt "c" once: each C group ran
        assert ran_c == with_c, (ran_c, with_c)


def _supported_groups(db, compiled) -> set[str]:
    kinds = {a: db.schema.attribute_kind(a).value for a in db.schema.all_attributes}
    return {
        compiled.group_plan.groups[index].name
        for index, plan in enumerate(compiled.plans)
        if supports_plan(plan, kinds)
    }


@given(instance=instances())
@settings(max_examples=10, **_SETTINGS)
def test_mixed_backend_handoffs_bit_exact(instance):
    _mixed_runs_match_python(instance)


@given(instance=carried_instances())
@settings(max_examples=6, **_SETTINGS)
def test_mixed_backend_handoffs_bit_exact_carried(instance):
    _mixed_runs_match_python(instance)


def test_native_to_native_view_never_builds_its_mirror(retailer_db):
    spec = replace(
        retailer_features(retailer_db),
        continuous=("tot_area_sq_ft", "population", "prize", "maxtemp"),
        categorical=("subcategory", "rain"),
    )
    batch = covariance_batch(spec)
    python = LMFAO(retailer_db, _config(backend="python")).run(batch)
    engine = LMFAO(retailer_db, _config(backend="numpy"))
    compiles = _compile_each(
        retailer_db, batch, ("numpy", "c") if _HAS_C else ("numpy",)
    )
    compiled = compiles["numpy"]
    consumers: dict[str, list[int]] = {}
    for index, plan in enumerate(compiled.plans):
        for view in plan.consumed_views:
            consumers.setdefault(view, []).append(index)
    rotations = [("numpy",), ("c",), ("c", "numpy"), ("numpy", "c")]
    for rotation in rotations if _HAS_C else rotations[:1]:
        published: dict = {}
        run = engine.execute(
            _deal(compiles, rotation),
            view_seeds=ViewSeeds(publish=published.__setitem__),
        )
        backend_of = [
            run.decisions[group.name]["backend"]
            for group in compiled.group_plan.groups
        ]
        assert "python" not in backend_of, backend_of
        assert len(published) == len(consumers)
        for view, data in published.items():
            assert isinstance(data, ArrayViewData) and data.has_columns, view
            assert not data.has_mirror, (
                f"{view}: mirror built between native groups {backend_of}"
            )
        for name, expected in python.results.items():
            assert_results_equal(run.results[name], expected)
