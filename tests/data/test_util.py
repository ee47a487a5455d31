"""Utility helpers: stable de-duplication, timers, error hierarchy."""

import time

from repro.util import (
    CyclicSchemaError,
    PlanError,
    QueryError,
    ReproError,
    SchemaError,
    Stopwatch,
    stable_unique,
)


def test_stable_unique_preserves_order():
    assert stable_unique([3, 1, 3, 2, 1]) == [3, 1, 2]
    assert stable_unique([]) == []


def test_stopwatch_accumulates():
    watch = Stopwatch()
    with watch.lap("a"):
        time.sleep(0.005)
    with watch.lap("a"):
        pass
    watch.add("b", 0.25)
    laps = watch.laps
    assert laps["a"] >= 0.004
    assert laps["b"] == 0.25
    assert Stopwatch().laps == {}


def test_error_hierarchy():
    for exc in (SchemaError, QueryError, PlanError, CyclicSchemaError):
        assert issubclass(exc, ReproError)
