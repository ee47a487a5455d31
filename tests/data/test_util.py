"""Utility helpers: ordered sets, timers, error hierarchy."""

import time

import pytest

from repro.util import (
    CyclicSchemaError,
    OrderedSet,
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


def test_ordered_set_iteration_order():
    s = OrderedSet(["b", "a", "b", "c"])
    assert list(s) == ["b", "a", "c"]
    s.add("a")
    s.add("d")
    assert list(s) == ["b", "a", "c", "d"]


def test_ordered_set_set_ops_preserve_left_order():
    s = OrderedSet(["c", "a", "b"])
    assert list(s & {"b", "c"}) == ["c", "b"]
    assert list(s - {"a"}) == ["c", "b"]
    assert list(s | ["d", "a"]) == ["c", "a", "b", "d"]


def test_ordered_set_equality_is_order_insensitive():
    assert OrderedSet(["a", "b"]) == OrderedSet(["b", "a"])
    assert OrderedSet(["a"]) == {"a"}
    assert OrderedSet(["a"]) != {"b"}


def test_ordered_set_misc():
    s = OrderedSet(["a"])
    assert "a" in s and len(s) == 1 and bool(s)
    s.discard("a")
    s.discard("zz")  # no error
    assert not s
    with pytest.raises(TypeError):
        hash(OrderedSet())


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
    assert watch.total() == pytest.approx(laps["a"] + 0.25)
    assert "b" in watch.report()
    assert Stopwatch().report() == "(no laps recorded)"


def test_error_hierarchy():
    for exc in (SchemaError, QueryError, PlanError, CyclicSchemaError):
        assert issubclass(exc, ReproError)
