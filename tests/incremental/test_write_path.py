"""The write path at O(|Δ|): deletes matched by lookup, tries carried.

A commit stages each updated relation with :meth:`Relation.remove_rows`
and :meth:`Relation.concat`, and carries every cached trie of an updated
node to the successor snapshot (:meth:`TrieIndex.carried`) instead of
sorting the relation again. These tests hold both to the reference they
replace: the staged relation is identical, column for column, to
removing each delete tuple's lowest-indexed equal row, and every carried
trie is ``array_equal`` to a cold build over the staged relation.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import AggregateServer, EngineConfig, LMFAO, QueryBatch, parse_query
from repro.core.snapshot import Snapshot
from repro.data import Attribute, Relation, RelationSchema
from repro.data.catalog import Database
from repro.data.trie import TrieIndex
from repro.incremental import RelationDelta, coalesce_deltas
from repro.util.errors import SchemaError

_SCHEMA = RelationSchema(
    "R",
    (Attribute.categorical("a"), Attribute.continuous("x"), Attribute.categorical("b")),
)
_ORDERS = (("a",), ("a", "b"), ("b", "x"), ("x", "a", "b"), ("x",), ())
#: float values that compare in the awkward ways: -0.0 == 0.0, NaN != NaN
_FLOATS = (0.0, -0.0, 1.5, float("nan"), 2.0)


def _same(x: object, y: object) -> bool:
    """Tuple-field equality under which NaN matches NaN."""
    return x == y or (x != x and y != y)


def _reference_remove(relation: Relation, deletes: Relation) -> Relation:
    """Each delete tuple removes its lowest-indexed equal row still left."""
    rows = list(relation.iter_rows())
    gone: set[int] = set()
    for wanted in deletes.iter_rows():
        index = next(
            (
                i for i, row in enumerate(rows)
                if i not in gone and all(map(_same, row, wanted))
            ),
            None,
        )
        if index is None:
            raise SchemaError(f"{wanted} not present")
        gone.add(index)
    return relation.filter(
        np.array([i not in gone for i in range(len(rows))], dtype=bool)
    )


def _assert_identical(got: Relation, want: Relation) -> None:
    """Same columns, dtypes, row order and float signs."""
    assert got.attribute_names == want.attribute_names
    for name in want.attribute_names:
        a, b = got.column(name), want.column(name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b, equal_nan=True), name
        assert np.array_equal(np.signbit(a), np.signbit(b)), name


def _assert_cold(trie: TrieIndex, relation: Relation) -> None:
    """``trie`` equals a cold build over ``relation``, level for level."""
    cold = TrieIndex(relation, trie.order)
    _assert_identical(trie.relation, cold.relation)
    assert len(trie.levels) == len(cold.levels)
    for got, want in zip(trie.levels, cold.levels):
        assert got.attribute == want.attribute
        for field in ("values", "row_start", "row_end", "child_start", "child_end"):
            a, b = getattr(got, field), getattr(want, field)
            assert np.array_equal(a, b, equal_nan=True), field


def _rows(draw, count: int) -> list[tuple]:
    return [
        (
            draw(st.integers(0, 3)),
            draw(st.sampled_from(_FLOATS)),
            draw(st.sampled_from((-(10**15), -7, 0, 7, 10**15))),
        )
        for _ in range(count)
    ]


@st.composite
def _writes(draw):
    """A relation with duplicate rows, and one commit's deletes and inserts."""
    rows = _rows(draw, draw(st.integers(0, 24)))
    relation = Relation(
        _SCHEMA,
        {
            name: np.array([row[i] for row in rows], dtype=dtype)
            for i, (name, dtype) in enumerate(
                (("a", np.int64), ("x", np.float64), ("b", np.int64))
            )
        },
    )
    picks = draw(st.lists(st.integers(0, len(rows) - 1), max_size=6)) if rows else []
    deletes = []
    for pick in picks:
        a, x, b = rows[pick]
        if x == 0.0 and draw(st.booleans()):
            x = -x  # a zero of the other sign matches
        deletes.append((a, x, b))
    if draw(st.booleans()):
        deletes.extend(_rows(draw, draw(st.integers(0, 2))))  # maybe absent
    inserts = _rows(draw, draw(st.integers(0, 6)))
    return relation, deletes, inserts


def _relation(rows: list[tuple]) -> Relation:
    return Relation.from_rows(_SCHEMA, rows)


@settings(max_examples=300, deadline=None)
@given(_writes())
def test_staging_and_carried_tries_match_the_reference(case):
    relation, deletes, inserts = case
    dels, ins = _relation(deletes), _relation(inserts)
    try:
        want = _reference_remove(relation, dels).concat(ins)
    except SchemaError:
        with pytest.raises(SchemaError):
            relation.remove_rows(dels)
        return
    staged = RelationDelta("R", inserts=ins, deletes=dels).apply_to(relation)
    _assert_identical(staged, want)
    snapshot = Snapshot(0, Database([relation], name="w"))
    for order in _ORDERS:
        snapshot.tries[("R", order)] = TrieIndex(relation, order)
    successor = snapshot.with_relations(
        {"R": staged}, {"R": RelationDelta("R", inserts=ins, deletes=dels)}
    )
    assert set(successor.tries) == set(snapshot.tries)
    for key, trie in successor.tries.items():
        assert trie is not snapshot.tries[key]
        _assert_cold(trie, staged)


def test_a_duplicate_delete_takes_the_lowest_index_and_zero_matches_its_sign():
    relation = _relation([(1, 0.0, 5), (1, -0.0, 5), (2, 1.5, 5), (1, 0.0, 5)])
    # -0.0 matches the 0.0 at index 0, the lowest of the three equal rows
    left = relation.remove_rows(_relation([(1, -0.0, 5)]))
    assert np.array_equal(np.signbit(left.column("x")), [True, False, False])
    left = relation.remove_rows(_relation([(1, 0.0, 5), (1, 0.0, 5)]))
    assert list(left.iter_rows()) == [(2, 1.5, 5), (1, 0.0, 5)]


def test_a_row_holding_nan_is_deleted():
    relation = _relation([(1, float("nan"), 5), (1, 2.0, 5)])
    left = relation.remove_rows(_relation([(1, float("nan"), 5)]))
    assert list(left.iter_rows()) == [(1, 2.0, 5)]
    with pytest.raises(SchemaError, match="1 tuple"):
        relation.remove_rows(_relation([(1, float("nan"), 5)] * 2))
    # any NaN matches any other: here one with its sign bit set
    negative = relation.replace_columns(x=-relation.column("x"))
    assert np.signbit(negative.column("x")[0])
    left = negative.remove_rows(_relation([(1, float("nan"), 5)]))
    assert list(left.iter_rows()) == [(1, -2.0, 5)]


def test_every_row_deleted_carries_empty_tries():
    relation = _relation([(1, 1.5, 5), (1, 1.5, 5), (0, 2.0, 7)])
    delta = RelationDelta("R", deletes=relation)
    staged = delta.apply_to(relation)
    assert staged.num_rows == 0
    snapshot = Snapshot(0, Database([relation], name="w"))
    snapshot.tries[("R", ("a", "b"))] = TrieIndex(relation, ("a", "b"))
    successor = snapshot.with_relations({"R": staged}, {"R": delta})
    _assert_cold(successor.tries[("R", ("a", "b"))], staged)


def test_a_delete_mask_falls_back_to_a_cold_build():
    relation = _relation([(1, 1.5, 5), (0, 2.0, 7)])
    delta = RelationDelta("R", delete_mask=np.array([True, False]))
    snapshot = Snapshot(0, Database([relation], name="w"))
    snapshot.tries[("R", ("a",))] = TrieIndex(relation, ("a",))
    successor = snapshot.with_relations({"R": delta.apply_to(relation)}, {"R": delta})
    assert ("R", ("a",)) not in successor.tries


def _sales_batch() -> QueryBatch:
    return QueryBatch(
        [
            parse_query("SELECT store, SUM(units) FROM D GROUP BY store", "by_store"),
            parse_query("SELECT SUM(units) FROM D", "total"),
        ]
    )


def test_a_commit_carries_sales_tries_equal_to_cold_builds(favorita_db):
    engine = LMFAO(favorita_db)
    engine.run(_sales_batch())
    sales = favorita_db.relation("Sales")
    before = {k: t for k, t in engine.snapshot().tries.items() if k[0] == "Sales"}
    assert before
    # an insert and its delete inside one group cancel; the rest applies
    inserted = [sales.row(3), sales.row(3)]
    first = {"Sales": RelationDelta("Sales", inserts=_as(sales, inserted))}
    second = {
        "Sales": RelationDelta(
            "Sales", deletes=_as(sales, [sales.row(3), sales.row(0)])
        )
    }
    merged = coalesce_deltas(first, second)
    assert merged["Sales"].inserts.num_rows == 1
    assert merged["Sales"].deletes.num_rows == 1
    engine.commit(merged)
    staged = engine.snapshot().db.relation("Sales")
    want = sales.remove_rows(_as(sales, [sales.row(0)])).concat(
        _as(sales, [sales.row(3)])
    )
    _assert_identical(staged, want)
    for key in before:
        carried = engine.snapshot().tries[key]
        assert carried is not before[key]
        _assert_cold(carried, staged)


def _as(relation: Relation, rows: list[tuple]) -> Relation:
    return Relation.from_rows(relation.schema, rows)


def test_an_absent_delete_leaves_store_and_handles_on_the_last_good_version(
    favorita_db,
):
    engine = LMFAO(favorita_db)
    handle = engine.maintain(_sales_batch())
    engine.run(_sales_batch())
    snapshot = engine.snapshot()
    results = handle.results
    sales = favorita_db.relation("Sales")
    deltas = {
        "Sales": RelationDelta(
            "Sales",
            inserts=_as(sales, [sales.row(1)]),
            deletes=_as(sales, [(999, 999, 999, 1.0, 0)]),
        )
    }
    with pytest.raises(SchemaError, match="not present"):
        engine.commit(deltas)
    assert engine.snapshot() is snapshot
    assert handle.results is results
    version, _ = engine.commit(
        {"Sales": RelationDelta("Sales", inserts=_as(sales, [sales.row(1)]))}
    )
    assert version == snapshot.version + 1


@pytest.mark.parametrize("backend", ["numpy", "python"])
def test_never_repeating_constants_leave_the_trie_caches_alone(favorita_db, backend):
    """An operand whose product holds a ``WHERE`` constant lives for one
    run: 50 runs with new constants keep the Sales trie's caches as the
    first run left them. Two cases: a prefix-sum register (``units`` is
    a row attribute) and a level-function array (``date`` is a trie
    level of Sales)."""
    for template in (
        "SELECT store, SUM(units), SUM(1) FROM D WHERE units <= {} GROUP BY store",
        "SELECT store, SUM(units) FROM D WHERE date <= {} GROUP BY store",
    ):
        engine = LMFAO(favorita_db, EngineConfig(backend=backend))

        def batch(constant: float) -> QueryBatch:
            return QueryBatch([parse_query(template.format(constant), "q")])

        engine.run(batch(0.5))
        (trie,) = [t for k, t in engine.snapshot().tries.items() if k[0] == "Sales"]
        counts = (len(trie._operands), len(trie._operand_lists), len(trie._np_cache))
        for step in range(50):
            engine.run(batch(1.5 + step))
        assert (
            len(trie._operands), len(trie._operand_lists), len(trie._np_cache)
        ) == counts, template


def test_a_closed_server_is_freed_by_refcount(favorita_db):
    sales = favorita_db.relation("Sales")
    gc.collect()
    gc.disable()
    try:
        server = AggregateServer(favorita_db)
        server.run(_sales_batch())
        server.apply(inserts={"Sales": [sales.row(0)]})
        refs = [
            weakref.ref(server),
            weakref.ref(server.engine),
            weakref.ref(server.engine.snapshot()),
        ]
        server.close()
        del server
        assert [ref() for ref in refs] == [None, None, None]
    finally:
        gc.enable()
