"""CSR trie index: run structure, child spans, prefix sums."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import Attribute, Relation, RelationSchema, TrieIndex
from repro.util.errors import PlanError

C = Attribute.categorical
F = Attribute.continuous


@pytest.fixture()
def relation():
    schema = RelationSchema("R", (C("a"), C("b"), F("x")))
    return Relation(
        schema,
        {
            "a": [2, 1, 2, 1, 2, 2],
            "b": [1, 3, 1, 3, 2, 1],
            "x": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
        },
    )


def test_level_structure(relation):
    trie = TrieIndex(relation, ("a", "b"))
    level0 = trie.level(0)
    assert list(level0.values) == [1, 2]
    assert list(level0.row_start) == [0, 2]
    assert list(level0.row_end) == [2, 6]
    level1 = trie.level(1)
    # runs: (1,3), (2,1), (2,2)
    assert list(level1.values) == [3, 1, 2]
    assert list(level1.row_end - level1.row_start) == [2, 3, 1]
    # child spans of level0 runs cover level1 runs [0,1) and [1,3)
    assert list(level0.child_start) == [0, 1]
    assert list(level0.child_end) == [1, 3]


def test_deepest_level_child_spans_are_rows(relation):
    trie = TrieIndex(relation, ("a", "b"))
    deepest = trie.level(1)
    assert list(deepest.child_start) == list(deepest.row_start)
    assert list(deepest.child_end) == list(deepest.row_end)


def test_empty_relation():
    schema = RelationSchema("R", (C("a"),))
    trie = TrieIndex(Relation(schema, {"a": []}), ("a",))
    assert trie.level(0).num_runs == 0
    assert trie.num_rows == 0


def test_empty_order(relation):
    trie = TrieIndex(relation, ())
    assert trie.levels == []
    assert trie.num_rows == 6


def test_order_validation(relation):
    with pytest.raises(PlanError):
        TrieIndex(relation, ("a", "a"))
    with pytest.raises(PlanError):
        TrieIndex(relation, ("nope",))


def test_prefix_sum_ranges(relation):
    trie = TrieIndex(relation, ("a", "b"))
    psum = trie.prefix_sum("x", lambda rel: rel.column("x"))
    sorted_x = trie.column("x")
    level0 = trie.level(0)
    for i in range(level0.num_runs):
        lo, hi = level0.row_start[i], level0.row_end[i]
        assert psum[hi] - psum[lo] == pytest.approx(sorted_x[lo:hi].sum())
    # cached: same object back
    assert trie.prefix_sum("x", lambda rel: rel.column("x")) is psum


def test_prefix_sum_shape_check(relation):
    trie = TrieIndex(relation, ("a",))
    with pytest.raises(PlanError):
        trie.prefix_sum("bad", lambda rel: np.ones(3))


def test_level_lists_and_functions(relation):
    trie = TrieIndex(relation, ("a", "b"))
    vals, rs, re_, cs, ce = trie.level_lists(0)
    assert vals == [1, 2]
    assert isinstance(vals[0], int)
    trie.level_function_array(0, "sq", lambda v: v.astype(float) ** 2)
    farr = trie.operand_list((0, "sq"))
    assert farr == [1.0, 4.0] and trie.operand_list((0, "sq")) is farr
    trie.prefix_sum("x", lambda rel: rel.column("x"))
    plist = trie.operand_list("x")
    assert plist[0] == 0.0 and len(plist) == 7


@given(seed=st.integers(0, 500), n=st.integers(0, 60))
@settings(max_examples=25, deadline=None)
def test_runs_partition_rows(seed, n):
    """Trie invariant: every level's runs partition the sorted rows, and
    child spans partition the next level."""
    rng = np.random.default_rng(seed)
    schema = RelationSchema("R", (C("a"), C("b"), C("c")))
    relation = Relation(
        schema,
        {k: rng.integers(0, 4, n) for k in ("a", "b", "c")},
    )
    trie = TrieIndex(relation, ("a", "b", "c"))
    for k, level in enumerate(trie.levels):
        # rows partitioned: starts are strictly increasing, contiguous
        assert list(level.row_start[1:]) == list(level.row_end[:-1])
        if level.num_runs:
            assert level.row_start[0] == 0
            assert level.row_end[-1] == n
        # runs have constant prefix values
        col = trie.column(level.attribute)
        for i in range(level.num_runs):
            lo, hi = level.row_start[i], level.row_end[i]
            assert (col[lo:hi] == level.values[i]).all()
        if k + 1 < len(trie.levels):
            child = trie.level(k + 1)
            assert list(level.child_start[1:]) == list(level.child_end[:-1])
            if level.num_runs:
                assert level.child_end[-1] == child.num_runs


# ----------------------------------------------------------------- partitions
def test_partitions_split_level0_runs(relation):
    trie = TrieIndex(relation, ("a", "b"))
    parts = trie.partitions(2)
    assert len(parts) == 2
    # disjoint level-0 values, in run order
    assert [list(p.level(0).values) for p in parts] == [[1], [2]]
    # rows are covered exactly once
    assert sum(p.num_rows for p in parts) == trie.num_rows
    # each partition is a self-contained index over the same order
    for p in parts:
        assert p.order == trie.order
        assert p.level(0).row_start[0] == 0


def test_partitions_unsplittable_cases(relation):
    single_run = Relation(
        RelationSchema("S", (C("a"), F("x"))), {"a": [7, 7, 7], "x": [1.0, 2.0, 3.0]}
    )
    empty = Relation(RelationSchema("E", (C("a"),)), {"a": []})
    for trie in (
        TrieIndex(single_run, ("a",)),  # one level-0 run
        TrieIndex(empty, ("a",)),  # empty relation
        TrieIndex(relation, ()),  # no levels at all
    ):
        assert trie.partitions(4) == [trie]
    # k <= 1 never splits
    trie = TrieIndex(relation, ("a", "b"))
    assert trie.partitions(1) == [trie]


def test_partitions_k_exceeding_runs_caps_at_runs(relation):
    trie = TrieIndex(relation, ("a", "b"))  # two level-0 runs
    parts = trie.partitions(5)
    assert 1 <= len(parts) <= 2
    assert sum(p.num_rows for p in parts) == trie.num_rows
    for p in parts:
        assert p.num_rows > 0  # never an empty partition


@given(seed=st.integers(0, 500), n=st.integers(0, 80), k=st.integers(1, 6))
@settings(max_examples=30, deadline=None)
def test_partitions_reconstruct_the_whole_index(seed, n, k):
    """Partitions are disjoint, ordered, exhaustive, and structurally sound."""
    rng = np.random.default_rng(seed)
    schema = RelationSchema("R", (C("a"), C("b"), F("x")))
    relation = Relation(
        schema,
        {
            "a": rng.integers(0, 6, n),
            "b": rng.integers(0, 3, n),
            "x": rng.integers(-4, 5, n).astype(float),
        },
    )
    trie = TrieIndex(relation, ("a", "b"))
    parts = trie.partitions(k)
    assert 1 <= len(parts) <= max(1, k)
    assert sum(p.num_rows for p in parts) == trie.num_rows
    # level-0 values: disjoint across partitions, concatenating to the whole
    merged_values = [v for p in parts for v in p.level(0).values]
    assert merged_values == list(trie.level(0).values)
    # sorted rows concatenate to the trie's sorted relation
    for name in ("a", "b", "x"):
        merged = np.concatenate([p.relation.column(name) for p in parts])
        assert np.array_equal(merged, trie.relation.column(name))
    # per-partition prefix sums agree with slices of the whole
    whole = trie.prefix_sum("x", lambda rel: rel.column("x"))
    offset = 0
    for p in parts:
        local = p.prefix_sum("x", lambda rel: rel.column("x"))
        assert local[-1] == pytest.approx(whole[offset + p.num_rows] - whole[offset])
        offset += p.num_rows


#: columns of the distinct-count property, by the coding they take:
#: offsets (narrow, negative) and sorted uniques (wide, float)
_COUNTED = {
    "narrow": lambda rng, n: rng.integers(0, 30, n),
    "negative": lambda rng, n: rng.integers(-500, -100, n),
    "wide": lambda rng, n: rng.integers(-10**12, 10**12, n),
    "float": lambda rng, n: np.round(rng.normal(size=n), 1),
}


@given(
    seed=st.integers(0, 2**31 - 1),
    kind=st.sampled_from(sorted(_COUNTED)),
    n=st.integers(0, 300),
)
@settings(max_examples=100, deadline=None)
def test_distinct_counts_match_np_unique(seed, kind, n):
    """Counts through the key coder — ``Relation.distinct_count`` and
    ``TrieIndex.distinct_values`` at both levels — equal
    ``len(np.unique(column))`` for narrow, wide and negative integer
    columns, float columns and empty ones."""
    rng = np.random.default_rng(seed)
    column = _COUNTED[kind](rng, n)
    value = F if kind == "float" else C
    relation = Relation(
        RelationSchema("R", (C("a"), value("b"))),
        {"a": rng.integers(0, 4, n), "b": column},
    )
    assert relation.distinct_count("b") == len(np.unique(column))
    trie = TrieIndex(relation, ("a", "b"))
    assert trie.distinct_values(0) == len(np.unique(relation.column("a")))
    assert trie.distinct_values(1) == len(np.unique(column))
