"""Runtime preparation: binding reshapes, the merges' one per-key sum, and
the compiled-group entry checks."""

import copy
import math
import pickle
import sys
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import EngineConfig, LMFAO
from repro.core.cbackend import gcc_available
from repro.core.engine import GroupRun
from repro.core.plan import ViewBinding
from repro.core.runtime import (
    ArrayViewData,
    as_mapping,
    estimate_view_bytes,
    reshape_binding,
    sum_by_key,
    view_columns,
)
from repro.paper import FAVORITA_TREE
from repro.util.errors import PlanError

from tests.helpers import mapping_built


def _binding(key, carried=(), block=None, width=1):
    return ViewBinding(
        view="V",
        num_aggregates=width,
        key=key,
        key_levels=tuple(range(len(key))),
        bind_level=len(key) - 1,
        carried=carried,
        block=block,
    )


def _view(data: dict, group_by: tuple[str, ...], width: int) -> ArrayViewData:
    """The view a generated-Python group emits for ``data``."""
    return ArrayViewData.from_arrays(*view_columns(data, group_by, width))


def test_scalar_binding_identity():
    data = _view({1: [2.0], 2: [3.0]}, ("a",), 1)
    binding = _binding(("a",))
    assert reshape_binding(binding, ("a",), data) is as_mapping(data)


def test_scalar_binding_reorders_keys():
    data = _view({(1, 2): [5.0]}, ("a", "b"), 1)
    binding = ViewBinding(
        view="V",
        num_aggregates=1,
        key=("b", "a"),
        key_levels=(0, 1),
        bind_level=1,
        carried=(),
    )
    reshaped = reshape_binding(binding, ("a", "b"), data)
    assert reshaped == {(2, 1): [5.0]}


def test_scalar_binding_reorders_three_part_keys():
    """The defensive branch: same attribute set, divergent orders.

    Cannot arise while both sides keep name-sorted keys, but the reshape
    must stay correct if conventions ever diverge — every entry is
    re-keyed by position, values untouched and aliased (no copies).
    """
    data = _view(
        {(1, 2, 3): [5.0, 6.0], (4, 5, 6): [7.0, 8.0]}, ("a", "b", "c"), 2
    )
    binding = ViewBinding(
        view="V",
        num_aggregates=2,
        key=("c", "a", "b"),
        key_levels=(0, 1, 2),
        bind_level=2,
        carried=(),
    )
    reshaped = reshape_binding(binding, ("a", "b", "c"), data)
    assert reshaped == {(3, 1, 2): [5.0, 6.0], (6, 4, 5): [7.0, 8.0]}
    assert reshaped[(3, 1, 2)] is as_mapping(data)[(1, 2, 3)]


def test_merge_partial_outputs_with_empty_partition():
    """A partition that emitted nothing for an artifact merges as identity.

    Empty *tries* cannot reach the merge (partitions are never empty),
    but a partition can legitimately emit an empty view — every run under
    it failed a semi-join probe or support guard.
    """
    from repro.core.plan import Emission, MultiOutputPlan, RelationLevel
    from repro.core.runtime import merge_partial_outputs

    plan = MultiOutputPlan(
        group_name="g",
        node="R",
        relation_levels=(RelationLevel(0, "a"),),
        carried_blocks=(),
        bindings=(),
        subsums=(),
        gammas=(),
        betas=(),
        emissions=(
            Emission("Q", "query", 2, ("a",), (), aligned=False),
            Emission("V", "view", 1, ("a",), (), aligned=True),
        ),
        row_products=(),
        level_functions=(),
    )
    partial = [
        {"Q": {1: [1.0, 2.0]}, "V": {5: [1.0]}},
        {"Q": {}, "V": {}},
        {"Q": {1: [0.5, 0.0], 2: [3.0, 1.0]}, "V": {6: [2.0]}},
    ]
    partial = [
        {"Q": _view(p["Q"], ("a",), 2), "V": _view(p["V"], ("a",), 1)}
        for p in partial
    ]
    merged = merge_partial_outputs(plan, partial)
    assert as_mapping(merged["Q"]) == {1: [1.5, 2.0], 2: [3.0, 1.0]}
    assert as_mapping(merged["V"]) == {5: [1.0], 6: [2.0]}
    # inputs untouched (merge builds fresh arrays)
    assert as_mapping(partial[0]["Q"]) == {1: [1.0, 2.0]}
    assert partial[0]["Q"].value_matrix.tolist() == [[1.0, 2.0]]


def test_merge_partial_outputs_aligned_columnar_fast_path():
    """ArrayViewData partials concatenate vectorised, arrays intact."""
    import numpy as np

    from repro.core.plan import Emission, MultiOutputPlan, RelationLevel
    from repro.core.runtime import ArrayViewData, merge_partial_outputs

    plan = MultiOutputPlan(
        group_name="g",
        node="R",
        relation_levels=(RelationLevel(0, "a"),),
        carried_blocks=(),
        bindings=(),
        subsums=(),
        gammas=(),
        betas=(),
        emissions=(Emission("V", "view", 1, ("a",), (), aligned=True),),
        row_products=(),
        level_functions=(),
    )
    parts = [
        ArrayViewData.from_arrays([np.array([1, 2])], np.array([[1.0], [2.0]])),
        ArrayViewData.from_arrays([np.array([], dtype=np.int64)], np.zeros((0, 1))),
        ArrayViewData.from_arrays([np.array([3])], np.array([[4.0]])),
    ]
    merged = merge_partial_outputs(plan, [{"V": p} for p in parts])
    assert isinstance(merged["V"], ArrayViewData)
    assert as_mapping(merged["V"]) == {1: [1.0], 2: [2.0], 3: [4.0]}
    assert merged["V"].key_columns[0].tolist() == [1, 2, 3]


def _columnar(keys, rows):
    from repro.core.runtime import ArrayViewData

    return ArrayViewData.from_arrays([np.asarray(keys)], np.asarray(rows, float))


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.__setitem__(9, [9.0]),
        lambda d: d.__delitem__(1),
        lambda d: d.update({9: [9.0]}),
        lambda d: d.__ior__({9: [9.0]}),
        lambda d: d.setdefault(9, [9.0]),
        lambda d: d.pop(1),
        lambda d: d.popitem(),
        lambda d: d.clear(),
    ],
)
def test_array_view_data_mutations_auto_drop_columnar(mutate):
    """A view is a value: no dict mutation reaches it, so its columns can
    never go stale under a columnar consumer."""
    data = _columnar([1, 2], [[1.0], [2.0]])
    with pytest.raises((AttributeError, TypeError)):
        mutate(data)
    assert data.key_columns[0].tolist() == [1, 2]
    assert data.value_matrix.tolist() == [[1.0], [2.0]]
    assert as_mapping(data) == {1: [1.0], 2: [2.0]}


def test_array_view_data_read_only_ops_keep_columnar():
    data = _columnar([1, 2], [[1.0], [2.0]])
    keys, matrix = data.key_columns, data.value_matrix
    mapping = as_mapping(data)
    assert mapping[1] == [1.0] and mapping.get(7) is None and len(data) == 2
    assert list(mapping) == [1, 2] and 2 in mapping
    assert data.key_columns is keys and data.value_matrix is matrix


def test_merge_partial_outputs_accumulating_keeps_columnar_sources_intact():
    """The per-key summation builds a new view; the partials come out of
    the merge unmutated and still consistent."""
    from repro.core.plan import Emission, MultiOutputPlan, RelationLevel
    from repro.core.runtime import ArrayViewData, merge_partial_outputs

    plan = MultiOutputPlan(
        group_name="g",
        node="R",
        relation_levels=(RelationLevel(0, "a"),),
        carried_blocks=(),
        bindings=(),
        subsums=(),
        gammas=(),
        betas=(),
        emissions=(Emission("Q", "query", 1, ("a",), (), aligned=False),),
        row_products=(),
        level_functions=(),
    )
    parts = [_columnar([1, 2], [[1.0], [2.0]]), _columnar([2, 3], [[5.0], [7.0]])]
    merged = merge_partial_outputs(plan, [{"Q": p} for p in parts])
    assert as_mapping(merged["Q"]) == {1: [1.0], 2: [7.0], 3: [7.0]}
    assert [as_mapping(part) for part in parts] == [
        {1: [1.0], 2: [2.0]}, {2: [5.0], 3: [7.0]}
    ]
    assert [part.value_matrix.tolist() for part in parts] == [
        [[1.0], [2.0]], [[5.0], [7.0]]
    ]


def test_carried_binding_groups_entries():
    data = _view({(1, 7): [2.0], (1, 8): [3.0], (2, 7): [4.0]}, ("a", "c"), 1)
    binding = _binding(("a",), carried=("c",), block=0)
    reshaped = reshape_binding(binding, ("a", "c"), data)
    assert set(reshaped) == {1, 2}
    assert sorted(reshaped[1]) == [((7,), [2.0]), ((8,), [3.0])]
    assert reshaped[2] == [((7,), [4.0])]


def test_carried_binding_multi_key():
    data = _view({(1, 2, 7): [1.0]}, ("a", "b", "c"), 1)
    binding = ViewBinding(
        view="V",
        num_aggregates=1,
        key=("a", "b"),
        key_levels=(0, 1),
        bind_level=1,
        carried=("c",),
        block=0,
    )
    reshaped = reshape_binding(binding, ("a", "b", "c"), data)
    assert reshaped == {(1, 2): [((7,), [1.0])]}


@pytest.mark.parametrize(
    "backend",
    [
        "python",
        "numpy",
        pytest.param(
            "c", marks=pytest.mark.skipif(not gcc_available(), reason="needs gcc")
        ),
    ],
)
def test_execute_plan_rejects_a_trie_in_another_order(favorita_db, backend):
    """Compiled code addresses level arrays positionally: a trie built in
    another attribute order must fail loudly on every backend, not
    aggregate the wrong attributes (the C group used to)."""
    from repro.data import TrieIndex
    from repro.paper import example_queries

    engine = LMFAO(
        favorita_db, EngineConfig(join_tree_edges=FAVORITA_TREE, backend=backend)
    )
    compiled = engine.compile(example_queries())
    index = next(i for i, p in enumerate(compiled.plans) if len(p.order) > 1)
    plan = compiled.plans[index]
    group = compiled.executables[index]
    assert group.backend == backend
    wrong_trie = TrieIndex(
        favorita_db.relation(plan.node), tuple(reversed(plan.order))
    )
    run = GroupRun(compiled, engine.snapshot())
    with pytest.raises(PlanError, match="trie order"):
        engine.execute_group(run, index, wrong_trie)


def test_environment_requires_view_data(favorita_db, favorita_engine):
    """Generated Python's tables are prepared from the incoming views: a
    group without them raises before its environment is built."""
    from repro.paper import example_queries

    compiled = favorita_engine.compile(example_queries())
    index = next(i for i, p in enumerate(compiled.plans) if p.bindings)
    with pytest.raises(PlanError, match="missing incoming view data"):
        compiled.python[index].prepare_bindings({}, compiled.view_group_by)


# ------------------------------------------------ a view and its as_mapping dict

_KEYS = [[3, 3, 1], [7, 8, 7]]
_ROWS = [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]
_EAGER = {(3, 7): [1.0, 2.0], (3, 8): [3.0, 4.0], (1, 7): [5.0, 6.0]}


def _pending():
    """A fresh two-column view whose dict is not built yet."""
    data = ArrayViewData.from_arrays(
        [np.asarray(column, dtype=np.int64) for column in _KEYS],
        np.asarray(_ROWS),
    )
    assert not mapping_built(data)
    return data


def _unpickled(data):
    return pickle.loads(pickle.dumps(data))


#: every dict read ``src/`` applies to view data → the same read on a
#: plain dict; each must answer on ``as_mapping`` like the eager dict
_READS = {
    "eq": lambda d: d == dict(_EAGER),
    "eq-reflected": lambda d: dict(_EAGER) == d,
    "eq-other": lambda d: d == {(3, 7): [1.0, 2.0]},
    "eq-self": lambda d: d == d,
    "ne": lambda d: d != dict(_EAGER),
    "ne-reflected": lambda d: dict(_EAGER) != d,
    "ne-other": lambda d: {(3, 7): [1.0, 2.0]} != d,
    "get": lambda d: (d.get((3, 8)), d.get((9, 9)), d.get((9, 9), "x")),
    "getitem": lambda d: d[(1, 7)],
    "contains": lambda d: ((3, 7) in d, (9, 9) in d),
    "iter": lambda d: list(d),
    "reversed": lambda d: list(reversed(d)),
    "keys": lambda d: list(d.keys()),
    "values": lambda d: list(d.values()),
    "items": lambda d: list(d.items()),
    "keys-set-union": lambda d: d.keys() | {(0, 0)},
    "dict": lambda d: dict(d),
    "splat": lambda d: {**d},
    "update-into": lambda d: {0: [0.0], **d},
    "copy": lambda d: d.copy(),
    "or": lambda d: d | {(0, 0): [0.0, 0.0]},
    "ror": lambda d: {(0, 0): [0.0, 0.0]} | d,
    "repr": lambda d: repr(d),
}


@pytest.mark.parametrize("read", sorted(_READS))
def test_pending_mirror_reads_like_the_eager_dict(read):
    """``as_mapping`` of a ``from_arrays`` view answers every dict read
    exactly as the eager dict would, and the view keeps that one dict."""
    data = _pending()
    mapping = as_mapping(data)
    assert _READS[read](mapping) == _READS[read](dict(_EAGER))
    assert type(mapping) is dict and as_mapping(data) is mapping
    assert mapping == _EAGER and list(mapping) == list(_EAGER)  # row order


def test_as_mapping_keys_one_column_by_scalar():
    data = ArrayViewData.from_arrays([np.array([3, 1])], np.array([[1.0], [2.0]]))
    assert as_mapping(data) == {3: [1.0], 1: [2.0]}
    assert list(as_mapping(data)) == [3, 1]
    # no key columns: a scalar view's one row is keyed by ()
    scalar = ArrayViewData.from_arrays([], np.array([[1.5, 2.5]]))
    assert len(scalar) == 1 and as_mapping(scalar) == {(): [1.5, 2.5]}
    assert as_mapping(ArrayViewData.from_arrays([], np.zeros((0, 2)))) == {}
    # two key columns: tuples, in row order
    pairs = ArrayViewData.from_arrays(
        [np.array([2, 1]), np.array([0.5, 7.0])], np.array([[1.0], [2.0]])
    )
    assert list(as_mapping(pairs).items()) == [((2, 0.5), [1.0]), ((1, 7.0), [2.0])]


def test_pending_mirror_compares_pending_to_pending():
    """The maintainer's change test compares two views by contents through
    ``as_mapping``: an equal refresh reads as unchanged (delta cutoff)."""
    left, right = _pending(), _pending()
    assert as_mapping(left) == as_mapping(right)
    assert not (as_mapping(left) != as_mapping(right))
    assert as_mapping(left) == _EAGER  # a view equals its dict
    moved = ArrayViewData.from_arrays(left.key_columns, left.value_matrix + 1.0)
    assert as_mapping(left) != as_mapping(moved)
    assert as_mapping(moved) != as_mapping(right)


@pytest.mark.parametrize(
    "probe",
    [
        len,
        bool,
        lambda d: view_columns(d, ("a", "b"), 2),
        estimate_view_bytes,
        _unpickled,
        copy.copy,
    ],
    ids=["len", "bool", "view_columns", "estimate_view_bytes", "pickle",
         "copy.copy"],
)
def test_pending_mirror_metadata_does_not_build(probe):
    data = _pending()
    probe(data)
    assert not mapping_built(data)
    assert len(data) == 3 and bool(data)


def test_pending_mirror_pickles_as_arrays_and_stays_pending():
    """A view pickles as its arrays alone: it unpickles with no dict built
    and the same rows in the same order, and a built dict does not travel."""
    data = _pending()
    restored = _unpickled(data)
    assert isinstance(restored, ArrayViewData) and not mapping_built(restored)
    assert [column.tolist() for column in restored.key_columns] == _KEYS
    assert restored.value_matrix.tolist() == _ROWS
    size = len(pickle.dumps(data))
    as_mapping(data)
    again = _unpickled(data)
    assert not mapping_built(again)
    assert as_mapping(again) == _EAGER and list(as_mapping(again)) == list(_EAGER)
    assert len(pickle.dumps(data)) == size


def test_columnar_view_pickles_near_its_array_bytes():
    """What crosses the process boundary is the arrays, not the dict."""
    from multiprocessing.reduction import ForkingPickler

    rng = np.random.default_rng(0)
    keys = [rng.permutation(40_000)[:20_000].astype(np.int64),
            rng.integers(0, 50, 20_000)]
    data = ArrayViewData.from_arrays(keys, rng.random((20_000, 3)))
    nbytes = sum(k.nbytes for k in keys) + data.value_matrix.nbytes
    for state in ("pending", "built"):
        if state == "built":
            as_mapping(data)
        size = len(ForkingPickler.dumps(data))
        assert size <= 1.2 * nbytes, (state, size, nbytes)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.__setitem__((9, 9), [9.0, 9.0]),
        lambda d: d.__delitem__((3, 7)),
        lambda d: d.update({(9, 9): [9.0, 9.0]}),
        lambda d: d.__ior__({(9, 9): [9.0, 9.0]}),
        lambda d: d.setdefault((9, 9), [9.0, 9.0]),
        lambda d: d.pop((3, 7)),
        lambda d: d.popitem(),
        lambda d: d.clear(),
    ],
)
def test_pending_mirror_mutation_builds_then_drops(mutate):
    """A consumer that changes a view's contents mutates a copy of its
    ``as_mapping`` dict, as the delta merge does: the copy changes as the
    eager dict would, and the view and its kept dict stay as they were."""
    data, expected = _pending(), dict(_EAGER)
    changed = dict(as_mapping(data))
    assert mutate(changed) == mutate(expected)
    assert changed == expected
    assert as_mapping(data) == _EAGER
    assert [column.tolist() for column in data.key_columns] == _KEYS
    assert data.value_matrix.tolist() == _ROWS


def test_pending_mirror_drop_columnar_keeps_contents():
    """Building the dict keeps the columns: native consumers read the same
    arrays after a dict consumer has read the view."""
    data = _pending()
    keys, matrix = data.key_columns, data.value_matrix
    as_mapping(data)
    assert data.key_columns is keys and data.value_matrix is matrix
    columns, values = view_columns(data, ("a", "b"), 2)
    assert [c.tolist() for c in columns] == _KEYS and values.tolist() == _ROWS


def test_pending_mirror_builds_once_across_threads():
    """Readers racing on one view's first ``as_mapping`` each get a
    complete dict equal to the eager one; afterwards the view keeps one."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(50):
            data = _pending()
            barrier = threading.Barrier(6)
            seen = []

            def reader():
                barrier.wait(timeout=10)
                mapping = as_mapping(data)
                seen.append((mapping.get((3, 8)), len(list(mapping.items()))))

            threads = [threading.Thread(target=reader) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
                assert not thread.is_alive()
            assert seen == [([3.0, 4.0], 3)] * 6
            assert as_mapping(data) is as_mapping(data) and as_mapping(data) == _EAGER
    finally:
        sys.setswitchinterval(interval)


def test_check_consistent_flags_ragged_columns():
    """A ragged view cannot be built: every key column and the value
    matrix have one row per key, checked at construction."""
    with pytest.raises(PlanError, match="ragged"):
        ArrayViewData.from_arrays(
            [np.array([3, 3, 1]), np.array([7, 8])], np.asarray(_ROWS)
        )
    with pytest.raises(PlanError, match="ragged"):
        ArrayViewData.from_arrays([np.array([1, 2])], np.array([1.0, 2.0]))


@pytest.mark.parametrize("source", ["pending", "built", "dict", "no-columns"])
@pytest.mark.parametrize("key_dtype", [None, np.int64])
def test_view_columns_reads_every_form_alike(source, key_dtype):
    """The one dict → columns helper reads a view (dict built or not) and
    a dict (eager, or a view's ``as_mapping`` dict handed on alone) alike:
    the same rows in the same order."""
    data = dict(_EAGER) if source == "dict" else _pending()
    if source == "built":
        as_mapping(data)
    if source == "no-columns":
        data = as_mapping(data)
    columns, values = view_columns(data, ("a", "b"), 2, key_dtype)
    assert [c.tolist() for c in columns] == _KEYS
    assert values.tolist() == _ROWS and values.dtype == np.float64
    assert all(c.flags.c_contiguous for c in columns) and values.flags.c_contiguous
    if source == "pending":
        assert not mapping_built(data)
    empty_columns, empty_values = view_columns({}, ("a", "b"), 2, key_dtype)
    assert [len(c) for c in empty_columns] == [0, 0]
    assert empty_values.shape == (0, 2)


def test_reshape_binding_hands_generated_code_a_built_dict():
    data = _pending()
    binding = ViewBinding(
        view="V", num_aggregates=2, key=("a", "b"), key_levels=(0, 1),
        bind_level=1, carried=(),
    )
    reshaped = reshape_binding(binding, ("a", "b"), data)
    assert type(reshaped) is dict and reshaped is as_mapping(data)
    assert reshaped == _EAGER


# ------------------------------------------------------- the one per-key sum

#: key-column kinds of the sum_by_key property: the code path each takes
_KEY_KINDS = {
    # no key columns: every piece is one scalar row (or none)
    "scalar": 0,
    # small integer spans: _dense_codes' sort-free offsets
    "int-offsets": 2,
    # spans far past max(4n, 1024): _dense_codes' np.unique sort
    "int-sort": 2,
    # float keys: np.unique
    "float": 1,
    # seven ~1024-wide columns: the composite code space passes _CODE_LIMIT
    # (two columns cannot: each one's space is capped at max(4n, 1024) or
    # its distinct count), so the composite is re-densified on the way
    "wide": 7,
}


def _key_pool(rng, kind: str, size: int) -> list[np.ndarray]:
    """``size`` distinct key tuples as columns, for one key kind."""
    columns = _KEY_KINDS[kind]
    if kind == "int-offsets":
        rows = rng.integers(-5, 40, (4 * size, columns))
    elif kind == "int-sort":
        rows = rng.integers(-10**12, 10**12, (4 * size, columns))
    elif kind == "float":
        rows = rng.normal(size=(4 * size, columns)) * 1e3
    else:
        rows = rng.integers(1, 1023, (4 * size, columns))
    _, first = np.unique(rows, axis=0, return_index=True)
    rows = rows[np.sort(first)][:size]
    if kind == "wide":  # the last two rows span every column's 1024 codes
        rows = np.vstack([rows, np.zeros(columns, int), np.full(columns, 1023)])
    return [np.ascontiguousarray(rows[:, c]) for c in range(columns)]


@st.composite
def _sum_pieces(draw):
    """Pieces with one key layout: shared keys, disjoint keys, empty
    pieces; values random floats over many magnitudes, zeros included."""
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    kind = draw(st.sampled_from(sorted(_KEY_KINDS)))
    layout = draw(st.sampled_from(["shared", "disjoint"]))
    num_pieces = draw(st.integers(1, 5))
    width = draw(st.integers(1, 3))
    pieces = []
    if kind == "scalar":
        for _ in range(num_pieces):
            rows = draw(st.integers(0, 1))
            pieces.append(ArrayViewData.from_arrays([], _values(rng, rows, width)))
        return kind, pieces
    pool = _key_pool(rng, kind, draw(st.integers(1, 60)))
    size = len(pool[0])
    if layout == "disjoint":
        owner = rng.integers(0, num_pieces, size)
        chosen = [np.flatnonzero(owner == p) for p in range(num_pieces)]
    else:
        chosen = [
            rng.permutation(size)[: rng.integers(0, size + 1)]
            for _ in range(num_pieces)
        ]
    emptied = rng.integers(0, num_pieces) if draw(st.booleans()) else None
    if emptied is not None:
        chosen[emptied] = np.zeros(0, dtype=np.int64)
    if kind == "wide":  # the span ends, which make the code space
        target = 0 if emptied != 0 else num_pieces - 1
        chosen[target] = np.union1d(chosen[target], [size - 2, size - 1])
    for rows in chosen:
        keys = [column[rows] for column in pool]
        pieces.append(ArrayViewData.from_arrays(keys, _values(rng, len(rows), width)))
    return kind, pieces


def _values(rng, rows: int, width: int) -> np.ndarray:
    scale = 10.0 ** rng.integers(-8, 9, (rows, width))
    values = rng.normal(size=(rows, width)) * scale
    values[rng.random((rows, width)) < 0.1] = 0.0
    return values


def _fold_by_key(pieces: list[ArrayViewData]) -> dict:
    """The reference: per key, each slot a left fold from 0.0 in piece
    order, written without NumPy's grouping."""
    sums: dict = {}
    for piece in pieces:
        keys = zip(*(column.tolist() for column in piece.key_columns))
        if not piece.key_columns:
            keys = [()] * len(piece)
        for key, row in zip(keys, piece.value_matrix.tolist()):
            acc = sums.setdefault(key, [0.0] * len(row))
            for slot, value in enumerate(row):
                acc[slot] = acc[slot] + value
    return sums


@given(case=_sum_pieces())
@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_sum_by_key_is_a_left_fold_from_zero(case):
    """``sum_by_key`` is bit-identical to a left fold from 0.0 per key and
    slot in piece order, its rows are the distinct keys in ascending
    order, and it mutates no input array — for scalar pieces, integer
    keys on both sides of the offsets/sort cut, float keys, and keys
    whose code space passes ``_CODE_LIMIT``."""
    from repro.data.keycodes import _CODE_LIMIT, _dense_codes

    kind, pieces = case
    before = [
        [column.copy() for column in (*piece.key_columns, piece.value_matrix)]
        for piece in pieces
    ]
    got = sum_by_key(pieces)
    want = _fold_by_key(pieces)
    keys = sorted(want)
    assert len(got) == len(keys)
    assert len(got.key_columns) == _KEY_KINDS[kind]
    assert list(zip(*(c.tolist() for c in got.key_columns))) == (
        keys if got.key_columns else []
    )
    width = pieces[0].value_matrix.shape[1]
    expected = np.array([want[key] for key in keys], dtype=np.float64)
    assert got.value_matrix.shape == (len(keys), width)
    assert np.array_equal(
        got.value_matrix.view(np.int64), expected.reshape(-1, width).view(np.int64)
    )
    for piece, arrays in zip(pieces, before):
        now = (*piece.key_columns, piece.value_matrix)
        assert all(
            a.dtype == b.dtype and np.array_equal(a, b) for a, b in zip(now, arrays)
        )
    # each kind takes the code path it is named for
    stacked = [np.concatenate(c) for c in zip(*(p.key_columns for p in pieces))]
    if kind.startswith("int") and len(np.unique(stacked[0])) > 1:
        span = int(stacked[0].max()) - int(stacked[0].min()) + 1
        assert (span <= max(4 * len(stacked[0]), 1024)) == (kind == "int-offsets")
    if kind == "wide" and len(stacked[0]):
        space = math.prod(_dense_codes(column)[1].card for column in stacked)
        assert space >= _CODE_LIMIT


@given(
    seed=st.integers(0, 2**31 - 1),
    rows=st.integers(0, 6),
    width=st.integers(1, 400),
)
@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_scalar_sum_matches_the_per_slot_bincount(seed, rows, width):
    """Scalar pieces fold a row at a time; the result is bit-identical to
    the per-slot ``np.bincount`` loop keyed pieces take, ``-0.0`` rows,
    zeros and empty pieces included."""
    rng = np.random.default_rng(seed)
    pieces = []
    for _ in range(rows):
        values = _values(rng, int(rng.integers(0, 2)), width)
        values[rng.random(values.shape) < 0.2] = -0.0
        if rng.random() < 0.2:
            values[:] = -0.0
        pieces.append(ArrayViewData.from_arrays([], values))
    if not pieces:
        pieces.append(ArrayViewData.from_arrays([], np.zeros((0, width))))
    stacked = np.concatenate([piece.value_matrix for piece in pieces])
    ids = np.zeros(len(stacked), dtype=np.int64)
    want = np.empty((min(len(stacked), 1), width))
    for slot, column in enumerate(stacked.T):
        want[:, slot] = np.bincount(ids, weights=column, minlength=len(want))
    got = sum_by_key(pieces)
    assert got.key_columns == []
    assert got.value_matrix.shape == want.shape
    assert np.array_equal(got.value_matrix.view(np.int64), want.view(np.int64))
