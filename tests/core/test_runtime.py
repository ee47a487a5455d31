"""Runtime preparation: binding reshapes and the compiled-group entry checks."""

import copy
import pickle
import sys
import threading

import numpy as np
import pytest

from repro.core import EngineConfig, LMFAO
from repro.core.cbackend import gcc_available
from repro.core.plan import ViewBinding
from repro.core.runtime import (
    ArrayViewData,
    estimate_view_bytes,
    execute_plan,
    reshape_binding,
    view_columns,
)
from repro.paper import FAVORITA_TREE
from repro.util.errors import PlanError


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


def test_scalar_binding_identity():
    data = {1: [2.0], 2: [3.0]}
    binding = _binding(("a",))
    assert reshape_binding(binding, ("a",), data) is data


def test_scalar_binding_reorders_keys():
    data = {(1, 2): [5.0]}
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
    data = {(1, 2, 3): [5.0, 6.0], (4, 5, 6): [7.0, 8.0]}
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
    assert reshaped[(3, 1, 2)] is data[(1, 2, 3)]


def test_merge_partial_outputs_with_empty_partition():
    """A partition that emitted nothing for an artifact merges as identity.

    Empty *tries* cannot reach the merge (partitions are never empty),
    but a partition can legitimately emit an empty dict — every run under
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
    merged = merge_partial_outputs(plan, partial)
    assert merged["Q"] == {1: [1.5, 2.0], 2: [3.0, 1.0]}
    assert merged["V"] == {5: [1.0], 6: [2.0]}
    # inputs untouched (merge builds fresh containers)
    assert partial[0]["Q"] == {1: [1.0, 2.0]}


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
    assert merged["V"] == {1: [1.0], 2: [2.0], 3: [4.0]}
    assert isinstance(merged["V"], ArrayViewData) and merged["V"].has_columns
    assert merged["V"].key_columns[0].tolist() == [1, 2, 3]
    # a plain-dict partial disables the columnar fast path but not the merge
    merged = merge_partial_outputs(plan, [{"V": parts[0]}, {"V": {9: [5.0]}}])
    assert merged["V"] == {1: [1.0], 2: [2.0], 9: [5.0]}
    assert not isinstance(merged["V"], ArrayViewData)


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
    """Any mutating dict operation invalidates the columnar mirror, so a
    merge path that grows or rewrites entries can never serve stale
    arrays to a columnar consumer (regression: merge paths used to rely
    on callers remembering to call drop_columnar)."""
    data = _columnar([1, 2], [[1.0], [2.0]])
    assert data.has_columns
    mutate(data)
    assert not data.has_columns
    data.check_consistent()  # vacuously true without columns


def test_array_view_data_read_only_ops_keep_columnar():
    data = _columnar([1, 2], [[1.0], [2.0]])
    assert data[1] == [1.0] and data.get(7) is None and len(data) == 2
    assert list(data) == [1, 2] and 2 in data
    data.setdefault(1, [9.0])  # existing key: a read, not a mutation
    assert data.has_columns
    data.check_consistent()


def test_array_view_data_check_consistent_catches_desync():
    """The LMFAO_DEBUG invariant check fails loudly on the one mutation
    interception cannot see: writing through a stored aggregate list."""
    data = _columnar([1, 2], [[1.0], [2.0]])
    data.check_consistent()
    data[1][0] += 5.0  # in-place list write, dict methods never called
    assert data.has_columns  # ...so the arrays are now stale
    with pytest.raises(AssertionError, match="desynchronised"):
        data.check_consistent()


def test_merge_partial_outputs_accumulating_keeps_columnar_sources_intact():
    """The per-key summation path copies first-seen value lists; columnar
    partials come out of the merge unmutated and still consistent."""
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
    assert merged["Q"] == {1: [1.0], 2: [7.0], 3: [7.0]}
    assert not isinstance(merged["Q"], ArrayViewData)
    for part in parts:
        assert part.has_columns
        part.check_consistent()


def test_merge_partial_outputs_debug_flags_desynced_partial(monkeypatch):
    """Under LMFAO_DEBUG the merge asserts partials are coherent before
    trusting them."""
    from repro.core.plan import Emission, MultiOutputPlan, RelationLevel
    from repro.core.runtime import merge_partial_outputs

    monkeypatch.setenv("LMFAO_DEBUG", "1")
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
    bad = _columnar([1], [[1.0]])
    bad[1][0] = 99.0  # desync through the stored list
    with pytest.raises(AssertionError, match="desynchronised"):
        merge_partial_outputs(plan, [{"Q": bad}, {"Q": {2: [1.0]}}])


def test_carried_binding_groups_entries():
    data = {(1, 7): [2.0], (1, 8): [3.0], (2, 7): [4.0]}
    binding = _binding(("a",), carried=("c",), block=0)
    reshaped = reshape_binding(binding, ("a", "c"), data)
    assert set(reshaped) == {1, 2}
    assert sorted(reshaped[1]) == [((7,), [2.0]), ((8,), [3.0])]
    assert reshaped[2] == [((7,), [4.0])]


def test_carried_binding_multi_key():
    data = {(1, 2, 7): [1.0]}
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
    with pytest.raises(PlanError, match="trie order"):
        execute_plan(group, wrong_trie, {}, {}, compiled.functions)


def test_environment_requires_view_data(favorita_db, favorita_engine):
    from repro.data import TrieIndex
    from repro.paper import example_queries

    compiled = favorita_engine.compile(example_queries())
    index = next(i for i, p in enumerate(compiled.plans) if p.bindings)
    plan = compiled.plans[index]
    trie = TrieIndex(favorita_db.relation(plan.node), plan.order)
    with pytest.raises(PlanError):
        compiled.python[index].execute(
            trie,
            {},  # missing inputs
            {},
            compiled.functions,
        )


# ------------------------------------------------- lazy dict-mirror contract

_KEYS = [[3, 3, 1], [7, 8, 7]]
_ROWS = [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]
_EAGER = {(3, 7): [1.0, 2.0], (3, 8): [3.0, 4.0], (1, 7): [5.0, 6.0]}


def _pending():
    data = ArrayViewData.from_arrays(
        [np.asarray(column, dtype=np.int64) for column in _KEYS],
        np.asarray(_ROWS),
    )
    assert not data.has_mirror and data.has_columns
    return data


def _unpickled(data):
    return pickle.loads(pickle.dumps(data))


#: every dict read ``src/`` applies to view data → the same read on a
#: plain dict; each must build the mirror and answer like the eager dict
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
    """A ``from_arrays`` view answers every dict read exactly as the
    eager dict would, building its mirror once on the way."""
    data = _pending()
    assert _READS[read](data) == _READS[read](dict(_EAGER))
    assert data.has_mirror and type(data) is ArrayViewData
    assert data.has_columns  # a read keeps the columns
    data.check_consistent()
    assert dict.__eq__(data, _EAGER)  # the storage itself is the mirror


def test_pending_mirror_compares_pending_to_pending():
    left, right = _pending(), _pending()
    assert left == right and not (left != right)
    assert left.has_mirror and right.has_mirror
    left, right = _pending(), _pending()
    right.drop_columnar()
    right[(0, 0)] = [0.0, 0.0]
    assert left != right and right != left


@pytest.mark.parametrize(
    "probe",
    [
        len,
        bool,
        lambda d: d.has_columns,
        lambda d: d.check_consistent(),
        estimate_view_bytes,
        _unpickled,
        copy.copy,
    ],
    ids=["len", "bool", "has_columns", "check_consistent",
         "estimate_view_bytes", "pickle", "copy.copy"],
)
def test_pending_mirror_metadata_does_not_build(probe):
    data = _pending()
    probe(data)
    assert not data.has_mirror
    assert len(data) == 3 and bool(data)


def test_pending_mirror_pickles_as_arrays_and_stays_pending():
    data = _pending()
    restored = _unpickled(data)
    assert isinstance(restored, ArrayViewData) and not restored.has_mirror
    assert restored == _EAGER and list(restored) == list(_EAGER)  # row order
    # a built mirror is not shipped either: still the arrays alone
    data.build_mirror()
    again = _unpickled(data)
    assert not again.has_mirror and again == _EAGER
    assert len(pickle.dumps(data)) == len(pickle.dumps(_pending()))
    # without columns the dict contents travel, and keep the type
    data.drop_columnar()
    plain = _unpickled(data)
    assert type(plain) is ArrayViewData and not plain.has_columns
    assert plain == _EAGER


def test_columnar_view_pickles_near_its_array_bytes():
    """What crosses the process boundary is the arrays, not the mirror."""
    from multiprocessing.reduction import ForkingPickler

    rng = np.random.default_rng(0)
    keys = [rng.permutation(40_000)[:20_000].astype(np.int64),
            rng.integers(0, 50, 20_000)]
    data = ArrayViewData.from_arrays(keys, rng.random((20_000, 3)))
    nbytes = sum(k.nbytes for k in keys) + data.value_matrix.nbytes
    for state in ("pending", "built"):
        if state == "built":
            data.build_mirror()
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
    """Mutations keep the eager contract: mirror built, columns dropped,
    and the result is what the same mutation does to the eager dict."""
    data, expected = _pending(), dict(_EAGER)
    assert mutate(data) == mutate(expected)
    assert data.has_mirror and not data.has_columns
    assert dict(data) == expected
    data.check_consistent()


def test_pending_mirror_drop_columnar_keeps_contents():
    data = _pending()
    data.drop_columnar()
    assert data.has_mirror and not data.has_columns and data == _EAGER


def test_pending_mirror_builds_once_across_threads():
    """Readers racing on one pending view all see one complete mirror."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(50):
            data = _pending()
            barrier = threading.Barrier(6)
            seen = []

            def reader():
                barrier.wait(timeout=10)
                seen.append((data.get((3, 8)), len(list(data.items()))))

            threads = [threading.Thread(target=reader) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
                assert not thread.is_alive()
            assert [entries for _, entries in seen] == [3] * 6
            # one build: every reader got the very same stored list
            assert all(value is seen[0][0] for value, _ in seen)
            assert seen[0][0] == [3.0, 4.0] and dict.__len__(data) == 3
    finally:
        sys.setswitchinterval(interval)


def test_check_consistent_flags_ragged_columns():
    data = _pending()
    data.key_columns[0] = data.key_columns[0][:2]
    with pytest.raises(AssertionError, match="ragged"):
        data.check_consistent()


@pytest.mark.parametrize("source", ["pending", "built", "dict", "no-columns"])
@pytest.mark.parametrize("key_dtype", [None, np.int64])
def test_view_columns_reads_every_form_alike(source, key_dtype, monkeypatch):
    """The one dict → columns helper: columns when live, the dict
    otherwise, same rows in the same order either way."""
    monkeypatch.setenv("LMFAO_DEBUG", "1")
    data = dict(_EAGER) if source == "dict" else _pending()
    if source == "built":
        data.build_mirror()
    if source == "no-columns":
        data.drop_columnar()
    columns, values = view_columns(data, ("a", "b"), 2, key_dtype)
    assert [c.tolist() for c in columns] == _KEYS
    assert values.tolist() == _ROWS and values.dtype == np.float64
    assert all(c.flags.c_contiguous for c in columns) and values.flags.c_contiguous
    if source == "pending":
        assert not data.has_mirror
    empty_columns, empty_values = view_columns({}, ("a", "b"), 2, key_dtype)
    assert [len(c) for c in empty_columns] == [0, 0]
    assert empty_values.shape == (0, 2)


def test_view_columns_debug_check_catches_desync(monkeypatch):
    monkeypatch.setenv("LMFAO_DEBUG", "1")
    data = _pending()
    data[(3, 7)][0] = 99.0  # builds the mirror, then writes through it
    with pytest.raises(AssertionError, match="desynchronised"):
        view_columns(data, ("a", "b"), 2)


def test_reshape_binding_hands_generated_code_a_built_dict():
    data = _pending()
    binding = ViewBinding(
        view="V", num_aggregates=2, key=("a", "b"), key_levels=(0, 1),
        bind_level=1, carried=(),
    )
    assert reshape_binding(binding, ("a", "b"), data) is data
    assert type(data) is ArrayViewData and data.has_mirror
