"""Runtime preparation: binding reshapes and the compiled-group entry checks."""

import numpy as np
import pytest

from repro.core import EngineConfig, LMFAO
from repro.core.cbackend import gcc_available
from repro.core.plan import ViewBinding
from repro.core.runtime import execute_plan, reshape_binding
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
    group = compiled.executables[backend][index]
    assert group is not None
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
        compiled.executables["python"][index].execute(
            trie,
            {},  # missing inputs
            {},
            compiled.functions,
        )
