"""Generated Python and C source, and NumPy outputs, are pinned byte for byte.

The walker (:mod:`repro.core.loopnest`), the NumPy evaluation
(:mod:`repro.core.npbackend`) and the lowering both read
(:mod:`repro.core.lowering`) are refactored freely; the source they emit
and the arrays NumPy computes are not supposed to move unless a change
means them to. Each corpus entry compiles one batch, then hashes, for
every group plan, the generated Python with ``share_terms`` on and off
and the generated C with its argument specs (``DIGESTS``); and, at one
partition, every group's NumPy outputs — artifact name, key-column
dtypes and bytes, value-matrix bytes, so row order counts too
(``NUMPY_DIGESTS``). A mismatch means the emitted statements or the
computed floats changed.

When a change is meant to alter them, regenerate the digests and paste
the printed tables over ``DIGESTS`` and ``NUMPY_DIGESTS``::

    PYTHONPATH=src python tests/core/test_source_identity.py

and give each changed entry a one-line comment saying why it moved.
"""

from __future__ import annotations

import hashlib
from functools import cache

import numpy as np
import pytest

from repro.core import EngineConfig, LMFAO
from repro.core.cbackend import generate_c_source
from repro.core.codegen import generate_group
from repro.core.engine import GroupRun
from repro.core.runtime import ArrayViewData, as_mapping
from repro.data import favorita, retailer
from repro.ml import FeatureSpec, cart_node_batch, covariance_batch
from repro.ml.features import retailer_features
from repro.paper import EXAMPLE_ROOTS, FAVORITA_TREE, example_queries
from repro.query import Aggregate, OrderSpec, Query, QueryBatch
from repro.query.predicates import Op, Predicate

DIGESTS = {
    # 3 C hash emissions (3 of 6 groups) take rows from lmfao_row, direct or hashed per call
    'carried_class_city': 'ecd20cd041ed9a9ce77fbf87d1baf67982092cb0796abc47bb63835aaeb64123',
    # 6 C hash emissions (5 of 9 groups) take rows from lmfao_row, direct or hashed per call
    'cart_groupby': '0aef044044b1d895a3c6fa61b3f662353bd25194fe40ff58ab1ac5fc7db32a27',
    # 3 C hash emissions (3 of 8 groups) take rows from lmfao_row, direct or hashed per call
    'cart_indicator': '3e16be962b5c172eff67596e6abe4fc73338974f037adcc264e07b53cb7ed5d6',
    # 198 C hash emissions (6 of 8 groups) as above; 13 C bindings reuse their level's key code
    'covariance_retailer': '2d3faf21a147e1c9b741f719a8d367468726f63347e17838aa3626ba40d0a7fe',
    # 4 C hash emissions (3 of 7 groups) as above; 2 C bindings reuse their level's key code
    'ordered_topk': '62ce4a9173f708e92215976b26c0c5dd79272052c0ad9809c3453e2e6d763825',
    # 2 C hash emissions (2 of 7 groups) take rows from lmfao_row, direct or hashed per call
    'paper_example': '5b3caf4df22c1d34ed6048ee870d04fd688820152e6dece76d0ef693f88b8e5f',
    # 3 C hash emissions (3 of 9 groups) take rows from lmfao_row, direct or hashed per call
    'paper_example_single_output': '082588f6a987ea03f6aeb71cc9633f4a11dfd6d680c56ef1fad5569fdf82eacf',
    # 2 C hash emissions (2 of 7 groups) take rows from lmfao_row, direct or hashed per call
    'paper_example_unfactorized': '5be14927e025ade22f7879068b481d24e1511d4286ef168423e9e676866b82d6',
}

NUMPY_DIGESTS = {
    'carried_class_city': '7a3262e8c0bf6000cfdcabe58a55123ff0993d805fa65e26f885a679d7589fd5',
    'cart_groupby': '140627021fe2f1779838c54af03cc5bcae63e81b1a2b9a09d3e1d06bcaa0c405',
    'cart_indicator': '4ab5ea828cc371c2fe73ef6d1c861122077ac1fa5eaf0733d819a4d9ac34b7ff',
    'covariance_retailer': 'd64712b6b07cff2a6c52b7d97f15bf2cb2c99cafa526c59a21e3a4ad322b552b',
    'ordered_topk': '6821324d979687d519f773a2fa5870ded0f5fa5faa0ff8fdb526e2afcfe6a12b',
    'paper_example': 'cf9234b1f997b57084079ad649c57adc13f0a6e1e7049249e7cb1b957ea630a6',
    'paper_example_single_output': '5af3b6ea3e3e94e0cc1e34bebbd7808b7d940cd3b7bb1cffd072cdb7a369131a',
    'paper_example_unfactorized': '93c4177e8507b24651aa0119aac49e5a592cf4033caa75865e99f9308fea249f',
}


@cache
def _favorita():
    return favorita(scale=0.05, seed=7)


@cache
def _retailer():
    return retailer(scale=0.05, seed=7)


def _cart_spec() -> FeatureSpec:
    return FeatureSpec(
        label="units", continuous=("txns", "price"), categorical=("promo", "stype")
    )


def _corpus():
    """``name → (database, batch, plan-shaping config)`` of every entry."""
    paper = {"join_tree_edges": FAVORITA_TREE, "root_override": EXAMPLE_ROOTS}
    tree = {"join_tree_edges": FAVORITA_TREE}
    path = (Predicate("promo", Op.EQ, 1.0),)
    return {
        "paper_example": (_favorita, example_queries, paper),
        "paper_example_unfactorized": (
            _favorita, example_queries, {**paper, "factorize": False}
        ),
        "paper_example_single_output": (
            _favorita, example_queries, {**paper, "multi_output": False}
        ),
        "covariance_retailer": (
            _retailer, lambda: covariance_batch(retailer_features(_retailer())), {}
        ),
        "carried_class_city": (
            _favorita,
            lambda: QueryBatch([
                Query("cc", group_by=("class", "city"), aggregates=(
                    Aggregate.count(), Aggregate.sum("units"),
                )),
            ]),
            tree,
        ),
        "ordered_topk": (
            _favorita,
            lambda: QueryBatch([
                Query(
                    "top_items", group_by=("store", "item"),
                    aggregates=(Aggregate.sum("units"), Aggregate.count()),
                    order_by=OrderSpec(
                        agg_index=0, descending=True, partition_by=("store",)
                    ),
                    limit=2,
                ),
                Query(
                    "low_cities", group_by=("city", "family"),
                    aggregates=(Aggregate.sum("units"),),
                    order_by=OrderSpec(agg_index=0, descending=False),
                    limit=3,
                ),
            ]),
            tree,
        ),
        "cart_groupby": (
            _favorita, lambda: cart_node_batch(_cart_spec(), path), tree
        ),
        "cart_indicator": (
            _favorita,
            lambda: cart_node_batch(
                _cart_spec(), path, mode="indicator",
                thresholds={"txns": [1.0, 2.0], "price": [3.0]},
            ),
            tree,
        ),
    }


def source_digest(name: str) -> str:
    """sha256 over every group's generated Python (terms shared — read
    from the compiled batch's own table — and not) and generated C plus
    argument specs, in plan order."""
    database, batch, config = _corpus()[name]
    engine = LMFAO(
        database(),
        EngineConfig(
            backend="python", executor="thread", workers=1, partitions=1, **config
        ),
    )
    compiled = engine.compile(batch())
    digest = hashlib.sha256()
    for index, plan in enumerate(compiled.plans):
        digest.update(compiled.generated_source(index).encode())
        digest.update(generate_group(plan, share_terms=False).source.encode())
        source, args = generate_c_source(plan, f"lmfao_run_g{index}")
        digest.update(source.encode())
        digest.update(repr([(a.name, a.ctype, a.role) for a in args]).encode())
    return digest.hexdigest()


def numpy_digest(name: str) -> str:
    """sha256 over every group's NumPy outputs at one partition, in plan
    order."""
    database, batch, config = _corpus()[name]
    engine = LMFAO(
        database(),
        EngineConfig(
            backend="numpy", executor="thread", workers=1, partitions=1,
            **config,
        ),
    )
    compiled = engine.compile(batch())
    snapshot = engine.pin_snapshot()
    try:
        run = GroupRun(compiled, snapshot)
        engine.walk_groups(run)
    finally:
        engine.release_snapshot(snapshot.version)
    digest = hashlib.sha256()
    for plan in compiled.plans:
        for emission in plan.emissions:
            store = run.view_data if emission.kind == "view" else run.query_raw
            data = store[emission.artifact]
            digest.update(emission.artifact.encode())
            if not emission.group_by:
                scalar = as_mapping(data)[()]
                digest.update(np.asarray(scalar, dtype=np.float64).tobytes())
                continue
            assert isinstance(data, ArrayViewData)
            for column in data.key_columns:
                digest.update(column.dtype.str.encode())
                digest.update(np.ascontiguousarray(column).tobytes())
            digest.update(np.ascontiguousarray(data.value_matrix).tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(_corpus()))
def test_generated_source_is_unchanged(name):
    assert source_digest(name) == DIGESTS[name]


@pytest.mark.parametrize("name", sorted(_corpus()))
def test_numpy_outputs_are_unchanged(name):
    assert numpy_digest(name) == NUMPY_DIGESTS[name]


if __name__ == "__main__":
    print("DIGESTS = {")
    for entry in sorted(_corpus()):
        print(f"    {entry!r}: {source_digest(entry)!r},")
    print("}")
    print("NUMPY_DIGESTS = {")
    for entry in sorted(_corpus()):
        print(f"    {entry!r}: {numpy_digest(entry)!r},")
    print("}")
