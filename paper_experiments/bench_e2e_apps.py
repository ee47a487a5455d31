"""T3 — Section 4 prose: end-to-end application runs.

"Since the execution takes a few seconds in LMFAO, we will run it on the
fly during the demonstration." — each of the three applications must
complete its aggregate computation in seconds at benchmark scale.
"""

from __future__ import annotations

from repro.core import EngineConfig, LMFAO
from repro.ml import CartConfig, RegressionTree, rk_means, train_linear_regression
from repro.ml.features import favorita_features, retailer_features
from repro.paper import FAVORITA_TREE


def test_linear_regression_end_to_end(timed, retailer_bench, report):
    spec = retailer_features(retailer_bench)

    def train():
        engine = LMFAO(retailer_bench)
        return train_linear_regression(engine, spec, ridge=1e-2)

    model, elapsed = timed(train, rounds=3)
    assert model.converged or model.iterations > 0
    report(
        "T3 end-to-end",
        "LR Retailer (aggregates + BGD)",
        "a few seconds",
        f"{elapsed:.2f}s ({model.num_aggregates} aggregates, "
        f"{model.iterations} iterations)",
    )


def test_decision_tree_end_to_end(timed, favorita_bench, report):
    spec = favorita_features(favorita_bench)

    def train():
        engine = LMFAO(favorita_bench, EngineConfig(join_tree_edges=FAVORITA_TREE))
        return RegressionTree(
            spec, CartConfig(max_depth=3, min_samples=30)
        ).fit(engine)

    tree, elapsed = timed(train, rounds=3)
    assert tree.num_nodes >= 1
    report(
        "T3 end-to-end",
        "DT Favorita (depth 3)",
        "a few seconds",
        f"{elapsed:.2f}s ({tree.num_nodes} nodes, "
        f"{tree.total_aggregates} aggregates)",
    )


def test_rkmeans_end_to_end(timed, retailer_bench, report):
    dimensions = ("inventoryunits", "maxtemp", "meanwind", "prize")

    result, elapsed = timed(
        lambda: rk_means(retailer_bench, dimensions=dimensions, k=5, seed=3),
        rounds=3,
    )
    report(
        "T3 end-to-end",
        "Rk-means Retailer (k=5, 4 dims)",
        "a few seconds",
        f"{elapsed:.2f}s (grid {result.coreset_size} points)",
    )
