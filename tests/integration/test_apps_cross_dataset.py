"""All three applications run on both datasets (smoke + invariants)."""

import numpy as np
import pytest

from repro.core import EngineConfig, LMFAO
from repro.ml import (
    CartConfig,
    RegressionTree,
    rk_means,
    train_linear_regression,
)
from repro.ml.features import favorita_features, retailer_features
from repro.paper import FAVORITA_TREE


@pytest.mark.parametrize("dataset", ["favorita", "retailer"])
def test_linear_regression_both_datasets(dataset, favorita_db, retailer_db):
    db = favorita_db if dataset == "favorita" else retailer_db
    spec = favorita_features(db) if dataset == "favorita" else retailer_features(db)
    config = (
        EngineConfig(join_tree_edges=FAVORITA_TREE)
        if dataset == "favorita"
        else EngineConfig()
    )
    model = train_linear_regression(LMFAO(db, config), spec, ridge=1e-2)
    assert np.isfinite(model.theta).all()
    assert model.objective >= 0
    # prediction beats predicting zero on training data (there is signal)
    join = db.materialize_join()
    rows = {a: join.column(a) for a in spec.all_attributes}
    y = join.column(spec.label).astype(float)
    rmse = np.sqrt(np.mean((model.predict_rows(rows) - y) ** 2))
    assert rmse < np.sqrt(np.mean(y**2))


@pytest.mark.parametrize("dataset", ["favorita", "retailer"])
def test_decision_tree_both_datasets(dataset, favorita_db, retailer_db):
    db = favorita_db if dataset == "favorita" else retailer_db
    spec = favorita_features(db) if dataset == "favorita" else retailer_features(db)
    config = (
        EngineConfig(join_tree_edges=FAVORITA_TREE)
        if dataset == "favorita"
        else EngineConfig()
    )
    tree = RegressionTree(spec, CartConfig(max_depth=2, min_samples=10)).fit(
        LMFAO(db, config)
    )
    join = db.materialize_join()
    rows = {a: join.column(a) for a in spec.all_attributes}
    y = join.column(spec.label).astype(float)
    predictions = tree.predict_rows(rows)
    # tree SSE never exceeds the root's (splits only help on training data)
    assert ((y - predictions) ** 2).sum() <= ((y - y.mean()) ** 2).sum() + 1e-6


@pytest.mark.parametrize(
    "dataset,dims",
    [
        ("favorita", ("units", "txns")),
        ("retailer", ("inventoryunits", "maxtemp", "prize")),
    ],
)
def test_rkmeans_both_datasets(dataset, dims, favorita_db, retailer_db):
    db = favorita_db if dataset == "favorita" else retailer_db
    result = rk_means(db, dimensions=dims, k=3, seed=1)
    assert result.centroids.shape == (3, len(dims))
    assert result.grid_weights.sum() == pytest.approx(db.materialize_join().num_rows)


def test_cart_engine_trie_cache_shared_across_nodes(favorita_db):
    """The whole tree reuses tries: cache growth stops after the root batch."""
    engine = LMFAO(favorita_db, EngineConfig(join_tree_edges=FAVORITA_TREE))
    spec = favorita_features(favorita_db)
    RegressionTree(spec, CartConfig(max_depth=1, min_samples=10)).fit(engine)
    after_root = len(engine.snapshot().tries)
    RegressionTree(spec, CartConfig(max_depth=3, min_samples=10)).fit(engine)
    assert len(engine.snapshot().tries) == after_root
