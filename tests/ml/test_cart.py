"""CART over aggregate batches vs direct computation on the join."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.baselines import MaterializedPipeline
from repro.core import EngineConfig, LMFAO
from repro.core.engine import ArrayViewData
from repro.ml import CartConfig, FeatureSpec, RegressionTree, cart_node_batch
from repro.ml.cart import TreeNode, _best_split
from repro.paper import FAVORITA_TREE
from repro.query import Aggregate, Query, QueryBatch
from repro.query.predicates import Op, Predicate


@pytest.fixture(scope="module")
def db():
    from repro.data import favorita

    return favorita(scale=0.05, seed=11)


@pytest.fixture(scope="module")
def spec():
    return FeatureSpec(
        label="units", continuous=("txns", "price"), categorical=("promo", "stype")
    )


def test_node_batch_shapes(spec):
    groupby = cart_node_batch(spec, path=())
    # one totals query + one per feature
    assert len(groupby) == 1 + spec.num_features
    assert groupby.num_aggregates == 3 * (1 + spec.num_features)

    thresholds = {"txns": [1.0, 2.0], "price": [3.0]}
    indicator = cart_node_batch(spec, path=(), mode="indicator", thresholds=thresholds)
    # totals + per-threshold triples + categorical group-bys
    assert indicator.num_aggregates == 3 + 3 * 3 + 3 * 2


def test_indicator_mode_requires_thresholds(spec):
    with pytest.raises(ValueError):
        cart_node_batch(spec, path=(), mode="indicator")
    with pytest.raises(ValueError):
        cart_node_batch(spec, path=(), mode="nope")


def test_root_split_matches_exhaustive_search(db, spec):
    """The engine-chosen root split equals brute force over the join."""
    engine = LMFAO(db, EngineConfig(join_tree_edges=FAVORITA_TREE))
    tree = RegressionTree(spec, CartConfig(max_depth=1, min_samples=5)).fit(engine)
    join = MaterializedPipeline(db).join
    y = join.column("units").astype(float)

    def variance(mask):
        if mask.sum() == 0:
            return 0.0
        sel = y[mask]
        return sel @ sel - sel.sum() ** 2 / mask.sum()

    best = (np.inf, None, None)
    for feature in spec.continuous:
        col = join.column(feature)
        for t in np.unique(col)[:-1]:
            mask = col <= t
            if mask.sum() < 5 or (~mask).sum() < 5:
                continue
            v = variance(mask) + variance(~mask)
            if v < best[0] - 1e-9:
                best = (v, feature, float(t))
    for feature in spec.categorical:
        col = join.column(feature)
        for value in np.unique(col):
            mask = col == value
            if mask.sum() < 5 or (~mask).sum() < 5:
                continue
            v = variance(mask) + variance(~mask)
            if v < best[0] - 1e-9:
                best = (v, feature, float(value))

    assert tree.root.feature == best[1]
    assert tree.root.threshold == pytest.approx(best[2])


def test_tree_predictions_are_leaf_means(db, spec):
    engine = LMFAO(db, EngineConfig(join_tree_edges=FAVORITA_TREE))
    tree = RegressionTree(spec, CartConfig(max_depth=2, min_samples=5)).fit(engine)
    join = MaterializedPipeline(db).join
    rows = {a: join.column(a) for a in spec.all_attributes}
    predictions = tree.predict_rows(rows)
    y = join.column("units").astype(float)
    # group rows by predicted leaf value; each group's mean must equal it
    for value in np.unique(predictions):
        mask = predictions == value
        assert y[mask].mean() == pytest.approx(value, rel=1e-9)


def test_indicator_mode_agrees_with_groupby_mode(db, spec):
    engine = LMFAO(db, EngineConfig(join_tree_edges=FAVORITA_TREE))
    a = RegressionTree(
        spec, CartConfig(max_depth=2, min_samples=5, mode="groupby")
    ).fit(engine)
    b = RegressionTree(
        spec,
        CartConfig(max_depth=2, min_samples=5, mode="indicator", num_thresholds=200),
    ).fit(engine)
    # with exhaustive thresholds both modes choose the same root split
    assert a.root.feature == b.root.feature
    assert a.root.threshold == pytest.approx(b.root.threshold)


def test_tree_respects_depth_and_counts(db, spec):
    engine = LMFAO(db, EngineConfig(join_tree_edges=FAVORITA_TREE))
    tree = RegressionTree(spec, CartConfig(max_depth=2, min_samples=5)).fit(engine)

    def walk(node, depth=0):
        assert depth <= 2
        if not node.is_leaf:
            assert node.left.count + node.right.count == pytest.approx(node.count)
            walk(node.left, depth + 1)
            walk(node.right, depth + 1)

    walk(tree.root)
    assert tree.total_aggregates >= tree.aggregates_per_node * tree.num_nodes > 0
    assert "predict" in tree.describe()


def test_unfitted_tree_raises(spec):
    with pytest.raises(RuntimeError):
        RegressionTree(spec, CartConfig()).predict_rows({"txns": np.array([1.0])})
    assert RegressionTree(spec, CartConfig()).describe() == "(unfitted tree)"


def test_path_conditions_restrict_counts(db, spec):
    """Aggregates under a path condition match the filtered join."""
    engine = LMFAO(db, EngineConfig(join_tree_edges=FAVORITA_TREE))
    path = (Predicate("promo", Op.EQ, 1.0),)
    batch = cart_node_batch(spec, path)
    run = engine.run(batch)
    totals = run.results["node_total"].groups[()]
    join = MaterializedPipeline(db).join
    mask = join.column("promo") == 1
    assert totals[0] == pytest.approx(mask.sum())
    assert totals[1] == pytest.approx(join.column("units")[mask].sum())


# --------------------------------------------------------------------------
# The worklist grower and the columnar split search against the recursive,
# dict-reading formulation they replaced, kept here as oracle.


def _dict_variance(n, s, q):
    if n <= 0:
        return 0.0
    return max(0.0, q - s * s / n)


def _dict_best_split(spec, results, total, min_samples, thresholds=None):
    """``(feature, threshold, categorical, variance_after)`` of the first
    strict minimum, walking each result's ``groups`` dict."""
    n_tot, s_tot, q_tot = total
    best = None

    def consider(feature, threshold, categorical, left):
        nonlocal best
        right = (n_tot - left[0], s_tot - left[1], q_tot - left[2])
        if left[0] < min_samples or right[0] < min_samples:
            return
        after = _dict_variance(*left) + _dict_variance(*right)
        if best is None or after < best[3]:
            best = (feature, threshold, categorical, after)

    for feature in spec.continuous:
        if thresholds is None:
            items = sorted(results[f"node_{feature}"].groups.items())
            n = s = q = 0.0
            for (value, *_), stats in items[:-1]:  # last split is empty-right
                n += stats[0]
                s += stats[1]
                q += stats[2]
                consider(feature, float(value), False, (n, s, q))
        elif thresholds[feature]:
            values = results[f"node_{feature}"].groups.get((), None)
            if values is None:
                continue
            for i, t in enumerate(thresholds[feature]):
                consider(feature, float(t), False, tuple(values[3 * i:3 * i + 3]))
    for feature in spec.categorical:
        for (value, *_), stats in sorted(results[f"node_{feature}"].groups.items()):
            consider(feature, float(value), True, tuple(stats[:3]))
    return best


def _dict_thresholds(engine, spec, num_thresholds):
    run = engine.run(QueryBatch(
        Query(f"hist_{f}", group_by=(f,), aggregates=(Aggregate.count(),))
        for f in spec.continuous
    ))
    thresholds = {}
    for feature in spec.continuous:
        groups = sorted(run.results[f"hist_{feature}"].groups.items())
        values = np.array([k[0] for k, _ in groups], dtype=np.float64)
        counts = np.array([v[0] for _, v in groups])
        if len(values) <= num_thresholds:
            thresholds[feature] = [float(v) for v in values[:-1]]
            continue
        cumulative = np.cumsum(counts) / counts.sum()
        picks = np.searchsorted(
            cumulative, np.linspace(0, 1, num_thresholds + 2)[1:-1]
        )
        thresholds[feature] = sorted({float(values[i]) for i in picks})
    return thresholds


class _DepthFirstTree:
    """One ``engine.run`` per node, recursing left subtree first."""

    def __init__(self, spec, config, engine, thresholds=None):
        self.spec, self.config = spec, config
        self.num_nodes = self.total_aggregates = self.aggregates_per_node = 0
        if config.mode == "indicator" and thresholds is None:
            thresholds = _dict_thresholds(engine, spec, config.num_thresholds)
        self.thresholds = thresholds
        self.root = self._grow(engine, (), 0)

    def _grow(self, engine, path, depth):
        config = self.config
        batch = cart_node_batch(
            self.spec, path, mode=config.mode, thresholds=self.thresholds
        )
        run = engine.run(batch)
        self.total_aggregates += batch.num_aggregates
        self.aggregates_per_node = self.aggregates_per_node or batch.num_aggregates
        self.num_nodes += 1
        n, s, q = run.results["node_total"].groups.get((), (0.0, 0.0, 0.0))
        node = TreeNode(s / n if n > 0 else 0.0, n, _dict_variance(n, s, q), depth)
        if depth >= config.max_depth or n < 2 * config.min_samples:
            return node
        split = _dict_best_split(
            self.spec, run.results, (n, s, q), config.min_samples, self.thresholds
        )
        if split is None or node.variance - split[3] <= (
            config.min_variance_gain * max(1.0, node.variance)
        ):
            return node
        node.feature, node.threshold, node.categorical = split[:3]
        ops = (Op.EQ, Op.NE) if node.categorical else (Op.LE, Op.GT)
        node.left, node.right = (
            self._grow(engine, path + (Predicate(split[0], op, split[1]),), depth + 1)
            for op in ops
        )
        return node


def _nodes(node):
    """Every field of every node, preorder — equal iff the trees are."""
    if node is None:
        return []
    own = (node.prediction, node.count, node.variance, node.depth, node.feature,
           node.threshold, node.categorical)
    return [own] + _nodes(node.left) + _nodes(node.right)


def _assert_same_tree(tree, reference):
    assert tree.describe() == reference.root.describe()
    assert _nodes(tree.root) == _nodes(reference.root)
    assert tree.num_nodes == reference.num_nodes
    assert tree.total_aggregates == reference.total_aggregates
    assert tree.aggregates_per_node == reference.aggregates_per_node


_MODES = {
    "groupby": CartConfig(max_depth=3, min_samples=10),
    "indicator": CartConfig(max_depth=3, min_samples=10, mode="indicator",
                            num_thresholds=8),
}


@pytest.mark.parametrize("mode", sorted(_MODES))
@pytest.mark.parametrize("seed", [11000, 11001, 11002])
def test_worklist_tree_equals_depth_first(mode, seed, spec):
    from repro.data import favorita

    config = _MODES[mode]
    db = favorita(scale=0.05, seed=seed)
    engine_config = EngineConfig(join_tree_edges=FAVORITA_TREE)
    tree = RegressionTree(spec, config).fit(LMFAO(db, engine_config))
    _assert_same_tree(tree, _DepthFirstTree(spec, config, LMFAO(db, engine_config)))
    assert tree.num_nodes > 3

    # a refresh re-grows over new data, keeping the fit's thresholds
    sales = db.relation("Sales")
    picks = np.random.default_rng(seed).choice(sales.num_rows, 40, replace=False)
    updated = db.with_relation(sales.concat(sales.take(picks)))
    kept = dict(tree._thresholds) or None
    tree.refresh(LMFAO(updated, engine_config))
    _assert_same_tree(
        tree, _DepthFirstTree(spec, config, LMFAO(updated, engine_config), kept)
    )


@pytest.mark.parametrize("mode", sorted(_MODES))
def test_one_run_per_node(mode, db, spec):
    engine = LMFAO(db, EngineConfig(join_tree_edges=FAVORITA_TREE))
    batches = []
    inner = engine.run

    def spy(batch):
        batches.append(batch)
        return inner(batch)

    engine.run = spy
    tree = RegressionTree(spec, _MODES[mode]).fit(engine)
    assert tree.num_nodes >= 5
    assert len(batches) == (mode == "indicator") + tree.num_nodes
    # after the histogram, each batch is one node's
    nodes = batches[mode == "indicator":]
    assert all(
        {q.name for q in batch} == {q.name for q in nodes[0]} for batch in nodes
    )
    assert len(nodes[0]) == 1 + len(spec.continuous) + len(spec.categorical)


def _view(keys, rows):
    keys = [np.asarray(keys)] if keys is not None else []
    return ArrayViewData(keys, np.asarray(rows, dtype=np.float64).reshape(len(rows), -1))


def _both(spec, views, total, min_samples, thresholds=None):
    """The columnar split and the dict loop's, as comparable tuples, on
    hand-built results."""
    results = {}
    for name, view in views.items():
        columns = view.key_columns
        keys = zip(*(c.tolist() for c in columns)) if columns else [()] * len(view)
        groups = dict(zip(keys, map(tuple, view.value_matrix.tolist())))
        results[name] = SimpleNamespace(groups=groups)
    split = _best_split(spec, views.__getitem__, total, min_samples, thresholds)
    columnar = None if split is None else (
        split.feature, split.threshold, split.categorical, split.variance_after
    )
    looped = _dict_best_split(spec, results, total, min_samples, thresholds)
    return columnar, looped


# key stats (10, 10, 20) and (10, 30, 100): both thresholds of a three-key
# feature [outer, inner, outer] score exactly 50
_TIED = [(10, 10, 20), (10, 30, 100), (10, 10, 20)]


def test_columnar_split_ties_go_to_feature_then_threshold_order():
    spec = FeatureSpec(label="y", continuous=("a", "b"), categorical=("c",))
    views = {
        # keys out of order: the scorer sorts them
        "node_a": _view([3, 1, 2], [_TIED[2], _TIED[0], _TIED[1]]),
        "node_b": _view([1, 2, 3], _TIED),
        "node_c": _view([6, 5], [(20, 40, 120), (10, 10, 20)]),
    }
    columnar, looped = _both(spec, views, (30, 50, 140), 5)
    assert columnar == looped == ("a", 1.0, False, 50.0)
    # without the continuous features the categorical tie goes to key 5
    spec = FeatureSpec(label="y", continuous=(), categorical=("c",))
    columnar, looped = _both(spec, views, (30, 50, 140), 5)
    assert columnar == looped == ("c", 5.0, True, 50.0)


def test_columnar_split_none_below_min_samples_and_for_one_key():
    spec = FeatureSpec(label="y", continuous=("a",), categorical=("c",))
    views = {
        "node_a": _view([1, 2, 3], _TIED),
        "node_c": _view([5, 6], [(20, 40, 120), (10, 10, 20)]),
    }
    assert _both(spec, views, (30, 50, 140), 11) == (None, None)
    # one continuous key: its only prefix leaves the right side empty
    spec = FeatureSpec(label="y", continuous=("a",), categorical=())
    views = {"node_a": _view([4], [(30, 50, 140)])}
    assert _both(spec, views, (30, 50, 140), 0) == (None, None)


def test_columnar_split_categorical_one_vs_rest():
    spec = FeatureSpec(label="y", continuous=("a",), categorical=("c",))
    views = {
        "node_a": _view([1, 2, 3], _TIED),
        # key 2 alone: left variance 10, the rest 20 — beats every prefix
        "node_c": _view([3, 2, 1], [_TIED[2], _TIED[1], _TIED[0]]),
    }
    columnar, looped = _both(spec, views, (30, 50, 140), 5)
    assert columnar == looped == ("c", 2.0, True, 30.0)


def test_columnar_split_matches_the_dict_loop_on_random_results():
    rng = np.random.default_rng(0)
    for _ in range(200):
        spec = FeatureSpec(label="y", continuous=("a", "b"), categorical=("c", "d"))
        views, thresholds = {}, None
        indicator = rng.random() < 0.5
        if indicator:
            thresholds = {"a": [1.0, 2.5], "b": []}
        rows = rng.integers(0, 4, size=(6, 3)).astype(float)
        rows[:, 2] += rows[:, 1] ** 2  # q >= s² for one-row groups, mostly
        total = tuple(rows.sum(axis=0).tolist())
        for feature in ("a", "b", "c", "d"):
            order = rng.permutation(6)
            keys = rng.choice(20, size=6, replace=False)
            views[f"node_{feature}"] = _view(keys, rows[order])
        if indicator:
            views["node_a"] = _view(None, [rng.integers(0, 30, size=6).astype(float)])
        columnar, looped = _both(spec, views, total, float(rng.integers(0, 8)),
                                 thresholds)
        assert columnar == looped
