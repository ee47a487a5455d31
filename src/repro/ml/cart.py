"""CART regression trees over LMFAO aggregate batches (paper §3).

Each tree node needs, for every candidate split ``Xj op t``, the variance
triple ``SUM(1), SUM(Y), SUM(Y²)`` over the data satisfying the split and
the path conditions. Two batch formulations are provided:

* ``mode="groupby"`` (default) — one query per feature, grouped by the
  feature, with the path conditions as WHERE (folded by the engine into
  indicator factors). All thresholds of a feature come for free from a
  prefix scan over its sorted group-by result, and every trie is reused
  across the whole tree.
* ``mode="indicator"`` — one explicit threshold-indicator aggregate per
  candidate ``(feature, threshold, statistic)``, the formulation whose
  batch size the paper reports (thousands of aggregates per node). Same
  results, much larger (still shared) batch — useful for the batch-size
  experiments.

Splits: continuous features use ``Xj <= t`` / ``Xj > t``; categorical
features use one-vs-rest equality ``Xj = v`` / ``Xj ≠ v``.

A tree grows in one LMFAO pass per tree node, its batch compiled against
the engine's warm trie and group caches. Splits are picked from each
node's results as columns (:meth:`RunResult.columns`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.core.engine import ArrayViewData, LMFAO
from repro.ml.features import FeatureSpec
from repro.query.aggregates import Aggregate, Factor
from repro.query.batch import QueryBatch
from repro.query.functions import indicator, square
from repro.query.predicates import Op, Predicate
from repro.query.query import Query


@dataclass(frozen=True)
class CartConfig:
    """Tree-growing knobs."""

    max_depth: int = 4
    min_samples: float = 20.0
    min_variance_gain: float = 1e-9
    mode: str = "groupby"  # or "indicator"
    num_thresholds: int = 16  # indicator mode: candidate thresholds/feature


@dataclass
class TreeNode:
    """One node of the regression tree."""

    prediction: float
    count: float
    variance: float
    depth: int
    feature: str | None = None
    threshold: float | None = None
    categorical: bool = False
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.feature is None

    def describe(self, indent: int = 0) -> str:
        pad = "  " * indent
        if self.is_leaf:
            return f"{pad}predict {self.prediction:.4g} (n={self.count:g})"
        op = "==" if self.categorical else "<="
        lines = [f"{pad}{self.feature} {op} {self.threshold:g} (n={self.count:g})"]
        lines.append(self.left.describe(indent + 1))
        lines.append(self.right.describe(indent + 1))
        return "\n".join(lines)


def cart_node_batch(
    spec: FeatureSpec,
    path: tuple[Predicate, ...],
    mode: str = "groupby",
    thresholds: dict[str, list[float]] | None = None,
) -> QueryBatch:
    """The aggregate batch CART needs for one tree node.

    In groupby mode: one 3-aggregate query per feature plus the node
    totals. In indicator mode: the totals query plus, per continuous
    feature, ``3 × num_thresholds`` indicator aggregates (and group-by
    queries for categorical features). Query names are ``node_total``
    and ``node_<feature>``.
    """
    label = spec.label
    triple = (
        Aggregate.count(),
        Aggregate.sum(label),
        Aggregate.sum(label, square),
    )

    def grouped(feature: str) -> Query:
        return Query(
            f"node_{feature}", group_by=(feature,), aggregates=triple, where=path
        )

    queries = [Query("node_total", aggregates=triple, where=path)]
    if mode == "groupby":
        queries += [grouped(feature) for feature in spec.continuous]
    elif mode == "indicator":
        if thresholds is None:
            raise ValueError("indicator mode requires per-feature thresholds")
        for feature in spec.continuous:
            aggs: list[Aggregate] = []
            for t in thresholds[feature]:
                ind = Factor(feature, indicator("<=", float(t)))
                for base in triple:
                    aggs.append(base.with_factor(ind))
            if aggs:
                queries.append(
                    Query(f"node_{feature}", aggregates=tuple(aggs), where=path)
                )
    else:
        raise ValueError(f"unknown CART mode {mode!r}")
    queries += [grouped(feature) for feature in spec.categorical]
    return QueryBatch(queries)


@dataclass
class _Split:
    feature: str
    threshold: float
    categorical: bool
    variance_after: float


def _by_key(view: ArrayViewData) -> tuple[np.ndarray, np.ndarray]:
    """A one-key view's keys and aggregate rows, ascending by key."""
    keys = view.key_columns[0]
    order = np.argsort(keys, kind="stable")
    return keys[order], np.asarray(view.value_matrix, dtype=np.float64)[order]


def _variances(stats: np.ndarray) -> np.ndarray:
    """The paper's VARIANCE, Σy² − (Σy)²/|T|, of every ``(n, s, q)`` row
    (0 where ``n <= 0`` or rounding takes it below 0)."""
    n, s, q = stats.T
    with np.errstate(divide="ignore", invalid="ignore"):
        v = q - s * s / n
    return np.where((n > 0) & (v > 0), v, 0.0)


def _best_split(
    spec: FeatureSpec,
    columns: Callable[[str], ArrayViewData],
    total: tuple[float, float, float],
    min_samples: float,
    thresholds: dict[str, list[float]] | None = None,
) -> _Split | None:
    """One node's best split, read from its results as columns.

    ``columns(name)`` is the node's query ``name`` (``node_<feature>``).
    A continuous feature's candidates are left-side prefix sums: over its
    group-by rows sorted by key (the last key leaves the right side
    empty), or, given ``thresholds`` (indicator mode), its indicator
    aggregates. A categorical feature's are one-vs-rest, one per key.
    The split is the first strict minimum of the variance after it, in
    (spec feature order, ascending threshold) order, among the
    candidates leaving ``min_samples`` on both sides; None if there is
    no such candidate.
    """
    blocks: list[tuple[str, bool, np.ndarray, np.ndarray]] = []
    for feature in spec.continuous:
        if thresholds is None:
            keys, stats = _by_key(columns(f"node_{feature}"))
            blocks.append((feature, False, keys[:-1], np.cumsum(stats[:-1], axis=0)))
        elif thresholds[feature]:
            values = columns(f"node_{feature}").value_matrix
            if len(values):
                left = np.asarray(values[0], dtype=np.float64).reshape(-1, 3)
                blocks.append((feature, False, np.asarray(thresholds[feature]), left))
    for feature in spec.categorical:
        blocks.append((feature, True, *_by_key(columns(f"node_{feature}"))))
    if not blocks:
        return None
    left = np.concatenate([block[3] for block in blocks])
    right = np.asarray(total, dtype=np.float64) - left
    valid = np.flatnonzero(~(left[:, 0] < min_samples) & ~(right[:, 0] < min_samples))
    if not len(valid):
        return None
    after = _variances(left[valid]) + _variances(right[valid])
    best = int(np.argmin(after))
    row = valid[best]
    keys = np.concatenate([np.asarray(block[2], dtype=np.float64) for block in blocks])
    owner = np.repeat(np.arange(len(blocks)), [len(block[2]) for block in blocks])
    feature, categorical = blocks[owner[row]][:2]
    return _Split(feature, float(keys[row]), categorical, float(after[best]))


@dataclass
class RegressionTree:
    """A CART regression tree trained entirely from aggregate batches."""

    spec: FeatureSpec
    config: CartConfig
    root: TreeNode | None = None
    num_nodes: int = 0
    aggregates_per_node: int = 0
    total_aggregates: int = 0
    aggregate_seconds: float = 0.0
    _thresholds: dict[str, list[float]] = field(default_factory=dict)

    def fit(self, engine: LMFAO) -> "RegressionTree":
        """Grow the tree over the engine's database."""
        self._thresholds = {}
        return self.refresh(engine)

    def refresh(self, engine: LMFAO) -> "RegressionTree":
        """Re-grow the tree after the underlying data changed.

        Pass an engine over the updated database — typically
        ``LMFAO(handle.database, config)`` where ``handle`` is the
        :class:`~repro.incremental.MaintainedBatch` tracking the updates.
        Tree growth re-runs (splits are data-dependent, so the node
        batches cannot be maintained ahead of time), but the expensive
        preparation is reused: candidate thresholds in indicator mode are
        kept from the original fit, and the engine's trie and group
        caches serve every batch after the first. Counters restart so the
        refreshed tree reports its own statistics.
        """
        if self.config.mode == "indicator" and not self._thresholds:
            self._thresholds = self._candidate_thresholds(engine)
        self.num_nodes = self.total_aggregates = 0
        self.aggregate_seconds = 0.0
        root, split = self._evaluate(engine, (), depth=0)
        self.aggregates_per_node = self.total_aggregates
        pending = [(root, (), split)]
        while pending:
            node, path, split = pending.pop()
            if split is None:
                continue
            node.feature = split.feature
            node.threshold = split.threshold
            node.categorical = split.categorical
            ops = (Op.EQ, Op.NE) if split.categorical else (Op.LE, Op.GT)
            paths = [path + (Predicate(split.feature, op, split.threshold),) for op in ops]
            node.left, left_split = self._evaluate(engine, paths[0], node.depth + 1)
            node.right, right_split = self._evaluate(engine, paths[1], node.depth + 1)
            pending.append((node.right, paths[1], right_split))
            pending.append((node.left, paths[0], left_split))
        self.root = root
        return self

    # ------------------------------------------------------------------ growing
    def _candidate_thresholds(self, engine: LMFAO) -> dict[str, list[float]]:
        """Equi-depth thresholds per continuous feature (one histogram batch)."""
        queries = [
            Query(f"hist_{f}", group_by=(f,), aggregates=(Aggregate.count(),))
            for f in self.spec.continuous
        ]
        run = engine.run(QueryBatch(queries))
        thresholds: dict[str, list[float]] = {}
        for feature in self.spec.continuous:
            keys, rows = _by_key(run.columns(f"hist_{feature}"))
            values, counts = keys.astype(np.float64), rows[:, 0]
            if len(values) <= self.config.num_thresholds:
                thresholds[feature] = [float(v) for v in values[:-1]]
                continue
            cumulative = np.cumsum(counts) / counts.sum()
            picks = np.searchsorted(
                cumulative, np.linspace(0, 1, self.config.num_thresholds + 2)[1:-1]
            )
            thresholds[feature] = sorted({float(values[i]) for i in picks})
        return thresholds

    def _evaluate(
        self, engine: LMFAO, path: tuple[Predicate, ...], depth: int
    ) -> tuple[TreeNode, _Split | None]:
        """Evaluate the node at ``path`` in one LMFAO pass: the node and
        the split it takes, None for a leaf."""
        batch = cart_node_batch(
            self.spec, path, mode=self.config.mode, thresholds=self._thresholds or None
        )
        run = engine.run(batch)
        self.aggregate_seconds += run.total_time
        self.num_nodes += 1
        self.total_aggregates += batch.num_aggregates
        totals = run.columns("node_total").value_matrix
        n, s, q = totals[0].tolist() if len(totals) else (0.0, 0.0, 0.0)
        variance = float(_variances(np.array([(n, s, q)]))[0])
        node = TreeNode(s / n if n > 0 else 0.0, n, variance, depth)
        split = None
        if depth < self.config.max_depth and n >= 2 * self.config.min_samples:
            split = _best_split(
                self.spec, run.columns, (n, s, q),
                self.config.min_samples, self._thresholds or None,
            )
        if split is not None and node.variance - split.variance_after <= (
            self.config.min_variance_gain * max(1.0, node.variance)
        ):
            split = None
        return node, split

    # --------------------------------------------------------------- prediction
    def predict_rows(self, rows: dict[str, np.ndarray]) -> np.ndarray:
        """Predict labels for raw attribute columns."""
        if self.root is None:
            raise RuntimeError("tree is not fitted")
        n = len(next(iter(rows.values())))
        out = np.empty(n, dtype=np.float64)
        for i in range(n):
            node = self.root
            while not node.is_leaf:
                value = rows[node.feature][i]
                if node.categorical:
                    go_left = value == node.threshold
                else:
                    go_left = value <= node.threshold
                node = node.left if go_left else node.right
            out[i] = node.prediction
        return out

    def describe(self) -> str:
        """A printable rendering of the tree."""
        if self.root is None:
            return "(unfitted tree)"
        return self.root.describe()
