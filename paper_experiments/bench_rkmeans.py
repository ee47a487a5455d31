"""T4 — Figure 4(d): the Rk-means application report.

Regenerates what the demo UI shows: per-dimension aggregate times, cluster
centroids, the relative intra-cluster distance versus ten precomputed runs
of conventional Lloyd's, and the relative size of the grid coreset.
"""

from __future__ import annotations

import pytest

from repro.ml import rk_means
from repro.ml.rkmeans import evaluate_against_lloyds

_DIMS = ("inventoryunits", "maxtemp", "meanwind", "prize")


@pytest.mark.parametrize("k", [5, 10])
def test_rkmeans_quality(benchmark, retailer_bench, k, report):
    result = benchmark.pedantic(
        lambda: rk_means(retailer_bench, dimensions=_DIMS, k=k, seed=3),
        rounds=2,
        iterations=1,
    )
    evaluation = evaluate_against_lloyds(retailer_bench, result, lloyd_runs=10, seed=0)

    report(
        "T4 Figure 4d",
        f"k={k}: relative approximation vs Lloyd's (10 runs)",
        "small constant factor",
        f"{evaluation.relative_approximation:+.2%}",
    )
    report(
        "T4 Figure 4d",
        f"k={k}: relative coreset size |G|/|D|",
        "≪ 1",
        f"{evaluation.coreset_ratio:.4%}",
    )
    step1 = result.step_seconds["step1_histograms"]
    report(
        "T4 Figure 4d",
        f"k={k}: aggregate time (step 1, {len(_DIMS)} dims)",
        "interactive",
        f"{step1 * 1e3:.0f} ms",
    )
    # quality sanity: the coreset is much smaller than D yet the clustering
    # stays within a small constant of Lloyd's
    assert evaluation.coreset_ratio < 0.5
    assert evaluation.relative_approximation < 1.0
