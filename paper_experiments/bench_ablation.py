"""F1 — Figure 1: contribution of each optimisation layer (ablation).

The paper's architecture stacks optimisations: shared join tree with
per-query roots, view merging, multi-output grouping, factorised α/β
decomposition, and specialised code. Disabling each one (and all of them)
on the linear-regression batch quantifies the layer contributions.
"""

from __future__ import annotations

import time

from repro.core import EngineConfig, LMFAO
from repro.ml import covariance_batch
from repro.ml.features import favorita_features
from repro.paper import FAVORITA_TREE

_BASE: dict[str, float] = {}

_CONFIGS = {
    "full LMFAO": {},
    "single root for all queries": {"single_root": "auto"},
    "no view merging": {"merge_views": False},
    "no multi-output grouping": {"multi_output": False},
    "no factorization": {"factorize": False},
    "no term sharing in codegen": {"share_scan_terms": False},
    "all optimisations off": {
        "single_root": "auto",
        "merge_views": False,
        "multi_output": False,
        "factorize": False,
        "share_scan_terms": False,
    },
}


def _run_config(db, name: str, overrides: dict, benchmark, report) -> None:
    engine = LMFAO(db, EngineConfig(join_tree_edges=FAVORITA_TREE, **overrides))
    spec = favorita_features(db)
    batch = covariance_batch(spec)
    compiled = engine.compile(batch)
    engine.execute(compiled)  # warm tries

    start = time.perf_counter()
    benchmark.pedantic(lambda: engine.execute(compiled), rounds=3, iterations=1)
    elapsed = (time.perf_counter() - start) / 3

    if name == "full LMFAO":
        _BASE["time"] = elapsed
        report(
            "F1 ablation",
            f"{name} ({compiled.num_views} views, {compiled.num_groups} groups)",
            "fastest",
            f"{elapsed * 1e3:.0f} ms",
        )
    else:
        slowdown = elapsed / _BASE.get("time", elapsed)
        report(
            "F1 ablation",
            f"{name} ({compiled.num_views} views, {compiled.num_groups} groups)",
            "slower than full",
            f"{elapsed * 1e3:.0f} ms ({slowdown:.2f}x)",
        )


def test_full_lmfao(benchmark, favorita_bench, report):
    _run_config(
        favorita_bench, "full LMFAO", _CONFIGS["full LMFAO"], benchmark, report
    )


def test_single_root(benchmark, favorita_bench, report):
    _run_config(
        favorita_bench,
        "single root for all queries",
        _CONFIGS["single root for all queries"],
        benchmark,
        report,
    )


def test_no_view_merging(benchmark, favorita_bench, report):
    _run_config(
        favorita_bench, "no view merging", _CONFIGS["no view merging"], benchmark,
        report,
    )


def test_no_multi_output(benchmark, favorita_bench, report):
    _run_config(
        favorita_bench,
        "no multi-output grouping",
        _CONFIGS["no multi-output grouping"],
        benchmark,
        report,
    )


def test_no_factorization(benchmark, favorita_bench, report):
    _run_config(
        favorita_bench, "no factorization", _CONFIGS["no factorization"], benchmark,
        report,
    )


def test_no_term_sharing(benchmark, favorita_bench, report):
    _run_config(
        favorita_bench,
        "no term sharing in codegen",
        _CONFIGS["no term sharing in codegen"],
        benchmark,
        report,
    )


def test_all_off(benchmark, favorita_bench, report):
    _run_config(
        favorita_bench, "all optimisations off", _CONFIGS["all optimisations off"],
        benchmark,
        report,
    )
