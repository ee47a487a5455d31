"""X2 — Figure 4(c): the code-generation layer's artefacts and costs.

Measures compile time (all three layers + Python bytecode compilation)
against execution time on the Retailer LR batch, and reports the generated
code volume — what the demo's code tab displays.
"""

from __future__ import annotations

import time

from repro.core import LMFAO
from repro.ml import covariance_batch
from repro.ml.features import retailer_features

from benchmarks.conftest import report


def test_compile_batch(benchmark, retailer_bench, retailer_engine_bench):
    spec = retailer_features(retailer_bench)
    batch = covariance_batch(spec)

    start = time.perf_counter()
    compiled = benchmark.pedantic(
        lambda: retailer_engine_bench.compile(batch), rounds=3, iterations=1
    )
    compile_seconds = (time.perf_counter() - start) / 3

    loc = sum(
        compiled.generated_source(i).count("\n") for i in range(compiled.num_groups)
    )
    report(
        "X2 codegen",
        f"compile {batch.num_aggregates} aggregates -> "
        f"{compiled.num_groups} groups",
        "sub-second",
        f"{compile_seconds*1e3:.0f} ms, {loc} generated lines",
    )


def test_execute_compiled(benchmark, retailer_bench, retailer_engine_bench):
    spec = retailer_features(retailer_bench)
    batch = covariance_batch(spec)
    compiled = retailer_engine_bench.compile(batch)
    retailer_engine_bench.execute(compiled)  # warm tries

    start = time.perf_counter()
    benchmark.pedantic(
        lambda: retailer_engine_bench.execute(compiled), rounds=3, iterations=1
    )
    execute_seconds = (time.perf_counter() - start) / 3
    report(
        "X2 codegen",
        "execute compiled batch (warm tries)",
        "dominates compile at scale",
        f"{execute_seconds*1e3:.0f} ms",
    )
