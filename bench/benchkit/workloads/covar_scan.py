"""covar_scan — ridge-regression model refresh over the Retailer covariance batch.

Why it exists: the run side of ``core`` (the scan kernels of whichever
backend the cost model picks) does nearly all the work of the timed
phase, and ``compile``, ``serve`` and ``incremental`` do none. It is the
workload for kernel work and whole-batch pipelines. The one compile,
including gcc under ``backend="auto"``, lands in ``setup_s`` — where a
persistent artifact cache has to show.
"""

from __future__ import annotations

import os
import time

import numpy as np

from benchkit import layers
from benchkit.workloads.base import Phase, Workload
from repro import LMFAO, EngineConfig, retailer, retailer_features
from repro.core import cbackend
from repro.ml.covariance import assemble_sigma, covariance_batch
from repro.ml.linreg import closed_form_theta

#: executions per side of the process-executor probe (traced run only)
_MPEXEC_REPEATS = 3


class CovarScan(Workload):
    name = "covar_scan"
    latency_of = "one warm model refresh: execute the compiled batch + assemble sigma"
    ops_of = "model refreshes"

    def __init__(self, seed: int, smoke: bool) -> None:
        super().__init__(seed, smoke)
        self.scale = 0.05 if smoke else 1.0
        # smoke runs must not need gcc
        self.backend = "numpy" if smoke else "auto"
        self.engine = None

    def setup(self, tracer) -> None:
        with tracer.span("data.generate"):
            self.db = retailer(scale=self.scale, seed=self.seed)
        with tracer.span("query.build"):
            self.spec = retailer_features(self.db)
            self.batch = covariance_batch(self.spec)
        self.engine = LMFAO(self.db, EngineConfig(backend=self.backend))
        with tracer.span("setup.compile"):
            self.compiled = self.engine.compile(self.batch)
        # the first execution builds every trie; it is set-up, not a refresh
        with tracer.span("setup.warmup"):
            run = self.engine.execute(self.compiled)
            self.reference, self.index, self.count = assemble_sigma(
                self.spec, run.results
            )

    def run_phase(self, seconds: float, tracer) -> Phase:
        phase = Phase()
        engine, compiled, spec = self.engine, self.compiled, self.spec
        begin = time.perf_counter()
        deadline = begin + seconds
        while True:
            start = time.perf_counter()
            if start >= deadline and phase.ops:
                break
            with tracer.span("op", request=phase.ops) as op:
                run = engine.execute(compiled)
                executed = time.perf_counter()
                tracer.add_run_laps(run, start, executed, op.id, phase.ops)
                with tracer.span("ml.assemble"):
                    sigma, _index, _count = assemble_sigma(spec, run.results)
            phase.latencies.append(time.perf_counter() - start)
            phase.ops += 1
            phase.attempted += 1
            # a warm refresh over unchanged data must reproduce sigma exactly
            if not np.array_equal(sigma, self.reference):
                phase.failed += 1
            if tracer.enabled:
                phase.counters.add(run)
        phase.wall_s = time.perf_counter() - begin
        return phase

    def check(self) -> tuple[int, int, list[str]]:
        """Sigma under the benchmarked backend equals ``backend="python"``.

        On a 1/16-scale copy, so the interpreted reference stays cheap.
        Backends sum in different orders, so the comparison is to the
        float64 rounding that reordering ~1e5 terms can cause, not exact.
        """
        db = retailer(scale=self.scale / 16.0, seed=self.seed)
        spec = retailer_features(db)
        batch = covariance_batch(spec)
        sigmas = []
        for backend in (self.backend, "python"):
            engine = LMFAO(db, EngineConfig(backend=backend))
            sigmas.append(assemble_sigma(spec, engine.run(batch).results)[0])
        if sigmas[0].shape == sigmas[1].shape and np.allclose(
            sigmas[0], sigmas[1], rtol=1e-9, atol=0.0
        ):
            return 1, 0, []
        return 1, 1, [f"sigma under backend={self.backend!r} differs from python"]

    def probe_layers(self, tracer) -> dict[str, float]:
        out = layers.replay_compile(self.engine, [self.compiled])
        out["data.trie_build_s"] = layers.trie_build_seconds(self.db, [self.compiled])
        start = time.perf_counter()
        closed_form_theta(self.reference, self.index, self.count, 1e-3)
        out["ml.solve_s"] = time.perf_counter() - start
        out.update(self._probe_mpexec(tracer))
        return out

    def _probe_mpexec(self, tracer) -> dict[str, float]:
        """The same batch under the process executor against in-process.

        Both sides on the NumPy backend (``backend="auto"`` is not
        available to worker processes) with ``workers = partitions =
        nproc``. Has no end-to-end metric yet; see ``bench/README.md``.
        """
        nproc = os.cpu_count() or 1
        times = {}
        for label, config in (
            ("inproc", EngineConfig(backend="numpy")),
            (
                "mpexec",
                EngineConfig(
                    backend="numpy", executor="process",
                    workers=nproc, partitions=nproc,
                ),
            ),
        ):
            with LMFAO(self.db, config) as engine:
                compiled = engine.compile(self.batch)
                engine.execute(compiled)  # tries, worker start, segment export
                start = time.perf_counter()
                for _ in range(_MPEXEC_REPEATS):
                    with tracer.span(f"core.{label}_execute"):
                        engine.execute(compiled)
                times[label] = (time.perf_counter() - start) / _MPEXEC_REPEATS
        return {
            "core.mpexec_execute_s": times["mpexec"],
            "core.mpexec_over_inproc": times["mpexec"] / times["inproc"],
        }

    def teardown(self) -> None:
        if self.engine is not None:
            self.engine.close()
            self.engine = None
            # drops the compiled shared object and its build directory
            self.compiled = None

    def notes(self) -> list[str]:
        if self.backend == "auto" and not cbackend.gcc_available():
            return [
                "NO GCC: backend='auto' ran without C candidates "
                "(numpy/python only); numbers are not comparable"
            ]
        return []
