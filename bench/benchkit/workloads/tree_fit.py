"""tree_fit — CART time-to-model on Favorita, a fresh engine per fit.

Why it exists: it uses the ``core`` layer the other way round from
``covar_scan``. Every tree node compiles a structurally new batch and
scans a small database, so planning and codegen are about half of engine
time. Work moved from execute into compile (or back) shows here as a
loss against a gain on ``covar_scan``.

Tree shape depends on the data (23 to 31 node batches per fit across
seeds), so one fit's wall time does not repeat across seeds. The
operation reported is therefore one *node batch*: a fit's wall time over
its node count, fits cycling through a small pool of seeded databases.
"""

from __future__ import annotations

import time

from benchkit import layers
from benchkit.workloads.base import Phase, Workload
from repro import (
    CartConfig,
    EngineConfig,
    LMFAO,
    RegressionTree,
    favorita,
    favorita_features,
)
from repro.ml.cart import cart_node_batch
from repro.paper import FAVORITA_TREE


class TreeFit(Workload):
    name = "tree_fit"
    latency_of = "one CART node batch: a fit's wall time over its node count"
    ops_of = "node batches"

    def __init__(self, seed: int, smoke: bool) -> None:
        super().__init__(seed, smoke)
        self.scale = 0.05 if smoke else 0.3
        self.pool_size = 2 if smoke else 6
        self.cart = CartConfig(max_depth=2 if smoke else 4, min_samples=30)
        self.config = EngineConfig(join_tree_edges=FAVORITA_TREE, backend="numpy")
        self.fits = 0

    def setup(self, tracer) -> None:
        with tracer.span("data.generate"):
            self.pool = [
                favorita(scale=self.scale, seed=self.seed * 1000 + i)
                for i in range(self.pool_size)
            ]
        self.specs = [favorita_features(db) for db in self.pool]
        #: per pool database, the first tree fitted on it; later fits must match
        self.trees: dict[int, str] = {}
        self.last_engine = None
        self.last_compiled: list = []
        self.last_batches: list = []
        with tracer.span("setup.warmup"):
            self._fit(0, tracer, Phase())

    def _fit(self, slot: int, tracer, phase: Phase):
        """One fit on a fresh engine; returns (tree, wall seconds)."""
        db, spec = self.pool[slot], self.specs[slot]
        start = time.perf_counter()
        with tracer.span("op", request=self.fits):
            engine = LMFAO(db, self.config)
            if tracer.enabled:
                self._trace_runs(engine, tracer, phase)
            tree = RegressionTree(spec, self.cart).fit(engine)
        wall = time.perf_counter() - start
        self.fits += 1
        self.last_engine = engine
        return tree, wall

    def _trace_runs(self, engine, tracer, phase: Phase) -> None:
        """Span every ``engine.run`` the fit makes (this engine object only)."""
        inner = engine.run
        request = self.fits
        self.last_compiled = compiled = []
        self.last_batches = batches = []

        def run(batch):
            start = time.perf_counter()
            with tracer.span("core.run", request=request) as span:
                result = inner(batch)
                tracer.add_run_laps(
                    result, start, time.perf_counter(), span.id, request
                )
            phase.counters.add(result)
            compiled.append(result.compiled)
            batches.append(batch)
            return result

        engine.run = run

    def run_phase(self, seconds: float, tracer) -> Phase:
        phase = Phase()
        aggregate_s = 0.0
        fit_s = 0.0
        begin = time.perf_counter()
        deadline = begin + seconds
        while time.perf_counter() < deadline or not phase.ops:
            slot = self.fits % self.pool_size
            tree, wall = self._fit(slot, tracer, phase)
            phase.latencies.append(wall / tree.num_nodes)
            phase.ops += tree.num_nodes
            phase.attempted += 1
            described = tree.describe()
            if self.trees.setdefault(slot, described) != described:
                phase.failed += 1
            aggregate_s += tree.aggregate_seconds
            fit_s += wall
        phase.wall_s = time.perf_counter() - begin
        phase.layer["ml.split_search_s"] = (fit_s - aggregate_s) / phase.ops
        phase.notes.append(
            f"{phase.attempted} fits, {fit_s / phase.attempted:.4f} s per fit, "
            f"{phase.ops / phase.attempted:.1f} node batches per fit"
        )
        return phase

    def check(self) -> tuple[int, int, list[str]]:
        # every fit was already compared with the first tree of its database
        return 0, 0, []

    def probe_layers(self, tracer) -> dict[str, float]:
        out = layers.replay_compile(self.last_engine, self.last_compiled)
        out["data.trie_build_s"] = layers.trie_build_seconds(
            self.last_engine.db, self.last_compiled
        )
        spec = self.specs[(self.fits - 1) % self.pool_size]
        paths = [next(iter(batch)).where for batch in self.last_batches]
        start = time.perf_counter()
        for path in paths:
            cart_node_batch(spec, path, mode=self.cart.mode)
        out["query.build_s"] = (time.perf_counter() - start) / max(1, len(paths))
        return out

    def teardown(self) -> None:
        self.pool = self.specs = None
        self.last_engine = None
        self.last_compiled = self.last_batches = []
