"""serve_fanin — multi-tenant read traffic against one ``AggregateServer``.

Why it exists: the ``serve`` layer (fingerprint, bind, both caches, pool
queueing) dominates and raw scan speed barely matters. Requests draw a
tenant-prefixed shape and a threshold constant from Zipf pools sized so
that, at the shipped cache sizes, plan-cache and view-cache hit *and*
miss paths all carry weight: an optimisation of one that taxes the other
shows. One generator thread keeps 16 requests outstanding (closed loop,
bursts), which is enough overlap for fusion or coalescing to matter.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np

from benchkit import layers
from benchkit.workloads.base import Phase, Workload, result_rows
from repro import AggregateServer, QueryBatch, favorita, parse_query
from repro.query import OrderSpec

#: requests submitted together; the generator waits for all of them
#: before the next burst, so this many are outstanding (closed loop).
BURST = 16

#: the traffic pools, frozen where the hit rates sit inside their bands
#: at the shipped cache sizes. Plan cache (capacity 32, band 0.70-0.95):
#: more shapes than it holds, skewed so that the hot set fits. View cache
#: (32 MiB, band 0.30-0.70): a request's thresholds come from a small hot
#: pool with probability HOT_SHARE and are otherwise never seen again, so
#: the views under a predicate keep missing (and fill the cache until it
#: evicts) while the views of predicate-free relations always hit.
SHAPES = 96
SHAPE_SKEW = 1.3
HOT_CONSTANTS = 32
HOT_SKEW = 1.0
HOT_SHARE = 0.35

#: dimension attributes a shape groups by
_ATTRS = ("family", "class", "city", "cluster", "stype", "state", "htype", "perishable")

#: one timed request in this many keeps its result for the final check
_SAMPLE_EVERY = 40
_SAMPLE_CAP = 64


#: requests per block of the stream (see ``ServeFanin._draws``)
_BLOCK = 256


def _zipf_probabilities(n: int, skew: float) -> np.ndarray:
    weights = 1.0 / np.arange(1, n + 1) ** skew
    return weights / weights.sum()


def _in_proportion(rng, probabilities: np.ndarray, size: int) -> np.ndarray:
    """``size`` indices, each as often as its probability says, in seeded order.

    Every index gets the whole part of its expected count; the places that
    rounding down leaves over are drawn by the fractional parts, so rare
    indices still turn up.
    """
    exact = probabilities * size
    counts = np.floor(exact).astype(int)
    fractions = exact - counts
    short = size - counts.sum()
    extra = rng.choice(len(counts), size=short, replace=False, p=fractions / fractions.sum())
    counts[extra] += 1
    return rng.permutation(np.repeat(np.arange(len(probabilities)), counts))


def thresholds(constant: int) -> str:
    """The WHERE clause of constant index ``constant``.

    One predicate each on Transactions and Oil, so the views out of those
    two relations and the fact-table view above them depend on the
    constants: three of a query's five views. Indices below
    ``HOT_CONSTANTS`` are the hot pool; every index gives distinct values
    (multiples of the golden ratio, modulo one, never repeat).

    No predicate on the fact table itself: the engine keeps one prefix-sum
    array per distinct bound constant on every trie for the life of the
    snapshot, about 1 MB per request on Sales, which grows the heap by a
    gigabyte in ten seconds and makes every number depend on how long the
    run has lasted (``bench/README.md``, observations).
    """
    spread = (constant * 0.6180339887498949) % 1.0
    txns = 1000.0 + 1000.0 * spread
    price = 35.0 + 20.0 * ((spread * 7.0) % 1.0)
    return f"txns <= {txns:.4f} AND price <= {price:.5f}"


def request_batch(shape: int, constant: int) -> QueryBatch:
    """The batch of one request: tenant ``shape`` asking at constant index ``constant``.

    Query names carry the tenant, so every shape has its own plan-cache
    entry, while view identities depend only on the template
    (``shape % 16``) and the constants — tenants share cached views. One
    template in eight adds an ordered top-k leaderboard.
    """
    template = shape % 16
    first = _ATTRS[template % 8]
    second = _ATTRS[(template * 3 + 1 + template // 8) % 8]
    where = thresholds(constant)
    queries = [
        parse_query(
            f"SELECT {first}, SUM(1), SUM(units), SUM(units*units) FROM D "
            f"WHERE {where} GROUP BY {first}",
            f"t{shape}_{first}",
        ),
        parse_query(
            f"SELECT {second}, SUM(units) FROM D "
            f"WHERE {where} GROUP BY {second}",
            f"t{shape}_{second}_sum",
        ),
    ]
    if template % 8 == 7:
        board = parse_query(
            f"SELECT store, item, SUM(units) FROM D "
            f"WHERE {where} GROUP BY store, item",
            f"t{shape}_board",
        )
        queries.append(
            dataclasses.replace(
                board,
                order_by=OrderSpec(agg_index=0, descending=True, partition_by=("store",)),
                limit=3,
            )
        )
    return QueryBatch(queries)


class ServeFanin(Workload):
    name = "serve_fanin"
    latency_of = "one request, from its burst's submit instant to its future's completion"
    ops_of = "requests"

    def __init__(self, seed: int, smoke: bool) -> None:
        super().__init__(seed, smoke)
        self.scale = 0.05 if smoke else 0.3
        self.warmup_bursts = 4 if smoke else 24
        self.server = None
        self.requests = 0
        self.samples: list[tuple[QueryBatch, dict]] = []
        self._queue_wait = 0.0

    # ------------------------------------------------------------------ inputs
    def _draws(self):
        """The seeded request stream: (shape, constant index) pairs, forever.

        Drawn block by block, each block holding every shape, and hot
        against one-off constants, in exactly their Zipf proportions in a
        seeded order. Independent draws would let the share of cheap
        all-hit requests swing by a few percent between seeds, and with
        it every end-to-end number.
        """
        rng = np.random.default_rng(self.seed)
        shape_p = _zipf_probabilities(SHAPES, SHAPE_SKEW)
        hot_p = _zipf_probabilities(HOT_CONSTANTS, HOT_SKEW)
        hot_per_block = round(_BLOCK * HOT_SHARE)
        cold = HOT_CONSTANTS
        while True:
            shapes = _in_proportion(rng, shape_p, _BLOCK)
            constants = np.full(_BLOCK, -1)
            hot_slots = rng.permutation(_BLOCK)[:hot_per_block]
            constants[hot_slots] = _in_proportion(rng, hot_p, hot_per_block)
            for shape, constant in zip(shapes.tolist(), constants.tolist()):
                if constant < 0:
                    constant = cold
                    cold += 1
                yield shape, constant

    # ------------------------------------------------------------------- phases
    def setup(self, tracer) -> None:
        with tracer.span("data.generate"):
            self.db = favorita(scale=self.scale, seed=self.seed)
        self.server = AggregateServer(self.db)
        self.stream = self._draws()
        self.samples = []
        with tracer.span("setup.warmup"):
            warm = Phase()
            for _ in range(self.warmup_bursts):
                self._burst(warm, tracer, sample=False)

    def _burst(self, phase: Phase, tracer, sample: bool) -> None:
        server = self.server
        futures = []
        done = [0.0] * BURST
        spans = []
        by_batch = self._by_batch = {}

        def mark(index):
            def callback(_future):
                done[index] = time.perf_counter()
            return callback

        begin = time.perf_counter()
        for index in range(BURST):
            shape, constant = next(self.stream)
            request = self.requests + index
            span_id = tracer.reserve()
            spans.append(span_id)
            with tracer.span("query.build", request=request, parent=span_id):
                batch = request_batch(shape, constant)
            by_batch[id(batch)] = (request, span_id)
            with tracer.span("serve.submit", request=request, parent=span_id):
                future = server.submit(batch)
            future.add_done_callback(mark(index))
            futures.append((batch, future))
        for index, (batch, future) in enumerate(futures):
            phase.attempted += 1
            try:
                run = future.result(timeout=120)
            except Exception as exc:  # a failed request is a failed operation
                phase.failed += 1
                phase.notes.append(f"request failed: {exc!r}")
                continue
            phase.ops += 1
            # a waiter can wake before the future runs its callbacks
            finished = done[index] or time.perf_counter()
            latency = finished - begin
            phase.latencies.append(latency)
            request = self.requests + index
            if tracer.enabled:
                tracer.add("request", begin, finished, request=request,
                           span_id=spans[index])
                phase.counters.add(run)
                self._queue_wait += latency - run.total_time
            if sample and request % _SAMPLE_EVERY == 0 and len(self.samples) < _SAMPLE_CAP:
                self.samples.append((batch, result_rows(run.results)))
        self.requests += BURST

    def _trace_engine(self, tracer) -> None:
        """Span the server's calls into ``core`` (this engine object only)."""
        engine = self.server.engine
        inner_compile, inner_execute = engine.compile, engine.execute

        def compile(batch, snapshot=None):
            request, parent = self._by_batch.get(id(batch), (None, None))
            with tracer.span("core.compile", request=request, parent=parent):
                return inner_compile(batch, snapshot=snapshot)

        def execute(compiled, **kwargs):
            binding = kwargs.get("binding")
            batch = binding.batch if binding is not None else compiled.batch
            request, parent = self._by_batch.get(id(batch), (None, None))
            start = time.perf_counter()
            with tracer.span("core.run", request=request, parent=parent) as span:
                run = inner_execute(compiled, **kwargs)
                tracer.add_run_laps(
                    run, start, time.perf_counter(), span.id, request, compiled=False
                )
            return run

        engine.compile, engine.execute = compile, execute

        def untrace():
            # drop the instance attributes: the class's methods show again
            del engine.compile, engine.execute

        return untrace

    def run_phase(self, seconds: float, tracer) -> Phase:
        phase = Phase()
        self._queue_wait = 0.0
        untrace = self._trace_engine(tracer) if tracer.enabled else None
        before = self.server.stats()
        begin = time.perf_counter()
        deadline = begin + seconds
        while time.perf_counter() < deadline or not phase.ops:
            self._burst(phase, tracer, sample=True)
        phase.wall_s = time.perf_counter() - begin
        after = self.server.stats()
        if untrace is not None:
            untrace()
        phase.layer.update(layers.cache_metrics(before, after))
        phase.layer["serve.coalesced"] = after.coalesced - before.coalesced
        phase.layer["serve.queue_wait_s"] = self._queue_wait / max(1, phase.ops)
        return phase

    def check(self) -> tuple[int, int, list[str]]:
        """Sampled results are bit-exact against a server without a view cache."""
        failed = []
        with AggregateServer(self.db, view_cache_bytes=0) as reference:
            for batch, rows in self.samples:
                if result_rows(reference.run(batch).results) != rows:
                    failed.append(
                        f"request {next(iter(batch)).name} differs from the "
                        f"view-cache-off server"
                    )
        return len(self.samples), len(failed), failed

    def probe_layers(self, tracer) -> dict[str, float]:
        batches = [batch for batch, _rows in self.samples]
        fingerprint_s, bind_s, compiled = layers.probe_requests(self.server, batches)
        out = layers.replay_compile(self.server.engine, compiled)
        out["data.trie_build_s"] = layers.trie_build_seconds(self.db, compiled)
        out["serve.fingerprint_s"] = fingerprint_s
        out["serve.bind_s"] = bind_s
        return out

    def teardown(self) -> None:
        if self.server is not None:
            self.server.close()
            self.server = None
        self.samples = []
