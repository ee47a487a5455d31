"""Per-layer measurements taken from outside the program.

Two kinds: :class:`RunCounters` adds up what every ``RunResult`` already
exports (phase laps, cost-model decisions, skipped groups), and the probe
functions time direct calls into public stage functions — the ones
``LMFAO.compile`` and ``AggregateServer.submit`` call — on inputs sampled
from the workload.
"""

from __future__ import annotations

import time
from collections import Counter

from repro.core import cbackend, npbackend
from repro.core.codegen import generate_group
from repro.core.decompose import decompose_group
from repro.core.groups import build_groups
from repro.core.orders import order_group
from repro.core.viewgen import ViewGenerator
from repro.data import TrieIndex
from repro.jointree import assign_roots
from repro.serve.fingerprint import batch_fingerprint, bind_batch
from repro.util.errors import PlanError


class RunCounters:
    """Sums of the counters ``RunResult`` exports, over one timed phase."""

    def __init__(self) -> None:
        self.compiles = 0
        self.compile_s = 0.0
        self.execute_s = 0.0
        self.collect_s = 0.0
        self.rows = 0
        self.skipped = 0
        self.partitioned = 0
        self.backends: Counter = Counter()
        self.grouping: Counter = Counter()
        self.topk: Counter = Counter()

    def add(self, run) -> None:
        timings = run.timings
        if "compile" in timings:
            self.compiles += 1
            self.compile_s += timings["compile"]
        self.execute_s += timings.get("execute", 0.0)
        self.collect_s += timings.get("collect", 0.0)
        self.skipped += len(run.skipped_groups)
        for decision in run.decisions.values():
            self.rows += decision["rows"]
            self.backends[decision["backend"]] += 1
            self.partitioned += decision["partitions"] > 1
            self.grouping.update(decision["strategies"].values())
            self.topk.update(decision.get("topk", {}).values())

    def per_op(self, ops: int) -> dict[str, float]:
        """Per-layer metric values, per end-to-end operation."""
        ops = max(1, ops)
        return {
            "core.compile_s": self.compile_s / ops,
            "core.compiles_per_op": self.compiles / ops,
            "core.execute_s": self.execute_s / ops,
            "core.collect_s": self.collect_s / ops,
            "core.rows_scanned": self.rows / ops,
            "core.skipped_groups": self.skipped / ops,
            "core.groups_python": self.backends["python"] / ops,
            "core.groups_numpy": self.backends["numpy"] / ops,
            "core.groups_c": self.backends["c"] / ops,
            "core.groups_partitioned": self.partitioned / ops,
            "core.emissions_hash": self.grouping["hash"] / ops,
            "core.emissions_sort": self.grouping["sort"] / ops,
            "core.topk_heap": self.topk["heap"] / ops,
            "core.topk_sort": self.topk["sort"] / ops,
        }


def replay_compile(engine, compiled_batches) -> dict[str, float]:
    """Mean seconds per compiled batch in each stage ``LMFAO.compile`` runs.

    Replays the public stage functions on the batches' own folded queries,
    under the engine's config, so the split adds up to what
    ``compile`` did — without touching the engine. Also returns the mean
    view/group/native-group counts.
    """
    config = engine.config
    db = engine.db
    totals = Counter()
    for compiled in compiled_batches:
        start = time.perf_counter()
        roots = assign_roots(db, engine.tree, compiled.folded, override=config.root_override)
        view_plan = ViewGenerator(
            db, engine.tree, merge_across_queries=config.merge_views
        ).generate(compiled.folded, roots)
        after_viewgen = time.perf_counter()
        group_plan = build_groups(view_plan, multi_output=config.multi_output)
        after_groups = time.perf_counter()
        plans = [
            decompose_group(
                group, order_group(group, view_plan, db), factorize=config.factorize
            )
            for group in group_plan.groups
        ]
        after_decompose = time.perf_counter()
        for plan in plans:
            generate_group(plan, share_terms=config.share_scan_terms)
        after_codegen = time.perf_counter()
        native = _compile_native(config, db, plans)
        after_native = time.perf_counter()
        totals["core.viewgen_s"] += after_viewgen - start
        totals["core.groups_s"] += after_groups - after_viewgen
        totals["core.decompose_s"] += after_decompose - after_groups
        totals["core.codegen_s"] += after_codegen - after_decompose
        totals["core.native_compile_s"] += after_native - after_codegen
        totals["core.views"] += view_plan.num_views
        totals["core.groups"] += group_plan.num_groups
        totals["core.native_groups"] += native
    count = max(1, len(compiled_batches))
    names = (
        "core.viewgen_s", "core.groups_s", "core.decompose_s", "core.codegen_s",
        "core.native_compile_s", "core.views", "core.groups", "core.native_groups",
    )
    return {name: totals[name] / count for name in names}


def _compile_native(config, db, plans) -> int:
    """The native step of ``compile`` for ``config.backend``; returns its group count."""
    groups: list = []
    library = None
    if config.backend in ("numpy", "auto"):
        groups += npbackend.compile_numpy_groups(plans, adaptive=config.adaptive)
    if config.backend in ("c", "auto"):
        kinds = {
            attr: db.schema.attribute_kind(attr).value
            for attr in db.schema.all_attributes
        }
        try:
            c_groups, library = cbackend.compile_c_groups(plans, kinds)
        except PlanError:  # no gcc: "auto" runs without C candidates
            if config.backend == "c":
                raise
            c_groups = []
        groups += c_groups
    count = sum(group is not None for group in groups)
    del library  # the shared object is only needed while its groups run
    return count


def trie_build_seconds(db, compiled_batches) -> float:
    """Seconds to build one trie per distinct (node, attribute order) compiled."""
    orders = {
        (plan.node, tuple(plan.order))
        for compiled in compiled_batches
        for plan in compiled.plans
    }
    start = time.perf_counter()
    for node, order in sorted(orders):
        TrieIndex(db.relation(node), order)
    return time.perf_counter() - start


def probe_requests(server, batches) -> tuple[float, float, list]:
    """``batch_fingerprint`` and ``bind_batch`` timed directly on sampled requests.

    Returns the mean seconds of each per request and the cached
    compilations the requests resolved to. Call after the server's cache
    counters were read: the plan-cache lookup in between counts as a hit.
    """
    engine = server.engine
    fingerprint_s = bind_s = 0.0
    compiled_batches = []
    for batch in batches:
        start = time.perf_counter()
        fingerprint, _constants = batch_fingerprint(batch, engine.tree, engine.config)
        fingerprint_s += time.perf_counter() - start
        compiled = server.plan_cache.get(fingerprint)
        if compiled is None:
            continue
        start = time.perf_counter()
        bind_batch(compiled, batch)
        bind_s += time.perf_counter() - start
        compiled_batches.append(compiled)
    return (
        fingerprint_s / max(1, len(batches)),
        bind_s / max(1, len(compiled_batches)),
        compiled_batches,
    )


def cache_metrics(before, after) -> dict[str, float]:
    """Plan- and view-cache behaviour between two ``ServerStats`` readings."""

    def rate(new, old):
        hits = new.hits - old.hits
        lookups = hits + new.misses - old.misses
        return hits / lookups if lookups else 0.0

    out = {
        "serve.plan_hit_rate": rate(after.plan_cache, before.plan_cache),
        "serve.plan_evictions": after.plan_cache.evictions - before.plan_cache.evictions,
        "serve.view_hit_rate": 0.0,
        "serve.view_evictions": 0,
        "serve.view_bytes": 0,
    }
    if after.view_cache is not None:
        out["serve.view_hit_rate"] = rate(after.view_cache, before.view_cache)
        out["serve.view_evictions"] = (
            after.view_cache.evictions - before.view_cache.evictions
        )
        out["serve.view_bytes"] = after.view_cache.weight
    return out
