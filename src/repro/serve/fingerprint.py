"""Structural batch fingerprints and per-request constant rebinding.

LMFAO's premise is that one optimisation pass amortises over a batch; the
serving layer pushes that one step further and amortises the pass over
**many requests**. The unit of reuse is the *structure* of a batch — what
the three compile layers actually consume — with ``WHERE``-predicate
constants abstracted out, because the canonical serving workload
(decision-tree node batches, dashboard filters) re-issues the same shapes
with different thresholds.

Two functions define the whole contract:

* :func:`batch_fingerprint` — a hashable key over everything compilation
  depends on: per-query shapes (name, group-by, aggregate signatures),
  predicate structure with constants replaced by *placeholders* assigned
  in first-occurrence order of distinct ``(op, value)`` pairs, the join
  tree's edges, and the full :class:`~repro.core.engine.EngineConfig`.
  Two batches get the same fingerprint iff the compiled artefacts of one
  execute the other correctly after constant rebinding.
* :func:`bind_batch` — given a cache hit, aligns the request's constants
  with the cached compilation and returns a copy of it that carries the
  request's batch and functions and shares every other artefact; the
  engine executes it like any freshly compiled batch.

**Why placeholders are assigned per distinct (op, value) pair.** Predicate
folding deduplicates indicator functions by ``(op, value)``: ``x <= 5``
and ``y <= 5`` share one function, ``x <= 5`` and ``x <= 9`` do not. The
placeholder scheme mirrors exactly that: equal constants collapse to one
placeholder, distinct constants get distinct placeholders. A request
whose constants *collide differently* from the cached batch (``5, 9`` vs
``7, 7``) therefore fingerprints differently — a cache miss, never a
wrong rebinding — and within a fingerprint match the placeholder → slot
mapping is a bijection.

**What the fingerprint deliberately includes as literal structure:**
query names (emission artifacts are keyed by them), aggregate factor
function *names* (the registry contract makes names unique per
behaviour — including hand-built indicator factors, which therefore do
*not* participate in constant abstraction; only ``Query.where`` does),
and group-by order. **What it omits:** the database contents. Cost-based
planning choices (roots, attribute orders) were made against the
statistics at first compile; reusing them on drifted data is always
*correct* — any root/order computes the same aggregates — just possibly
no longer the cost-optimal plan. See ``docs/serving.md`` §Keying rules.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.core.engine import CompiledBatch, EngineConfig
from repro.jointree.jointree import JoinTree
from repro.query.batch import QueryBatch
from repro.query.functions import Function
from repro.util.errors import PlanError

#: one abstracted predicate constant: the ``(op, value)`` pair behind a
#: placeholder, in placeholder-id (= first-occurrence) order.
Constant = tuple[str, float]


@dataclass(frozen=True)
class BatchFingerprint:
    """Hashable structural identity of ``(batch shape, join tree, config)``.

    Equal fingerprints ⇒ the cached :class:`CompiledBatch` of one batch
    executes the other exactly, after :func:`bind_batch` re-binds the
    constants. Value semantics: use freely as a dict key.
    """

    key: tuple

    def __repr__(self) -> str:  # the raw key is long and unenlightening
        return f"BatchFingerprint(0x{hash(self.key) & 0xFFFFFFFF:08x})"


def _config_key(config: EngineConfig) -> tuple:
    """The config as a hashable tuple (dict fields canonicalised)."""
    items = []
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if isinstance(value, dict):
            value = tuple(sorted(value.items()))
        items.append((f.name, value))
    return tuple(items)


def batch_fingerprint(
    batch: QueryBatch, tree: JoinTree, config: EngineConfig
) -> tuple[BatchFingerprint, tuple[Constant, ...]]:
    """The structural fingerprint of a batch plus its abstracted constants.

    Returns ``(fingerprint, constants)``: ``constants`` lists the actual
    ``(op, value)`` pair behind each placeholder in placeholder order —
    the request's *identity beyond structure*, used by the server to
    coalesce identical in-flight requests (same fingerprint **and** same
    constants **and** same snapshot version).
    """
    placeholders: dict[Constant, int] = {}
    constants: list[Constant] = []

    def placeholder(op: str, value: float) -> int:
        pair = (op, value)
        pid = placeholders.get(pair)
        if pid is None:
            pid = placeholders[pair] = len(placeholders)
            constants.append(pair)
        return pid

    shape = tuple(
        (
            query.name,
            tuple(query.group_by),
            tuple(agg.signature for agg in query.aggregates),
            tuple(
                (p.attribute, p.op.value, placeholder(p.op.value, float(p.value)))
                for p in query.where
            ),
            # ordering is literal structure, never abstracted: top-k
            # truncation changes which groups a result even contains, so
            # an ordered batch can never ride an unordered compilation
            # (or one with a different spec or k).
            query.order_by.signature if query.order_by is not None else None,
            query.limit,
        )
        for query in batch
    )
    key = (shape, tree.edges, _config_key(config))
    return BatchFingerprint(key=key), tuple(constants)


def bind_batch(compiled: CompiledBatch, batch: QueryBatch) -> CompiledBatch:
    """Bind a request's constants onto a structurally identical compilation.

    Precondition (the caller's cache guarantees it): ``batch`` and
    ``compiled.batch`` have equal :func:`batch_fingerprint`\\ s. The two
    batches are walked in lockstep — query by query, predicate by
    predicate — producing the **function rebinding**: for every folded
    predicate, the cached indicator's slot name maps to the request
    predicate's indicator function (identity when the constants happen
    to be equal).

    Returns a :class:`~repro.core.engine.CompiledBatch` whose ``batch`` is
    the request and whose ``functions`` hold the rebinding; ``folded``,
    the view and group plans, orders, plans, executables and execution
    order are the cached batch's own objects, so ``folded`` keeps the
    constants the cache entry was compiled with.

    The walk is validated as it goes; a shape mismatch — which a correct
    fingerprint makes impossible — raises
    :class:`~repro.util.errors.PlanError` rather than mis-binding.
    """
    cached_queries = list(compiled.batch)
    request_queries = list(batch)
    if len(cached_queries) != len(request_queries):
        raise PlanError(
            "bind_batch: request batch shape diverged from the cached "
            "compilation (query count); fingerprints should have differed"
        )

    mapping: dict[str, Function] = {}
    for cached_q, request_q in zip(cached_queries, request_queries):
        if (
            cached_q.name != request_q.name
            or cached_q.group_by != request_q.group_by
            or len(cached_q.where) != len(request_q.where)
            or cached_q.order_by != request_q.order_by
            or cached_q.limit != request_q.limit
        ):
            raise PlanError(
                f"bind_batch: query {request_q.name!r} diverged structurally "
                f"from the cached compilation; fingerprints should have differed"
            )
        for cached_p, request_p in zip(cached_q.where, request_q.where):
            if cached_p.attribute != request_p.attribute or (
                cached_p.op is not request_p.op
            ):
                raise PlanError(
                    f"bind_batch: predicate shape diverged in query "
                    f"{request_q.name!r}; fingerprints should have differed"
                )
            slot = cached_p.as_indicator().name
            bound = mapping.setdefault(slot, request_p.as_indicator())
            if bound.name != request_p.as_indicator().name:
                raise PlanError(
                    f"bind_batch: placeholder collision on slot {slot!r}; "
                    f"fingerprints should have differed"
                )

    functions = dict(compiled.functions)
    for slot, bound in mapping.items():
        if slot in functions:
            functions[slot] = bound
    return dataclasses.replace(compiled, batch=batch, functions=functions)


# ------------------------------------------------------------------ view keys


@dataclass(frozen=True)
class ViewIdentity:
    """Version-independent identity of one materialized view's *contents*.

    Wraps everything a view's ``ViewData`` depends on besides the
    database version: the canonical subtree structure
    (:class:`~repro.core.views.ViewSignature`), the concrete functions
    bound to its placeholder slots (the request's constants, which
    :func:`bind_batch` puts in ``functions`` on cache hits), and the
    *execution profile* — attribute orders, partition safety and the
    compiled backend of the producing groups over the subtree.

    The profile is in the key for bit-exactness, not correctness of the
    aggregates: group composition is batch-dependent, so a structurally
    identical view may run under a different attribute order or backend
    lowering in another batch, associating float additions differently.
    Equal identity ⇒ byte-identical recomputation. Cost-model
    *decisions* (``RunResult.decisions``) and the ``adaptive`` /
    ``workers`` / ``partitions`` knobs stay out: within one server the
    config is fixed and decisions are deterministic functions of the
    snapshot's trie statistics, which the snapshot version already pins.
    """

    key: tuple

    def __repr__(self) -> str:  # the raw key is long and unenlightening
        return f"ViewIdentity(0x{hash(self.key) & 0xFFFFFFFF:08x})"


@dataclass(frozen=True)
class ViewKey:
    """Cache key of one materialized view: ``(identity, snapshot_version)``.

    The version pins the data the view was computed over; the identity
    pins everything else. Cross-request sharing happens when different
    batch fingerprints yield equal identities at the same version.
    """

    identity: ViewIdentity
    version: int


def view_identities(compiled: CompiledBatch) -> dict[str, ViewIdentity]:
    """Per-view cache identities for one request's compilation.

    Derives, for every view of ``compiled.view_plan``, the
    :class:`ViewIdentity` of the ``ViewData`` executing ``compiled``
    would materialize for it — the canonical signature with the
    request's constants (``compiled.functions``, rebound by
    :func:`bind_batch` on a plan-cache hit) bound in. Pair
    with the snapshot version via :class:`ViewKey` to address the
    :class:`~repro.serve.viewcache.ViewCache`.
    """
    signatures = compiled.view_plan.view_signatures()
    functions = compiled.functions

    profiles: dict[str, tuple] = {}

    def profile(name: str) -> tuple:
        cached = profiles.get(name)
        if cached is not None:
            return cached
        index = compiled.producers[name]
        plan = compiled.plans[index]
        own = (plan.order, plan.partition_safe, compiled.executables[index].backend)
        children = tuple(
            profile(child)
            for child in compiled.view_plan.views[name].referenced_views
        )
        profiles[name] = result = (own, children)
        return result

    identities: dict[str, ViewIdentity] = {}
    for name, signature in signatures.items():
        constants = tuple(
            functions[slot].name if slot in functions else slot
            for slot in signature.slots
        )
        identities[name] = ViewIdentity(
            key=(signature.structure, constants, profile(name))
        )
    return identities
