"""AggregateServer behaviour: cache reuse, rebinding oracles, futures,
coalescing, and the snapshot-isolation concurrency contract."""

import dataclasses
import sys
import threading

import pytest

from repro.core import EngineConfig, LMFAO
from repro.incremental.delta import normalize_deltas
from repro.paper import FAVORITA_TREE
from repro.query import Aggregate, Op, Predicate, Query, QueryBatch
from repro.serve import AggregateServer
from repro.util.errors import PlanError, SchemaError

from tests.incremental.test_maintain import _assert_exact


def _batch(t_units=3.0, t_item=10.0):
    return QueryBatch(
        [
            Query(
                "scalar",
                aggregates=(Aggregate.sum("units"),),
                where=(Predicate("units", Op.LE, t_units),),
            ),
            Query(
                "by_store",
                group_by=("store",),
                aggregates=(Aggregate.sum("units"), Aggregate.count()),
                where=(
                    Predicate("units", Op.LE, t_units),
                    Predicate("item", Op.GE, t_item),
                ),
            ),
            Query(
                "cross",  # store × class spans Sales and Items → carried plan
                group_by=("store", "class"),
                aggregates=(Aggregate.count(),),
            ),
        ]
    )


def _groups(run):
    return {name: result.groups for name, result in run.results.items()}


# ----------------------------------------------------------- plan-cache reuse
def test_repeated_batch_hits_the_cache_and_skips_compile(favorita_db):
    with AggregateServer(
        favorita_db, EngineConfig(join_tree_edges=FAVORITA_TREE)
    ) as server:
        cold = server.run(_batch())
        warm = server.run(_batch())
        assert "compile" in cold.timings
        assert "compile" not in warm.timings
        assert _groups(cold) == _groups(warm)
        stats = server.stats()
        assert stats.plan_cache.misses == 1
        assert stats.plan_cache.hits == 1
        # a hit shares the compiled artefacts but reports its own request
        request = _batch(7.0, 25.0)
        rebound = server.run(request)
        assert rebound.compiled.plans is cold.compiled.plans
        assert rebound.compiled.batch is request
        slot = request.query("scalar").where[0]
        assert rebound.compiled.functions["ind[<=3]"].name == (
            slot.as_indicator().name
        ) == "ind[<=7]"


@pytest.mark.parametrize("backend", ["python", "numpy"])
def test_rebound_constants_match_cold_compile_oracle(favorita_db, backend):
    """The heart of the cache: a hit with different constants must produce
    bit-identical results to compiling the request from scratch."""
    config = EngineConfig(
        join_tree_edges=FAVORITA_TREE,
        backend=backend,
        partitions=2,
        parallel_threshold=0,
    )
    with AggregateServer(favorita_db, config) as server:
        server.run(_batch(3.0, 10.0))  # populate the cache
        served = server.run(_batch(7.0, 25.0))  # structural hit, rebind
        assert server.stats().plan_cache.hits == 1
        oracle = LMFAO(favorita_db, config).run(_batch(7.0, 25.0))
        assert _groups(served) == _groups(oracle)
        # and back again: rebinding must not have poisoned shared caches
        served_again = server.run(_batch(3.0, 10.0))
        oracle_first = LMFAO(favorita_db, config).run(_batch(3.0, 10.0))
        assert _groups(served_again) == _groups(oracle_first)


def test_lru_eviction_forces_recompile(favorita_db):
    def shaped(name):
        return QueryBatch(
            [Query(name, group_by=("store",), aggregates=(Aggregate.count(),))]
        )

    config = EngineConfig(join_tree_edges=FAVORITA_TREE)
    with AggregateServer(favorita_db, config, plan_cache_capacity=2) as server:
        for name in ("a", "b", "c"):  # three distinct structures, capacity 2
            server.run(shaped(name))
        stats = server.stats()
        assert stats.plan_cache.misses == 3
        assert stats.plan_cache.evictions == 1
        assert "compile" in server.run(shaped("a")).timings  # evicted → miss
        assert "compile" not in server.run(shaped("c")).timings  # still hot


def test_default_server_runs_every_group_on_numpy(favorita_db, monkeypatch):
    # the CI legs rewrite EngineConfig defaults (tests/conftest.py); this
    # test is about the shipped ones
    shipped = tuple(field.default for field in dataclasses.fields(EngineConfig))
    monkeypatch.setattr(EngineConfig.__init__, "__defaults__", shipped)
    assert EngineConfig().backend == "numpy"
    with AggregateServer(favorita_db) as server:
        decisions = server.run(_batch()).decisions
    assert decisions
    assert {decision["backend"] for decision in decisions.values()} == {"numpy"}


# ------------------------------------------------------------------- futures
def test_submit_returns_future_with_pinned_version(favorita_db):
    with AggregateServer(
        favorita_db, EngineConfig(join_tree_edges=FAVORITA_TREE)
    ) as server:
        future = server.submit(_batch())
        result = future.result(timeout=60)
        assert result.snapshot_version == 0
        assert _groups(result) == _groups(server.run(_batch()))


def test_submit_coalesces_identical_inflight_requests(favorita_db):
    with AggregateServer(
        favorita_db, EngineConfig(join_tree_edges=FAVORITA_TREE)
    ) as server:
        gate = threading.Event()
        real = server._execute_pinned

        def gated(*args, **kwargs):
            gate.wait(timeout=60)
            return real(*args, **kwargs)

        server._execute_pinned = gated
        try:
            f1 = server.submit(_batch(3.0, 10.0))
            f2 = server.submit(_batch(3.0, 10.0))  # identical → coalesce
            f3 = server.submit(_batch(7.0, 10.0))  # same shape, new constant
        finally:
            gate.set()
        assert f1 is f2
        assert f3 is not f1
        f1.result(timeout=60), f3.result(timeout=60)
        stats = server.stats()
        assert stats.coalesced == 1
        assert stats.submitted == 2
        # a completed request never satisfies a later submission
        f4 = server.submit(_batch(3.0, 10.0))
        assert f4 is not f1
        f4.result(timeout=60)


def test_closed_server_rejects_submissions(favorita_db):
    server = AggregateServer(favorita_db, EngineConfig(join_tree_edges=FAVORITA_TREE))
    server.close()
    with pytest.raises(PlanError, match="closed"):
        server.submit(_batch())


# ------------------------------------------------------- snapshot isolation
def _replay_oracles(db, batch, rounds, config):
    """Per-version result oracles: replay the deltas sequentially."""
    oracles = {0: _groups(LMFAO(db, config).run(batch))}
    current = db
    for version, (inserts, deletes) in enumerate(rounds, start=1):
        for name, delta in normalize_deltas(current, inserts, deletes).items():
            current = current.with_relation(delta.apply_to(current.relation(name)))
        oracles[version] = _groups(LMFAO(current, config).run(batch))
    return oracles


def test_apply_advances_version_and_pinned_runs_stay_isolated(favorita_db):
    config = EngineConfig(join_tree_edges=FAVORITA_TREE)
    batch = _batch()
    sales = favorita_db.relation("Sales")
    rounds = [
        ({"Sales": [sales.row(0)]}, None),
        ({"Sales": [sales.row(1), sales.row(2)]}, None),
        (None, {"Sales": [sales.row(0)]}),
    ]
    oracles = _replay_oracles(favorita_db, batch, rounds, config)
    with AggregateServer(favorita_db, config) as server:
        assert _groups(server.run(batch)) == oracles[0]
        for expected_version, (inserts, deletes) in enumerate(rounds, start=1):
            version = server.apply(inserts=inserts, deletes=deletes)
            assert version == expected_version
            run = server.run(batch)
            assert run.snapshot_version == version
            assert _groups(run) == oracles[version]
        # empty deltas change nothing, including the version
        assert server.apply(inserts={"Sales": []}) == len(rounds)


@pytest.mark.parametrize("executor", ["thread", "process"])
def test_concurrent_runs_during_apply_never_see_torn_state(favorita_db, executor):
    """The regression the snapshot layer exists for: readers hammer run()
    while a maintained writer applies deltas; every result must equal the
    sequential oracle of the exact version it reports having pinned.

    The ``process`` variant additionally proves the shared-memory segment
    lifecycle: an ``apply`` installing a successor version mid-run must
    never unlink a segment a pinned run's worker still maps — Favorita's
    ``units`` are integer-valued, so the multiprocess tree-reduce merge is
    bit-identical to the sequential oracle, and any torn mapping would
    show up as a divergent (or crashed) read."""
    if executor == "process":
        config = EngineConfig(
            join_tree_edges=FAVORITA_TREE, executor="process",
            workers=2, partitions=2, parallel_threshold=0,
        )
        oracle_config = EngineConfig(
            join_tree_edges=FAVORITA_TREE, workers=1, partitions=1
        )
    else:
        config = oracle_config = EngineConfig(join_tree_edges=FAVORITA_TREE)
    batch = _batch()
    sales = favorita_db.relation("Sales")
    rounds = [({"Sales": [sales.row(i), sales.row(i + 1)]}, None) for i in range(6)]
    oracles = _replay_oracles(favorita_db, batch, rounds, oracle_config)

    with AggregateServer(favorita_db, config) as server:
        handle = server.maintain(batch)
        server.run(batch)  # warm the plan cache
        writer_done = threading.Event()
        observations: list[tuple[int, dict]] = []
        failures: list[BaseException] = []

        def reader():
            try:
                while not writer_done.is_set():
                    run = server.run(batch)
                    observations.append((run.snapshot_version, _groups(run)))
            except BaseException as exc:  # pragma: no cover - failure path
                failures.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(3)]
        for t in threads:
            t.start()
        try:
            for inserts, deletes in rounds:
                outcome = handle.apply(inserts=inserts, deletes=deletes)
                # the handle's own view of the new version matches its oracle
                assert {
                    name: result.groups for name, result in outcome.results.items()
                } == oracles[outcome.version]
        finally:
            writer_done.set()
            for t in threads:
                t.join(timeout=60)
        assert not failures
        assert observations
        versions_seen = set()
        for version, groups in observations:
            assert groups == oracles[version], f"torn read at version {version}"
            versions_seen.add(version)
        # the final state is served to new requests
        final = server.run(batch)
        assert final.snapshot_version == len(rounds)
        assert _groups(final) == oracles[len(rounds)]


def _maintained(handle):
    return handle.version, {n: r.groups for n, r in handle.results.items()}


def test_every_direct_handle_follows_every_commit(favorita_db):
    engine = LMFAO(favorita_db, EngineConfig(join_tree_edges=FAVORITA_TREE))
    sales = favorita_db.relation("Sales")
    first = engine.maintain(_batch())
    second = engine.maintain(_batch(t_units=6.0, t_item=4.0))
    outcome = first.apply(inserts={"Sales": [sales.row(0), sales.row(1)]})
    assert outcome.version == 1
    assert first.version == second.version == engine.snapshot().version == 1
    second.apply(deletes={"Sales": [sales.row(2)]})
    assert first.version == second.version == engine.snapshot().version == 2
    assert first.applies == second.applies == 2
    for handle in (first, second):
        assert handle.database is engine.db
        _assert_exact(handle)


def test_failed_commit_leaves_engine_and_every_handle_untouched(favorita_db):
    engine = LMFAO(favorita_db, EngineConfig(join_tree_edges=FAVORITA_TREE))
    sales = favorita_db.relation("Sales")
    items = favorita_db.relation("Items")
    handles = [engine.maintain(_batch()), engine.maintain(_batch(t_units=6.0))]
    handles[0].apply(inserts={"Sales": [sales.row(0)]})
    before = [_maintained(handle) for handle in handles]
    db = engine.db
    with pytest.raises(SchemaError):
        handles[1].apply(
            inserts={"Items": [items.row(0)]},
            deletes={"Sales": [(999, 999, 999, 1.0, 0)]},  # not present
        )
    assert engine.db is db and engine.snapshot().version == 1
    assert [_maintained(handle) for handle in handles] == before
    for handle in handles:
        _assert_exact(handle)


def test_handle_built_between_commits_follows_the_next(favorita_db):
    engine = LMFAO(favorita_db, EngineConfig(join_tree_edges=FAVORITA_TREE))
    sales = favorita_db.relation("Sales")
    first = engine.maintain(_batch())
    first.apply(inserts={"Sales": [sales.row(0)]})
    late = engine.maintain(_batch(t_units=6.0))
    assert late.version == 1
    first.apply(deletes={"Sales": [sales.row(0), sales.row(3)]})
    assert late.version == first.version == 2
    late.apply(inserts={"Sales": [sales.row(4)]})
    assert late.version == first.version == 3
    for handle in (first, late):
        _assert_exact(handle)

def test_concurrent_direct_writers_serialise(favorita_db):
    """More writer threads than cores, each applying through its own direct
    handle while another thread builds handles: no commit is lost, and
    every handle ends on the last version, exact against recomputation."""
    engine = LMFAO(favorita_db, EngineConfig(join_tree_edges=FAVORITA_TREE))
    sales = favorita_db.relation("Sales")
    writers, rounds = 4, 5
    handles = [engine.maintain(_batch(t_units=3.0 + i)) for i in range(writers)]
    late, failures = [], []

    def write(handle, offset):
        try:
            for step in range(rounds):
                row = sales.row(offset * rounds + step)
                handle.apply(inserts={"Sales": [row]})
        except Exception as exc:  # reported below
            failures.append(exc)

    def build():
        try:
            for i in range(3):
                late.append(engine.maintain(_batch(t_units=9.0, t_item=i)))
        except Exception as exc:
            failures.append(exc)

    threads = [
        threading.Thread(target=write, args=(handle, i))
        for i, handle in enumerate(handles)
    ] + [threading.Thread(target=build)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert not failures
    final = writers * rounds
    assert engine.snapshot().version == final
    assert engine.db.relation("Sales").num_rows == sales.num_rows + final
    for handle in handles + late:
        assert handle.version == final
        _assert_exact(handle)
