"""The C backend's artifact cache and ``backend="auto"``'s candidate rule.

Each test that builds points :data:`repro.core.cbackend.ARTIFACT_DIR` at
a directory of its own, so hits and misses are the test's, not the
session's.
"""

from __future__ import annotations

import contextlib
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import pytest

import repro
from repro import retailer, retailer_features
from repro.core import EngineConfig, LMFAO, cbackend, costmodel
from repro.core.cbackend import artifact_key, generate_c_source, supports_plan
from repro.data import favorita
from repro.ml.covariance import covariance_batch
from repro.paper import EXAMPLE_ROOTS, FAVORITA_TREE, example_queries
from repro.util.errors import PlanError

from tests.helpers import assert_results_equal

pytestmark = pytest.mark.skipif(
    not cbackend.gcc_available(), reason="gcc not on PATH"
)

_PAPER = dict(join_tree_edges=FAVORITA_TREE, root_override=EXAMPLE_ROOTS)


def _config(**overrides) -> EngineConfig:
    # pinned: the CI legs rewrite EngineConfig defaults
    base = dict(workers=1, partitions=1, executor="thread", **_PAPER)
    return EngineConfig(**{**base, **overrides})


@pytest.fixture(scope="module")
def db():
    return favorita(scale=0.05, seed=7)


@pytest.fixture(scope="module")
def expected(db):
    return LMFAO(db, _config(backend="python")).run(example_queries()).results


@pytest.fixture()
def artifacts(tmp_path, monkeypatch) -> Path:
    directory = tmp_path / "artifacts"
    monkeypatch.setattr(cbackend, "ARTIFACT_DIR", directory)
    return directory


@pytest.fixture()
def spawned(monkeypatch) -> list:
    """Every process started through ``subprocess.Popen`` from here on."""
    processes: list = []
    real = subprocess.Popen

    def popen(*args, **kwargs):
        process = real(*args, **kwargs)
        processes.append(process)
        return process

    monkeypatch.setattr(subprocess, "Popen", popen)
    return processes


def _run_c(db):
    run = LMFAO(db, _config(backend="c")).run(example_queries())
    assert all(d["backend"] == "c" for d in run.decisions.values()), run.decisions
    return run


def _assert_same(results, expected) -> None:
    for name, result in expected.items():
        assert results[name].groups == result.groups, name


def _files(directory: Path, pattern: str) -> list[str]:
    return sorted(p.name for p in directory.glob(pattern))


def test_gcc_is_probed_once(spawned):
    available = cbackend.gcc_available()
    assert cbackend.gcc_available() is available
    assert cbackend.gcc_version() == cbackend.gcc_version()
    assert spawned == []


def test_second_engine_compiles_from_the_cache(db, expected, artifacts, spawned):
    first = _run_c(db)
    groups = first.compiled.num_groups
    assert len(spawned) == groups  # one gcc per group, no link step
    assert len(_files(artifacts, "*.so")) == groups
    spawned.clear()
    second = _run_c(db)
    assert spawned == []
    _assert_same(second.results, first.results)
    _assert_same(second.results, expected)
    assert oct(artifacts.stat().st_mode & 0o777) == oct(0o700)


def test_key_covers_source_flags_prelude_and_compiler(monkeypatch):
    base = artifact_key("int f(void) { return 0; }")
    assert artifact_key("int f(void) { return 0; }") == base
    assert artifact_key("int f(void) { return 1; }") != base
    for name, value in (
        ("CFLAGS", ("-O2", "-fPIC", "-shared")),
        ("_PRELUDE", cbackend._PRELUDE + "\n"),
        ("gcc_version", lambda: "gcc (other) 99.0"),
    ):
        with monkeypatch.context() as patch:
            patch.setattr(cbackend, name, value)
            assert artifact_key("int f(void) { return 0; }") != base, name


def test_directory_stays_within_its_bound(db, expected, artifacts, monkeypatch):
    monkeypatch.setattr(cbackend, "ARTIFACT_BYTES", 1)
    run = _run_c(db)
    size = sum(p.stat().st_size for p in artifacts.glob("*.so"))
    assert size <= cbackend.ARTIFACT_BYTES
    assert _files(artifacts, "*.tmp") == []
    # every group's file was evicted after it was loaded; they still run
    engine = LMFAO(db, _config(backend="c"))
    _assert_same(engine.execute(run.compiled).results, expected)


def _group_writable(directory: Path, monkeypatch) -> Path:
    directory.mkdir()
    directory.chmod(0o770)
    return directory


def _foreign(directory: Path, monkeypatch) -> Path:
    directory.mkdir(mode=0o700)
    uid = os.getuid()
    monkeypatch.setattr(os, "getuid", lambda: uid + 1)
    return directory


def _symlink(directory: Path, monkeypatch) -> Path:
    directory.mkdir(mode=0o700)
    link = directory.with_name("link")
    link.symlink_to(directory, target_is_directory=True)
    return link


@pytest.mark.parametrize("unsafe", [_group_writable, _foreign, _symlink])
def test_unsafe_directory_is_not_used(db, expected, tmp_path, monkeypatch, unsafe):
    directory = tmp_path / "artifacts"
    monkeypatch.setattr(cbackend, "ARTIFACT_DIR", unsafe(directory, monkeypatch))
    private = tmp_path / "tmp"
    private.mkdir()
    monkeypatch.setattr("tempfile.tempdir", str(private))
    _assert_same(_run_c(db).results, expected)
    assert _files(directory, "*") == []
    assert _files(private, "*") == []  # the fallback build directory is gone


def test_garbage_artifact_is_rebuilt(db, expected, artifacts):
    plans = LMFAO(db, _config(backend="python")).compile(example_queries()).plans
    artifacts.mkdir(mode=0o700)
    paths = [
        artifacts / f"{artifact_key(generate_c_source(plan, f'lmfao_run_g{i}')[0])}.so"
        for i, plan in enumerate(plans)
    ]
    for path in paths:
        path.write_bytes(b"not a shared object")
    _assert_same(_run_c(db).results, expected)
    assert all(path.read_bytes()[:4] == b"\x7fELF" for path in paths)


def test_concurrent_compiles_install_one_file_per_key(db, expected, artifacts):
    builders = 3
    barrier = threading.Barrier(builders, timeout=60)
    results: list = [None] * builders

    def compile_and_run(slot: int) -> None:
        engine = LMFAO(db, _config(backend="c"))
        barrier.wait()
        results[slot] = engine.run(example_queries()).results

    threads = [
        threading.Thread(target=compile_and_run, args=(i,)) for i in range(builders)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
        assert not thread.is_alive()
    for result in results:
        assert result is not None  # the builder raised
        _assert_same(result, expected)
    groups = LMFAO(db, _config()).compile(example_queries()).num_groups
    assert len(_files(artifacts, "*.so")) == groups
    assert _files(artifacts, "*.tmp") == []


def test_gcc_failure_reaps_every_child(db, artifacts, spawned, monkeypatch):
    generate = cbackend.generate_c_source

    def broken(plan, symbol, *share_terms):
        source, args = generate(plan, symbol, *share_terms)
        if symbol == "lmfao_run_g0":
            source += "\n#error deliberately broken\n"
        return source, args

    monkeypatch.setattr(cbackend, "generate_c_source", broken)
    with pytest.raises(PlanError, match="lmfao_run_g0"):
        LMFAO(db, _config(backend="c")).compile(example_queries())
    assert len(spawned) > 1
    assert all(process.returncode is not None for process in spawned)
    assert _files(artifacts, "*") == []  # no partial, and nothing installed


_FAKE_GCC = """#!/bin/sh
# a gcc driver stand-in: answers --version; fails on group 0 once a
# sibling is up; every other build starts a sleeping child (the cc1 of
# a real driver), records its pid and waits on it
[ "$1" = --version ] && {{ echo "gcc (fake) 0"; exit 0; }}
source=$(cat)
case "$source" in
*lmfao_run_g0*)
    for _ in $(seq 100); do [ -s {pids} ] && break; sleep 0.05; done
    echo "deliberately broken" >&2
    exit 1;;
esac
sleep 30 </dev/null >/dev/null 2>&1 &
echo $! >> {pids}
wait
"""


def _gone_or_zombie(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as stat_file:
            return stat_file.read().rpartition(")")[2].split()[0] == "Z"
    except FileNotFoundError:
        return True


def test_gcc_failure_kills_the_drivers_children(db, artifacts, tmp_path, monkeypatch):
    """A failed build kills each sibling gcc's whole process group, not
    only the driver: the compiler processes a driver started die too."""
    pids = tmp_path / "children"
    fake = tmp_path / "bin" / "gcc"
    fake.parent.mkdir()
    fake.write_text(_FAKE_GCC.format(pids=pids))
    fake.chmod(0o755)
    monkeypatch.setenv("PATH", f"{fake.parent}{os.pathsep}{os.environ['PATH']}")
    cbackend.gcc_version.cache_clear()
    children: list[int] = []
    try:
        with pytest.raises(PlanError, match="deliberately broken"):
            LMFAO(db, _config(backend="c")).compile(example_queries())
        children = [int(pid) for pid in pids.read_text().split()]
        assert children
        deadline = time.monotonic() + 1.0
        while time.monotonic() < deadline and not all(map(_gone_or_zombie, children)):
            time.sleep(0.02)
        assert all(map(_gone_or_zombie, children)), children
    finally:
        for pid in children:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
        cbackend.gcc_version.cache_clear()


def test_gcc_children_stay_small(tmp_path):
    """gcc's peak RSS on a cold covariance batch, in a process of its own
    so ``RUSAGE_CHILDREN`` sees only these compiles: one register
    allocation region keeps ``cc1`` well under what per-loop regions
    reach on the large Inventory group (~700 MB)."""
    script = textwrap.dedent(
        """
        import resource, sys
        from repro import retailer, retailer_features
        from repro.core import EngineConfig, LMFAO, cbackend
        from repro.ml.covariance import covariance_batch

        cbackend.ARTIFACT_DIR = sys.argv[1]
        db = retailer(scale=0.05, seed=7)
        config = EngineConfig(backend="c", workers=1, partitions=1, executor="thread")
        LMFAO(db, config).compile(covariance_batch(retailer_features(db)))
        print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        """
    )
    source_root = Path(repro.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "artifacts")],
        env={**os.environ, "PYTHONPATH": str(source_root)},
        capture_output=True, text=True, check=True, timeout=300,
    )
    peak_mb = int(done.stdout.split()[-1]) / 1024  # ru_maxrss is in KiB
    assert len(list((tmp_path / "artifacts").glob("*.so"))) == 8
    assert peak_mb < 200, f"gcc peaked at {peak_mb:.0f} MB"


# ------------------------------------------------------------ candidate rule


def test_auto_builds_c_only_for_groups_that_reach_the_cut(artifacts):
    # Retailer at 0.3 keeps the benchmark's (scale 1.0) split: Weather x2
    # and Inventory reach the cut, the five others stay under it
    db = retailer(scale=0.3, seed=7)
    batch = covariance_batch(retailer_features(db))
    engine = LMFAO(db, EngineConfig(backend="auto", workers=1, partitions=1,
                                    executor="thread"))
    compiled = engine.compile(batch)
    candidates = [i for i, g in enumerate(compiled.executables) if g.backend == "c"]
    assert len(candidates) == 3
    assert len(_files(artifacts, "*.so")) == 3
    run = engine.execute(compiled)
    kinds = {a: db.schema.attribute_kind(a).value for a in db.schema.all_attributes}
    for index, plan in enumerate(compiled.plans):
        decision = run.decisions[compiled.group_plan.groups[index].name]
        # C is built exactly for the supported groups that reach the cut,
        # and runs wherever it was built; every other group runs NumPy
        worthwhile = costmodel.native_worthwhile(db.cardinality(plan.node))
        assert (index in candidates) == (worthwhile and supports_plan(plan, kinds))
        assert (decision["backend"] == "c") == (index in candidates)
        assert decision["backend"] in {"c", "numpy"}


def test_group_grown_past_the_cut_runs_numpy(db, expected, monkeypatch):
    engine = LMFAO(db, _config(backend="auto"))
    monkeypatch.setattr(costmodel, "SMALL_TRIE_ROWS", 10**9)
    compiled = engine.compile(example_queries())
    assert not any(g.backend == "c" for g in compiled.executables)
    monkeypatch.setattr(costmodel, "SMALL_TRIE_ROWS", 0)
    run = engine.execute(compiled)
    assert {d["backend"] for d in run.decisions.values()} == {"numpy"}
    for name, result in expected.items():
        assert_results_equal(run.results[name], result)  # NumPy sums reorder
