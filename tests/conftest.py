"""Shared fixtures: small deterministic databases and engines.

The CI parallel leg re-runs the whole suite with task + domain parallelism
as the *default* engine configuration by exporting::

    LMFAO_TEST_WORKERS=4 LMFAO_TEST_PARTITIONS=4 LMFAO_TEST_PARALLEL_THRESHOLD=0

the backend legs pick the default backend (NumPy unless rewritten) with
one of::

    LMFAO_TEST_BACKEND=numpy   # the shipped default, under forced partitions
    LMFAO_TEST_BACKEND=python  # generated Python over every base trie
    LMFAO_TEST_BACKEND=c       # generated C (float keys fall back to NumPy)

and the multiprocess leg routes domain parallelism to worker processes
with::

    LMFAO_TEST_EXECUTOR=process

Those variables rewrite the corresponding :class:`EngineConfig` defaults
below, so every test that does not pin its own execution knobs exercises
the parallel scheduler, the partition merge path and/or the chosen
backend. Tests that construct explicit configs (including the
differential grids, which pin ``backend="python"`` baselines) are
unaffected.

The view-cache leg re-runs the serving + incremental suites with the
materialized-view cache forced on or off::

    LMFAO_TEST_VIEWCACHE=1   # force on at the default 32 MiB budget
    LMFAO_TEST_VIEWCACHE=0   # force off (every server runs cache-less)
    LMFAO_TEST_VIEWCACHE=65536  # force on with a 64 KiB byte budget

which rewrites the ``view_cache_bytes`` keyword-only default of
:class:`AggregateServer`; servers constructed with an explicit
``view_cache_bytes`` are unaffected. Unset leaves the shipped default
(cache on).
"""

from __future__ import annotations

import dataclasses
import os

import pytest

from repro.core import EngineConfig, LMFAO
from repro.data import favorita, retailer
from repro.paper import FAVORITA_TREE

def _override_engine_defaults() -> None:
    int_overrides = {
        "workers": os.environ.get("LMFAO_TEST_WORKERS"),
        "partitions": os.environ.get("LMFAO_TEST_PARTITIONS"),
        "parallel_threshold": os.environ.get("LMFAO_TEST_PARALLEL_THRESHOLD"),
    }
    overrides: dict[str, object] = {
        name: int(v) for name, v in int_overrides.items() if v is not None
    }
    backend = os.environ.get("LMFAO_TEST_BACKEND")
    if backend:
        overrides["backend"] = backend
    executor = os.environ.get("LMFAO_TEST_EXECUTOR")
    if executor:
        overrides["executor"] = executor
    if not overrides:
        return
    names = [f.name for f in dataclasses.fields(EngineConfig)]
    defaults = list(EngineConfig.__init__.__defaults__)
    for name, value in overrides.items():
        defaults[names.index(name)] = value
    EngineConfig.__init__.__defaults__ = tuple(defaults)


_override_engine_defaults()


def _override_view_cache_default() -> None:
    raw = os.environ.get("LMFAO_TEST_VIEWCACHE")
    if raw is None:
        return
    from repro.serve.server import AggregateServer

    if raw in {"0", "off", "false", ""}:
        value = 0
    elif raw in {"1", "on", "true"}:
        value = AggregateServer.__init__.__kwdefaults__["view_cache_bytes"]
    else:
        value = int(raw)
    # view_cache_bytes is keyword-only, so its default lives in
    # __kwdefaults__, not __defaults__.
    AggregateServer.__init__.__kwdefaults__["view_cache_bytes"] = value


_override_view_cache_default()


@pytest.fixture(scope="session", autouse=True)
def _hermetic_c_artifacts(tmp_path_factory):
    """Keep the session's compiled C groups in a directory of its own.

    Points :data:`repro.core.cbackend.ARTIFACT_DIR` (and, through the
    warm-up payload, every worker process) at a session temporary
    directory, so no run reads or fills the per-user artifact cache.
    Repeat compiles of one group within the session are hits. At exit
    the directory must hold no ``*.tmp`` partial and stay within
    :data:`~repro.core.cbackend.ARTIFACT_BYTES`.
    """
    from repro.core import cbackend

    directory = tmp_path_factory.mktemp("lmfao-c") / "artifacts"
    saved = cbackend.ARTIFACT_DIR
    cbackend.ARTIFACT_DIR = directory
    yield directory
    cbackend.ARTIFACT_DIR = saved
    if directory.is_dir():
        partials = sorted(p.name for p in directory.glob("*.tmp"))
        assert not partials, f"partial C artifacts left behind: {partials}"
        size = sum(p.stat().st_size for p in directory.glob("*.so"))
        assert size <= cbackend.ARTIFACT_BYTES, (
            f"C artifact directory holds {size} bytes, over its bound"
        )


@pytest.fixture(scope="session", autouse=True)
def _no_shared_memory_leaks():
    """Fail the session if any shared-memory segment outlives its engine.

    The multiprocess executor (:mod:`repro.core.mpexec`) names every
    segment it creates with the ``lmfao_`` prefix and tracks them in a
    process-wide registry until unlinked. After the whole suite has run
    (and engines have been closed or garbage-collected), both the
    registry and the kernel's shm namespace must be free of this
    process's segments — a stray entry is a lifecycle bug, not noise.
    """
    import glob

    shm_dir = "/dev/shm"
    baseline = (
        set(glob.glob(os.path.join(shm_dir, "lmfao_*")))
        if os.path.isdir(shm_dir)
        else set()
    )
    yield
    import gc

    from repro.core import mpexec

    gc.collect()
    leaked = mpexec.active_segment_names()
    assert leaked == [], f"leaked shared-memory segments: {leaked}"
    from repro.serve.viewcache import live_caches

    for cache in live_caches():
        cache.check_no_orphans()
    if os.path.isdir(shm_dir):
        stray = set(glob.glob(os.path.join(shm_dir, "lmfao_*"))) - baseline
        assert not stray, f"stray /dev/shm segments after the suite: {stray}"


@pytest.fixture(scope="session")
def favorita_db():
    """A small Favorita instance (deterministic)."""
    return favorita(scale=0.05, seed=7)


@pytest.fixture(scope="session")
def retailer_db():
    """A small Retailer instance (deterministic)."""
    return retailer(scale=0.05, seed=7)


@pytest.fixture(scope="session")
def favorita_join(favorita_db):
    """The materialised join of the small Favorita instance."""
    return favorita_db.materialize_join()


@pytest.fixture()
def favorita_engine(favorita_db):
    """An engine over Favorita pinned to the paper's join tree."""
    return LMFAO(favorita_db, EngineConfig(join_tree_edges=FAVORITA_TREE))


@pytest.fixture()
def retailer_engine(retailer_db):
    return LMFAO(retailer_db)
