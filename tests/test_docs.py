"""Project documentation: content coverage, live docstring examples, and
link integrity (the CI docs leg runs exactly this module)."""

import doctest
import re
import subprocess
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]

def _doc_files():
    return [_ROOT / "README.md", *sorted((_ROOT / "docs").glob("*.md"))]


def test_readme_is_substantial():
    readme = _ROOT / "README.md"
    assert readme.is_file()
    text = readme.read_text()
    assert len(text) >= 2000
    for required in ("Quickstart", "incremental", "backend", "pytest"):
        assert required.lower() in text.lower(), required


def test_architecture_doc_maps_paper_and_delta_flow():
    doc = _ROOT / "docs" / "architecture.md"
    assert doc.is_file()
    text = doc.read_text()
    for required in (
        "viewgen",
        "Figure 2",
        "Figure 3",
        "incremental",
        "delta",
        "cutoff",
    ):
        assert required.lower() in text.lower(), required


def test_readme_mentions_every_example():
    text = (_ROOT / "README.md").read_text() + (
        _ROOT / "docs" / "architecture.md"
    ).read_text()
    assert "incremental_updates.py" in text
    assert "quickstart.py" in text


def test_ci_workflow_runs_tier1():
    workflow = _ROOT / ".github" / "workflows" / "ci.yml"
    assert workflow.is_file()
    text = workflow.read_text()
    assert "python -m pytest -x -q" in text
    assert "README.md" in text
    # the byte-identity digests are checked under more than one hash seed
    assert "for seed in 0 1" in text and "PYTHONHASHSEED=$seed" in text
    assert "tests/core/test_source_identity.py" in text


def test_docs_cover_parallel_execution():
    arch = (_ROOT / "docs" / "architecture.md").read_text()
    for required in (
        "Parallel execution",
        "task",
        "domain",
        "partitions",
        "merge",
        "bit-exact",
    ):
        assert required.lower() in arch.lower(), required
    readme = (_ROOT / "README.md").read_text()
    for required in ("workers", "partitions", "parallel_threshold"):
        assert required in readme, required


def test_ci_has_parallel_leg_and_bench_artifact():
    """The parallel leg re-runs the suite under parallel defaults; the
    benchmark of record is ``bench/``, so CI uploads no bench artifact."""
    text = (_ROOT / ".github" / "workflows" / "ci.yml").read_text()
    assert "tests-parallel:" in text
    assert "LMFAO_TEST_WORKERS" in text
    assert "LMFAO_TEST_PARTITIONS" in text
    assert "upload-artifact" not in text


def test_ci_runs_every_static_backend_as_the_default():
    """Tier-1 runs the default NumPy backend; a leg per other static
    backend re-runs the whole suite with it as the default."""
    text = (_ROOT / ".github" / "workflows" / "ci.yml").read_text()
    for backend in ("numpy", "python", "c"):
        leg = text[text.index(f"\n  tests-{backend}:\n") + 1:]
        leg = leg[:re.search(r"\n  [\w-]+:\n", leg).start()]
        assert f'LMFAO_TEST_BACKEND: "{backend}"' in leg, backend
        assert 'LMFAO_DEBUG: "1"' in leg, backend


# ------------------------------------------------------------- serving docs
def test_serving_doc_specifies_the_three_contracts():
    doc = _ROOT / "docs" / "serving.md"
    assert doc.is_file()
    text = doc.read_text()
    for required in (
        "Plan-cache keying rules",
        "placeholder",
        "Snapshot lifecycle",
        "install",
        "Concurrency contract",
        "coalesc",          # coalesce/coalescing
        "Worked example",
        "snapshot_version",
        "bit-exact",
    ):
        assert required.lower() in text.lower(), required


def test_serving_doc_is_linked_from_readme_and_architecture():
    assert "docs/serving.md" in (_ROOT / "README.md").read_text()
    assert "serving.md" in (_ROOT / "docs" / "architecture.md").read_text()


def test_architecture_has_the_five_layer_stack():
    text = (_ROOT / "docs" / "architecture.md").read_text()
    for required in (
        "VIEW GENERATION",
        "GROUPS & ORDERS",
        "DECOMPOSITION",
        "CODE GENERATION",
        "SERVING",
        "INCREMENTAL MAINTENANCE",
        "numpy",
        "plan cache",
        "snapshot",
    ):
        assert required.lower() in text.lower(), required


def test_readme_mentions_serving_example():
    assert "serving_concurrent.py" in (_ROOT / "README.md").read_text()


def test_ci_has_docs_leg_and_serving_bench():
    """The docs leg runs this module; the serving suites run in the
    view-cache leg, both ways."""
    text = (_ROOT / ".github" / "workflows" / "ci.yml").read_text()
    assert "tests/test_docs.py" in text
    assert "test -s docs/serving.md" in text
    assert "LMFAO_TEST_VIEWCACHE=1" in text
    assert "LMFAO_TEST_VIEWCACHE=0" in text
    assert "tests/serve" in text


def test_ci_writes_leg_covers_both_writers():
    """Queued and direct writes share one commit path, so the debug write
    leg runs the queue's suites and the direct handle's suite, plus the
    guard that keeps the path single."""
    text = (_ROOT / ".github" / "workflows" / "ci.yml").read_text()
    leg = text[text.index("  tests-writes:"):]
    leg = leg[:leg.index("\n  tests-", 1)]
    assert 'LMFAO_DEBUG: "1"' in leg
    for suite in (
        "tests/serve/test_writequeue.py",
        "tests/incremental/test_maintain.py",
        "tests/core/test_execution_seam.py",
    ):
        assert suite in leg, suite


#: names of the view cache's retired delta maintainer and of the retired
#: plan-cache wrapper: a commit carries cached views or drops them, and the
#: plan cache is a plain ``LRUCache``
_RETIRED_CACHE_NAMES = (
    "ViewUpdater",
    "delta_footprint",
    "view_store",
    "_numeric_refresh",
    "_republish_handle_views",
    "PlanCache",
    "PlanBinding",
)


def test_docs_name_no_retired_cache_machinery():
    for doc in _doc_files():
        text = doc.read_text()
        for name in _RETIRED_CACHE_NAMES:
            assert name not in text, f"{doc.name} names {name}"


#: the run-time backend selection that compile-time executables replaced
_RETIRED_BACKEND_NAMES = (
    "select_executable",
    "choose_backend",
    "_select_native",
    "native_group_count",
    "GeneratedPython",
)


def test_docs_name_no_retired_backend_selection():
    for doc in _doc_files():
        text = doc.read_text()
        for name in _RETIRED_BACKEND_NAMES:
            assert name not in text, f"{doc.name} names {name}"


#: the retired second benchmark system: its directory, its JSON records and
#: its strictness switch (``.benchmarks/``, pytest-benchmark's store, is not it)
_RETIRED_BENCH = re.compile(
    r"(?<![\w.])benchmarks/|BENCH_(?:parallel|serving|writes)\.json"
    r"|LMFAO_BENCH_STRICT"
)


def test_one_performance_record():
    """``bench/`` is the one performance record and CI runs the paper
    experiments. No tracked file names the retired benchmark system, except
    ``bench/``, the top-level notes other than README.md (history, roadmap,
    reference material) and this module, which names what it forbids."""
    listed = subprocess.run(
        ["git", "ls-files"], cwd=_ROOT, capture_output=True, text=True
    )
    if listed.returncode != 0:
        pytest.skip("not a git checkout")
    offenders = []
    for name in listed.stdout.splitlines():
        path = _ROOT / name
        top_level_note = "/" not in name and name.endswith(".md")
        if (
            name.startswith("bench/")
            or (top_level_note and name != "README.md")
            or path == Path(__file__).resolve()
            or not path.is_file()
        ):
            continue
        text = path.read_text()
        offenders += [f"{name}: {m.group()}" for m in _RETIRED_BENCH.finditer(text)]
    assert not offenders, offenders
    ci = (_ROOT / ".github" / "workflows" / "ci.yml").read_text()
    assert "python -m pytest paper_experiments" in ci


# ------------------------------------------------- docstring examples (live)
def test_docstring_examples_execute():
    """The Examples sections of the audited core/serve docstrings run.

    ``EngineConfig`` (validation rules) and ``AggregateServer`` (cache
    hits, async submission) carry doctests; executing them here keeps
    the documented behaviour honest — a drifting error message or stats
    counter fails the docs leg, not a user.
    """
    import repro.core.engine
    import repro.serve.server

    for module in (repro.core.engine, repro.serve.server):
        result = doctest.testmod(
            module, optionflags=doctest.ELLIPSIS, verbose=False
        )
        assert result.attempted > 0, f"{module.__name__}: no doctests found"
        assert result.failed == 0, (
            f"{module.__name__}: {result.failed} doctest(s) failed"
        )


# ------------------------------------------------------------ link integrity
_MD_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_CODE_PATH = re.compile(r"`([A-Za-z0-9_][A-Za-z0-9_./-]*\.(?:py|md|yml|json))`")


def _anchor_slugs(text: str) -> set:
    """GitHub-style anchor slugs of every heading in a markdown file."""
    slugs = set()
    for heading in re.findall(r"^#+\s+(.*)$", text, re.MULTILINE):
        slug = re.sub(r"[`*_~]", "", heading.strip().lower())
        slug = re.sub(r"[^\w\- ]", "", slug)
        slugs.add(slug.replace(" ", "-"))
    return slugs


def test_no_dangling_markdown_links_or_anchors():
    """Every relative markdown link resolves to a real file, and every
    ``#anchor`` into a markdown file matches one of its headings."""
    for doc in _doc_files():
        text = doc.read_text()
        for target in _MD_LINK.findall(text):
            if target.startswith(("http://", "https://", "mailto:", "#")):
                if target.startswith("#"):
                    assert target[1:] in _anchor_slugs(text), (
                        f"{doc.name}: dangling anchor {target}"
                    )
                continue
            path_part, _, anchor = target.partition("#")
            resolved = (doc.parent / path_part).resolve()
            assert resolved.exists(), f"{doc.name}: dangling link {target}"
            if anchor and resolved.suffix == ".md":
                assert anchor in _anchor_slugs(resolved.read_text()), (
                    f"{doc.name}: dangling anchor {target}"
                )


def test_no_dangling_file_references():
    """Backticked file paths in the docs point at files that exist (in the
    repo root, under src/, under src/repro/, or next to the doc) — stale
    references to renamed modules fail here. Bare filenames without a
    directory (e.g. `engine.py` inside a module-map table row) are
    contextual and skipped."""
    roots = [_ROOT, _ROOT / "src", _ROOT / "src" / "repro"]
    for doc in _doc_files():
        for ref in _CODE_PATH.findall(doc.read_text()):
            if "/" not in ref:
                continue
            candidates = [root / ref for root in [*roots, doc.parent]]
            assert any(c.exists() for c in candidates), (
                f"{doc.name}: reference to missing file `{ref}`"
            )
