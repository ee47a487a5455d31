"""The benchmark keeps the contract ``BENCHMARK.json`` states.

Runs every workload at smoke size (tiny inputs, NumPy instead of gcc, half
a second timed), untraced and traced, each in a subprocess as the driver
would, and checks what comes out against ``BENCHMARK.json``. Nothing here
looks at how fast anything is.
"""

from __future__ import annotations

import importlib.util
import json
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
CONTRACT = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _smoke(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    return {"lines": lines[:-1], "result": json.loads(lines[-1])}


@pytest.fixture(scope="module")
def runs() -> dict:
    """Every (workload, trace) smoke run, two at a time."""
    keys = [(w, t) for w in WORKLOADS for t in (0, 1)]
    with ThreadPoolExecutor(max_workers=2) as pool:
        return dict(zip(keys, pool.map(lambda key: _smoke(*key), keys)))


def test_contract_file_shape():
    assert set(CONTRACT) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert CONTRACT["paths"] == ["bench"]
    assert 2 <= len(WORKLOADS) <= 8
    for workload in CONTRACT["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    names = WORKLOADS + [m["name"] for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"]]
    assert len(names) == len(set(names)), "a name is used twice"
    for name in names:
        assert NAME.fullmatch(name), name
    for metric in CONTRACT["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in CONTRACT["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in CONTRACT["end_to_end"] + CONTRACT["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    setup = [m for m in CONTRACT["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_declared_metric_is_emitted_with_its_unit(runs, trace, section):
    declared = {m["name"]: m["unit"] for m in CONTRACT[section]}
    for workload in WORKLOADS:
        result = runs[workload, trace]["result"]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0, runs[workload, trace]["lines"]
        assert isinstance(result["attempted"], int) and result["attempted"] >= 1
        emitted = {name: entry["unit"] for name, entry in result["metrics"].items()}
        assert emitted == declared, workload
        for entry in result["metrics"].values():
            assert isinstance(entry["value"], float)
        if trace == 0:
            assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_each_workload_exercises_its_layer(runs):
    def layer(workload, name):
        return runs[workload, 1]["result"]["metrics"][name]["value"]

    assert layer("covar_scan", "core.execute_s") > 0
    assert layer("covar_scan", "core.compiles_per_op") == 0
    assert layer("covar_scan", "core.mpexec_execute_s") > 0
    assert layer("tree_fit", "core.compiles_per_op") == 1
    assert layer("tree_fit", "ml.split_search_s") > 0
    assert 0 < layer("serve_fanin", "serve.plan_hit_rate") <= 1
    assert 0 < layer("serve_fanin", "serve.view_hit_rate") < 1
    assert layer("serve_fanin", "serve.queue_wait_s") > 0
    assert layer("write_mix", "serve.writes_per_commit") > 1
    assert layer("write_mix", "incremental.apply_s") > 0
    for workload in WORKLOADS:
        # self times telescope: they add up to the operations' own time
        assert layer(workload, "trace.self_sum_share") == pytest.approx(1.0, abs=0.1)
        assert (BENCH / "out" / f"trace-{workload}.json").is_file()


def test_summary_line_counts_operations(runs):
    for (workload, _trace), run in runs.items():
        summary = [line for line in run["lines"] if "operations attempted" in line]
        assert len(summary) == 1, workload
        assert re.search(r"attempted \d+  succeeded \d+  failed 0", summary[0])


def test_tail_percentile_needs_ten_samples_beyond_it():
    sys.path.insert(0, str(BENCH))
    try:
        from benchkit import stats
    finally:
        sys.path.remove(str(BENCH))
    assert stats.tail_percentile(99) is None
    assert stats.tail_percentile(100) == 90.0
    assert stats.tail_percentile(199) == 90.0
    assert stats.tail_percentile(200) == 95.0
    assert stats.tail_percentile(1000) == 99.0
    assert stats.tail_percentile(10000) == 99.9
    values = list(range(1, 201))
    summary = stats.summarize(values)
    assert summary["count"] == 200 and summary["tail_p"] == 95.0
    assert summary["tail"] == 190 and sum(v > summary["tail"] for v in values) == 10
    assert stats.summarize(values[:50])["tail"] is None


def test_missing_source_exits_without_a_result(tmp_path):
    """In a directory with only BENCHMARK.json and bench/, the run must fail."""
    import shutil

    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


# ------------------------------------------------------------------- compare.py
def _report(values: dict, failed: int = 0) -> dict:
    """A result file with one untraced run per listed value of latency_s."""
    runs = []
    for workload, series in values.items():
        for value in series:
            metrics = {
                m["name"]: {"value": 1.0, "unit": m["unit"]} for m in CONTRACT["end_to_end"]
            }
            metrics["latency_s"]["value"] = value
            runs.append({"workload": workload, "traced": False, "attempted": 100,
                         "failed": failed, "metrics": metrics})
    return {"runs": runs}


def _latency_rows(compare, a: dict, b: dict, failed_b: int = 0):
    rows, reasons = compare.compare(_report(a), _report(b, failed_b), CONTRACT)
    return {r["workload"]: r["verdict"] for r in rows if r["metric"] == "latency_s"}, reasons


def test_compare_verdicts():
    compare = _load("compare")
    bound = next(m["bound"] for m in CONTRACT["end_to_end"] if m["name"] == "latency_s")
    steady = {w: [1.0, 1.01, 0.99, 1.0] for w in WORKLOADS}

    verdicts, reasons = _latency_rows(compare, steady, steady)
    assert set(verdicts.values()) == {"unchanged"} and not reasons

    worse = dict(steady, covar_scan=[v * (1 + 2 * bound) for v in steady["covar_scan"]])
    verdicts, reasons = _latency_rows(compare, steady, worse)
    assert verdicts["covar_scan"] == "regressed" and verdicts["tree_fit"] == "unchanged"
    assert any("covar_scan" in r and "regressed" in r for r in reasons)

    better = dict(steady, tree_fit=[v * 0.8 for v in steady["tree_fit"]])
    verdicts, reasons = _latency_rows(compare, steady, better)
    assert verdicts["tree_fit"] == "improved" and not reasons

    noisy = dict(steady, write_mix=[1.0, 1.0 + 3 * bound, 1.0 - 2 * bound, 1.0])
    verdicts, reasons = _latency_rows(compare, steady, noisy)
    assert verdicts["write_mix"] == "unresolved" and not reasons

    # ops_per_s is better when higher: a drop is the regression
    report_b = _report(steady)
    for run in report_b["runs"]:
        run["metrics"]["ops_per_s"]["value"] = 0.5
    rows, reasons = compare.compare(_report(steady), report_b, CONTRACT)
    assert {r["verdict"] for r in rows if r["metric"] == "ops_per_s"} == {"regressed"}

    _verdicts, reasons = _latency_rows(compare, steady, steady, failed_b=1)
    assert reasons and all("failed_share" in r for r in reasons)


def test_compare_exit_code(tmp_path):
    compare = _load("compare")
    steady = {w: [1.0, 1.0] for w in WORKLOADS}
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(_report(steady)))
    b.write_text(json.dumps(_report({w: [2.0, 2.0] for w in WORKLOADS})))
    assert compare.main([str(a), str(a)]) == 0
    assert compare.main([str(a), str(b)]) == 1
