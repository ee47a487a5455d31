"""One measured run of one workload: set-up, timed phase, checks, result."""

from __future__ import annotations

import functools
import json
import multiprocessing
import os
import platform
import resource
import subprocess
import threading
import time
from pathlib import Path

from benchkit import stats
from benchkit.trace import Tracer, self_times

BENCH_DIR = Path(__file__).resolve().parent.parent
REPO = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

#: set-ups timed per untraced run; ``setup_s`` is their median
SETUP_REPEATS = 3

#: share of a traced run's seconds spent untraced, half before and half
#: after the traced phase, as the baseline the tracing overhead is measured
#: against (both sides, because caches keep warming while a workload runs)
_TRACE_BASELINE_SHARE = 0.3

#: spans of the set-up whose total time is a per-layer metric (per set-up)
_SETUP_SPANS = {
    "data.generate": "data.generate_s",
    "setup.compile": "setup.compile_s",
    "setup.warmup": "setup.warmup_s",
}

#: spans inside operations whose total time is a per-layer metric (per operation)
_OPERATION_SPANS = {
    "query.build": "query.build_s",
    "serve.submit": "serve.submit_s",
    "ml.assemble": "ml.assemble_s",
}


def workload_class(name: str):
    # imported here: the workload modules import the program under test
    from benchkit.workloads.covar_scan import CovarScan
    from benchkit.workloads.serve_fanin import ServeFanin
    from benchkit.workloads.tree_fit import TreeFit
    from benchkit.workloads.write_mix import WriteMix

    classes = {c.name: c for c in (CovarScan, TreeFit, ServeFanin, WriteMix)}
    return classes[name]


# ------------------------------------------------------------------ environment
def _version_line(command: list[str]) -> str:
    try:
        done = subprocess.run(command, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "absent"
    lines = done.stdout.splitlines()
    return lines[0].strip() if done.returncode == 0 and lines else "absent"


@functools.cache
def environment() -> dict:
    """Where the numbers were taken; printed with every result."""
    import numpy

    methods = multiprocessing.get_all_start_methods()
    return {
        "git_sha": _version_line(["git", "-C", str(REPO), "rev-parse", "HEAD"]),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "gcc": _version_line(["gcc", "--version"]),
        "platform": platform.platform(),
        # what executor="process" engines use (the traced covar_scan probe)
        "start_method": "forkserver" if "forkserver" in methods else "spawn",
    }


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # Linux reports KiB


def residue() -> list[str]:
    """What a finished workload must not leave behind: threads, shm segments."""
    from repro.core import mpexec

    left = []
    deadline = time.monotonic() + 5.0
    while True:
        threads = [t for t in threading.enumerate() if t is not threading.main_thread()]
        if not threads or time.monotonic() > deadline:
            break
        time.sleep(0.05)
    left += [f"thread {t.name} still alive" for t in threads]
    left += [f"shm segment {name} not unlinked" for name in mpexec.active_segment_names()]
    prefix = f"{mpexec.SEGMENT_PREFIX}{os.getpid():x}_"
    shm = Path("/dev/shm")
    if shm.is_dir():
        left += [f"/dev/shm/{p.name} left" for p in shm.iterdir() if p.name.startswith(prefix)]
    return left


def stop_helper_processes() -> None:
    """End multiprocessing's helper processes and wait for them.

    ``executor="process"`` engines start a fork server and a resource
    tracker that normally outlive ``engine.close()`` until interpreter
    exit; the benchmark must have stopped every process it started.
    """
    from multiprocessing import forkserver, resource_tracker

    server = forkserver._forkserver
    if getattr(server, "_forkserver_pid", None) is not None:
        server._stop()
    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()


# -------------------------------------------------------------------- the run
def run_workload(
    contract: dict, name: str, seed: int, seconds: float, trace: bool, smoke: bool
) -> tuple[list[str], dict]:
    """Set up, measure and check one workload.

    Returns the readable lines and the result object the contract asks for.
    """
    workload = workload_class(name)(seed, smoke)
    tracer = Tracer(trace)
    null = Tracer(False)
    setups: list[float] = []
    untraced: list[float] = []
    traced_from = 0.0
    layer: dict[str, float] = {}

    try:
        for repeat in range(1 if trace or smoke else SETUP_REPEATS):
            if repeat:
                workload.teardown()
            start = time.perf_counter()
            with tracer.span("setup"):
                workload.setup(tracer)
            setups.append(time.perf_counter() - start)

        if trace:
            slice_s = seconds * _TRACE_BASELINE_SHARE / 2.0
            before = workload.run_phase(slice_s, null)
            traced_from = time.perf_counter()
            phase = workload.run_phase(seconds - 2.0 * slice_s, tracer)
            after = workload.run_phase(slice_s, null)
            phases = [before, phase, after]
            untraced = before.latencies + after.latencies
        else:
            phase = workload.run_phase(seconds, null)
            phases = [phase]

        checks, check_failed, failures = workload.check()
        if trace:
            layer.update(phase.counters.per_op(phase.layer_ops or phase.ops))
            layer.update(phase.layer)
            layer.update(workload.probe_layers(tracer))
        notes = workload.notes() + [n for p in phases for n in p.notes]
    finally:
        workload.teardown()
    stop_helper_processes()
    left = residue()
    failures += left

    attempted = sum(p.attempted for p in phases) + checks + 1  # +1: the residue check
    failed = sum(p.failed for p in phases) + check_failed + bool(left)
    latency = stats.summarize(phase.latencies)
    end_to_end = {
        "latency_s": latency["median"],
        "ops_per_s": phase.ops / phase.wall_s,
        "setup_s": stats.median(setups),
        "peak_rss_mb": peak_rss_mb(),
    }

    lines = [
        f"workload {name}  seed {seed}  seconds {seconds}  "
        f"{'traced' if trace else 'untraced'}{'  SMOKE' if smoke else ''}",
        f"  environment {json.dumps(environment())}",
        f"  latency_s is {workload.latency_of}",
        f"  ops_per_s counts {workload.ops_of}",
    ]
    lines += [f"  NOTE {note}" for note in notes]
    tail = ("" if latency["tail_p"] is None
            else f"  latency_s.tail p{latency['tail_p']:g} {latency['tail']:.6f} s")
    lines += [
        f"  latency_s median {latency['median']:.6f} s over {latency['count']} samples{tail}",
        f"  ops_per_s {end_to_end['ops_per_s']:.3f} 1/s ({phase.ops} in {phase.wall_s:.3f} s)",
        f"  setup_s median {end_to_end['setup_s']:.4f} s of {[round(s, 4) for s in setups]}",
        f"  peak_rss_mb {end_to_end['peak_rss_mb']:.1f} MB",
    ]

    if trace:
        by_name = self_times(tracer.spans)
        lines.append("  span                      count      total_s       self_s")
        lines += [
            f"  {span:<24} {entry['count']:>6} {entry['total_s']:>12.6f} {entry['self_s']:>12.6f}"
            for span, entry in sorted(by_name.items())
        ]
        # a probe that measured a value directly takes precedence over span sums
        layer = {**_trace_metrics(tracer, by_name, traced_from, untraced, phase), **layer}
        metrics = _declared(contract["per_layer"], layer)
        header = {"workload": name, "seed": seed, "environment": environment(),
                  "per_layer": {k: v["value"] for k, v in metrics.items()},
                  "self_times": by_name}
        tracer.dump(OUT_DIR / f"trace-{name}.json", header)
        lines += [f"  {k} {v['value']:.6g} {v['unit']}" for k, v in metrics.items()]
    else:
        metrics = _declared(contract["end_to_end"], end_to_end)

    lines += [f"  FAILED {message}" for message in failures]
    lines.append(f"  operations attempted {attempted}  succeeded {attempted - failed}  "
                 f"failed {failed}  failed_share {failed / attempted:.6f}")
    return lines, {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def _declared(declared: list[dict], values: dict) -> dict:
    """``values`` laid out as the contract's metric list (absent ones are 0)."""
    unknown = set(values) - {m["name"] for m in declared}
    if unknown:
        raise KeyError(f"metrics not declared in BENCHMARK.json: {sorted(unknown)}")
    return {
        m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in declared
    }


def _trace_metrics(
    tracer: Tracer, by_name: dict, traced_from: float, untraced: list[float], phase
) -> dict:
    """What the spans themselves say: set-up split, per-operation span time, overhead.

    Operations are the ``op`` / ``request`` spans of the traced phase (the
    set-up's warm-up operations are left out) with everything below them.
    """
    roots = {
        s[0]: s[4] - s[3]
        for s in tracer.spans
        if s[2] in ("op", "request") and s[3] >= traced_from
    }
    parent_of = {s[0]: s[1] for s in tracer.spans}

    def under_operation(span_id) -> bool:
        while span_id is not None:
            if span_id in roots:
                return True
            span_id = parent_of.get(span_id)
        return False

    inside = self_times([s for s in tracer.spans if under_operation(s[0])])
    operation_s = sum(roots.values())
    self_sum = sum(entry["self_s"] for entry in inside.values())
    ops = max(1, phase.layer_ops or phase.ops)
    traced, baseline = stats.median(phase.latencies), stats.median(untraced)
    out = {
        "trace.spans": len(tracer.spans),
        "trace.latency_s": traced,
        "trace.overhead_share": (traced - baseline) / baseline,
        "trace.self_sum_share": self_sum / operation_s if operation_s else 0.0,
    }
    for span, metric in _SETUP_SPANS.items():
        if span in by_name:
            out[metric] = by_name[span]["total_s"]
    for span, metric in _OPERATION_SPANS.items():
        if span in inside:
            out[metric] = inside[span]["total_s"] / ops
    return out
