#!/usr/bin/env python3
"""The benchmark of record: four workloads, end-to-end and per-layer metrics.

One measured run (what the driver calls)::

    python3 bench/run.py --workload covar_scan --seed 11 --seconds 10 --trace 0

prints readable lines and, as the last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` — every end-to-end
metric of ``BENCHMARK.json`` with ``--trace 0``, every per-layer metric
with ``--trace 1`` (which also writes ``bench/out/trace-<workload>.json``).

Without ``--workload`` it runs every workload, each run in its own
subprocess, untraced and then traced, and prints one table::

    python3 bench/run.py [--runs 10] [--out A.json]

``--out`` keeps the results for ``bench/compare.py``. See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import atexit
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO = BENCH_DIR.parent


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this one workload in this process")
    parser.add_argument("--seed", type=int, default=11,
                        help="inputs are made from it; the same seed gives the same inputs")
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the timed phase (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics; 1: traced run, per-layer metrics")
    parser.add_argument("--runs", type=int, default=1,
                        help="all-workloads mode: untraced runs per workload, seeds seed..seed+runs-1")
    parser.add_argument("--out", type=Path, default=None,
                        help="write the results here as JSON (input of bench/compare.py)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, NumPy backend instead of gcc, one set-up: wiring only")
    return parser.parse_args(argv)


def isolate_environment() -> None:
    """The program runs at its shipped defaults and writes inside the checkout.

    ``LMFAO_*`` variables rewrite engine defaults and cost-model choices.
    Temporary files (the C backend's build directories, gcc's own, the
    fork server's socket) go to a directory of this process under
    ``bench/out``. Its removal is registered before multiprocessing is
    imported, so it runs after multiprocessing's own exit handlers.
    """
    for name in [n for n in os.environ if n.startswith("LMFAO_")]:
        del os.environ[name]
    tmp = BENCH_DIR / "out" / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    atexit.register(shutil.rmtree, tmp, ignore_errors=True)


def run_one(args, contract: dict) -> int:
    """One workload, in this process; the result object is the last line printed."""
    isolate_environment()
    from benchkit import harness

    names = [w["name"] for w in contract["workloads"]]
    if args.workload not in names:
        print(f"unknown workload {args.workload!r}; BENCHMARK.json has {names}",
              file=sys.stderr)
        return 2
    lines, result = harness.run_workload(
        contract, args.workload, args.seed, args.seconds,
        trace=bool(args.trace), smoke=args.smoke,
    )
    if args.out is not None:
        runs = [_kept(args, args.workload, args.seed, args.trace, result)]
        _write_report(args.out, harness.environment(), runs)
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


def _kept(args, workload: str, seed: int, trace, result: dict) -> dict:
    """One run as ``--out`` keeps it."""
    return {"workload": workload, "seed": seed, "seconds": args.seconds,
            "traced": bool(trace), "smoke": args.smoke, **result}


def _write_report(path: Path, environment: dict, runs: list[dict]) -> None:
    path.write_text(json.dumps({"environment": environment, "runs": runs}, indent=2) + "\n")


def run_all(args, contract: dict) -> int:
    """Every workload, each run in a subprocess of its own; one table at the end."""
    from benchkit import harness

    environment = harness.environment()
    print("environment")
    for key, value in environment.items():
        print(f"  {key}: {value}")
    if environment["gcc"] == "absent":
        print("  NO GCC: covar_scan falls back to numpy/python; not comparable")

    traces = [0, 1] if args.trace is None else [args.trace]
    runs = []
    for workload in (w["name"] for w in contract["workloads"]):
        for trace in traces:
            seeds = range(args.seed, args.seed + (1 if trace else args.runs))
            for seed in seeds:
                command = [
                    sys.executable, str(BENCH_DIR / "run.py"),
                    "--workload", workload, "--seed", str(seed),
                    "--seconds", str(args.seconds), "--trace", str(trace),
                ] + (["--smoke"] if args.smoke else [])
                done = subprocess.run(command, capture_output=True, text=True, timeout=900)
                lines = done.stdout.splitlines()
                print("\n".join(lines[:-1]))
                if done.returncode != 0 or not lines:
                    print(f"  FAILED run exited with {done.returncode}\n{done.stderr}")
                    result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
                else:
                    result = json.loads(lines[-1])
                runs.append(_kept(args, workload, seed, trace, result))

    print("\nsummary")
    for run in runs:
        values = "  ".join(
            f"{name} {entry['value']:.6g} {entry['unit']}"
            for name, entry in run["metrics"].items()
            if not run["traced"]
        )
        print(f"  {run['workload']:<12} seed {run['seed']:<4} "
              f"{'traced  ' if run['traced'] else 'untraced'} "
              f"attempted {run['attempted']} succeeded {run['attempted'] - run['failed']} "
              f"failed {run['failed']}  {values}")
    if args.out is not None:
        _write_report(args.out, environment, runs)
        print(f"written to {args.out}")
    return 0 if all(run["correct"] for run in runs) else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    # the program under test is built from the checkout's own source
    if not (REPO / "src" / "repro").is_dir() or not (REPO / "BENCHMARK.json").is_file():
        print("bench/run.py needs src/repro and BENCHMARK.json beside bench/",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(REPO / "src"))
    contract = json.loads((REPO / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = float(contract["run_seconds"])
    if args.workload is not None:
        return run_one(args, contract)
    return run_all(args, contract)


if __name__ == "__main__":
    sys.exit(main())
