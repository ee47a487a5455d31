"""Fixtures and the paper-vs-measured report of the paper experiments.

Every experiment registers rows through the :func:`report` fixture; the
collected table is printed in the terminal summary and written to
``report_latest.md`` next to this file (ignored by git). One run of all
seven experiments::

    PYTHONPATH=src python -m pytest paper_experiments -q --benchmark-disable -o python_files='bench_*.py'

Drop ``--benchmark-disable`` for pytest-benchmark timings.
"""

from __future__ import annotations

import time
from pathlib import Path

import pytest

from repro.core import EngineConfig, LMFAO
from repro.data import favorita, retailer
from repro.paper import FAVORITA_TREE

#: default dataset scale for the experiments (seconds-scale runtimes)
BENCH_SCALE = 0.2

_REPORT_ROWS: list[tuple[str, str, str, str]] = []


@pytest.fixture(scope="session")
def report():
    """``report(experiment, metric, paper, measured)`` registers one row."""

    def register(experiment: str, metric: str, paper: str, measured: str) -> None:
        _REPORT_ROWS.append((experiment, metric, paper, measured))

    return register


@pytest.fixture()
def timed(benchmark):
    """``timed(fn, rounds)`` → ``(result, mean seconds)`` over the calls of
    ``fn`` that ``benchmark.pedantic`` actually made — one under
    ``--benchmark-disable``, ``rounds`` otherwise."""

    def run(fn, rounds: int):
        seconds: list[float] = []

        def call():
            start = time.perf_counter()
            result = fn()
            seconds.append(time.perf_counter() - start)
            return result

        result = benchmark.pedantic(call, rounds=rounds, iterations=1)
        return result, sum(seconds) / len(seconds)

    return run


@pytest.fixture(scope="session")
def favorita_bench():
    return favorita(scale=BENCH_SCALE, seed=101)


@pytest.fixture(scope="session")
def retailer_bench():
    return retailer(scale=BENCH_SCALE, seed=101)


@pytest.fixture(scope="session")
def favorita_engine_bench(favorita_bench):
    return LMFAO(favorita_bench, EngineConfig(join_tree_edges=FAVORITA_TREE))


@pytest.fixture(scope="session")
def retailer_engine_bench(retailer_bench):
    return LMFAO(retailer_bench)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _REPORT_ROWS:
        return
    widths = [
        max(len(row[i]) for row in _REPORT_ROWS + [_HEADER]) for i in range(4)
    ]
    lines = [_format_row(_HEADER, widths), _format_row(tuple("-" * w for w in widths), widths)]
    lines += [_format_row(row, widths) for row in _REPORT_ROWS]
    terminalreporter.write_line("")
    terminalreporter.write_line("paper-vs-measured report")
    for line in lines:
        terminalreporter.write_line(line)
    out = Path(__file__).parent / "report_latest.md"
    md = ["| experiment | metric | paper | measured |", "|---|---|---|---|"]
    md += [f"| {e} | {m} | {p} | {v} |" for e, m, p, v in _REPORT_ROWS]
    out.write_text("\n".join(md) + "\n")
    terminalreporter.write_line(f"(written to {out})")


_HEADER = ("experiment", "metric", "paper", "measured")


def _format_row(row: tuple[str, str, str, str], widths: list[int]) -> str:
    return "  ".join(cell.ljust(width) for cell, width in zip(row, widths))
