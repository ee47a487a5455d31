"""What every workload gives the harness."""

from __future__ import annotations

from dataclasses import dataclass, field

from benchkit.layers import RunCounters


def result_rows(results) -> dict[str, list]:
    """Query results in a form ``==`` compares bit-exactly, row order included."""
    return {name: list(result.groups.items()) for name, result in results.items()}


@dataclass
class Phase:
    """What one timed phase observed.

    ``latencies`` holds one wall-clock sample per end-to-end operation
    (seconds); ``ops`` over ``wall_s`` is the throughput. ``attempted``
    and ``failed`` count operations and the correctness checks made on
    them. ``counters`` is filled in the traced run only; it and the span
    totals are reported per ``layer_ops`` operations (``ops`` when None).
    """

    latencies: list[float] = field(default_factory=list)
    ops: int = 0
    wall_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    counters: RunCounters = field(default_factory=RunCounters)
    layer_ops: int | None = None
    layer: dict[str, float] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)


class Workload:
    """One traffic mix: inputs made from a seed, a program to set up, a loop to time.

    The harness calls ``setup`` (several times, each after ``teardown``,
    to time it), then ``run_phase`` once untraced — or, in the traced
    run, once untraced and once traced — then ``check`` and ``teardown``.
    ``probe_layers`` runs in the traced run only, after the timed phases.
    """

    name = ""
    #: what one ``latencies`` sample and one ``ops`` unit are, for the output
    latency_of = ""
    ops_of = ""

    def __init__(self, seed: int, smoke: bool) -> None:
        self.seed = seed
        self.smoke = smoke

    def setup(self, tracer) -> None:
        raise NotImplementedError

    def run_phase(self, seconds: float, tracer) -> Phase:
        raise NotImplementedError

    def check(self) -> tuple[int, int, list[str]]:
        """Final correctness checks: (made, failed, messages of the failed)."""
        raise NotImplementedError

    def probe_layers(self, tracer) -> dict[str, float]:
        return {}

    def notes(self) -> list[str]:
        """Caveats to print loudly with the result (a missing gcc)."""
        return []

    def teardown(self) -> None:
        raise NotImplementedError
