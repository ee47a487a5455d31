"""The engine's and the server's timing helper: named wall-clock laps."""

from __future__ import annotations

import time


class Stopwatch:
    """Accumulates named wall-clock laps.

    The engine uses one stopwatch per run to report per-phase timings
    (view generation, grouping, code generation, execution), mirroring the
    timings surfaced by the LMFAO demonstration UI.
    """

    def __init__(self) -> None:
        self._laps: dict[str, float] = {}

    def lap(self, name: str) -> "_Lap":
        """Return a context manager that adds its duration under ``name``."""
        return _Lap(self, name)

    def add(self, name: str, seconds: float) -> None:
        """Add ``seconds`` to the accumulated time for ``name``."""
        self._laps[name] = self._laps.get(name, 0.0) + seconds

    @property
    def laps(self) -> dict[str, float]:
        """A copy of the accumulated lap times, keyed by lap name."""
        return dict(self._laps)


class _Lap:
    def __init__(self, watch: Stopwatch, name: str) -> None:
        self._watch = watch
        self._name = name
        self._start = 0.0

    def __enter__(self) -> "_Lap":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._watch.add(self._name, time.perf_counter() - self._start)
