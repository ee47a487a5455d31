"""Shared utilities: errors, timers, deterministic ordering helpers."""

from repro.util.errors import (
    CyclicSchemaError,
    PlanError,
    QueryError,
    ReproError,
    SchemaError,
)
from repro.util.ordered import stable_unique
from repro.util.timer import Stopwatch

__all__ = [
    "CyclicSchemaError",
    "PlanError",
    "QueryError",
    "ReproError",
    "SchemaError",
    "Stopwatch",
    "stable_unique",
]
