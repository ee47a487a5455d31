"""Deterministic ordering helpers.

The optimiser must be deterministic: view names, group numbering and
attribute orders all depend on iteration order, so de-duplication keeps
first-seen order (the insertion-ordered ``dict``).
"""

from __future__ import annotations

from typing import Hashable, Iterable, TypeVar

T = TypeVar("T", bound=Hashable)


def stable_unique(items: Iterable[T]) -> list[T]:
    """Return the unique items of ``items`` preserving first-seen order."""
    return list(dict.fromkeys(items))
