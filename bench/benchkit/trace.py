"""In-memory spans recorded by the harness around calls into each layer.

A span is ``(id, parent, name, start, end, request, thread)``; the part of
its name before the first dot is the layer (``core.execute`` belongs to
``core``). Spans are kept in a list and written out once, when the run
ends. A disabled tracer hands out one shared no-op span, so the untraced
run — the one end-to-end numbers come from — pays a function call and
nothing else.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from pathlib import Path


class _NullSpan:
    id = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False


_NULL = _NullSpan()


class _Span:
    __slots__ = ("_tracer", "name", "request", "parent", "id", "start")

    def __init__(self, tracer, name, request, parent):
        self._tracer = tracer
        self.name = name
        self.request = request
        self.parent = parent

    def __enter__(self):
        stack = self._tracer._stack()
        if self.parent is None and stack:
            self.parent = stack[-1]
        self.id = next(self._tracer._ids)
        stack.append(self.id)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc_info):
        end = time.perf_counter()
        self._tracer._stack().pop()
        self._tracer._record(
            self.id, self.parent, self.name, self.start, end, self.request
        )
        return False


class Tracer:
    """Collects spans from any thread; parents default to the enclosing span."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, span_id, parent, name, start, end, request) -> None:
        # list.append is atomic under the interpreter lock
        self.spans.append(
            (span_id, parent, name, start, end, request, threading.get_ident())
        )

    def span(self, name: str, request=None, parent=None):
        """Context manager timing one call; ``.id`` parents spans on other threads."""
        if not self.enabled:
            return _NULL
        return _Span(self, name, request, parent)

    def reserve(self) -> int | None:
        """An id for a span that :meth:`add` closes later (a request in flight)."""
        return next(self._ids) if self.enabled else None

    def add(self, name, start, end, parent=None, request=None, span_id=None) -> int | None:
        """Record an interval measured elsewhere (a ``RunResult.timings`` lap)."""
        if not self.enabled:
            return None
        if parent is None:
            stack = self._stack()
            parent = stack[-1] if stack else None
        if span_id is None:
            span_id = next(self._ids)
        self._record(span_id, parent, name, start, end, request)
        return span_id

    def add_run_laps(
        self, run, start: float, end: float, parent, request=None, compiled=True
    ) -> None:
        """Child spans for the ``compile``/``execute``/``collect`` laps of a run.

        The program exports lap *durations*; the engine runs them in that
        order, compile first and collect last, so they are laid out from
        the two ends of the enclosing call. ``compiled=False`` when the
        enclosed call is ``execute`` alone and the compile lap, if any,
        was spent before it.
        """
        if not self.enabled:
            return
        timings = run.timings
        compile_s = timings.get("compile", 0.0) if compiled else 0.0
        collect_s = timings.get("collect", 0.0)
        execute_s = timings.get("execute", 0.0)
        if compile_s:
            self.add("core.compile", start, start + compile_s, parent, request)
        execute_end = end - collect_s
        self.add("core.execute", execute_end - execute_s, execute_end, parent, request)
        self.add("core.collect", execute_end, end, parent, request)

    def dump(self, path: Path, header: dict) -> None:
        """Write every span (times relative to the first one) plus ``header``."""
        origin = min((s[3] for s in self.spans), default=0.0)
        payload = dict(header)
        payload["spans"] = [
            {
                "id": span_id,
                "parent": parent,
                "name": name,
                "start": start - origin,
                "end": end - origin,
                "request": request,
                "thread": thread,
            }
            for span_id, parent, name, start, end, request, thread in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload) + "\n")


def self_times(spans) -> dict[str, dict]:
    """Per span name: count, total time and self time.

    Self time is a span's duration minus the part of its interval that
    its child spans cover (children on several threads may overlap each
    other, so their union is taken). Children whose parent is not among
    ``spans`` count for nobody.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for _id, parent, _name, start, end, _req, _thread in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out: dict[str, dict] = {}
    for span_id, _parent, name, start, end, _req, _thread in spans:
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(span_id, ())):
            c_start = max(c_start, cursor)
            c_end = min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        entry = out.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
        entry["count"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += (end - start) - covered
    return out
