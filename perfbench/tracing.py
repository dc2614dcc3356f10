"""Spans recorded from the benchmark's own code around the program's
public functions, and the per-layer arithmetic over them.

Nothing here is imported by the program: a traced run replaces public
functions (and the event loop's dispatch hooks) with wrappers from the
benchmark's bootstrap, keeps spans in memory and writes them out when
the process ends.  Wrappers stay installed while the recorder is
disabled, so a run can switch tracing on and off to measure its own
overhead.

A span is a tuple ``(id, parent, name, start, end, value)``: ``parent``
is the enclosing span on the same thread (or -1), ``value`` an optional
number the wrapper extracted (rows returned, bytes encoded, method).
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Iterable, Optional

Span = tuple  # (id, parent, name, start, end, value)


class SpanRecorder:
    """In-memory span store shared by every thread of one process."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def record(self, name: str, start: float, end: float, value: Any = None) -> None:
        """Add a finished span that no wrapper timed (e.g. a queue wait)."""
        if self.enabled:
            stack = self._stack()
            parent = stack[-1] if stack else -1
            self.spans.append((next(self._ids), parent, name, start, end, value))

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        value: Optional[Callable[[tuple, dict, Any], Any]] = None,
    ) -> None:
        """Replace ``owner.attr`` (or ``owner[attr]`` for a dict) with a
        wrapper recording span ``name``.

        ``value(args, kwargs, result)`` extracts the span's value."""
        is_dict = isinstance(owner, dict)
        original = owner[attr] if is_dict else getattr(owner, attr)
        recorder = self

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not recorder.enabled:
                return original(*args, **kwargs)
            stack = recorder._stack()
            span_id = next(recorder._ids)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = time.perf_counter()
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                extracted = value(args, kwargs, result) if value else None
                recorder.spans.append(
                    (span_id, parent, name, start, end, extracted)
                )

        if is_dict:
            owner[attr] = wrapper
        else:
            setattr(owner, attr, wrapper)

    def take(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans


# -- arithmetic ------------------------------------------------------------------


def covered(interval: tuple[float, float], parts: Iterable[tuple[float, float]]) -> float:
    """Length of ``interval`` covered by the union of ``parts``."""
    lo, hi = interval
    clipped = sorted(
        (max(lo, a), min(hi, b)) for a, b in parts if b > lo and a < hi
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _sid, parent, _name, start, end, _value in spans:
        if parent != -1:
            children[parent].append((start, end))
    return {
        sid: (end - start) - covered((start, end), children.get(sid, ()))
        for sid, _parent, _name, start, end, _value in spans
    }


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def outermost(spans: list[Span], layer: str) -> list[Span]:
    """Spans of ``layer`` with no ancestor of the same layer (so nested
    calls inside one layer, e.g. ``query`` -> ``execute``, count once)."""
    by_id = {s[0]: s for s in spans}
    out = []
    for span in spans:
        if _layer(span[2]) != layer:
            continue
        parent = span[1]
        nested = False
        while parent != -1 and parent in by_id:
            if _layer(by_id[parent][2]) == layer:
                nested = True
                break
            parent = by_id[parent][1]
        if not nested:
            out.append(span)
    return out


def inside(spans: list[Span], inner: list[Span], outer_name: str) -> float:
    """Total duration of ``inner`` spans that sit below a span named
    ``outer_name`` (at any depth)."""
    by_id = {s[0]: s for s in spans}
    total = 0.0
    for span in inner:
        parent = span[1]
        while parent != -1 and parent in by_id:
            if by_id[parent][2] == outer_name:
                total += span[4] - span[3]
                break
            parent = by_id[parent][1]
    return total


def total_ms(spans: Iterable[Span], name: str) -> float:
    return 1000.0 * sum(s[4] - s[3] for s in spans if s[2] == name)


def count(spans: Iterable[Span], name: str) -> int:
    return sum(1 for s in spans if s[2] == name)
