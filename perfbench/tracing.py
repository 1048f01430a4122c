"""Outside-in tracing: spans around the program's public entry points.

The benchmark never edits the program. A :class:`Tracer` replaces a
public function or method with a wrapper that records one span per
call — name, start, end, parent span, request id, thread — and lets a
hook attach counts read from the stats objects the call returns.
Spans stay in memory and are written out when the run ends.

A layer's *self* time is its span's duration minus the part of that
interval its child spans cover; :func:`self_times` and
:func:`union_length` do that arithmetic, and :func:`unattributed`
gives the time no span covers at all.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import sys
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    request: int | None = None
    thread: int = 0
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> dict:
        return {
            "id": self.id, "name": self.name, "start": self.start, "end": self.end,
            "parent": self.parent, "request": self.request, "thread": self.thread,
            "attrs": self.attrs,
        }

    @classmethod
    def from_json(cls, d: dict) -> "Span":
        return cls(**d)


class Tracer:
    """Records spans for wrapped calls; one per process."""

    def __init__(self):
        self.spans: list[Span] = []
        self.decisions: list[dict] = []
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None
        )
        self._request: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_request", default=None
        )
        self._lock = threading.Lock()
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------
    def _open(self, name: str, new_request: bool):
        parent = self._current.get()
        with self._lock:
            span = Span(next(self._ids), name, 0.0)
            if new_request:
                span.request = next(self._requests)
        if not new_request:
            span.request = self._request.get()
        span.parent = parent.id if parent is not None else None
        span.thread = threading.get_ident()
        tokens = (
            self._current.set(span),
            self._request.set(span.request) if new_request else None,
        )
        span.start = time.perf_counter()
        return span, tokens

    def _close(self, span: Span, tokens) -> None:
        span.end = time.perf_counter()
        self._current.reset(tokens[0])
        if tokens[1] is not None:
            self._request.reset(tokens[1])
        with self._lock:
            self.spans.append(span)

    def wrap(self, func, name: str, *, hook=None, new_request: bool = False):
        """A wrapper recording span ``name`` around each call of ``func``.

        ``hook(span, args, kwargs)`` runs before the call and may return
        a callable ``after(result)`` that runs after it, so counts can be
        read from arguments and results without touching the program.
        """
        if inspect.iscoroutinefunction(func):
            @functools.wraps(func)
            async def awrapper(*args, **kwargs):
                span, tokens = self._open(name, new_request)
                after = hook(span, args, kwargs) if hook else None
                try:
                    result = await func(*args, **kwargs)
                    if after is not None:
                        after(result)
                    return result
                finally:
                    self._close(span, tokens)
            return awrapper

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span, tokens = self._open(name, new_request)
            after = hook(span, args, kwargs) if hook else None
            try:
                result = func(*args, **kwargs)
                if after is not None:
                    after(result)
                return result
            finally:
                self._close(span, tokens)
        return wrapper

    # -- patching -------------------------------------------------------
    def patch_method(self, cls, attr: str, name: str, **kw) -> None:
        original = cls.__dict__[attr]
        self._undo.append((cls, attr, original))
        setattr(cls, attr, self.wrap(original, name, **kw))

    def patch_function(self, module, attr: str, name: str, **kw) -> None:
        """Wrap ``module.attr`` and every module-level alias of it.

        Modules that did ``from module import attr`` hold their own
        reference; those aliases are rebound too, so the wrapper sees
        every call whether made through the defining module or not.
        """
        original = getattr(module, attr)
        wrapped = self.wrap(original, name, **kw)
        for mod in list(sys.modules.values()):
            namespace = getattr(mod, "__dict__", None)
            if not namespace:
                continue
            for key, value in list(namespace.items()):
                if value is original:
                    self._undo.append((mod, key, original))
                    setattr(mod, key, wrapped)

    def unpatch(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- output ---------------------------------------------------------
    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({
                "spans": [s.to_json() for s in self.spans],
                "decisions": self.decisions,
            }, fh)


def load_dump(path) -> tuple[list[Span], list[dict]]:
    with open(path) as fh:
        data = json.load(fh)
    return [Span.from_json(d) for d in data["spans"]], data["decisions"]


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------
def union_length(intervals, lo: float | None = None, hi: float | None = None) -> float:
    """Total length covered by ``intervals``, optionally clipped to [lo, hi]."""
    clipped = []
    for a, b in intervals:
        if lo is not None:
            a = max(a, lo)
        if hi is not None:
            b = min(b, hi)
        if b > a:
            clipped.append((a, b))
    clipped.sort()
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
    """Span id -> duration minus the part its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.id: s.duration - union_length(children.get(s.id, ()), s.start, s.end)
        for s in spans
    }


def unattributed(spans: list[Span], start: float, end: float) -> float:
    """Time in [start, end] that no span covers."""
    return (end - start) - union_length(((s.start, s.end) for s in spans), start, end)
