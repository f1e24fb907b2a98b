"""Span recording around the program's public layer functions.

The benchmark never edits the program to trace it.  :func:`patched` swaps
each named function or method for a wrapper that records one span per call
(name, start, end, parent span) in a :class:`Tracer`, and puts every original
attribute back on exit, even when the traced code raises.  A layer's *self
time* is its spans' durations minus the time covered by their direct
children, so nested layers (``engine.init`` inside a packed word, say) are
never counted twice.  :meth:`Tracer.chrome_trace` exports the spans in the
Chrome Trace Event format, which Perfetto (ui.perfetto.dev) opens.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

#: Optional per-call hook: ``(tracer, call args, return value)``.
OnResult = Callable[["Tracer", tuple, object], None]


class Span:
    """One recorded call: name, perf-counter bounds and the calling span."""

    __slots__ = ("name", "start_ns", "end_ns", "parent", "child_ns")

    def __init__(self, name: str, parent: int) -> None:
        """Open a span called ``name`` under the span at index ``parent`` (-1: none)."""
        self.name = name
        self.parent = parent
        self.start_ns = 0
        self.end_ns = 0
        self.child_ns = 0

    @property
    def self_ns(self) -> int:
        """Duration minus the time spent in direct child spans."""
        return self.end_ns - self.start_ns - self.child_ns


class Tracer:
    """In-memory spans and counters for one traced region.

    Single-threaded by design: the traced campaigns run the program's layers
    on the calling thread (pool workers are other processes and are not
    traced), so one parent stack suffices.
    """

    def __init__(self) -> None:
        """Start with no spans and no counters."""
        self.spans: List[Span] = []
        self.counters: Dict[str, int] = {}
        self._stack: List[int] = []

    def count(self, name: str, amount: int) -> None:
        """Add ``amount`` to counter ``name``."""
        self.counters[name] = self.counters.get(name, 0) + amount

    def reset(self) -> None:
        """Forget every span and counter (between traced campaigns)."""
        self.spans.clear()
        self.counters.clear()
        self._stack.clear()

    def wrap(self, name: str, func: Callable, on_result: Optional[OnResult] = None) -> Callable:
        """Return ``func`` wrapped so each call records a span called ``name``."""
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(func)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = Span(name, parent)
            stack.append(len(spans))
            spans.append(span)
            span.start_ns = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                span.end_ns = clock()
                stack.pop()
                if parent >= 0:
                    spans[parent].child_ns += span.end_ns - span.start_ns
            if on_result is not None:
                on_result(self, args, result)
            return result

        return traced

    def totals(self) -> Dict[str, Tuple[float, int]]:
        """``span name -> (self seconds, calls)`` over every recorded span."""
        seconds: Dict[str, float] = {}
        calls: Dict[str, int] = {}
        for span in self.spans:
            seconds[span.name] = seconds.get(span.name, 0.0) + span.self_ns / 1e9
            calls[span.name] = calls.get(span.name, 0) + 1
        return {name: (seconds[name], calls[name]) for name in seconds}

    def chrome_trace(self, label: str) -> Dict[str, object]:
        """The spans as a Chrome Trace Event document (complete ``X`` events)."""
        origin = min((span.start_ns for span in self.spans), default=0)
        events: List[Dict[str, object]] = [
            {"name": "process_name", "ph": "M", "pid": 1, "tid": 1, "args": {"name": label}},
        ]
        for span in self.spans:
            event = {
                "name": span.name,
                "cat": span.name.split(".", 1)[0],
                "ph": "X",
                "pid": 1,
                "tid": 1,
                "ts": (span.start_ns - origin) / 1e3,
                "dur": (span.end_ns - span.start_ns) / 1e3,
                "args": {"self_us": span.self_ns / 1e3, "parent": span.parent},
            }
            events.append(event)
        return {"traceEvents": events, "displayTimeUnit": "ms"}


class Target(NamedTuple):
    """One layer entry point: ``module`` plus a dotted ``attr`` inside it.

    ``attr`` is ``"function"`` for a module-level function or
    ``"Class.method"`` for a method (plain, class- or static method).
    """

    span: str
    module: str
    attr: str
    on_result: Optional[OnResult] = None

    def resolve(self) -> Tuple[object, str]:
        """``(owner object, attribute name)`` this target patches."""
        owner: object = importlib.import_module(self.module)
        *path, name = self.attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        return owner, name


@contextlib.contextmanager
def patched(tracer: Tracer, targets: Sequence[Target]) -> Iterator[Tracer]:
    """Install span wrappers for ``targets``; restore every original on exit.

    Methods are read from the class ``__dict__`` (a target must name the
    class that defines it), so classmethods and staticmethods keep their
    binding and the restored attribute is the very object that was there.
    """
    saved: List[Tuple[object, str, object]] = []
    try:
        for target in targets:
            owner, name = target.resolve()
            original = vars(owner)[name] if isinstance(owner, type) else getattr(owner, name)
            if isinstance(original, (classmethod, staticmethod)):
                func = tracer.wrap(target.span, original.__func__, target.on_result)
                wrapper: object = type(original)(func)
            else:
                wrapper = tracer.wrap(target.span, original, target.on_result)
            saved.append((owner, name, original))
            setattr(owner, name, wrapper)
        yield tracer
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)
