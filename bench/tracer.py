"""Span tracing of ddqsim from outside the package.

A traced run wraps the public functions of each layer (module) and rebinds
every wrapper in each ddqsim module that imported the original name, so a
call from inside the package is recorded too: ``bootstrap_bounds`` calls
``fit_ramsey`` through ``metrology``'s globals, which calls
``lm_least_squares`` through the same globals, and the three spans nest.
Spans live in memory; each thread keeps its own span stack. A span opened
on a worker thread with an empty stack is adopted by the span open on the
main thread, which is where the thread pools of ``cli`` and ``campaign``
are waited on. :func:`install` returns the list of rebindings and
:func:`restore` puts every original name back.

A layer's self time is the time its spans cover minus the time covered by
their child spans. Child spans on two threads can overlap; that overlap is
reported on its own, so that

    sum(self times) - parallel_overlap_s + untraced_remainder_s = wall_s.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from dataclasses import dataclass, field


@dataclass(eq=False)
class Span:
    layer: str
    name: str
    start: float
    parent: "Span | None"
    thread: int = 0
    end: float = 0.0
    note: dict = field(default_factory=dict)
    self_s: float = 0.0
    overlap_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder with one span stack per thread."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._local = threading.local()
        self._main_stack: list[Span] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = (self._main_stack
                     if threading.current_thread() is threading.main_thread()
                     else [])
            self._local.stack = stack
        return stack

    def enter(self, layer: str, name: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif stack is not self._main_stack and self._main_stack:
            parent = self._main_stack[-1]
        else:
            parent = None
        span = Span(layer, name, self.clock(), parent, threading.get_ident())
        self.spans.append(span)
        stack.append(span)
        return span

    def exit(self, span: Span) -> None:
        span.end = self.clock()
        stack = self._stack()
        if not stack or stack[-1] is not span:
            raise RuntimeError(f"span {span.name} closed out of order")
        stack.pop()

    def wrap(self, layer: str, fn, note=None):
        """Return ``fn`` recording one span per call; ``note(args, kwargs,
        result)`` returns the counts stored on the span."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.enter(layer, fn.__name__)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit(span)
            if note is not None:
                span.note = note(args, kwargs, result)
            return result
        return traced

    def reset(self) -> None:
        self.spans = []


def _union_length(intervals) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def compute_self_times(spans) -> None:
    """Set ``self_s`` and ``overlap_s`` on every span."""
    children: dict[int, list] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(id(s.parent), []).append(s)
    for s in spans:
        kids = children.get(id(s), [])
        clipped = [(max(k.start, s.start), min(k.end, s.end)) for k in kids]
        clipped = [(lo, hi) for lo, hi in clipped if hi > lo]
        covered = _union_length(clipped)
        s.self_s = s.duration - covered
        s.overlap_s = sum(hi - lo for lo, hi in clipped) - covered


def install(tracer: Tracer, targets) -> list:
    """Wrap each ``(module, name, layer, note)`` target and rebind it.

    The wrapper replaces the original in every loaded ``ddqsim`` module
    that holds it under any name. Returns ``(module, attr, original)``
    triples for :func:`restore`.
    """
    modules = [m for n, m in sorted(sys.modules.items())
               if m is not None and (n == "ddqsim" or n.startswith("ddqsim."))]
    bound = []
    try:
        for module, name, layer, note in targets:
            original = getattr(module, name)
            wrapper = tracer.wrap(layer, original, note)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        bound.append((mod, attr, original))
    except BaseException:
        restore(bound)
        raise
    return bound


def restore(bound) -> None:
    for mod, attr, original in reversed(bound):
        setattr(mod, attr, original)
