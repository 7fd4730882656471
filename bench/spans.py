"""In-memory span recorder and the patcher that attaches it to zeroext.

A span is one call of a traced function: its name, thread, start, end and
parent span.  Spans stay in memory until the run ends.  The self time of a
span is its duration minus the part of that interval its children cover.

Children normally come from the same thread.  A span opened in a thread with
no open span of its own (a `gap` row in the CLI's thread pool) takes as
parent the innermost span then open in the thread that created the tracer
(`cli.main`), because that call is what caused the work.  Such children may
overlap each other, so the covered part is the union of their intervals.
"""
from __future__ import annotations

import functools
import os
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager


class Span:
    __slots__ = ("name", "thread", "start", "end", "parent", "cpu")

    def __init__(self, name: str, thread: int, start: float, parent: int | None):
        self.name = name
        self.thread = thread
        self.start = start
        self.end = start
        self.parent = parent
        self.cpu = 0.0

    def as_dict(self, index: int) -> dict:
        return {
            "id": index,
            "name": self.name,
            "thread": self.thread,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
        }


def _process_cpu() -> float:
    """CPU seconds of this process and of its waited-for children."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


class Tracer:
    """Records spans and counters; `cpu_names` spans also record process CPU."""

    def __init__(self, cpu_names=()):
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.cpu_names = frozenset(cpu_names)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._home_thread = threading.get_ident()
        self._home_stack: list[int] = self._stack()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            try:
                parent = self._home_stack[-1]
            except IndexError:
                parent = None
        span = Span(name, threading.get_ident(), time.perf_counter(), parent)
        if name in self.cpu_names:
            span.cpu = -_process_cpu()
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        if span.name in self.cpu_names:
            span.cpu += _process_cpu()
        self._stack().pop()

    def count(self, name: str, value: float) -> None:
        with self._lock:
            self.counters[name] += value

    def wrap(self, fn, name: str, meter=None):
        """`fn` recorded as span `name`; `meter(args, result)` yields counters."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if meter is not None:
                for key, value in meter(args, result).items():
                    self.count(key, value)
            return result

        return traced

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self seconds, total seconds, CPU seconds."""
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0, "cpu_s": 0.0}
        )
        for span, own in zip(self.spans, self_times(self.spans)):
            row = out[span.name]
            row["calls"] += 1
            row["self_s"] += own
            row["total_s"] += span.end - span.start
            row["cpu_s"] += span.cpu
        return dict(out)


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the union of its children's intervals."""
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for child in sorted(children.get(index, ()), key=lambda c: c.start):
            lo = max(child.start, reach)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((span.end - span.start) - covered)
    return out


@contextmanager
def patched(tracer: Tracer, targets, package: str = "zeroext", meters=None):
    """Trace each `module.function` in `targets` at every name it is bound to.

    Python looks module globals up at call time, so rebinding every name in
    the package's loaded modules that refers to the function object catches
    calls from other modules (`from .graphs import f`) and from the defining
    module alike.  All bindings are restored on exit.
    """
    meters = meters or {}
    modules = [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == package or name.startswith(package + "."))
    ]
    undo = []
    try:
        for target in targets:
            mod_name, fn_name = target.rsplit(".", 1)
            original = getattr(sys.modules[f"{package}.{mod_name}"], fn_name)
            wrapper = tracer.wrap(original, target, meters.get(target))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        undo.append((mod, attr, original))
        yield undo
    finally:
        for mod, attr, original in reversed(undo):
            setattr(mod, attr, original)
