"""Span tracer for the benchmark's traced runs.

Timing wrappers are installed from outside the library: each wrapped public
function is rebound under every name that refers to it in a loaded
``polymatrix`` module, so calls the library makes internally (``games``
calling ``enumerate_eps_ne`` from ``enumerate_psne``, ``experiments``
calling ``fit_game``) are seen as well as the benchmark's own calls.

Spans (name, start, end, parent) stay in memory until the pass ends; self
time is a span's duration minus the part of it its children cover. A span
opened on a worker thread with no open span of its own takes the innermost
open span of the main thread as parent, which for the learner's thread pool
is the enclosing ``fit_game`` call.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import threading
import time
from collections import Counter, defaultdict


class Span:
    __slots__ = ("name", "start", "end", "parent")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._lock = threading.Lock()
        self._main = threading.get_ident()
        self._main_stack = []
        self._local = threading.local()
        self._restore = []

    def _stack(self):
        if threading.get_ident() == self._main:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def add(self, key, amount):
        with self._lock:
            self.counts[key] += amount

    def open(self, name):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._main_stack:
            parent = self._main_stack[-1]
        else:
            parent = None
        span = Span(name, time.perf_counter(), parent)
        self.spans.append(span)
        stack.append(span)
        return span

    def close(self, span):
        span.end = time.perf_counter()
        self._stack().pop()

    def _wrapper(self, name, fn, before, after):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            if before is not None:
                before(self, *args, **kwargs)
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if after is not None:
                after(self, result)
            return result

        return wrapped

    def install(self, hooks):
        """Wrap each ``"module.function"`` key of ``hooks`` (value: (before, after))."""
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "polymatrix" or n.startswith("polymatrix."))
        ]
        for name, (before, after) in hooks.items():
            module, func = name.split(".")
            orig = getattr(sys.modules["polymatrix." + module], func)
            wrapped = self._wrapper(name, orig, before, after)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        self._restore.append((m, attr, orig))
                        setattr(m, attr, wrapped)

    def uninstall(self):
        for m, attr, orig in reversed(self._restore):
            setattr(m, attr, orig)
        self._restore.clear()

    def write_jsonl(self, path):
        ids = {id(s): k for k, s in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as fh:
            for k, s in enumerate(self.spans):
                parent = ids[id(s.parent)] if s.parent is not None else None
                fh.write(json.dumps(
                    {"id": k, "name": s.name, "start": s.start, "end": s.end, "parent": parent}
                ) + "\n")


def _covered(intervals):
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def span_stats(spans):
    """Per span name: calls, total seconds, self seconds, per-call durations."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[id(s.parent)].append((s.start, s.end))
    stats = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "durations": []})
    for s in spans:
        dur = s.end - s.start
        row = stats[s.name]
        row["calls"] += 1
        row["s"] += dur
        row["self_s"] += dur - _covered(children.get(id(s), ()))
        row["durations"].append(dur)
    return stats


def nested_count(spans, names, ancestor):
    """Number of spans named in ``names`` with an ``ancestor`` span above them."""
    count = 0
    for s in spans:
        if s.name not in names:
            continue
        p = s.parent
        while p is not None and p.name != ancestor:
            p = p.parent
        count += p is not None
    return count


def median(values):
    return statistics.median(values) if values else 0.0
