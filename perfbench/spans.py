"""Spans around calls into the program's layers, recorded from outside.

``Tracer.install`` rebinds chosen public functions in every loaded
``highprob`` module namespace (a function imported with ``from .x import
f`` lives under several names), so calls made inside the package are seen
too.  Nothing under ``src/`` is edited.  Each outermost call records one
span (name, parent, start, end, item); a call back into a span of the same
name, such as a recursive evaluator, stays inside the outer span.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list = []          # (name, parent, start, end, item)
        self.counts = defaultdict(int)  # "<span>.<counter>" -> number
        self.item = -1
        self._stack: list[int] = []
        self._active = defaultdict(int)
        self._undo: list = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        sid = len(self.spans)
        self.spans.append(None)
        self._active[name] += 1
        self._stack.append(sid)
        return sid

    def _close(self, sid: int, name: str, start: float) -> float:
        end = perf_counter()
        self._stack.pop()
        self._active[name] -= 1
        parent = self._stack[-1] if self._stack else -1
        self.spans[sid] = (name, parent, start, end, self.item)
        return end - start

    def span(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span; used for the benchmark's per-item root."""
        sid = self._open(name)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(sid, name, start)

    def wrap(self, name: str, fn, before=None, after=None):
        """A stand-in for fn that records a span called ``name``.

        ``before(args, kwargs)`` may rewrite the arguments and returns
        (args, kwargs, note); ``after(args, result, seconds, note)`` counts
        what the call did.  Both run outside the span.
        """
        def traced(*args, **kwargs):
            if self._active[name]:
                return fn(*args, **kwargs)
            note = None
            if before is not None:
                args, kwargs, note = before(args, kwargs)
            sid = self._open(name)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = self._close(sid, name, start)
            if after is not None:
                after(args, result, seconds, note)
            return result
        traced.__wrapped__ = fn
        return traced

    def wrap_generator(self, name: str, fn, counter: str):
        """Each step of the generator is one span; ``counter`` counts the
        values it yields."""
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                sid = self._open(name)
                start = perf_counter()
                try:
                    value = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(sid, name, start)
                self.counts[counter] += 1
                yield value
        traced.__wrapped__ = fn
        return traced

    def counter_only(self, fn, after):
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            after(args, result)
            return result
        counted.__wrapped__ = fn
        return counted

    # -- installation ------------------------------------------------------

    def install(self, module, attr: str, replacement) -> None:
        """Rebind ``module.attr`` everywhere the package refers to it."""
        original = getattr(module, attr)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "highprob" and not mod_name.startswith("highprob."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, replacement)
                    self._undo.append((mod, key, original))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._undo):
            setattr(mod, key, original)
        self._undo.clear()

    # -- reading -----------------------------------------------------------

    def summary(self, scales=None) -> dict:
        """Per span name: outermost calls, total and self seconds; and the
        span tree as parent-name/child-name paths with their totals.
        ``scales[item]`` multiplies the times of that item's spans."""
        child_time = defaultdict(float)
        for name, parent, start, end, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        by_name = defaultdict(lambda: {"calls": 0, "total_s": 0.0,
                                       "self_s": 0.0})
        paths = {}
        tree = defaultdict(lambda: {"calls": 0, "total_s": 0.0,
                                    "self_s": 0.0})
        for sid, (name, parent, start, end, item) in enumerate(self.spans):
            factor = scales[item] if scales else 1.0
            dur = (end - start) * factor
            own = dur - child_time[sid] * factor
            row = by_name[name]
            row["calls"] += 1
            row["total_s"] += dur
            row["self_s"] += own
            path = (paths[parent] + "/" if parent >= 0 else "") + name
            paths[sid] = path
            node = tree[path]
            node["calls"] += 1
            node["total_s"] += dur
            node["self_s"] += own
        return {"layers": dict(by_name), "tree": dict(tree)}
