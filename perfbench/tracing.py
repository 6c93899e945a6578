"""Spans and counters recorded around calls into the ebtruth layers.

Nothing here edits the program: a traced pass temporarily rebinds selected
ebtruth functions, wherever an ebtruth module holds a reference to them, to
wrappers that time each call.  The bindings are restored when the pass ends,
so untraced passes run the unmodified program.
"""

from __future__ import annotations

import contextlib
import itertools
import sys
import threading
import time
from collections import defaultdict


class Tracer:
    """In-memory span log plus named counters.

    A closed span is a tuple (id, name, start, end, parent id or -1).  Tuples
    of plain values are not tracked by the cyclic garbage collector, so a
    long span log does not slow the collections the traced program triggers.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._ids = itertools.count()
        self._local = threading.local()  # per-thread stack of open spans

    def _open(self, name: str) -> None:
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1][0] if stack else -1
        stack.append((next(self._ids), name, parent, time.perf_counter()))

    def _close(self) -> None:
        end = time.perf_counter()
        span_id, name, parent, start = self._local.stack.pop()
        self.spans.append((span_id, name, start, end, parent))

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] += amount

    def wrap(self, fn, name, on_call=None):
        """``name`` is a string or a function of the call's arguments;
        ``on_call(tracer, args, kwargs, result)`` records counters."""
        fixed = name if isinstance(name, str) else None

        def traced(*args, **kwargs):
            self._open(fixed or name(*args, **kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close()
            if on_call is not None:
                on_call(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_generator(self, fn, name, on_item=None):
        """Time each ``next()`` of the generator ``fn`` returns, not the
        consumer's work between items."""

        def traced(*args, **kwargs):
            items = fn(*args, **kwargs)
            while True:
                self._open(name)
                try:
                    item = next(items)
                except StopIteration:
                    return
                finally:
                    self._close()
                if on_item is not None:
                    on_item(self, item)
                yield item

        traced.__wrapped__ = fn
        return traced

    def durations(self, name: str) -> list[float]:
        return [end - start for _, n, start, end, _ in self.spans if n == name]

    def busy(self) -> dict[str, float]:
        """Inclusive time per span name."""
        out: dict[str, float] = defaultdict(float)
        for _, name, start, end, _ in self.spans:
            out[name] += end - start
        return out

    def self_time(self) -> dict[str, float]:
        """Span time minus the time its child spans cover, per span name."""
        own = {s[0]: s[3] - s[2] for s in self.spans}
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        out: dict[str, float] = defaultdict(float)
        for span_id, name, *_ in self.spans:
            out[name] += own[span_id]
        return out


@contextlib.contextmanager
def patched(pairs):
    """Rebind each ``(original, wrapper)`` function pair in every loaded
    ebtruth module that refers to the original, and restore them on exit."""
    replacements = {id(orig): (orig, wrapper) for orig, wrapper in pairs}
    undo = []
    try:
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "ebtruth" or modname.startswith("ebtruth.")):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = replacements.get(id(value))
                if wrapper is not None and wrapper[0] is value:
                    undo.append((module, attr, value))
                    setattr(module, attr, wrapper[1])
        yield
    finally:
        for module, attr, value in reversed(undo):
            setattr(module, attr, value)

