"""In-memory span tracer that wraps functions at run time.

A Tracer replaces functions and methods with timing wrappers and puts the
originals back on ``restore``. Each call becomes a span ``[name, start, end,
parent]`` kept in a list; the parent is the index of the span that was open
when the call began, or -1. Self time is a span's duration minus the
durations of its direct children, which nest strictly inside it because the
traced program is single-threaded.

Module-level functions are often bound again by ``from x import f``, so
``patch_function`` replaces every binding of the same function object in
the given modules, not only the one in the defining module.
"""
from __future__ import annotations

import time
from collections import defaultdict

NAME, START, END, PARENT = range(4)


class Tracer:
    """Records spans for patched callables until ``restore`` is called."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._depth: dict[str, int] = defaultdict(int)
        self._outer: list[bool] = []
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ wrapping

    def wrap(self, fn, name, hook=None):
        """Return a wrapper of ``fn`` that records one span per call.

        ``name`` is a string or ``name(args, kwargs) -> str``. ``hook(args,
        kwargs, result)`` runs after a call that returned normally and may
        update ``self.counters``.
        """
        spans, stack, depth, outer = self.spans, self._stack, self._depth, self._outer
        clock = time.perf_counter

        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(args, kwargs)
            idx = len(spans)
            span = [label, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            outer.append(depth[label] == 0)
            depth[label] += 1
            stack.append(idx)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
                depth[label] -= 1
            if hook is not None:
                hook(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def patch(self, owner, attr: str, name, hook=None) -> None:
        """Wrap ``owner.attr``; plain, class and static methods all work."""
        raw = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, (classmethod, staticmethod)):
            replacement = type(raw)(self.wrap(raw.__func__, name, hook))
        else:
            replacement = self.wrap(raw, name, hook)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, replacement)

    def patch_function(self, fn, modules, name, hook=None) -> None:
        """Wrap every binding of ``fn`` in ``modules``."""
        wrapper = self.wrap(fn, name, hook)
        found = False
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patches.append((module, attr, fn))
                    setattr(module, attr, wrapper)
                    found = True
        if not found:
            raise LookupError(f"no binding of {fn!r} found to trace as {name!r}")

    def restore(self) -> None:
        """Put back every original, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def active(self, name: str) -> bool:
        """True while a span called ``name`` is open."""
        return self._depth[name] > 0

    # ----------------------------------------------------------- analysis

    def summary(self) -> dict[str, dict]:
        """Per name: calls, total_s, self_s and the list of durations.

        total_s counts only the outermost span of a name, so a function that
        re-enters itself is not counted twice; self_s sums over all spans.
        """
        selfs = self_times(self.spans)
        out: dict[str, dict] = {}
        for span, own, outer in zip(self.spans, selfs, self._outer):
            entry = out.setdefault(span[NAME], {"calls": 0, "total_s": 0.0,
                                                "self_s": 0.0, "durations": []})
            duration = span[END] - span[START]
            entry["calls"] += 1
            entry["self_s"] += own
            entry["durations"].append(duration)
            if outer:
                entry["total_s"] += duration
        return out


def self_times(spans) -> list[float]:
    """Duration of each span minus the time its direct children cover."""
    child_total = [0.0] * len(spans)
    for span in spans:
        parent = span[PARENT]
        if parent >= 0:
            child_total[parent] += span[END] - span[START]
    return [span[END] - span[START] - child
            for span, child in zip(spans, child_total)]
