"""In-memory span and counter recorder for the traced run.

The recorder wraps ontolab's public functions from the outside: for the
traced run only, it rebinds each function's name in every module that
holds it (and each method on its class), and `uninstall` puts every
original back. Untraced runs never install it, so they execute unmodified
ontolab code.

A span is (name, start, end, parent index, op id); a layer's self time is
its span's duration minus the part of that interval its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass
from typing import Optional


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: Optional[int]


class Recorder:
    """Spans and counters, held in memory until the run ends.

    `targets` lists (span name, target, on_call, on_return); see `_plan`.
    """

    def __init__(self, targets=()):
        self.targets = targets
        self.spans: list = []
        self.counters: dict = {}
        self.op: Optional[int] = None
        self._stack: list = []
        self._patches: list = []

    # ------------------------------------------------------------ recording

    def count(self, name: str, n: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def maximum(self, name: str, value: float) -> None:
        self.counters[name] = max(self.counters.get(name, 0), value)

    def inside(self, name: str) -> bool:
        """True when a span of this name is open."""
        return any(self.spans[i].name == name for i in self._stack)

    def call(self, name: str, fn, args, kwargs, on_call=None, on_return=None):
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter(), 0.0, parent, self.op)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        try:
            if on_call is not None:
                on_call(self, *args, **kwargs)
            result = fn(*args, **kwargs)
            if on_return is not None:
                on_return(self, result, *args, **kwargs)
            return result
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    # ------------------------------------------------------------- wrapping

    def _plan(self) -> list:
        """(owner, name, original, wrapper) for every binding to replace.

        A target is "module:function" or "module:Class.method". A function
        is rebound under every name that holds it in any loaded ontolab
        module, so calls made through `from ... import` names are recorded
        too; a method is replaced on its class.
        """
        namespaces = [
            mod for name, mod in list(sys.modules.items()) if name == "ontolab" or name.startswith("ontolab.")
        ]
        patches = []
        for span_name, target, on_call, on_return in self.targets:
            module_name, _, qual = target.partition(":")
            module = importlib.import_module(module_name)
            if "." in qual:
                cls_name, attr = qual.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[attr]
                bindings = [(owner, attr)]
            else:
                original = getattr(module, qual)
                bindings = [(mod, key) for mod in namespaces for key, value in vars(mod).items() if value is original]
            wrapper = self._wrapper(span_name, original, on_call, on_return)
            patches.extend((owner, key, original, wrapper) for owner, key in bindings)
        return patches

    def _wrapper(self, name: str, original, on_call, on_return):
        recorder = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return recorder.call(name, original, args, kwargs, on_call, on_return)

        return wrapper

    def install(self) -> "Recorder":
        """Wrap every target. The bindings are found on the first call and
        reused after, so installing around each op stays cheap."""
        if not self._patches:
            self._patches = self._plan()
        for owner, key, _, wrapper in self._patches:
            setattr(owner, key, wrapper)
        return self

    def uninstall(self) -> None:
        """Put every original back."""
        for owner, key, original, _ in reversed(self._patches):
            setattr(owner, key, original)


# ---------------------------------------------------------------- analysis


def children(spans: list) -> list:
    kids: list = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent is not None:
            kids[s.parent].append(i)
    return kids


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
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


def self_times(spans: list) -> list:
    """Each span's duration minus the part of it covered by its children."""
    kids = children(spans)
    out = []
    for i, s in enumerate(spans):
        inner = [
            (max(spans[k].start, s.start), min(spans[k].end, s.end))
            for k in kids[i]
            if spans[k].end > s.start and spans[k].start < s.end
        ]
        out.append((s.end - s.start) - covered(inner))
    return out


def inclusive_time(spans: list, names) -> float:
    """Total duration of spans named in `names` that have no ancestor also
    named there, so nested calls are not counted twice."""
    names = set(names)
    total = 0.0
    for s in spans:
        if s.name not in names:
            continue
        p = s.parent
        while p is not None and spans[p].name not in names:
            p = spans[p].parent
        if p is None:
            total += s.end - s.start
    return total


def self_time(spans: list, selfs: list, names) -> float:
    names = set(names)
    return sum(t for s, t in zip(spans, selfs) if s.name in names)
