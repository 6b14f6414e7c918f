"""Spans and counts recorded around calls into the program's layers.

A ``Tracer`` replaces a function with a wrapper that records a span (name,
start, end, parent) around each call and, optionally, counts taken from the
call's arguments and result. Wrappers patch a name where the caller looks it
up: ``dnn2lr.pipeline`` imports ``train`` by name, so the wrapper goes on
``dnn2lr.pipeline.train``. A function that no longer exists is skipped and its
metric stays absent. Everything is kept in memory and written out once.
"""

from __future__ import annotations

import inspect
import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: dict[str, float] = defaultdict(float)
        self.wrapped: set[str] = set()
        self._stack: list[int] = []
        self._active: dict[str, int] = defaultdict(int)

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)
        self._active[name] += 1
        return len(self.spans) - 1

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()
        self._active[self.spans[index][0]] -= 1

    def wrap(self, owner, attr: str, name: str, on_result=None) -> bool:
        """Patch ``owner.attr`` with a timing wrapper; False if it is gone."""
        raw = inspect.getattr_static(owner, attr, None)
        if raw is None:
            return False
        original = getattr(owner, attr)
        self.wrapped.add(name)

        def wrapper(*args, **kwargs):
            if self._active[name]:  # nested call of the same layer: time the outer one only
                return original(*args, **kwargs)
            index = self.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.end(index)
            if on_result is not None:
                on_result(self, args, kwargs, result)
            return result

        bound = isinstance(raw, (classmethod, staticmethod))
        setattr(owner, attr, staticmethod(wrapper) if bound else wrapper)
        return True

    def totals(self) -> dict[str, tuple[float, int]]:
        """Per span name: summed duration in seconds and the number of spans."""
        out: dict[str, list] = defaultdict(lambda: [0.0, 0])
        for name, start, end, _ in self.spans:
            out[name][0] += end - start
            out[name][1] += 1
        return {name: (total, n) for name, (total, n) in out.items()}

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"spans": self.spans, "counts": dict(self.counts), "wrapped": sorted(self.wrapped)},
                handle,
            )


def load_totals(path) -> tuple[dict[str, tuple[float, int]], dict[str, float], set[str]]:
    """Span totals, counts and the names that were wrapped, from a dump."""
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    tracer = Tracer()
    tracer.spans = data["spans"]
    return tracer.totals(), data["counts"], set(data["wrapped"])
