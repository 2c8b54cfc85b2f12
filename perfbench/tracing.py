"""Spans recorded around the calls the benchmark makes into the library.

Only the traced pass uses this module; untraced passes call the library
directly. A span is ``(name, start_ns, end_ns, parent, op_id)`` and its
index in ``Tracer.spans`` is its id; ``parent`` is -1 for an operation.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

_now = time.perf_counter_ns
SPAN_COST_SAMPLES = 20_000


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self._stack = [-1]
        self.op_id = -1

    def call(self, name: str, fn, *args, **kwargs):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1]
        self._stack.append(idx)
        t0 = _now()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = _now()
            self._stack.pop()
            self.spans[idx] = (name, t0, t1, parent, self.op_id)

    def wrap(self, name: str, fn):
        call = self.call
        return lambda *args, **kwargs: call(name, fn, *args, **kwargs)

    def wrap_leaf(self, name: str, fn):
        """A cheaper wrapper for one-argument callables that call nothing
        traced (the user f and f'), so their spans skew parents less."""
        spans, stack = self.spans, self._stack

        def leaf(x):
            t0 = _now()
            try:
                return fn(x)
            finally:
                spans.append((name, t0, _now(), stack[-1], self.op_id))
        return leaf

    def operation(self, fn, *args):
        """Run one benchmark operation as a root span with a fresh op id."""
        self.op_id += 1
        return self.call("operation", fn, *args)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "op_id"], "spans": self.spans}, fh)


def self_times(spans) -> tuple[dict[str, int], dict[str, int], dict[str, int]]:
    """Per span name: total duration, total self time, and span count.

    Self time is a span's duration minus the durations of its direct
    children; children never overlap because the workload is sequential.
    """
    child = [0] * len(spans)
    for _, t0, t1, parent, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    total: dict[str, int] = defaultdict(int)
    own: dict[str, int] = defaultdict(int)
    count: dict[str, int] = defaultdict(int)
    for i, (name, t0, t1, _, _) in enumerate(spans):
        total[name] += t1 - t0
        own[name] += t1 - t0 - child[i]
        count[name] += 1
    return dict(total), dict(own), dict(count)


def children_of(spans, parent_name: str) -> dict[str, int]:
    """How many spans of each name have a direct parent called ``parent_name``."""
    out: dict[str, int] = defaultdict(int)
    for name, _, _, parent, _ in spans:
        if parent >= 0 and spans[parent][0] == parent_name:
            out[name] += 1
    return dict(out)


def span_cost_ns() -> float:
    """Time a span adds to its parent outside its own [start, end].

    Measured by wrapping an identity function as a leaf: the wall time of
    the wrapped loop, less the loop with the bare function, less the
    recorded span time.
    """
    ident = lambda x: x  # noqa: E731
    best = None
    for _ in range(5):
        t0 = _now()
        for i in range(SPAN_COST_SAMPLES):
            ident(i)
        bare = _now() - t0
        tracer = Tracer()
        wrapped = tracer.wrap_leaf("x", ident)
        t0 = _now()
        for i in range(SPAN_COST_SAMPLES):
            wrapped(i)
        traced = _now() - t0
        inside = sum(t1 - s0 for _, s0, t1, _, _ in tracer.spans)
        cost = (traced - bare - inside) / SPAN_COST_SAMPLES
        best = cost if best is None else min(best, cost)
    return best
