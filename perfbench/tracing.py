"""In-memory spans recorded around the benchmark's calls into gepsolve.

A span has a name (the layer and call, such as ``solvers.run_power``), start
and end in nanoseconds, the index of the span that was open when it started
and the id of the op it belongs to. Spans stay in a list until the run ends.
With tracing off every call returns the same no-op context, so the untimed
bookkeeping of the untraced run is one attribute lookup per call.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    op: int
    attrs: dict = field(default_factory=dict)

    @property
    def ns(self) -> int:
        return self.end_ns - self.start_ns

    def to_dict(self) -> dict:
        return {"name": self.name, "start_ns": self.start_ns, "end_ns": self.end_ns,
                "parent": self.parent, "op": self.op,
                "attrs": {k: v for k, v in self.attrs.items()
                          if isinstance(v, (int, float, str))}}


_OFF = contextlib.nullcontext({})


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._ops = 0

    def span(self, name: str, **attrs):
        """Context manager timing one call. The yielded dict is stored as the
        span's attributes, so the caller can attach counts it learns inside."""
        if not self.enabled:
            return _OFF
        return self._record(name, attrs)

    @contextlib.contextmanager
    def _record(self, name: str, attrs: dict):
        parent = self._open[-1] if self._open else None
        if parent is None:
            self._ops += 1
            op = self._ops
        else:
            op = self.spans[parent].op
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter_ns(), 0, parent, op, attrs))
        self._open.append(index)
        try:
            yield attrs
        finally:
            self._open.pop()
            self.spans[index].end_ns = time.perf_counter_ns()

    def add(self, name: str, start_ns: int, end_ns: int, **attrs) -> None:
        """Record a span measured elsewhere as a child of the open span."""
        if not self.enabled:
            return
        parent = self._open[-1] if self._open else None
        op = self.spans[parent].op if parent is not None else 0
        self.spans.append(Span(name, start_ns, end_ns, parent, op, attrs))

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]


def self_times(spans: list[Span]) -> dict[int, int]:
    """Self time per span index: its duration minus the union of the
    intervals its direct children cover within it."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for i, s in enumerate(spans):
        covered = 0
        cursor = s.start_ns
        for c in sorted(children.get(i, []), key=lambda c: c.start_ns):
            lo, hi = max(c.start_ns, cursor), min(c.end_ns, s.end_ns)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[i] = s.ns - covered
    return out


def layer_ns_by_op(spans: list[Span]) -> dict[int, dict[str, int]]:
    """Self time per op and span name: what each layer cost inside an op."""
    own = self_times(spans)
    out: dict[int, dict[str, int]] = {}
    for i, s in enumerate(spans):
        layers = out.setdefault(s.op, {})
        layers[s.name] = layers.get(s.name, 0) + own[i]
    return out
