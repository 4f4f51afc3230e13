"""In-memory spans recorded by the benchmark around its calls into ctgformer.

A span is (id, parent id, name, start, end, attrs). Spans are kept in a list
while the run executes and written out as JSON lines when it ends. A layer's
self time is a span's duration minus the time its child spans cover; since the
benchmark wraps public calls from outside, call spans are leaves and only the
structural spans (setup, epoch, step, pass, ...) have children.

A disabled tracer records nothing, so the untraced runs pay one no-op context
manager per call.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans = []          # [id, parent, name, start, end, attrs]
        self._stack = []

    @contextmanager
    def span(self, name: str, **attrs):
        """Time the enclosed block as one span; the yielded dict takes
        counts discovered inside the block (items, bytes, ...)."""
        if not self.enabled:
            yield attrs
            return
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = [sid, parent, name, time.perf_counter(), None, attrs]
        self.spans.append(record)
        self._stack.append(sid)
        try:
            yield attrs
        finally:
            record[4] = time.perf_counter()
            self._stack.pop()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for sid, parent, name, start, end, attrs in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end, **attrs}) + "\n")


class SpanStats:
    """Self times and counts aggregated from a finished tracer."""

    def __init__(self, spans):
        self.spans = spans
        child_time = [0.0] * len(spans)
        for sid, parent, _, start, end, _ in spans:
            if parent is not None:
                child_time[parent] += end - start
        self.self_s = [end - start - child_time[sid]
                       for sid, _, _, start, end, _ in spans]

    def named(self, name: str) -> list:
        return [s for s in self.spans if s[2] == name]

    def self_times(self, name: str) -> list:
        return [self.self_s[s[0]] for s in self.named(name)]

    def median_self(self, name: str) -> float:
        return statistics.median(self.self_times(name))

    def total_self(self, name: str) -> float:
        return sum(self.self_times(name))

    def attr_total(self, name: str, key: str) -> float:
        return sum(s[5][key] for s in self.named(name))

    def attr_values(self, name: str, key: str) -> list:
        return [s[5][key] for s in self.named(name)]

    def rate(self, name: str, key: str) -> float:
        """Sum of an attribute over the spans, per second of their self time."""
        return self.attr_total(name, key) / self.total_self(name)

    def per_parent(self, child: str, parent: str, key=None) -> list:
        """For each ``parent`` span, the sum over its direct children whose
        name starts with ``child``: of self time, or of attribute ``key``."""
        sums = {s[0]: 0 for s in self.named(parent)}
        for s in self.spans:
            if s[1] in sums and s[2].startswith(child):
                sums[s[1]] += self.self_s[s[0]] if key is None else s[5][key]
        return list(sums.values())

    def layer_self(self) -> dict:
        """Total self time by layer (the span name's prefix before the dot)."""
        out = {}
        for s, t in zip(self.spans, self.self_s):
            layer = s[2].split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + t
        return out
