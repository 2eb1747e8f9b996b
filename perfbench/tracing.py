"""In-memory span tracer that instruments treemaml from outside the package.

Each wrapped call records one span: name, start, end, the index of the span
that was open when it started (its parent, -1 for none) and the tracer's run
id. Spans stay in a list until `write` dumps them once, after the timed work.
Counters (flops, items inserted, clusters formed, ...) are taken at the same
boundaries through per-wrapper hooks that read the call's arguments and result.

Wrapping replaces the module attribute that callers resolve at call time, so
`patch(treemaml.meta, "adapt_tree", ...)` catches `meta_train`'s and
`adapt_and_evaluate`'s calls without touching the package.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

_now = time.perf_counter


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []  # [name, start, end, parent_index]
        self.counts: dict = defaultdict(int)
        self._open = -1

    def wrap(self, fn, name: str, hook=None):
        """Return fn recorded as span `name`; hook(args, result) runs after it."""
        spans = self.spans

        def traced(*args, **kwargs):
            parent = self._open
            span = [name, 0.0, 0.0, parent]
            self._open = len(spans)
            spans.append(span)
            span[1] = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = _now()
                self._open = parent
            if hook is not None:
                hook(args, result)
            return result

        return traced

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) once as span `name`."""
        return self.wrap(fn, name)(*args, **kwargs)

    def patch(self, module, attr: str, name: str, hook=None) -> None:
        """Replace module.attr by its traced wrapper for the rest of the process."""
        setattr(module, attr, self.wrap(getattr(module, attr), name, hook))

    def summary(self) -> dict:
        """Per span name: calls, total seconds, and self seconds.

        Self time is a span's duration minus the time covered by its direct
        children. Calls are nested and single-threaded, so children never
        overlap each other and their durations add up to the covered time.
        """
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict = {}
        for (name, start, end, _), child_s in zip(self.spans, covered):
            agg = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["s"] += end - start
            agg["self_s"] += end - start - child_s
        return out

    def durations(self, name: str) -> list:
        return [end - start for n, start, end, _ in self.spans if n == name]

    def write(self, path) -> None:
        """Dump every span as one JSON array per line."""
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start, end, parent, self.run_id]) + "\n")
