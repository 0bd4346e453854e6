"""In-memory span recorder for the benchmark's traced runs.

A span is one call across a layer boundary: name, start, end, the index
of the span that encloses it, and the run id shared by every span of a
run.  Spans are kept in a list while the run executes and written out
once it ends.  When tracing is off, `span` hands back one shared no-op
context, so untraced runs pay only an attribute lookup and a call.
"""
from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import nullcontext

__all__ = ["Tracer"]


class _Span:
    __slots__ = ("_tracer", "_record")

    def __init__(self, tracer, record):
        self._tracer = tracer
        self._record = record

    def __enter__(self):
        tracer = self._tracer
        self._record[3] = tracer._stack[-1] if tracer._stack else None
        tracer._stack.append(len(tracer.spans))
        tracer.spans.append(self._record)
        self._record[1] = time.perf_counter()

    def __exit__(self, *exc_info):
        self._record[2] = time.perf_counter()
        self._tracer._stack.pop()
        return False


class Tracer:
    """Records spans when enabled; a no-op otherwise.

    Each record is [name, start, end, parent_index, attrs].  attrs holds
    work counts fixed before the call (points, steps), so ratios such as
    ns per point are taken at the boundary where the work happens.
    """

    def __init__(self, run_id: str, enabled: bool):
        self.run_id = run_id
        self.enabled = enabled
        self.spans: list = []
        self._stack: list = []
        self._off = nullcontext()

    def span(self, name: str, **attrs):
        if not self.enabled:
            return self._off
        return _Span(self, [name, 0.0, 0.0, None, attrs])

    def by_name(self, name: str) -> list:
        """Records of every span called `name`, in start order."""
        return [s for s in self.spans if s[0] == name]

    def self_seconds(self) -> dict:
        """Per span name: total duration minus the time its children cover.

        Spans nest strictly (one thread), so children never overlap and
        their durations can simply be subtracted from the parent's.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return dict(out)

    def write(self, path) -> None:
        """Write every span as one JSON line; called once the run has ended."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, attrs) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "run_id": self.run_id,
                            **attrs,
                        }
                    )
                    + "\n"
                )
