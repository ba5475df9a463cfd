"""In-memory span recording for the traced run.

Spans are opened around the benchmark's calls into the program and,
through an ``ExecutionContext`` hook, around the stage events the
program already emits.  Nothing is written until the run ends; then
:meth:`Tracer.write_chrome` exports Chrome Trace Event JSON, which
Perfetto (ui.perfetto.dev) and ``chrome://tracing`` open directly.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    op: int
    parent: int | None
    thread: int
    end: float = 0.0
    args: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans per thread; each span names its parent span
    and the operation it belongs to."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, op: int | None = None, args: dict | None = None) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if op is None:
            op = self.spans[parent].op if parent is not None else -1
        span = Span(
            name, time.perf_counter(), op, parent, threading.get_ident(), args=dict(args or {})
        )
        with self._lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        stack = self._stack()
        if not stack or stack[-1] != index:
            raise RuntimeError(f"span {self.spans[index].name!r} closed out of order")
        stack.pop()

    @contextmanager
    def span(self, name: str, op: int | None = None, **args):
        index = self.open(name, op, args)
        try:
            yield self.spans[index]
        finally:
            self.close(index)

    def hook(self, event) -> None:
        """``ExecutionContext`` hook: one span per program stage event."""
        if event.phase == "start":
            self.open(event.stage, args=event.meta)
        else:
            self.close(self._stack()[-1])

    # -- views ---------------------------------------------------------
    def children(self) -> dict[int, list[int]]:
        kids: dict[int, list[int]] = {}
        for i, s in enumerate(self.spans):
            if s.parent is not None:
                kids.setdefault(s.parent, []).append(i)
        return kids

    def self_times(self) -> list[float]:
        """Per span: duration minus the part of it its children cover.

        Children of one span run on its thread one after another, so the
        covered part is the union of their (sorted, clipped) intervals.
        """
        kids = self.children()
        out = []
        for i, s in enumerate(self.spans):
            covered, reach = 0.0, s.start
            for c in sorted(kids.get(i, ()), key=lambda j: self.spans[j].start):
                lo = max(self.spans[c].start, reach)
                hi = min(self.spans[c].end, s.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out.append(s.duration - covered)
        return out

    def write_chrome(self, path) -> None:
        """Chrome Trace Event JSON: one complete (``"X"``) event per span."""
        t0 = min((s.start for s in self.spans), default=0.0)
        tids = {t: k for k, t in enumerate(dict.fromkeys(s.thread for s in self.spans))}
        events = [
            {
                "name": s.name,
                "ph": "X",
                "ts": (s.start - t0) * 1e6,
                "dur": s.duration * 1e6,
                "pid": 1,
                "tid": tids[s.thread],
                "args": {"op": s.op, "span": i, "parent": s.parent, **_jsonable(s.args)},
            }
            for i, s in enumerate(self.spans)
        ]
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


def _jsonable(args: dict) -> dict:
    return {k: v if isinstance(v, (int, float, str, bool)) or v is None else str(v)
            for k, v in args.items()}
