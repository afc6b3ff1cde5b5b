"""In-memory spans and counts for the traced benchmark run.

A span is (id, parent id, op, name, start, end); spans of one op share
the op name, and nested spans name the span that caused them.  Nothing
is written until the run ends.  ``NULL`` is the recorder used with
tracing off: its spans are a shared no-op context and its counts are
dropped.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import Counter

CLOCK = time.process_time
"""The benchmark's clock: CPU time of this process.  The load is one
single-threaded process, so on an idle core this equals wall time; on a
shared host it leaves out the time the process waits for a core."""


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.op = None
        self._stack = []

    @contextlib.contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(sid)
        start = CLOCK()
        try:
            yield
        finally:
            end = CLOCK()
            self._stack.pop()
            self.spans[sid] = (sid, parent, self.op, name, start, end)

    def count(self, name: str, k: int = 1):
        self.counts[name] += k

    @property
    def active(self) -> bool:
        """True while a span is open."""
        return bool(self._stack)

    def total(self, name: str) -> float:
        """Summed duration of every span with this name, in seconds."""
        return sum(s[5] - s[4] for s in self.spans if s[3] == name)

    def op_total(self, op: str, names) -> float:
        return sum(s[5] - s[4] for s in self.spans if s[2] == op and s[3] in names)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, op, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "op": op, "name": name,
                                     "start": start, "end": end}) + "\n")


class _NullTracer:
    _span = contextlib.nullcontext()

    def span(self, name: str):
        return self._span

    def count(self, name: str, k: int = 1):
        pass


NULL = _NullTracer()
