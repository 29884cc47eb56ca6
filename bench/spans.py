"""In-memory spans for the traced run.

A span records its name, start, end, parent span and the id of the
workload operation it belongs to.  Spans stay in memory; the caller writes
them out once, when the benchmark ends.  ``NULL.span`` records nothing, so
one code path serves the traced and untraced replays.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from time import perf_counter
from typing import Dict, List, Optional


class _Span:
    __slots__ = ("tracer", "rec")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.rec = {"name": name}

    def __enter__(self):
        tr = self.tracer
        rec = self.rec
        rec["id"] = len(tr.spans)
        rec["parent"] = tr.stack[-1] if tr.stack else None
        rec["op"] = tr.op
        tr.spans.append(rec)
        tr.stack.append(rec["id"])
        rec["start"] = perf_counter()
        return rec

    def __exit__(self, *exc):
        self.rec["end"] = perf_counter()
        self.tracer.stack.pop()
        return False


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Dict] = []
        self.stack: List[int] = []
        self.op: Optional[str] = None

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    @contextmanager
    def operation(self, op_id: str, name: str):
        """Root span of one workload operation; nested spans carry ``op_id``."""
        outer, self.op = self.op, op_id
        try:
            with self.span(name) as rec:
                yield rec
        finally:
            self.op = outer

    def children(self, rec: Dict) -> List[Dict]:
        return [s for s in self.spans if s["parent"] == rec["id"]]


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


class _NullTracer:
    _span = _NullSpan()

    def span(self, name: str) -> _NullSpan:
        return self._span


NULL = _NullTracer()


class AlignmentCounter:
    """Counts calls into ``scdkit.alignment.align`` made from other modules.

    While active, every ``scdkit`` module that holds a reference to
    ``align`` sees a wrapper that adds to ``calls``, ``cells`` (the
    (n+1)(m+1) DP cells of the call) and ``seconds``.  The references are
    restored on exit.
    """

    def __init__(self) -> None:
        self.calls = 0
        self.cells = 0
        self.seconds = 0.0

    @contextmanager
    def active(self):
        from scdkit import alignment

        original = alignment.align

        def counted(reference, hypothesis, *args, **kwargs):
            t0 = perf_counter()
            try:
                return original(reference, hypothesis, *args, **kwargs)
            finally:
                self.seconds += perf_counter() - t0
                self.calls += 1
                self.cells += (len(reference) + 1) * (len(hypothesis) + 1)

        patched = []
        for name, mod in list(sys.modules.items()):
            if not name.startswith("scdkit.") or mod is alignment:
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, counted)
                    patched.append((mod, attr))
        try:
            yield self
        finally:
            for mod, attr in patched:
                setattr(mod, attr, original)
