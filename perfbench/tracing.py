"""Spans recorded from outside the program, and the statistics built on them.

A span is one call into a public glproof function made by the benchmark:
its name, start, end, parent span, op id, the error it raised (if any) and
counts read off its return value.  Spans live in memory and are written out
once, when the run ends.  Nothing inside `src/` is instrumented.
"""

from __future__ import annotations

import json
import math
import statistics
import time

# The pure-Python reference loop takes REF_S in the machine's fast mode
# (2-core x86-64 host, Python 3.11).
REF_S = 1.0e-3
# Fixed tail percentile per workload; see tail() for the fallback.
TAIL_PCT = {"sweep": 99.0, "deep": 95.0, "pipeline": 90.0, "audit": 99.0, "cli": 75.0}


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "error", "attrs")

    def __init__(self, name, start, parent, op):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.error = None
        self.attrs = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self, index: int) -> dict:
        d = {"id": index, "name": self.name, "start": self.start, "end": self.end,
             "parent": self.parent, "op": self.op}
        if self.error:
            d["error"] = self.error
        if self.attrs:
            d["attrs"] = self.attrs
        return d


class Tracer:
    """Collects spans; `wrap` turns a public function into a traced one."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op = None

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent, self.op))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int, error: str | None = None) -> Span:
        span = self.spans[index]
        span.end = time.perf_counter()
        span.error = error
        self._stack.pop()
        return span

    def wrap(self, name: str, fn, attrs=None):
        """`attrs(args, result)` reads counts off the return value; it runs
        after the span has ended, so its cost is not charged to the layer."""

        def traced(*args):
            index = self.begin(name)
            try:
                result = fn(*args)
            except Exception as e:
                self.end(index, type(e).__name__)
                raise
            span = self.end(index)
            if attrs is not None:
                span.attrs = attrs(args, result)
            return result

        return traced

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.duration
        return own

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps(s.as_dict(i)) + "\n")


def untraced(name, fn, attrs=None):
    return fn


# ---------------------------------------------------------------------------
# Statistics

def reference_s() -> float:
    """One sample of a fixed pure-Python loop, dict and frozenset work as in
    glproof: the machine-speed reference for in-process work."""
    t0 = time.perf_counter()
    acc = {}
    for i in range(1500):
        k = (i % 97, i % 13)
        acc[k] = acc.get(k, 0) + 1
        fs = frozenset((i, i % 7, i % 11))
        acc[fs] = len(fs)
    return time.perf_counter() - t0


def tail(samples: list[float], pct: float) -> tuple[float, float, int]:
    """Nearest-rank value at `pct`, lowered to the highest percentile that
    keeps at least ten samples beyond it when there are too few samples.
    Returns (value, percentile used, samples beyond)."""
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        return 0.0, pct, 0
    rank = math.ceil(pct / 100.0 * n)
    if n - rank < 10:
        rank = max(1, n - 10)
        pct = 100.0 * rank / n
    return xs[rank - 1], pct, n - rank


def chunk_rate(durations: list[float], chunks: int = 20) -> float:
    """Median over `chunks` runs of consecutive ops, equal in op count, of
    ops in the run divided by their summed time.  An op that takes seconds
    slows one chunk instead of setting the whole figure."""
    k = max(1, len(durations) // chunks)
    rates = [k / sum(durations[i:i + k])
             for i in range(0, len(durations) - k + 1, k)]
    return statistics.median(rates) if rates else 0.0


def median(xs) -> float:
    xs = list(xs)
    return statistics.median(xs) if xs else 0.0
