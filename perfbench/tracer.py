"""In-memory spans and counters recorded from outside the program.

A span has a name, start, end, parent span and job id.  Self time is the
span's duration minus the time covered by its direct children; since the
benchmark is single-threaded, children never overlap.  Everything is kept
in memory and written out once the run ends.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.t0 = time.perf_counter()
        self.job: int | None = None
        self.spans: list[dict] = []
        self.counters: list[dict] = []
        self.self_times: dict[str, list[float]] = {}
        self._open: list[list] = []          # [span id, child time] per level

    @contextmanager
    def span(self, name: str, calls: int = 1):
        """Time the body and yield the span record, complete on exit;
        ``calls`` splits the self time evenly over that
        many calls of the layer (a per-path or per-replicate figure)."""
        sid = len(self.spans)
        rec = {"id": sid, "name": name,
               "parent": self._open[-1][0] if self._open else None,
               "job": self.job, "start": None, "end": None}
        self.spans.append(rec)
        frame = [sid, 0.0]
        self._open.append(frame)
        start = time.perf_counter()
        try:
            yield rec
        finally:
            end = time.perf_counter()
            self._open.pop()
            if self._open:
                self._open[-1][1] += end - start
            rec["start"], rec["end"] = start - self.t0, end - self.t0
            self.add_time(name, (end - start - frame[1]) / calls)

    def add_time(self, name: str, seconds: float) -> None:
        """Record a per-call time that no single span holds, such as a
        remainder between a real call and its replayed stages."""
        self.self_times.setdefault(name, []).append(seconds)

    def count(self, name: str, value: float) -> None:
        self.counters.append({"name": name, "value": float(value),
                              "job": self.job,
                              "span": self._open[-1][0] if self._open else None})

    def span_total(self, names, first: int = 0, job: int | None = None) -> float:
        """Summed duration of the named spans from index ``first`` on,
        optionally of one job only."""
        return sum(s["end"] - s["start"] for s in self.spans[first:]
                   if s["name"] in names and (job is None or s["job"] == job))

    def median_time(self, name: str) -> tuple[float, int]:
        """Median self time per call and the number of calls (0.0 when the
        layer was never called)."""
        vals = self.self_times.get(name, [])
        return (statistics.median(vals) if vals else 0.0), len(vals)

    def median_count(self, name: str) -> tuple[float, int]:
        vals = [c["value"] for c in self.counters if c["name"] == name]
        return (statistics.median(vals) if vals else 0.0), len(vals)
