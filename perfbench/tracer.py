"""In-memory spans for the traced benchmark run.

A span is (name, start, end, parent index, job id, count).  Spans are kept
in a list while the run lasts and written out once at the end.  Tracing is
done from the benchmark's side: it wraps the calls it makes into each layer,
and, for layers that other layers call internally, it temporarily replaces
the module attribute that the caller looks up at call time.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    """Collects spans when ``enabled``; a disabled tracer records nothing."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.job = ""
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        """Record one span; the body may set ``rec[5]`` to a work count."""
        if not self.enabled:
            yield [name, 0.0, 0.0, -1, self.job, 0]
            return
        parent = self._stack[-1] if self._stack else -1
        rec = [name, time.perf_counter(), 0.0, parent, self.job, 0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def patch(self, module, attr: str, name: str, count=None) -> None:
        """Replace ``module.attr`` by a wrapper that records a span per call;
        ``count(args, result)`` gives the span's work count."""
        original = getattr(module, attr)

        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = original(*args, **kwargs)
                if count is not None:
                    rec[5] = count(args, result)
                return result

        self._patched.append((module, attr, original))
        setattr(module, attr, traced)

    def unpatch(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    # -- aggregation -------------------------------------------------------

    def child_times(self) -> list[float]:
        """Per span, the time covered by its direct children."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return covered

    def totals(self, jobs_only: bool = False) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive time, self time and work count,
        over all spans or only those recorded inside a job.  Self time is the
        duration minus the time covered by child spans."""
        covered = self.child_times()
        out: dict[str, dict[str, float]] = {}
        for k, (name, start, end, _, job, count) in enumerate(self.spans):
            if jobs_only and not job:
                continue
            t = out.setdefault(name, {"calls": 0, "total_s": 0.0,
                                      "self_s": 0.0, "count": 0})
            t["calls"] += 1
            t["total_s"] += end - start
            t["self_s"] += end - start - covered[k]
            t["count"] += count
        return out

    def write(self, path) -> None:
        """One JSON list per line: name, start, end, parent, job, count."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
