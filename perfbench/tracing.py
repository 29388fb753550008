"""Call counting and span tracing around the program's public functions.

Every public call the benchmark makes goes through ``Calls.call``, which
counts attempts and raises.  When tracing is on it also records a span
(name, start, end, parent) for the call; the benchmark's stage blocks are
spans too, so each call span has the stage that caused it as its parent.
Spans stay in memory and are written out when the benchmark ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Calls:
    def __init__(self, trace: bool = False):
        self.trace = trace
        self.attempted = 0
        self.raised = 0
        self.spans: list[dict] = []
        self._open: list[int] = []
        self._t0 = time.perf_counter()

    @contextmanager
    def span(self, name: str):
        if not self.trace:
            yield
            return
        sid = len(self.spans)
        rec = {
            "id": sid,
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter() - self._t0,
            "end": None,
        }
        self.spans.append(rec)
        self._open.append(sid)
        try:
            yield
        finally:
            self._open.pop()
            rec["end"] = time.perf_counter() - self._t0

    def call(self, name: str, fn, *args, **kwargs):
        """``fn(*args, **kwargs)``, counted and (when tracing) spanned."""
        self.attempted += 1
        try:
            with self.span(name):
                return fn(*args, **kwargs)
        except Exception:
            self.raised += 1
            raise


def _covered(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total, reach = 0.0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Per span: its duration minus the part its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return {
        s["id"]: (s["end"] - s["start"]) - _covered(children.get(s["id"], ()))
        for s in spans
    }


def layer_self_times(spans: list[dict]) -> dict[str, float]:
    """Self time summed by layer, the span name's prefix before the dot."""
    own = self_times(spans)
    out: dict[str, float] = {}
    for s in spans:
        layer = s["name"].split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + own[s["id"]]
    return out


def total(spans: list[dict], name: str) -> float:
    """Summed duration of every span with this exact name."""
    return sum(s["end"] - s["start"] for s in spans if s["name"] == name)
