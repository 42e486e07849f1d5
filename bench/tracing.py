"""In-memory span recorder for the traced benchmark run.

A span records one call from the benchmark into a semlab module: its name,
start and end (perf_counter seconds), the index of the enclosing span (-1
at top level), the id of the task it served, the run phase it belongs to
(`setup`, `cli`, `cli-lib`, `anchor`, `pass<k>`) and a free tag (the
instance, a count, or whether the call found what it searched for).
Spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

_NAME, _START, _END, _PARENT, _TASK, _PHASE, _TAG = range(7)


class Span:
    """Context manager for one open span; `tag` may be set before it closes."""

    __slots__ = ("_tracer", "_record")

    def __init__(self, tracer: "Tracer", record: list):
        self._tracer = tracer
        self._record = record

    def __enter__(self) -> "Span":
        tr = self._tracer
        self._record[_PARENT] = tr._open[-1] if tr._open else -1
        tr._open.append(len(tr.spans))
        tr.spans.append(self._record)
        self._record[_START] = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        self._record[_END] = time.perf_counter()
        self._tracer._open.pop()
        return False

    def rename(self, name: str) -> None:
        self._record[_NAME] = name

    @property
    def tag(self) -> str:
        return self._record[_TAG]

    @tag.setter
    def tag(self, value: str) -> None:
        self._record[_TAG] = value


class Tracer:
    """Collects spans; `task` and `phase` label every span opened next."""

    enabled = True

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self.task = -1
        self.phase = "setup"

    def span(self, name: str, tag: str = "") -> Span:
        return Span(self, [name, 0.0, 0.0, -1, self.task, self.phase, tag])

    def durations(self, phase: str) -> dict[str, list[float]]:
        """Durations of the spans of one phase, by name."""
        out: dict[str, list[float]] = defaultdict(list)
        for rec in self.spans:
            if rec[_PHASE] == phase:
                out[rec[_NAME]].append(rec[_END] - rec[_START])
        return out

    def tagged(self, name: str, phase: str | None = None) -> list[tuple[str, float]]:
        """(tag, duration) of every span called `name`."""
        return [
            (rec[_TAG], rec[_END] - rec[_START])
            for rec in self.spans
            if rec[_NAME] == name and (phase is None or rec[_PHASE] == phase)
        ]

    def self_times(self, phase: str) -> dict[str, float]:
        """Total self time by span name within one phase: a span's duration
        minus the part of it that its child spans cover."""
        child = defaultdict(float)
        for rec in self.spans:
            if rec[_PARENT] >= 0:
                child[rec[_PARENT]] += rec[_END] - rec[_START]
        out: dict[str, float] = defaultdict(float)
        for i, rec in enumerate(self.spans):
            if rec[_PHASE] == phase:
                out[rec[_NAME]] += rec[_END] - rec[_START] - child[i]
        return out

    def write(self, path) -> None:
        keys = ("name", "start", "end", "parent", "task", "phase", "tag")
        with open(path, "w", encoding="ascii") as fh:
            json.dump([dict(zip(keys, rec)) for rec in self.spans], fh)
            fh.write("\n")


class _NullSpan:
    __slots__ = ()
    tag = ""

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def __setattr__(self, name, value) -> None:
        pass

    def rename(self, name: str) -> None:
        pass


class NullTracer:
    """Stand-in for untraced runs: every span is one shared no-op."""

    enabled = False
    _null = _NullSpan()

    def __init__(self):
        self.task = -1
        self.phase = "setup"

    def span(self, name: str, tag: str = "") -> _NullSpan:
        return self._null
