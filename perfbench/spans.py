"""In-memory spans around calls into each layer, and their self times.

A span records a name, start and end (``time.perf_counter`` seconds), the
span open when it started, the workload and the operating point it
serves, plus any counts recorded at that boundary. Layers are the first
component of a span name (``io.parse`` belongs to ``io``). Spans stay in
memory until :meth:`Tracer.write` puts them out as JSON lines.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterator


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    workload: str
    op: str | None
    counts: dict[str, int] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects nested spans of one single-threaded run."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: list[Span] = []
        self._open: list[Span] = []

    @contextmanager
    def span(self, name: str, op: str | None = None) -> Iterator[Span]:
        parent = self._open[-1] if self._open else None
        if op is None and parent is not None:
            op = parent.op
        sp = Span(
            id=len(self.spans),
            name=name,
            start=time.perf_counter(),
            end=float("nan"),
            parent=None if parent is None else parent.id,
            workload=self.workload,
            op=op,
        )
        self.spans.append(sp)
        self._open.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._open.pop()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for sp in self.spans:
                out.write(json.dumps(asdict(sp)) + "\n")


def covered(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list[Span]) -> dict[str, float]:
    """Summed self time per span name.

    A span's self time is its duration minus the part of its interval that
    its direct children cover.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for sp in spans:
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append((sp.start, sp.end))
    totals: dict[str, float] = {}
    for sp in spans:
        own = sp.duration - covered(sp.start, sp.end, children.get(sp.id, []))
        totals[sp.name] = totals.get(sp.name, 0.0) + own
    return totals


def summed_counts(spans: list[Span]) -> dict[str, int]:
    """Counts recorded on spans, summed per ``<span name>.<count name>``."""
    totals: dict[str, int] = {}
    for sp in spans:
        for key, value in sp.counts.items():
            name = f"{sp.name}.{key}"
            totals[name] = totals.get(name, 0) + value
    return totals
