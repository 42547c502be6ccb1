"""Independent DTC/GTC/CTTC counter that checks the program's counts.

It shares no code with ``sedscore``: it parses the tables itself and
finds overlaps through sorted interval indexes instead of all pairs. The
corpus times are exact binary fractions, so coverage sums do not depend
on summation order and the verdicts must agree exactly.
"""

from __future__ import annotations

import bisect
from pathlib import Path

Row = tuple[str, float, float, str]
# class -> (n_gt, n_sys, n_tp, n_fp, {other class: cross-triggers})
Counts = dict[str, tuple[int, int, int, int, dict[str, int]]]


def read_rows(path: Path) -> list[Row]:
    lines = path.read_text(encoding="utf-8").splitlines()[1:]
    rows = []
    for line in lines:
        f, on, off, label = line.split("\t")
        rows.append((f, float(on), float(off), label))
    return rows


class IntervalIndex:
    """Summed overlap of a query interval with a fixed set of intervals."""

    def __init__(self, intervals: list[tuple[float, float]]) -> None:
        self.intervals = sorted(intervals)
        self.onsets = [on for on, _ in self.intervals]
        self.longest = max((off - on for on, off in self.intervals), default=0.0)

    def coverage(self, on: float, off: float) -> float:
        total = 0.0
        i = bisect.bisect_left(self.onsets, on - self.longest)
        while i < len(self.intervals) and self.intervals[i][0] < off:
            g_on, g_off = self.intervals[i]
            total += max(0.0, min(off, g_off) - max(on, g_on))
            i += 1
        return total


def _index(rows: list[Row]) -> dict[tuple[str, str], IntervalIndex]:
    groups: dict[tuple[str, str], list[tuple[float, float]]] = {}
    for f, on, off, label in rows:
        groups.setdefault((f, label), []).append((on, off))
    return {key: IntervalIndex(iv) for key, iv in groups.items()}


class Oracle:
    """Expected counts of detection tables against one ground truth."""

    def __init__(self, gt: list[Row], dtc: float, gtc: float, cttc: float) -> None:
        self.gt = gt
        self.classes = sorted({label for *_, label in gt})
        self.dtc, self.gtc, self.cttc = dtc, gtc, cttc
        self.gt_index = _index(gt)
        self._verdicts: dict[Row, tuple[bool, tuple[str, ...]]] = {}

    def _coverage(self, f: str, label: str, on: float, off: float) -> float:
        index = self.gt_index.get((f, label))
        return 0.0 if index is None else index.coverage(on, off)

    def _verdict(self, det: Row) -> tuple[bool, tuple[str, ...]]:
        """(relevant, classes cross-triggered) of one detection.

        Both depend on the detection alone, so nested tables share them.
        """
        if det not in self._verdicts:
            f, on, off, label = det
            relevant = self._coverage(f, label, on, off) / (off - on) >= self.dtc
            triggered = () if relevant else tuple(
                other
                for other in self.classes
                if other != label
                and self._coverage(f, other, on, off) / (off - on) >= self.cttc
            )
            self._verdicts[det] = (relevant, triggered)
        return self._verdicts[det]

    def counts(self, dets: list[Row]) -> Counts:
        n_sys = dict.fromkeys(self.classes, 0)
        n_fp = dict.fromkeys(self.classes, 0)
        ct = {c: dict.fromkeys((o for o in self.classes if o != c), 0) for c in self.classes}
        relevant = []
        for det in dets:
            label = det[3]
            n_sys[label] += 1
            is_relevant, triggered = self._verdict(det)
            if is_relevant:
                relevant.append(det)
            else:
                n_fp[label] += 1
                for other in triggered:
                    ct[label][other] += 1
        det_index = _index(relevant)
        n_gt = dict.fromkeys(self.classes, 0)
        n_tp = dict.fromkeys(self.classes, 0)
        for f, on, off, label in self.gt:
            n_gt[label] += 1
            index = det_index.get((f, label))
            coverage = 0.0 if index is None else index.coverage(on, off)
            if coverage / (off - on) >= self.gtc:
                n_tp[label] += 1
        return {c: (n_gt[c], n_sys[c], n_tp[c], n_fp[c], ct[c]) for c in self.classes}


def counts_of(matrix) -> Counts:
    """A ``sedscore`` CountsMatrix in the oracle's form."""
    return {
        c: (
            matrix.n_gt[c],
            matrix.n_sys[c],
            matrix.n_tp[c],
            matrix.n_fp[c],
            dict(matrix.cross_triggers[c]),
        )
        for c in matrix.classes
    }
