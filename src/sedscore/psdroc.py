"""Operating-point sweeps to ROC curves and the polyphonic detection score.

Each class's operating points (eFPR, TP ratio) are reduced to their best
trade-offs, interpolated as a right-continuous staircase, merged across
classes into one polyphonic curve, and integrated up to an eFPR budget.
The normalized area is the PSDS: 1 for a system that detects everything
with no false positives anywhere in the budget, 0 for a system that
detects nothing.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import groupby
from operator import attrgetter
from typing import Mapping, Sequence

from .events import EvalParams
from .rates import ClassRates, effective_tpr

__all__ = [
    "OpPoint",
    "ClassCurve",
    "PsdRoc",
    "pareto_filter",
    "staircase",
    "merge_psd_roc",
    "integrate_psds",
    "psd_roc_from_rates",
]


@dataclass(frozen=True)
class OpPoint:
    """One class's (eFPR, TP ratio) coordinates at one operating point."""

    efpr: float
    tp_ratio: float
    op_id: str = ""


@dataclass(frozen=True)
class ClassCurve:
    """Right-continuous staircase ROC of one class.

    ``breakpoints`` are (efpr, tp_ratio) pairs with strictly increasing
    efpr and non-decreasing tp_ratio. The curve is 0 below the first
    breakpoint, holds each value up to the next breakpoint, and holds the
    last value forever. No breakpoints means the all-zero curve.
    """

    class_label: str
    breakpoints: tuple[tuple[float, float], ...]

    @cached_property
    def _efprs(self) -> tuple[float, ...]:
        return tuple(e for e, _ in self.breakpoints)

    def value_at(self, efpr: float) -> float:
        idx = bisect.bisect_right(self._efprs, efpr)
        if idx == 0:
            return 0.0
        return self.breakpoints[idx - 1][1]


@dataclass(frozen=True)
class PsdRoc:
    """Merged polyphonic ROC staircase and its normalized area.

    ``points`` sample the staircase on the union of all class breakpoints
    within [0, max_efpr] plus both ends; between those abscissae every
    class curve is constant, so the representation is exact. ``curves``
    and ``op_points`` keep the per-class staircases and the raw, unfiltered
    operating points for export.
    """

    points: tuple[tuple[float, float], ...]
    psds: float
    max_efpr: float
    alpha_st: float
    clamped: bool = True
    params: EvalParams | None = None
    curves: Mapping[str, ClassCurve] = field(default_factory=dict)
    op_points: Mapping[str, tuple[OpPoint, ...]] = field(default_factory=dict)


def pareto_filter(points: Sequence[OpPoint]) -> list[OpPoint]:
    """Drop operating points that are no one's best trade-off.

    A point is dominated when some other point has a strictly higher TP
    ratio at an equal or lower eFPR; nobody would ever pick it in practice.
    The survivors, sorted by eFPR, have non-decreasing TP ratio. Applying
    the filter twice changes nothing.

    One sort plus a running maximum of the TP ratio over all points at or
    below each eFPR, so the cost is O(P log P).
    """
    ordered = sorted(points, key=lambda p: (p.efpr, p.tp_ratio, p.op_id))
    kept: list[OpPoint] = []
    best = -math.inf
    for _, group in groupby(ordered, key=attrgetter("efpr")):
        group = list(group)
        best = max(best, group[-1].tp_ratio)  # a group ascends in TP ratio
        kept.extend(p for p in group if p.tp_ratio >= best)
    return kept


def staircase(points: Sequence[OpPoint], class_label: str = "") -> ClassCurve:
    """Interpolate filtered operating points into a staircase curve.

    Points sharing an eFPR collapse to their best TP ratio. An empty input
    yields the valid all-zero curve rather than an error, so a sweep
    containing one broken system still produces comparable reports.
    """
    best: dict[float, float] = {}
    for p in points:
        if p.efpr not in best or p.tp_ratio > best[p.efpr]:
            best[p.efpr] = p.tp_ratio
    breakpoints = tuple(sorted(best.items()))
    for (_, lo), (_, hi) in zip(breakpoints, breakpoints[1:]):
        if hi < lo:
            raise ValueError("staircase input is not Pareto-filtered")
    return ClassCurve(class_label=class_label, breakpoints=breakpoints)


def integrate_psds(points: Sequence[tuple[float, float]], max_efpr: float) -> float:
    """Exact area under a right-continuous staircase on [0, max_efpr], normalized.

    ``points`` are sorted (efpr, value) samples; the curve is 0 before the
    first point and holds the last value up to ``max_efpr``. Piecewise
    constant, so there is no quadrature error.
    """
    if not max_efpr > 0:
        raise ValueError(f"max_efpr must be > 0, got {max_efpr}")
    area = 0.0
    prev_e, prev_v = 0.0, 0.0
    for e, v in points:
        e = min(max(e, 0.0), max_efpr)
        if e > prev_e:
            area += prev_v * (e - prev_e)
        prev_e, prev_v = e, v
    area += prev_v * (max_efpr - prev_e)
    return area / max_efpr


def merge_psd_roc(
    curves: Mapping[str, ClassCurve],
    alpha_st: float,
    max_efpr: float,
    *,
    clamp: bool = True,
    params: EvalParams | None = None,
    op_points: Mapping[str, tuple[OpPoint, ...]] | None = None,
) -> PsdRoc:
    """Average the class staircases into one polyphonic ROC and integrate it.

    At every grid abscissa the merged value is the cross-class effective TP
    ratio (mean minus ``alpha_st`` times the population standard
    deviation). With ``alpha_st`` 0 the merged curve is non-decreasing;
    with a positive ``alpha_st`` it need not be, because the spread between
    classes can grow faster than the mean.
    """
    if not curves:
        raise ValueError("merge_psd_roc needs at least one class curve")
    if not max_efpr > 0:
        raise ValueError(f"max_efpr must be > 0, got {max_efpr}")
    grid = {0.0, max_efpr}
    for curve in curves.values():
        grid.update(e for e, _ in curve.breakpoints if e <= max_efpr)
    points = tuple(
        (e, effective_tpr((c.value_at(e) for c in curves.values()), alpha_st, clamp=clamp))
        for e in sorted(grid)
    )
    return PsdRoc(
        points=points,
        psds=integrate_psds(points, max_efpr),
        max_efpr=max_efpr,
        alpha_st=alpha_st,
        clamped=clamp,
        params=params,
        curves=dict(curves),
        op_points=dict(op_points) if op_points is not None else {},
    )


def psd_roc_from_rates(
    rates_by_op: Mapping[str, Mapping[str, ClassRates]],
    params: EvalParams,
    *,
    clamp: bool = True,
) -> PsdRoc:
    """Full pipeline from per-operating-point rates to the PSD ROC.

    ``rates_by_op`` maps operating-point ids to per-class rates, as
    produced by :func:`sedscore.rates.compute_rates` per detection table.
    Operating points whose eFPR exceeds ``params.max_efpr`` still
    participate (they are kept in the raw export) but cannot create
    breakpoints inside the integration window.
    """
    if not rates_by_op:
        raise ValueError("psd_roc_from_rates needs at least one operating point")
    class_sets = {tuple(sorted(rates)) for rates in rates_by_op.values()}
    if len(class_sets) != 1:
        raise ValueError("operating points disagree on the class set")
    classes = class_sets.pop()
    op_points = {
        c: tuple(
            OpPoint(efpr=rates_by_op[op][c].efpr, tp_ratio=rates_by_op[op][c].tp_ratio, op_id=op)
            for op in sorted(rates_by_op)
        )
        for c in classes
    }
    curves = {c: staircase(pareto_filter(op_points[c]), c) for c in classes}
    return merge_psd_roc(
        curves,
        params.alpha_st,
        params.max_efpr,
        clamp=clamp,
        params=params,
        op_points=op_points,
    )
