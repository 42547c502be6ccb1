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
from itertools import groupby, repeat
from operator import itemgetter
from typing import Iterator, Mapping, NamedTuple, Sequence

from .events import Dataset, EvalParams
from .matching import CountsMatrix
from .rates import ClassRates, _class_values, _unit_scales, effective_tpr

__all__ = [
    "OpPoint",
    "ClassCurve",
    "PsdRoc",
    "pareto_filter",
    "staircase",
    "merge_psd_roc",
    "integrate_psds",
    "psd_roc_from_counts",
    "psd_roc_from_rates",
]


class OpPoint(NamedTuple):
    """One class's (eFPR, TP ratio) coordinates at one operating point.

    A tuple, so points order by eFPR, then TP ratio, then op id.
    """

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

    def value_at(self, efpr: float) -> float:
        idx = bisect.bisect_right(self.breakpoints, efpr, key=itemgetter(0))
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
    kept: list[OpPoint] = []
    best = -math.inf
    for _, group in groupby(sorted(points), key=itemgetter(0)):
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


def _staircase_rows(
    breakpoints: Sequence[Sequence[Sequence[float]]], grid: Sequence[float]
) -> Iterator[tuple[float, ...]]:
    """Each staircase's value at each abscissa of an ascending grid.

    ``breakpoints`` holds one staircase's ``(efpr, tp_ratio)`` pairs per
    class, in ascending eFPR, as :attr:`ClassCurve.breakpoints` and a
    report's ``class_rocs`` hold them. Gives one tuple per abscissa: the
    abscissa, then each staircase's value there, as
    :meth:`ClassCurve.value_at` gives it. Each staircase's breakpoints are
    walked once along the grid, which measures faster than a bisection
    per abscissa.
    """
    columns = []
    for pairs in breakpoints:
        column = []
        walk = iter(pairs)
        value = 0.0
        ahead = next(walk, None)  # the first breakpoint not yet passed
        for e in grid:
            while ahead is not None and ahead[0] <= e:
                value = ahead[1]
                ahead = next(walk, None)
            column.append(value)
        columns.append(column)
    return zip(grid, *columns)


def integrate_psds(points: Sequence[tuple[float, float]], max_efpr: float) -> float:
    """Exact area under a right-continuous staircase on [0, max_efpr], normalized.

    ``points`` are sorted (efpr, value) samples; the curve is 0 before the
    first point and holds the last value up to ``max_efpr``. Piecewise
    constant, so there is no quadrature error.
    """
    if not 0 < max_efpr < math.inf:
        raise ValueError(f"max_efpr must be finite and > 0, got {max_efpr}")
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
    grid = {0.0, max_efpr}
    for curve in curves.values():
        grid.update(e for e, _ in curve.breakpoints if e <= max_efpr)
    rows = _staircase_rows([c.breakpoints for c in curves.values()], sorted(grid))
    points = tuple((e, effective_tpr(values, alpha_st, clamp=clamp)) for e, *values in rows)
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


# One op's values: ``(class, efpr, tp_ratio)`` of each of its classes.
_OpValues = Sequence[tuple[str, float, float]]


def _psd_roc(values_by_op: Mapping[str, _OpValues], params: EvalParams, clamp: bool) -> PsdRoc:
    """The PSD-ROC of each op's class values; ops may share one values object.

    A run of ops, in op-id order, that share one values object gives out
    each class's points in one step. Each class's curve is built from its
    distinct (eFPR, TP ratio) pairs, each with the values, signed zeros
    included, of the first op in op-id order that holds it; a curve keeps
    no op id, so it is the curve of every point. A NaN eFPR, which no order
    can place, or a negative one, which would lift the curve from eFPR 0
    on, is a ``ValueError`` naming the first op, in op-id order, and the
    class that hold one; ``-0.0`` is a valid eFPR.
    """
    runs: list[tuple[_OpValues, list[str]]] = []  # (values, the ops of a run)
    for op in sorted(values_by_op):
        values = values_by_op[op]
        if runs and runs[-1][0] is values:
            runs[-1][1].append(op)
        else:
            runs.append((values, [op]))
    distinct = {id(values): values for values, _ in runs}.values()
    class_sets = {tuple(sorted(c for c, _, _ in values)) for values in distinct}
    if len(class_sets) != 1:
        raise ValueError("operating points disagree on the class set")
    columns: dict[str, list[OpPoint]] = {c: [] for c in class_sets.pop()}
    # each class's distinct (efpr, tp_ratio); a dict keeps its first key's objects
    pairs: dict[str, dict[tuple[float, float], None]] = {c: {} for c in columns}
    for values, ops in runs:
        for c, efpr, tp_ratio in values:
            if not efpr >= 0:  # NaN sorts nowhere; a negative eFPR lies left of the curve
                problem = "a NaN eFPR" if math.isnan(efpr) else f"a negative eFPR {efpr}"
                raise ValueError(f"op '{ops[0]}': class '{c}' has {problem}")
            # tuple.__new__ makes each OpPoint without NamedTuple's Python-level __new__
            points = zip(repeat(efpr), repeat(tp_ratio), ops)
            columns[c].extend(map(tuple.__new__, repeat(OpPoint), points))
            pairs[c].setdefault((efpr, tp_ratio))
    op_points = {c: tuple(points) for c, points in columns.items()}
    curves = {c: staircase(pareto_filter([OpPoint(*p) for p in pairs[c]]), c) for c in pairs}
    return merge_psd_roc(
        curves, params.alpha_st, params.max_efpr, clamp=clamp, params=params, op_points=op_points
    )


def psd_roc_from_counts(
    counts_by_op: Mapping[str, CountsMatrix],
    dataset: Dataset,
    params: EvalParams,
    *,
    clamp: bool = True,
) -> PsdRoc:
    """Full pipeline from per-operating-point counts to the PSD ROC.

    ``counts_by_op`` maps operating-point ids to counts, as produced by
    :func:`sedscore.io.sweep_operating_points`. The result, and any
    exception, equals that of :func:`psd_roc_from_rates` on
    :func:`sedscore.rates.compute_rates` of each op, without building the
    per-class rate objects: the ops are taken in mapping order, so the
    first faulty op is the one named. Each op's counts are compared with
    the previous op's: with the same class tuple, a class whose ``n_gt``,
    ``n_tp``, ``n_fp`` and cross-trigger counts (in their order) are all
    equal keeps its values, which passed the same checks one op earlier,
    and only the other classes are computed. An op that differs in no
    class, such as the shared ``CountsMatrix`` object the sweep gives
    identical consecutive tables, reuses the previous op's values whole.
    """
    if not counts_by_op:
        raise ValueError("psd_roc_from_counts needs at least one operating point")
    total_units, label_units = _unit_scales(dataset, params)
    values_by_op: dict[str, _OpValues] = {}
    previous = None  # the counts of the previous op, whose values are in ``values``
    for op, counts in counts_by_op.items():
        if previous is None or counts.classes != previous.classes:
            rows = _class_values(counts, total_units, label_units, params.alpha_ct)
            values = [(c, efpr, tp_ratio) for c, tp_ratio, _, _, efpr in rows]
        elif counts is not previous:
            changed = [c for c in counts.classes if not _same_class_counts(previous, counts, c)]
            if changed:
                rows = _class_values(counts, total_units, label_units, params.alpha_ct, changed)
                fresh = {c: (c, efpr, tp_ratio) for c, tp_ratio, _, _, efpr in rows}
                values = [fresh.get(row[0], row) for row in values]
        previous = counts
        values_by_op[op] = values
    return _psd_roc(values_by_op, params, clamp)


def _same_class_counts(before: CountsMatrix, after: CountsMatrix, c: str) -> bool:
    """Whether every count that class ``c``'s values read is the same in both.

    The cross-trigger counts are compared in their order too, which is the
    order the eFPR adds their rates in.
    """
    return (
        before.n_gt[c] == after.n_gt[c]
        and before.n_tp[c] == after.n_tp[c]
        and before.n_fp[c] == after.n_fp[c]
        and list(before.cross_triggers[c].items()) == list(after.cross_triggers[c].items())
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
    values_by_op = {
        op: [(c, r.efpr, r.tp_ratio) for c, r in rates.items()] for op, rates in rates_by_op.items()
    }
    return _psd_roc(values_by_op, params, clamp)
