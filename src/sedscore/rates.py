"""Counts to rates: per-class TP ratios, FP/CT rates, effective rates, F1.

TP performance is a proportion of ground-truth events, while FP and CT
performance are rates per unit of time, as in keyword-spotting evaluation.
The FP rate is normalized by the whole corpus duration; each CT rate is
normalized by the total labelled duration of the class being triggered.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from statistics import fmean
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import DegenerateClassCount, EmptyClassGroundTruth, ZeroLabelDuration
from .events import Dataset, EvalParams, _left_sum
from .matching import CountsMatrix

__all__ = [
    "ClassRates",
    "F1Report",
    "compute_rates",
    "effective_fpr",
    "effective_tpr",
    "f1_scores",
]


@dataclass(frozen=True)
class ClassRates:
    """One class's operating-point coordinates.

    ``fp_rate``, the ``ct_rates`` values and ``efpr`` are events per
    reporting time unit; ``tp_ratio`` is unitless in [0, 1].
    """

    tp_ratio: float
    fp_rate: float
    ct_rates: Mapping[str, float]
    efpr: float


def effective_fpr(
    fp_rate: float,
    ct_rates: Mapping[str, float],
    alpha_ct: float,
    n_classes: int,
) -> float:
    """FP rate plus the weighted mean cross-trigger rate.

    Cross-triggers against identifiable classes can hurt the user
    experience more than plain false positives; ``alpha_ct`` prices that
    in. The mean divides by the number of *other* classes, so classes
    missing from ``ct_rates`` contribute zero.
    """
    if alpha_ct == 0:
        return fp_rate
    if n_classes < 2:
        raise DegenerateClassCount(
            "cross-trigger weighting needs at least two classes"
        )
    return fp_rate + alpha_ct * _left_sum(ct_rates.values()) / (n_classes - 1)


# The bits to which :func:`_pstdev` scales a variance before its integer square
# root: 2p + 3 for p-bit floats, as in CPython's ``statistics`` from 3.11 on.
_SQRT_BITS = 2 * sys.float_info.mant_dig + 3


def _pstdev(values: Sequence[float]) -> float:
    """Population standard deviation of finite rationals, correctly rounded.

    The same bits as ``statistics.pstdev`` of Python 3.11 and later, on
    every Python version, in integer arithmetic alone. With one common
    denominator ``d``, each value is ``m / d`` for an integer ``m`` (a float's
    denominator is a power of two), so the variance is the exact fraction
    ``(n * sum(m**2) - sum(m)**2) / (n**2 * d**2)``. Its square root is
    taken by ``math.isqrt`` of the fraction scaled to about 109 bits, with
    the lowest bit set when the root is inexact (round to odd), so the one
    final int-to-float division rounds correctly.
    """
    ratios = [x.as_integer_ratio() for x in values]
    d = math.lcm(*[e for _, e in ratios])
    ms = [m * (d // e) for m, e in ratios]
    n = len(ms)
    total = sum(ms)
    num = n * sum([m * m for m in ms]) - total * total
    den = n * n * d * d
    q = (num.bit_length() - den.bit_length() - _SQRT_BITS) // 2
    if q >= 0:
        den <<= 2 * q
    else:
        num <<= -2 * q
    root = math.isqrt(num // den)
    root |= root * root * den != num
    if q >= 0:
        return float(root << q)
    return root / (1 << -q)


def effective_tpr(tp_ratios: Iterable[float], alpha_st: float, *, clamp: bool = True) -> float:
    """Cross-class mean TP ratio, penalized by cross-class instability.

    Returns ``mean - alpha_st * std`` where ``std`` is the population
    standard deviation over classes (the class set is the whole population
    of interest), correctly rounded. A negative result has no operational
    meaning, so it is clamped to zero unless ``clamp=False`` asks for the
    literal value. ``alpha_st`` must be finite and non-negative, and every
    TP ratio finite: a NaN would be clamped away into a silent 0, and a
    negative weight would reward instability.
    """
    if not 0 <= alpha_st < math.inf:
        raise ValueError(f"alpha_st must be finite and >= 0, got {alpha_st}")
    values = list(tp_ratios)
    if not values:
        raise ValueError("effective_tpr needs at least one class")
    if not all(map(math.isfinite, values)):
        bad = next(v for v in values if not math.isfinite(v))
        raise ValueError(f"TP ratios must be finite, got {bad}")
    result = fmean(values)
    if alpha_st != 0:  # the std is costly, and ``result - 0 * std`` is ``result``
        result -= alpha_st * _pstdev(values)
    if clamp:
        return max(0.0, result)
    return result


def _unit_scales(dataset: Dataset, params: EvalParams) -> tuple[float, dict[str, float]]:
    """The corpus duration and each class's labelled duration in ``params.time_unit``."""
    unit = params.time_unit.seconds
    label_units = {c: dur / unit for c, dur in dataset.class_durations.items()}
    return dataset.total_duration / unit, label_units


def _class_values(
    counts: CountsMatrix,
    total_units: float,
    label_units: Mapping[str, float],
    alpha_ct: float,
    classes: Iterable[str] | None = None,
) -> Iterator[tuple[str, float, float, dict[str, float], float]]:
    """Yield each class's ``(class, tp_ratio, fp_rate, ct_rates, efpr)``.

    The classes are ``classes``, by default all of ``counts.classes``, in
    the order given; the cross-trigger mean still divides by the number of
    other classes in ``counts.classes``. Each class is checked before its
    rates are taken, so the first faulty class, in that order, is the one
    named: a class with no ground truth, then a cross-triggered class with
    no labelled duration, then a cross-trigger weight on a single class.
    """
    n_classes = len(counts.classes)
    for c in counts.classes if classes is None else classes:
        if counts.n_gt[c] == 0:
            raise EmptyClassGroundTruth(f"class '{c}' has no ground-truth events")
        triggered = counts.cross_triggers[c]
        for other in triggered:
            if not label_units.get(other, 0.0) > 0:
                raise ZeroLabelDuration(f"class '{other}' has zero labelled duration")
        ct_rates = {other: n_ct / label_units[other] for other, n_ct in triggered.items()}
        fp_rate = counts.n_fp[c] / total_units
        efpr = effective_fpr(fp_rate, ct_rates, alpha_ct, n_classes)
        yield c, counts.n_tp[c] / counts.n_gt[c], fp_rate, ct_rates, efpr


def compute_rates(
    counts: CountsMatrix,
    dataset: Dataset,
    params: EvalParams,
) -> dict[str, ClassRates]:
    """Convert one operating point's counts into per-class rates.

    All rates come out in ``params.time_unit``. The cross-trigger rate map
    of each class is dense over the other classes (zero counts included).
    """
    total_units, label_units = _unit_scales(dataset, params)
    return {
        c: ClassRates(tp_ratio=tp_ratio, fp_rate=fp_rate, ct_rates=ct_rates, efpr=efpr)
        for c, tp_ratio, fp_rate, ct_rates, efpr in _class_values(
            counts, total_units, label_units, params.alpha_ct
        )
    }


@dataclass(frozen=True)
class F1Report:
    """Per-class and pooled F1 at a single operating point."""

    per_class: Mapping[str, float]
    macro_f1: float
    micro_f1: float


def _f1(n_tp: int, n_fp: int, n_fn: int) -> float:
    denom = 2 * n_tp + n_fp + n_fn
    if denom == 0:
        return 0.0
    return 2 * n_tp / denom


def f1_scores(counts: CountsMatrix) -> F1Report:
    """F1 per class plus macro and micro averages.

    Uses the asymmetric counts as they stand: true positives count ground
    truths, false positives count detections, and false negatives are the
    undetected ground truths. An all-zero class scores 0 by convention.
    The macro score is the unweighted class mean; the micro score pools
    the counts across classes first.
    """
    per_class = {
        c: _f1(counts.n_tp[c], counts.n_fp[c], counts.n_gt[c] - counts.n_tp[c])
        for c in counts.classes
    }
    total_fn = counts.total_gt - counts.total_tp
    return F1Report(
        per_class=per_class,
        macro_f1=fmean(per_class.values()) if per_class else 0.0,
        micro_f1=_f1(counts.total_tp, counts.total_fp, total_fn),
    )
