"""Naive all-pairs reference scorer used as an independent test oracle.

Works on plain (filename, onset, offset, label) tuples and recomputes every
coverage from scratch, with no indexing, grouping or shared code with the
package under test. All arithmetic is exact: each number is read as the
rational ``Fraction(repr(x))``, the shortest decimal that rounds to it, and
every tolerance compares ``covered >= threshold * duration`` (or a collar
distance with its tolerance) in those rationals, so no verdict depends on
float rounding or on the order of a sum.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache


@lru_cache(maxsize=1 << 16)
def _q(x):
    return Fraction(repr(float(x)))


def _inter(a, b):
    if a[0] != b[0]:
        return Fraction(0)
    lo = max(_q(a[1]), _q(b[1]))
    hi = min(_q(a[2]), _q(b[2]))
    return hi - lo if hi > lo else Fraction(0)


def _reaches(covered, threshold, event):
    return covered >= _q(threshold) * (_q(event[2]) - _q(event[1]))


def brute_force_counts(gt_rows, det_rows, dtc, gtc, cttc):
    """Recompute per-class TP/FP/cross-trigger counts pair by pair.

    Returns a dict class -> {n_gt, n_sys, n_tp, n_fp, ct} where ct maps
    every other class to its cross-trigger count (zeros included).
    """
    classes = sorted({r[3] for r in gt_rows})
    out = {}
    for c in classes:
        gts = [r for r in gt_rows if r[3] == c]
        dets = [r for r in det_rows if r[3] == c]

        relevant = []
        fps = []
        for x in dets:
            covered = Fraction(0)
            for y in gts:
                covered += _inter(x, y)
            if _reaches(covered, dtc, x):
                relevant.append(x)
            else:
                fps.append(x)

        n_tp = 0
        for y in gts:
            covered = Fraction(0)
            for x in relevant:
                covered += _inter(y, x)
            if _reaches(covered, gtc, y):
                n_tp += 1

        ct = {}
        for other in classes:
            if other == c:
                continue
            hits = 0
            for x in fps:
                covered = Fraction(0)
                for y in gt_rows:
                    if y[3] == other:
                        covered += _inter(x, y)
                if _reaches(covered, cttc, x):
                    hits += 1
            ct[other] = hits

        out[c] = {
            "n_gt": len(gts),
            "n_sys": len(dets),
            "n_tp": n_tp,
            "n_fp": len(fps),
            "ct": ct,
        }
    return out


def brute_force_collar(gt_rows, det_rows, collar, offset_ratio, check_offset=True):
    """Existence-based collar matching per class, recomputed pair by pair."""

    def hit(det, gt):
        if det[0] != gt[0]:
            return False
        if abs(_q(det[1]) - _q(gt[1])) > _q(collar):
            return False
        if check_offset:
            tol = max(_q(collar), _q(offset_ratio) * (_q(gt[2]) - _q(gt[1])))
            if abs(_q(det[2]) - _q(gt[2])) > tol:
                return False
        return True

    classes = sorted({r[3] for r in gt_rows})
    out = {}
    for c in classes:
        gts = [r for r in gt_rows if r[3] == c]
        dets = [r for r in det_rows if r[3] == c]
        n_tp = sum(1 for y in gts if any(hit(x, y) for x in dets))
        n_fp = sum(1 for x in dets if not any(hit(x, y) for y in gts))
        out[c] = {"n_tp": n_tp, "n_fp": n_fp}
    return out
