"""Event matching: intersection tolerance criteria and the collar baseline.

The intersection path decides true positives in two stages. First every
detection is kept or discarded by how much of *its own* duration is covered
by same-class ground truth (detection tolerance). Then every ground truth
counts as detected if enough of *its* duration is covered by the kept
detections (ground-truth tolerance). Discarded detections are the false
positives; each of them is additionally checked against every other class
and counted as a cross-trigger wherever its overlap fraction reaches the
cross-trigger tolerance.

All thresholds compare with inclusive ``>=``, as ``covered >= threshold *
duration``, and coverage sums are literal sums of pairwise overlaps
(overlapping labels of one class are counted once per label). DTC, GTC
and CTTC are one coverage check, :func:`_reaches`, made on the overlaps
of one sum, and it and the collar's check share one comparison,
:func:`_at_least`: in floats, and within a proven near-tie band again in
exact decimal arithmetic, so that it holds of the numbers as written and
no verdict depends on the order of a sum. The band is sized by the
numbers the check reads: the offset of the covered event and the number
of overlaps summed, or the larger operand of a collar check. True
positives count ground truths while false positives count detections,
so one detection spanning k ground truths can yield k true positives,
and k split detections covering one ground truth yield at most one.

Every overlap comes from one kernel, :meth:`OnsetIndex.overlaps`: the
events of each file sorted by onset, with a running maximum of offsets, so
a lookup visits only the events that can overlap and counting costs close
to linear time in the events per file. The ground-truth index is built
lazily, once per dataset, on first use, and a ground truth is named by its
position in the index's own list of events, in file-then-onset order.
:func:`count_matrix` makes one lookup per detection and no other, and
turns it into the detection's record: its own-class overlaps decide its
DTC verdict; a relevant detection keeps them, and a false positive keeps
the classes its overlaps, folded by class, cross-trigger. A record
depends only on the detection, the dataset and the params, so a sweep
can reuse it for a repeated row.
The tally of a table's records gives its counts: GTC sums, for each
touched ground truth, the overlaps of the relevant detections, with no
second index. A sweep keeps the tally of one table and steps it to the
next by the records of the rows that left and came: integer counts change
exactly, and each ground truth that a changed row covers is decided again
on the records that cover it in the new table, so a stepped table's counts
are the ones its own tally gives. The collar baseline indexes each class's
ground truth the same way and makes one pass over the detections,
bisecting for onsets within the collar.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, Inexact, InvalidOperation
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .errors import UnknownClassLabel
from .events import CollarParams, Dataset, Event, EvalParams, EventSet, OnsetIndex

__all__ = [
    "CountsMatrix",
    "count_matrix",
    "collar_match",
    "collar_counts",
]


@dataclass(frozen=True)
class CountsMatrix:
    """Per-class counts of one system output at one operating point.

    ``cross_triggers[c][other]`` counts false positives of class ``c`` that
    sufficiently overlap ground truth of ``other``; the mapping is dense
    over all ordered off-diagonal class pairs. For counts produced by the
    collar matcher the cross-trigger entries are all zero, since that
    matcher has no cross-trigger notion.
    """

    classes: tuple[str, ...]
    n_gt: Mapping[str, int]
    n_sys: Mapping[str, int]
    n_tp: Mapping[str, int]
    n_fp: Mapping[str, int]
    cross_triggers: Mapping[str, Mapping[str, int]]

    def __post_init__(self) -> None:
        for c in self.classes:
            if not 0 <= self.n_tp[c] <= self.n_gt[c]:
                raise ValueError(f"class '{c}': n_tp must lie in [0, n_gt]")
            if not 0 <= self.n_fp[c] <= self.n_sys[c]:
                raise ValueError(f"class '{c}': n_fp must lie in [0, n_sys]")
            if c in self.cross_triggers.get(c, {}):
                raise ValueError(f"class '{c}': cross-trigger matrix has a diagonal entry")

    @property
    def total_tp(self) -> int:
        return sum(self.n_tp[c] for c in self.classes)

    @property
    def total_fp(self) -> int:
        return sum(self.n_fp[c] for c in self.classes)

    @property
    def total_gt(self) -> int:
        return sum(self.n_gt[c] for c in self.classes)


# Twice the bound on the rounding of one tolerance check, per unit of
# (terms + 2) * (value + reach + 2**-1022): see _at_least.
_BAND = 2.0**-50


def _at_least(value: float, bound: float, terms: int, reach: float) -> bool | None:
    """Whether ``value >= bound`` holds of the decimals the floats were read from, or None.

    The one comparison of every tolerance check, called by :func:`_reaches`
    for DTC, GTC and CTTC and by :func:`_collar_hit`. ``value`` is a
    coverage sum of ``terms`` overlaps, or a collar tolerance (``terms``
    0), and ``bound`` is ``threshold * duration``, or a collar distance;
    both are computed in floats. ``reach`` is the largest number the check
    reads: every endpoint, duration and tolerance, and a collar's offset
    ratio times every endpoint. For a coverage check it is the offset of
    the covered event, as each overlap is ``min(offsets) - max(onsets)`` of
    two events and so reads no endpoint above it; for a collar check it is
    the larger offset or the collar, times the offset ratio when above 1
    (:func:`_collar_hit`). A threshold is at most 1. Outside a band around
    the tie the float comparison gives the exact verdict. Inside it the
    answer is None, and the caller decides in exact decimal arithmetic,
    each float ``x`` read as :func:`_decimal`, the shortest decimal that
    rounds to it (:func:`_covers` for :func:`_reaches`, and
    :func:`_collar_hit`). So a verdict holds ``>=`` of the numbers as
    written, and does not depend on the order of a sum.

    The band. Reading each float as its shortest decimal keeps the order
    of any two floats, so the same events overlap in both arithmetics, and
    the same endpoints bound each overlap. Let ``u = 2**-53``,
    ``R = reach + 2**-1022``, ``n = terms`` and ``c`` the float ``value``;
    every error below is measured against the exact decimals. Half an ulp
    of a float ``x``, subnormal or not, is at most ``u*(|x| + 2**-1022)``,
    so half an ulp of any number in ``[0, reach]`` is at most ``u*R``.
    (1) An endpoint is off by at most half an ulp of itself, ``u*R``.
    (2) An overlap is one float subtraction of two endpoints in
        ``[0, reach]``, whose rounding adds at most ``u*R``: with (1), each
        term is off by ``3u*R``, and the ``n`` terms by ``3n*u*R``.
    (3) ``n`` terms >= 0 with exact sum ``S``, added in any order, give a
        float within ``(n - 1)u*S / (1 - (n - 1)u)`` of ``S`` (Higham,
        *Accuracy and Stability of Numerical Algorithms*, 2nd ed., 4.2; a
        subnormal sum is exact); as ``(n - 1)u`` is below 0.01, that is
        below ``1.05n*u*c``.
    (4) ``bound = threshold * duration``: the duration is off by ``3u*R``
        as in (2), times a threshold of at most 1; the threshold by half an
        ulp, ``u``, times a duration of at most ``R``; the product's
        rounding adds ``u*R``: ``5u*R`` in all. A collar check compares a
        tolerance that is off by ``5u*R`` the same way (``max(collar,
        ratio * duration)``) with a distance off by ``3u*R``: ``8u*R``.
    So the gap ``value - bound`` is off by at most
    ``u*(3n*R + 1.05n*c + 8R) <= 4u*(n + 2)*(c + R)``. The band is twice
    that, so the roundings of the band itself cannot take it below; and a
    computed gap beyond the band is a true gap beyond it, as rounding is
    monotone.
    """
    gap = value - bound
    band = (terms + 2) * (value + reach + 2.0**-1022) * _BAND
    if gap > band:
        return True
    if gap < -band:
        return False
    return None


# Unrounded decimal arithmetic: adding, subtracting or multiplying the
# decimals of floats never needs this many digits, and an inexact result
# would raise rather than round.
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN, traps=[Inexact, InvalidOperation])


def _decimal(x: float) -> Decimal:
    """The shortest decimal that rounds to ``x``: the number as written, for up to 15 digits."""
    return Decimal(repr(float(x)))


def _covers(x: Event, ys: Iterable[Event], threshold: float) -> bool:
    """Whether same-file events ``ys`` cover ``threshold`` of ``x``, in exact decimals.

    The near-tie verdict of :func:`_reaches`: the literal sum of the
    overlaps, at least ``threshold`` times the duration.
    """
    sub, add = _EXACT.subtract, _EXACT.add
    onset, offset = _decimal(x.onset), _decimal(x.offset)
    covered = Decimal(0)
    for y in ys:
        overlap = sub(min(offset, _decimal(y.offset)), max(onset, _decimal(y.onset)))
        if overlap > 0:
            covered = add(covered, overlap)
    return covered >= _EXACT.multiply(_decimal(threshold), sub(offset, onset))


def _reaches(x: Event, parts: Sequence[tuple], threshold: float, event_of: Callable) -> bool:
    """Whether the overlaps of ``parts`` cover ``threshold`` of ``x``: the one coverage check.

    DTC, GTC and CTTC each call it on the ``(overlap, key)`` pairs of one
    sum: a detection's own-class hits, the rows covering a ground truth,
    or a false positive's hits in one other class. The overlaps are added
    left to right, and :func:`_at_least` bands the sum by ``x``'s offset
    and the number of overlaps in it; a near tie is decided by
    :func:`_covers` over the ``event_of`` of each pair.
    """
    covered = 0.0
    for overlap, _ in parts:
        covered += overlap
    offset = x.offset
    hit = _at_least(covered, threshold * (offset - x.onset), len(parts), offset)
    if hit is None:
        hit = _covers(x, map(event_of, parts), threshold)
    return hit


# A detection's record: ``(label, own, rest)``. When the detection passes
# DTC, ``own`` lists the ``(overlap, index position)`` hits of its own
# class and ``rest`` is the detection itself, its key in the tally's
# ``(overlap, detection)`` covering entries. For a false positive ``own``
# is None and ``rest`` lists the classes it cross-triggers.
_Verdict = tuple[str, list[tuple[float, int]] | None, Event | Sequence[str]]


def _verdicts(
    detections: Iterable[Event], dataset: Dataset, params: EvalParams
) -> Iterator[_Verdict]:
    """The record of each detection against ``dataset`` under ``params``, in order.

    A record depends only on the detection, the dataset and the params, so
    a sweep may reuse it for an identical detection of another table.
    """
    index = dataset.ground_truth.onset_index
    gt, overlaps = index.events, index.overlaps
    classes = dataset.classes
    dtc, cttc = params.dtc_threshold, params.cttc_threshold

    def gt_of(hit: tuple[float, int]) -> Event:
        return gt[hit[1]]

    for det in detections:
        c = det.class_label
        hits = overlaps(det)
        own = [hit for hit in hits if gt[hit[1]].class_label == c]
        # with no own-class hit, exactly 0 >= dtc * duration, as the duration is positive
        relevant = _reaches(det, own, dtc, gt_of) if own else not dtc
        if relevant:
            yield c, own, det
        elif not cttc:  # every other class counts, overlap or not
            yield c, None, [other for other in classes if other != c]
        else:  # only a class with an overlap can reach the threshold
            folded: dict[str, list[tuple[float, int]]] = {}
            for hit in hits:
                other = gt[hit[1]].class_label
                if other != c:
                    folded.setdefault(other, []).append(hit)
            yield c, None, [o for o, parts in folded.items() if _reaches(det, parts, cttc, gt_of)]


class _Tally:
    """The counts of one table's records, kept so the next table's can be stepped from them.

    The state is the per-class ``n_sys``, ``n_fp``, ``n_tp`` and
    cross-trigger counts, the set of ground truths that pass GTC, and for
    each touched ground truth the ``(overlap, detection)`` of each
    relevant row that covers it. Every verdict is exact, whatever order a
    sum is taken in, so integer counts step exactly, and a ground truth
    that a changed row covers is decided again on the rows that cover it
    in the new table.
    """

    def __init__(self, records: Iterable[_Verdict], dataset: Dataset, params: EvalParams) -> None:
        """Tally the records of one table, one per row, in any order."""
        classes = dataset.classes
        self._classes = classes
        self._gt = dataset.ground_truth.onset_index.events
        self._gtc = gtc = params.gtc_threshold
        self._n_gt = _n_gt(dataset)
        self._n_sys = dict.fromkeys(classes, 0)
        self._n_fp = dict.fromkeys(classes, 0)
        self._ct = _no_cross_triggers(classes)
        # with a zero GTC every ground truth counts, touched or not
        self._n_tp = dict.fromkeys(classes, 0) if gtc else dict(self._n_gt)
        self._passed: set[int] = set()  # index positions of the ground truths that pass GTC
        # index position -> (overlap, detection) of each relevant row covering the ground truth
        self._covering: dict[int, list[tuple[float, Event]]] = {}
        self._add(records, 1)
        if gtc:
            self._decide(self._covering)

    def _add(self, records: Iterable[_Verdict], sign: int) -> None:
        """Add ``sign`` times the counts of each record, a row of the table.

        A relevant record's ``(overlap, detection)`` enters, or with a
        negative ``sign`` leaves, the covering list of each ground truth it
        covers. An equal entry of another row is the same term of the sum,
        so a leaving row may take out either. The overlap comes first so
        that finding the entry compares floats, and compares two events,
        a call of ``Event.__eq__``, only past an entry of equal overlap.
        """
        n_sys, n_fp, ct, covering = self._n_sys, self._n_fp, self._ct, self._covering
        for c, own, rest in records:
            n_sys[c] += sign
            if own is None:
                n_fp[c] += sign
                counts = ct[c]
                for other in rest:
                    counts[other] += sign
            elif sign > 0:
                for overlap, i in own:
                    entries = covering.get(i)
                    if entries is None:
                        covering[i] = [(overlap, rest)]
                    else:
                        entries.append((overlap, rest))
            else:
                for overlap, i in own:
                    covering[i].remove((overlap, rest))

    def _decide(self, touched: Iterable[int]) -> None:
        """Decide GTC again for each of the ``touched`` ground truths, on the rows covering it."""
        gt, gtc = self._gt, self._gtc
        covering, passed, n_tp = self._covering, self._passed, self._n_tp
        detection = itemgetter(1)
        for i in touched:
            g = gt[i]
            hit = _reaches(g, covering[i], gtc, detection)
            if hit and i not in passed:
                passed.add(i)
                n_tp[g.class_label] += 1
            elif not hit and i in passed:
                passed.remove(i)
                n_tp[g.class_label] -= 1

    def step(self, left: Sequence[_Verdict], came: Sequence[_Verdict]) -> None:
        """Step the counts to a table that lacks the records ``left`` and adds ``came``.

        Each holds one record per row that left or came, so a repeated row
        that lost or gained occurrences is listed that many times. A ground
        truth that a changed record covers is decided again on the rows
        that now cover it, unless its exact coverage only shrank and it
        failed, or only grew and it passed: neither can change its verdict.
        """
        self._add(left, -1)
        self._add(came, 1)
        if self._gtc:
            lost = {i for _, own, _ in left if own for _, i in own}
            gained = {i for _, own, _ in came if own for _, i in own}
            self._decide((lost & self._passed) | (gained - self._passed))

    def counts(self) -> CountsMatrix:
        """The counts of the table tallied last, in objects of their own."""
        return CountsMatrix(
            self._classes,
            dict(self._n_gt),
            dict(self._n_sys),
            dict(self._n_tp),
            dict(self._n_fp),
            {c: dict(row) for c, row in self._ct.items()},
        )


def _n_gt(dataset: Dataset) -> dict[str, int]:
    return {c: len(dataset.ground_truth.for_class(c)) for c in dataset.classes}


def _no_cross_triggers(classes: tuple[str, ...]) -> dict[str, dict[str, int]]:
    return {c: {other: 0 for other in classes if other != c} for c in classes}


def _check_labels(detections: EventSet, classes: tuple[str, ...]) -> None:
    unknown = {det.class_label for det in detections}.difference(classes)
    if unknown:
        labels = ", ".join(f"'{label}'" for label in sorted(unknown))
        raise UnknownClassLabel(f"detection labels outside the ground-truth class set: {labels}")


def count_matrix(detections: EventSet, dataset: Dataset, params: EvalParams) -> CountsMatrix:
    """Run the three tolerance criteria for every class and collect counts.

    Classes come from the ground truth; classes with no detections get zero
    system counts. Detections labelled outside the ground-truth class set
    are rejected. One overlap lookup per detection, in the index cached on
    the dataset's ground truth, gives its record: its DTC verdict, its
    share of every ground truth's GTC coverage and its cross-triggers.
    """
    _check_labels(detections, dataset.classes)
    return _Tally(_verdicts(detections, dataset, params), dataset, params).counts()


def _collar_hit(det: Event, gt: Event, collar: CollarParams) -> bool:
    """Whether ``det`` lands within ``gt``'s collars, each decided by :func:`_at_least`.

    Every endpoint, distance and tolerance the two checks read is at most
    the larger offset or the collar, times the offset ratio when above 1.
    A near tie is decided again in exact decimals.
    """
    ratio = collar.offset_ratio
    reach = max(det.offset, gt.offset, collar.collar)
    if ratio > 1.0:
        reach *= ratio
    hit = _at_least(collar.collar, abs(det.onset - gt.onset), 0, reach)
    if hit is None:
        distance = _EXACT.subtract(_decimal(det.onset), _decimal(gt.onset))
        hit = abs(distance) <= _decimal(collar.collar)
    if hit and collar.check_offset:
        tolerance = max(collar.collar, ratio * (gt.offset - gt.onset))
        hit = _at_least(tolerance, abs(det.offset - gt.offset), 0, reach)
        if hit is None:
            sub = _EXACT.subtract
            duration = sub(_decimal(gt.offset), _decimal(gt.onset))
            tolerance = max(_decimal(collar.collar), _EXACT.multiply(_decimal(ratio), duration))
            hit = abs(sub(_decimal(det.offset), _decimal(gt.offset))) <= tolerance
    return hit


def collar_match(
    dets_c: Sequence[Event],
    gt_c: Sequence[Event],
    collar: CollarParams,
) -> tuple[int, int]:
    """Collar-based baseline counts for one class: ``(n_tp, n_fp)``.

    Matching is existence-based, not one-to-one: a ground truth is a true
    positive if any detection lands within its collars, and a detection is
    a false positive if it lands within no ground truth's collars. One
    detection may validate several ground truths and vice versa.
    """
    index = OnsetIndex(gt_c)
    gt = index.events
    matched: set[int] = set()
    n_fp = 0
    for det in dets_c:
        window = index.onset_window(det, collar.collar)
        hits = [i for i in window if _collar_hit(det, gt[i], collar)]
        if hits:
            matched.update(hits)
        else:
            n_fp += 1
    return len(matched), n_fp


def collar_counts(detections: EventSet, dataset: Dataset, collar: CollarParams) -> CountsMatrix:
    """Collar-baseline counts for every class, in CountsMatrix form."""
    classes = dataset.classes
    _check_labels(detections, classes)
    matched = {
        c: collar_match(detections.for_class(c), dataset.ground_truth.for_class(c), collar)
        for c in classes
    }
    return CountsMatrix(
        classes=classes,
        n_gt=_n_gt(dataset),
        n_sys={c: len(detections.for_class(c)) for c in classes},
        n_tp={c: tp for c, (tp, _) in matched.items()},
        n_fp={c: fp for c, (_, fp) in matched.items()},
        cross_triggers=_no_cross_triggers(classes),
    )
