"""Event matching: intersection tolerance criteria and the collar baseline.

The intersection path decides true positives in two stages. First every
detection is kept or discarded by how much of *its own* duration is covered
by same-class ground truth (detection tolerance). Then every ground truth
counts as detected if enough of *its* duration is covered by the kept
detections (ground-truth tolerance). Discarded detections are the false
positives; each of them is additionally checked against every other class
and counted as a cross-trigger wherever its overlap fraction reaches the
cross-trigger tolerance.

All thresholds compare with inclusive ``>=``, and coverage sums are literal
sums of pairwise overlaps (overlapping labels of one class are counted once
per label). True positives count ground truths while false positives count
detections, so one detection spanning k ground truths can yield k true
positives, and k split detections covering one ground truth yield at most
one.

Every overlap comes from one kernel, :meth:`OnsetIndex.overlaps`: the
events of each file sorted by onset, with a running maximum of offsets, so
a lookup visits only the events that can overlap and counting costs close
to linear time in the events per file. The ground-truth index is built
lazily, once per dataset, on first use. :func:`count_matrix` makes one
lookup per detection and no other, and turns it into the detection's
record: its own-class overlaps decide its DTC verdict; a relevant
detection keeps them, and a false positive keeps the classes its overlaps,
folded by class, cross-trigger. A record depends only on the detection,
the dataset and the params, so a sweep can reuse it for a repeated row.
The tally of a table's records, in detection order, gives its counts:
GTC sums, for each touched ground truth, the overlaps of the relevant
detections in that order, with no second index. The collar baseline
indexes each class's ground truth the same way and makes one pass over
the detections, bisecting for onsets within the collar.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

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


def _cross_trigger(
    fp: Event,
    class_label: str,
    coverage: Mapping[str, float],
    cttc_threshold: float,
    classes: Sequence[str],
) -> list[str]:
    """The classes other than ``class_label`` that the false positive cross-triggers.

    ``coverage`` is the false positive's :func:`_class_sums`. With a zero
    threshold every other class of ``classes`` counts, overlap or not;
    otherwise only classes with coverage can reach the threshold.
    """
    if cttc_threshold == 0:
        return [other for other in classes if other != class_label]
    duration = fp.duration
    return [
        other
        for other, covered in coverage.items()
        if other != class_label and covered / duration >= cttc_threshold
    ]


def _class_sums(events: Sequence[Event], hits: Iterable[tuple[int, float]]) -> dict[str, float]:
    """Fold :meth:`OnsetIndex.overlaps` hits into one running sum per class, in hit order.

    Each sum equals :func:`total_intersection` over the class's events, bit for bit.
    """
    sums: dict[str, float] = {}
    for i, overlap in hits:
        label = events[i].class_label
        sums[label] = sums.get(label, 0.0) + overlap
    return sums


# A detection's record: ``(label, own, crossed)``. ``own`` lists the
# ``(ground-truth position, overlap)`` hits of its own class when it passes
# DTC, and is None when it is a false positive; ``crossed`` lists the
# classes a false positive cross-triggers, and is empty otherwise.
_Verdict = tuple[str, list[tuple[int, float]] | None, Sequence[str]]


def _verdicts(
    detections: Iterable[Event], dataset: Dataset, params: EvalParams
) -> Iterator[_Verdict]:
    """The record of each detection against ``dataset`` under ``params``, in order.

    A record depends only on the detection, the dataset and the params, so
    a sweep may reuse it for an identical detection of another table.
    """
    gt = dataset.ground_truth.events
    overlaps = dataset.ground_truth.onset_index.overlaps
    classes = dataset.classes
    dtc, cttc = params.dtc_threshold, params.cttc_threshold
    for det in detections:
        c = det.class_label
        hits = overlaps(det)
        own = [(i, overlap) for i, overlap in hits if gt[i].class_label == c]
        covered = 0.0  # left to right, as events._left_sum adds; inline in this hot loop
        for _, overlap in own:
            covered += overlap
        if covered / (det.offset - det.onset) >= dtc:
            yield c, own, ()
        else:
            # with no other class in reach, its coverage record is all its own class
            coverage = _class_sums(gt, hits) if len(own) < len(hits) else {}
            yield c, None, _cross_trigger(det, c, coverage, cttc, classes)


def _tally(verdicts: Iterable[_Verdict], dataset: Dataset, params: EvalParams) -> CountsMatrix:
    """Counts of one table from its detections' records, taken in detection order.

    GTC sums, for each touched ground truth, the overlaps of the relevant
    detections in the order the records come, so the sums are the same
    floats whether a record was computed for this table or reused.
    """
    classes = dataset.classes
    gt = dataset.ground_truth.events
    n_sys = dict.fromkeys(classes, 0)
    n_fp = dict.fromkeys(classes, 0)
    ct = _no_cross_triggers(classes)
    # ground-truth input position -> sum of the overlaps of relevant
    # detections, added in detection order
    gt_coverage: dict[int, float] = {}
    for c, own, crossed in verdicts:
        n_sys[c] += 1
        if own is None:
            n_fp[c] += 1
            row = ct[c]
            for other in crossed:
                row[other] += 1
        else:
            for i, overlap in own:
                gt_coverage[i] = gt_coverage.get(i, 0.0) + overlap
    n_gt = _n_gt(dataset)
    if params.gtc_threshold == 0:  # every ground truth counts, touched or not
        n_tp = dict(n_gt)
    else:
        n_tp = dict.fromkeys(classes, 0)
        for i, covered in gt_coverage.items():
            if covered / gt[i].duration >= params.gtc_threshold:
                n_tp[gt[i].class_label] += 1
    return CountsMatrix(classes, n_gt, n_sys, n_tp, n_fp, ct)


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
    return _tally(_verdicts(detections, dataset, params), dataset, params)


def _collar_hit(det: Event, gt: Event, collar: CollarParams) -> bool:
    if abs(det.onset - gt.onset) > collar.collar:
        return False
    if collar.check_offset:
        offset_tolerance = max(collar.collar, collar.offset_ratio * gt.duration)
        if abs(det.offset - gt.offset) > offset_tolerance:
            return False
    return True


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
    matched: set[int] = set()
    n_fp = 0
    for det in dets_c:
        window = index.onset_window(det, collar.collar)
        hits = [i for i in window if _collar_hit(det, gt_c[i], collar)]
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
