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
detections in that order, with no second index. A sweep keeps the tally
of one table and steps it to the next by the records of the rows that
left and came: integer counts change exactly, and each ground truth that
a changed row covers is summed again over the new table's rows, in their
order, so a stepped table's counts are the ones its own tally gives. The
collar baseline indexes each class's ground truth the same way and makes
one pass over the detections, bisecting for onsets within the collar.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Hashable, Iterable, Iterator, Mapping, Sequence

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


class _Tally:
    """The counts of one table's records, kept so the next table's can be stepped from them.

    The state is the per-class ``n_sys``, ``n_fp``, ``n_tp`` and
    cross-trigger counts, and each touched ground truth's GTC sum: the
    overlaps of the relevant detections that cover it, added left to
    right in table order. Integer counts step exactly, and a ground truth
    that a changed row covers takes its sum again over the new table, in
    its row order, so every count is the one a tally from scratch gives.
    """

    def __init__(self, records: Iterable[_Verdict], dataset: Dataset, params: EvalParams) -> None:
        """Tally the records of one table, taken in table order."""
        classes = dataset.classes
        self._classes = classes
        self._gt = dataset.ground_truth.events
        self._gtc = params.gtc_threshold
        self._n_gt = _n_gt(dataset)
        self._n_sys = dict.fromkeys(classes, 0)
        self._n_fp = dict.fromkeys(classes, 0)
        self._ct = _no_cross_triggers(classes)
        # with a zero GTC every ground truth counts, touched or not
        self._n_tp = dict.fromkeys(classes, 0) if self._gtc else dict(self._n_gt)
        self._covered: dict[int, float] = {}  # ground-truth position -> GTC sum
        self._add(records, 1, self._covered)
        if self._gtc:
            gt, n_tp = self._gt, self._n_tp
            for i, total in self._covered.items():
                if total / gt[i].duration >= self._gtc:
                    n_tp[gt[i].class_label] += 1
        # ground-truth position -> the rows that cover it; built on the first step
        self._covering: defaultdict[int, list[Hashable]] | None = None

    def _add(self, records: Iterable[_Verdict], sign: int, covered: dict[int, float]) -> None:
        """Add ``sign`` times the counts of each record, and its own overlaps to ``covered``.

        A relevant record's overlaps are added to the entries of the ground
        truths it covers, left to right in the order the records come, as
        they are: a step reads only which ground truths got an entry.
        """
        n_sys, n_fp, ct = self._n_sys, self._n_fp, self._ct
        for c, own, crossed in records:
            n_sys[c] += sign
            if own is None:
                n_fp[c] += sign
                counts = ct[c]
                for other in crossed:
                    counts[other] += sign
            else:
                for i, overlap in own:
                    covered[i] = covered.get(i, 0.0) + overlap

    def step(
        self,
        left: Sequence[Hashable],
        came: Sequence[Hashable],
        before: Sequence[Hashable],
        after: Sequence[Hashable],
        records: Mapping[Hashable, _Verdict],
    ) -> None:
        """Step the counts from the table of rows ``before`` to that of rows ``after``.

        ``left`` holds one entry per occurrence that left ``before`` and
        ``came`` one per occurrence that came into ``after``. The rows
        that stayed must keep their order, apart from the occurrences of
        a row that is also in ``left`` or ``came``, so the sum of a ground
        truth that no changed row covers stays as it is. ``records`` gives
        the record of each row of either table.
        """
        # the ground truths that a changed row covers, each summed again below
        changed: dict[int, float] = {}
        self._add(map(records.__getitem__, left), -1, changed)
        self._add(map(records.__getitem__, came), 1, changed)
        if not (changed and self._gtc):
            return
        covering = self._covering
        if covering is None:
            self._covering = covering = defaultdict(list)
            for row in before:
                for i, _ in records[row][1] or ():
                    covering[i].append(row)
        # the rows of ``after`` that cover a changed ground truth: a row that
        # left and stays is still on the lists of the ground truths it covers
        rows = {row for row in came if records[row][1] is not None}
        for i in changed:
            rows.update(covering.pop(i, ()))
        sums: dict[int, float] = {}
        for row in filter(rows.__contains__, after):
            for i, overlap in records[row][1]:
                if i in changed:
                    covering[i].append(row)
                    sums[i] = sums.get(i, 0.0) + overlap
        gt, gtc, n_tp, covered = self._gt, self._gtc, self._n_tp, self._covered
        for i in changed:
            duration = gt[i].duration
            passed = covered.pop(i, 0.0) / duration >= gtc
            if i in sums:
                covered[i] = sums[i]
            if (sums.get(i, 0.0) / duration >= gtc) != passed:
                n_tp[gt[i].class_label] += -1 if passed else 1

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
