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

Every coverage sum comes from one kernel, :meth:`OnsetIndex.coverage`: the
events of each file sorted by onset, with a running maximum of offsets, so
a lookup visits only the events that can overlap and counting costs close
to linear time in the events per file. The ground-truth index is built
lazily, once per dataset, on first use. One lookup per detection gives
both its DTC verdict and its cross-triggers; GTC looks each ground truth
up in an index of the class's relevant detections. The collar baseline
bisects the same index for onsets within the collar.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from .errors import UnknownClassLabel
from .events import CollarParams, Dataset, Event, EvalParams, EventSet, OnsetIndex

__all__ = [
    "CountsMatrix",
    "dtc_filter",
    "gtc_select",
    "cttc_count",
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


def _covered(index: OnsetIndex, x: Event) -> float:
    """Overlap of ``x`` with the indexed events of its file, all classes together."""
    return sum(index.coverage(x).values())


def dtc_filter(
    dets_c: Sequence[Event],
    gt_c: Sequence[Event],
    dtc_threshold: float,
) -> tuple[list[Event], list[Event]]:
    """Split same-class detections into relevant ones and false positives.

    A detection is relevant when the summed overlap with the class's ground
    truth covers at least ``dtc_threshold`` of the detection's duration.
    Returns ``(relevant, false_positives)``, a partition of ``dets_c``.
    """
    index = OnsetIndex(gt_c)
    relevant: list[Event] = []
    fps: list[Event] = []
    for det in dets_c:
        if _covered(index, det) / det.duration >= dtc_threshold:
            relevant.append(det)
        else:
            fps.append(det)
    return relevant, fps


def gtc_select(
    gt_c: Sequence[Event],
    relevant_c: Sequence[Event],
    gtc_threshold: float,
) -> list[Event]:
    """Ground truths whose duration is sufficiently covered by relevant detections.

    The returned events are the class's true positives. Several split
    detections may jointly cover one ground truth.
    """
    index = OnsetIndex(relevant_c)
    return [gt for gt in gt_c if _covered(index, gt) / gt.duration >= gtc_threshold]


def cttc_count(
    fps_c: Sequence[Event],
    class_label: str,
    ground_truth: EventSet,
    cttc_threshold: float,
) -> dict[str, int]:
    """Count cross-triggers of the given false positives against other classes.

    Each false positive is tested against every class other than its own;
    it counts once per class whose ground truth covers at least
    ``cttc_threshold`` of the detection's duration, so a single event may
    cross-trigger several classes. Only classes with a non-zero count
    appear in the result.
    """
    others = [c for c in ground_truth.class_labels if c != class_label]
    counts = dict.fromkeys(others, 0)
    for fp in fps_c:
        coverage = ground_truth.onset_index.coverage(fp)
        _cross_trigger(fp, class_label, coverage, cttc_threshold, counts)
    return {c: n for c, n in counts.items() if n}


def _cross_trigger(
    fp: Event,
    class_label: str,
    coverage: Mapping[str, float],
    cttc_threshold: float,
    counts: dict[str, int],
) -> None:
    """Add one to ``counts[other]`` for every class the false positive cross-triggers.

    ``coverage`` is the false positive's coverage record. With a zero
    threshold every other class counts, overlap or not; otherwise only
    classes with coverage can reach the threshold.
    """
    if cttc_threshold == 0:
        for other in counts:
            counts[other] += 1
        return
    for other, covered in coverage.items():
        if other != class_label and covered / fp.duration >= cttc_threshold:
            counts[other] += 1


def _tabulate(
    detections: EventSet,
    dataset: Dataset,
    count: Callable[[tuple[str, ...], dict[str, dict[str, int]]], tuple[dict, dict]],
) -> CountsMatrix:
    """Check detection labels, run ``count`` over the classes, assemble the matrix.

    ``count`` gets the classes and a zeroed cross-trigger matrix to fill,
    and returns the ``n_tp`` and ``n_fp`` mappings.
    """
    classes = dataset.classes
    universe = set(classes)
    for det in detections:
        if det.class_label not in universe:
            raise UnknownClassLabel(
                f"detection label '{det.class_label}' is not a ground-truth class"
            )
    ct = {c: {other: 0 for other in classes if other != c} for c in classes}
    n_tp, n_fp = count(classes, ct)
    return CountsMatrix(
        classes=classes,
        n_gt={c: len(dataset.ground_truth.for_class(c)) for c in classes},
        n_sys={c: len(detections.for_class(c)) for c in classes},
        n_tp=n_tp,
        n_fp=n_fp,
        cross_triggers=ct,
    )


def count_matrix(detections: EventSet, dataset: Dataset, params: EvalParams) -> CountsMatrix:
    """Run the three tolerance criteria for every class and collect counts.

    Classes come from the ground truth; classes with no detections get zero
    system counts. Detections labelled outside the ground-truth class set
    are rejected. One coverage lookup per detection, in the index cached on
    the dataset's ground truth, gives both its DTC verdict and its
    cross-triggers.
    """

    def count(classes: tuple[str, ...], ct: dict[str, dict[str, int]]) -> tuple[dict, dict]:
        gt_index = dataset.ground_truth.onset_index
        relevant: dict[str, list[Event]] = {c: [] for c in classes}
        n_fp = dict.fromkeys(classes, 0)
        for det in detections:
            c = det.class_label
            coverage = gt_index.coverage(det)
            if coverage.get(c, 0) / det.duration >= params.dtc_threshold:
                relevant[c].append(det)
            else:
                n_fp[c] += 1
                _cross_trigger(det, c, coverage, params.cttc_threshold, ct[c])
        n_tp = {
            c: len(gtc_select(dataset.ground_truth.for_class(c), relevant[c], params.gtc_threshold))
            for c in classes
        }
        return n_tp, n_fp

    return _tabulate(detections, dataset, count)


def _collar_hit(det: Event, gt: Event, collar: CollarParams) -> bool:
    if det.file_id != gt.file_id:
        return False
    if abs(det.onset - gt.onset) > collar.collar:
        return False
    if collar.check_offset:
        offset_tolerance = max(collar.collar, collar.offset_ratio * gt.duration)
        if abs(det.offset - gt.offset) > offset_tolerance:
            return False
    return True


def _onset_window(index: OnsetIndex, x: Event, collar: float) -> list[Event]:
    """Indexed events of ``x``'s file whose onsets may lie within ``collar`` of ``x``'s.

    The window is widened by a relative 1e-9, far more than the rounding
    of ``a - b`` in :func:`_collar_hit`, so rounding never drops a
    candidate; the caller re-checks each one.
    """
    span = index.spans.get(x.file_id)
    if span is None:
        return []
    reach = collar + (x.onset + collar) * 1e-9
    lo = bisect_left(index.onsets, x.onset - reach, *span)
    hi = bisect_right(index.onsets, x.onset + reach, lo, span[1])
    return [index.events[i] for i in index.order[lo:hi]]


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
    det_index = OnsetIndex(dets_c)
    gt_index = OnsetIndex(gt_c)
    n_tp = sum(
        1
        for gt in gt_c
        if any(_collar_hit(det, gt, collar) for det in _onset_window(det_index, gt, collar.collar))
    )
    n_fp = sum(
        1
        for det in dets_c
        if not any(
            _collar_hit(det, gt, collar) for gt in _onset_window(gt_index, det, collar.collar)
        )
    )
    return n_tp, n_fp


def collar_counts(detections: EventSet, dataset: Dataset, collar: CollarParams) -> CountsMatrix:
    """Collar-baseline counts for every class, in CountsMatrix form."""

    def count(classes: tuple[str, ...], ct: dict[str, dict[str, int]]) -> tuple[dict, dict]:
        matched = {
            c: collar_match(detections.for_class(c), dataset.ground_truth.for_class(c), collar)
            for c in classes
        }
        return {c: tp for c, (tp, _) in matched.items()}, {c: fp for c, (_, fp) in matched.items()}

    return _tabulate(detections, dataset, count)
