"""Indexed coverage matching and the O(P log P) Pareto filter, property-tested.

Inputs are arbitrary floats, not decimal grids: endpoints are drawn from a
small per-example pool (so touching and shared endpoints are common) mixed
with free floats, over several files and classes, optionally with one very
long ground truth among short ones. Every result is checked against an
all-pairs definition that shares no code with the index.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from bruteforce import brute_force_collar, brute_force_counts
from sedscore import (
    CollarParams,
    Dataset,
    Event,
    EventSet,
    OpPoint,
    collar_counts,
    count_matrix,
    cttc_count,
    dtc_filter,
    gtc_select,
    pareto_filter,
    total_intersection,
)
from sedscore.events import OnsetIndex

from conftest import default_params

FILES = ("a", "b", "c")
CLASSES = ("x", "y", "z")
FILE_SECONDS = 1000.0
DURATIONS = {f: FILE_SECONDS for f in FILES}

PROPERTY = settings(max_examples=250, deadline=None, derandomize=True)

free_float = st.floats(min_value=0.0, max_value=FILE_SECONDS, allow_nan=False)
pool_value = st.one_of(st.sampled_from((0.0, 0.1, 0.2, 0.3, 0.7, 1.0, 2.5)), free_float)
threshold = st.one_of(st.sampled_from((0.0, 0.3, 0.5, 1.0)), st.floats(0.0, 1.0))


@st.composite
def event_rows(draw, *, min_size: int):
    """Valid (file, onset, offset, label) rows over a shared endpoint pool."""
    pool = draw(st.lists(pool_value, min_size=2, max_size=8, unique=True))
    endpoint = st.one_of(st.sampled_from(pool), free_float)
    rows = []
    for _ in range(draw(st.integers(min_size, 14))):
        a, b = draw(endpoint), draw(endpoint)
        if a == b:
            continue
        file_id, label = draw(st.sampled_from(FILES)), draw(st.sampled_from(CLASSES))
        rows.append((file_id, min(a, b), max(a, b), label))
    return rows


@st.composite
def instances(draw):
    gt_rows = draw(event_rows(min_size=1))
    if not gt_rows or draw(st.booleans()):
        # one long ground truth: the running-max bound then prunes nothing
        # to its left, and every later lookup must still skip the short ones
        gt_rows.insert(
            draw(st.integers(0, len(gt_rows))),
            (draw(st.sampled_from(FILES)), 0.0, FILE_SECONDS, draw(st.sampled_from(CLASSES))),
        )
    # detections: free rows plus copies of ground truth, some relabelled;
    # every label must be a ground-truth class
    labels = st.sampled_from(sorted({r[3] for r in gt_rows}))
    det_rows = [(f, a, b, draw(labels)) for f, a, b, _ in draw(event_rows(min_size=0))]
    for file_id, onset, offset, _ in draw(st.lists(st.sampled_from(gt_rows), max_size=4)):
        det_rows.append((file_id, onset, offset, draw(labels)))
    return gt_rows, det_rows


def as_dataset(gt_rows) -> Dataset:
    return Dataset(EventSet.from_events(Event(*r) for r in gt_rows), DURATIONS)


def as_events(rows) -> EventSet:
    return EventSet.from_events(Event(*r) for r in rows)


@PROPERTY
@given(instances(), threshold, threshold, threshold)
def test_count_matrix_equals_bruteforce(instance, dtc, gtc, cttc):
    gt_rows, det_rows = instance
    params = default_params(dtc_threshold=dtc, gtc_threshold=gtc, cttc_threshold=cttc)
    counts = count_matrix(as_events(det_rows), as_dataset(gt_rows), params)
    expected = brute_force_counts(gt_rows, det_rows, dtc, gtc, cttc)
    assert counts.classes == tuple(expected)
    for c, exp in expected.items():
        got = (counts.n_gt[c], counts.n_sys[c], counts.n_tp[c], counts.n_fp[c])
        assert got == (exp["n_gt"], exp["n_sys"], exp["n_tp"], exp["n_fp"])
        assert dict(counts.cross_triggers[c]) == exp["ct"]


@PROPERTY
@given(instances())
def test_coverage_is_total_intersection_bit_for_bit(instance):
    gt_rows, det_rows = instance
    gts = [Event(*r) for r in gt_rows]
    index = OnsetIndex(gts)
    for det in (Event(*r) for r in det_rows + gt_rows):
        expected = {
            c: total_intersection(det, [g for g in gts if g.class_label == c]) for c in CLASSES
        }
        got = index.coverage(det)
        assert got == {c: v for c, v in expected.items() if v > 0}


@PROPERTY
@given(instances(), threshold)
def test_wrappers_match_their_definitions(instance, thr):
    gt_rows, det_rows = instance
    gt_c = [Event(*r) for r in gt_rows if r[3] == "x"]
    dets_c = [Event(*r) for r in det_rows if r[3] == "x"]

    relevant, fps = dtc_filter(dets_c, gt_c, thr)
    assert relevant == [d for d in dets_c if total_intersection(d, gt_c) / d.duration >= thr]
    assert fps == [d for d in dets_c if total_intersection(d, gt_c) / d.duration < thr]

    hits = gtc_select(gt_c, dets_c, thr)
    assert hits == [g for g in gt_c if total_intersection(g, dets_c) / g.duration >= thr]

    ground_truth = as_events(gt_rows)
    expected = {}
    for other in ground_truth.class_labels:
        if other != "x":
            gt_o = ground_truth.for_class(other)
            n = sum(1 for d in dets_c if total_intersection(d, gt_o) / d.duration >= thr)
            if n:
                expected[other] = n
    assert cttc_count(dets_c, "x", ground_truth, thr) == expected


@PROPERTY
@given(
    instances(),
    st.one_of(st.sampled_from((0.0, 0.1, 0.2, 0.25, 1.0)), st.floats(0.0, 50.0)),
    st.one_of(st.sampled_from((0.0, 0.2, 0.5)), st.floats(0.0, 2.0)),
    st.booleans(),
)
def test_collar_counts_equal_bruteforce(instance, collar, ratio, check_offset):
    gt_rows, det_rows = instance
    params = CollarParams(collar=collar, offset_ratio=ratio, check_offset=check_offset)
    counts = collar_counts(as_events(det_rows), as_dataset(gt_rows), params)
    expected = brute_force_collar(gt_rows, det_rows, collar, ratio, check_offset)
    for c, exp in expected.items():
        assert (counts.n_tp[c], counts.n_fp[c]) == (exp["n_tp"], exp["n_fp"])


def test_collar_window_keeps_onsets_that_round_onto_the_collar():
    # abs(0.02 - 0.07) rounds to exactly 0.05, so the detection is within
    # the collar, yet 0.07 - 0.05 rounds to 0.020000000000000004, above the
    # detection's onset: an unwidened window would drop it
    gt_rows = [("a", 0.07, 1.0, "x"), ("b", 0.157, 1.0, "x")]
    det_rows = [("a", 0.02, 1.0, "x"), ("b", 0.007, 1.0, "x")]
    for collar, n_tp in ((0.05, 1), (0.15, 2)):
        params = CollarParams(collar=collar, check_offset=False)
        counts = collar_counts(as_events(det_rows), as_dataset(gt_rows), params)
        expected = brute_force_collar(gt_rows, det_rows, collar, 0.2, False)["x"]
        assert (counts.n_tp["x"], counts.n_fp["x"]) == (expected["n_tp"], expected["n_fp"])
        assert (counts.n_tp["x"], counts.n_fp["x"]) == (n_tp, 2 - n_tp)


op_point = st.builds(
    OpPoint,
    efpr=st.one_of(st.sampled_from((0.0, 1.0, 2.0)), st.floats(0.0, 200.0)),
    tp_ratio=st.one_of(st.sampled_from((0.0, 0.5, 1.0)), st.floats(0.0, 1.0)),
    op_id=st.sampled_from(("op0", "op1", "op2", "op3")),
)


@PROPERTY
@given(st.lists(op_point, max_size=30))
def test_pareto_filter_equals_all_pairs_definition(points):
    kept = [
        p for p in points if not any(q.tp_ratio > p.tp_ratio and q.efpr <= p.efpr for q in points)
    ]
    expected = sorted(kept, key=lambda p: (p.efpr, p.tp_ratio, p.op_id))
    assert pareto_filter(points) == expected


class TestZeroThresholds:
    """A zero tolerance accepts everything, overlap or not."""

    GT = [("a", 0.0, 1.0, "x"), ("a", 5.0, 6.0, "y"), ("b", 2.0, 3.0, "z")]
    # no detection overlaps any ground truth
    DETS = [("a", 10.0, 11.0, "x"), ("a", 20.0, 21.0, "y"), ("c", 0.0, 1.0, "z")]

    def test_dtc_zero_makes_every_detection_relevant(self):
        params = default_params(dtc_threshold=0.0)
        counts = count_matrix(as_events(self.DETS), as_dataset(self.GT), params)
        assert counts.total_fp == 0
        relevant, fps = dtc_filter([Event(*r) for r in self.DETS], [], 0.0)
        assert len(relevant) == len(self.DETS) and fps == []

    def test_gtc_zero_makes_every_ground_truth_a_hit(self):
        params = default_params(gtc_threshold=0.0)
        counts = count_matrix(as_events([]), as_dataset(self.GT), params)
        assert dict(counts.n_tp) == dict(counts.n_gt) == {"x": 1, "y": 1, "z": 1}

    def test_cttc_zero_counts_every_fp_against_every_other_class(self):
        params = default_params(cttc_threshold=0.0)
        counts = count_matrix(as_events(self.DETS), as_dataset(self.GT), params)
        for c in CLASSES:
            assert counts.n_fp[c] == 1
            assert dict(counts.cross_triggers[c]) == {o: 1 for o in CLASSES if o != c}
        fps = [Event(*r) for r in self.DETS if r[3] == "x"]
        assert cttc_count(fps, "x", as_events(self.GT), 0.0) == {"y": 1, "z": 1}


def test_ground_truth_index_is_built_lazily_once():
    dataset = as_dataset(TestZeroThresholds.GT)
    assert "onset_index" not in vars(dataset.ground_truth)
    count_matrix(as_events(TestZeroThresholds.DETS), dataset, default_params())
    index = vars(dataset.ground_truth)["onset_index"]
    count_matrix(as_events(TestZeroThresholds.DETS), dataset, default_params())
    assert dataset.ground_truth.onset_index is index
