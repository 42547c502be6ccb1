"""Indexed coverage matching and the O(P log P) Pareto filter, property-tested.

Inputs are arbitrary floats, not decimal grids: endpoints are drawn from a
small per-example pool (so touching and shared endpoints are common) mixed
with free floats, over several files and classes, optionally with one very
long ground truth among short ones. Every result is checked against an
all-pairs definition that shares no code with the index. ``count_matrix``
is also checked against the exact brute-force oracle on a threshold tie
of a float coverage sum, in every drawn order of the same pieces: a
verdict depends on the numbers, not on the order they are summed in.
"""

from __future__ import annotations

import math
from fractions import Fraction

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
    intersection_duration,
    pareto_filter,
    total_intersection,
)
from sedscore.events import OnsetIndex
from sedscore.matching import _reaches

from conftest import default_params

FILES = ("a", "b", "c")
CLASSES = ("x", "y", "z")
FILE_SECONDS = 1000.0
DURATIONS = {f: FILE_SECONDS for f in FILES}

PROPERTY = settings(max_examples=250, deadline=None, derandomize=True)

free_float = st.floats(min_value=0.0, max_value=FILE_SECONDS, allow_nan=False)
pool_value = st.one_of(st.sampled_from((0.0, 0.1, 0.2, 0.3, 0.7, 1.0, 2.5)), free_float)
centiseconds = st.integers(0, int(FILE_SECONDS * 100)).map(lambda n: n / 100)
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


@st.composite
def split_instances(draw):
    """``instances()`` plus one event that is cut, on the other side, into pieces.

    The pieces lie inside the whole event with gaps between them, as split
    detections of one sound (or split labels under one detection) do. Cut
    points are decimal times, which floats mostly cannot hold exactly, and
    there are many pieces, so the sum of their durations often depends on
    the order it is taken in. ``target`` names the criterion that sums
    them: GTC for a whole ground truth, DTC for a whole detection of the
    pieces' class, CTTC for one of another class. Returns the rows, the
    whole event, the pieces' label and ``target``.
    """
    gt_rows, det_rows = draw(instances())
    cuts = sorted(draw(st.lists(centiseconds, min_size=16, max_size=40, unique=True)))
    cuts = cuts[: len(cuts) // 2 * 2]
    target = draw(st.sampled_from(("gtc", "dtc", "cttc")))
    file_id = draw(st.sampled_from(FILES))
    whole_label = draw(st.sampled_from(sorted({r[3] for r in gt_rows})))
    label = whole_label
    if target == "cttc":
        label = draw(st.sampled_from([c for c in CLASSES if c != whole_label]))
    whole = (file_id, cuts[0], cuts[-1], whole_label)
    pieces = [(file_id, a, b, label) for a, b in zip(cuts[::2], cuts[1::2])]
    if target == "gtc":
        gt_rows, det_rows = gt_rows + [whole], det_rows + pieces
    else:
        gt_rows, det_rows = gt_rows + pieces, det_rows + [whole]
    return gt_rows, det_rows, Event(*whole), label, target


def _tie(data, ratio: float) -> float:
    """``ratio`` or the next float above it, or a free threshold if that exceeds 1.

    At either threshold a float verdict hinges on the last bit of the
    ratio, so summing the coverage in another order would flip it for
    some inputs.
    """
    tie = math.nextafter(ratio, 2.0) if data.draw(st.booleans()) else ratio
    return tie if 0 < tie <= 1 else data.draw(threshold)


@PROPERTY
@given(split_instances(), st.data())
def test_count_matrix_equals_bruteforce_on_a_tie(instance, data):
    # the whole event's verdict under its target criterion sits on a tie
    # of its float coverage summed in one order; every order of the same
    # pieces, ground truth and detections alike, gives the exact counts
    gt_rows, det_rows, whole, pieces_label, target = instance
    gt_rows = data.draw(st.permutations(gt_rows))
    det_rows = data.draw(st.permutations(det_rows))
    dataset, detections = as_dataset(gt_rows), as_events(det_rows)
    ground_truth = dataset.ground_truth

    def ratio(x, events) -> float:
        return total_intersection(x, events) / x.duration

    thr = {name: data.draw(threshold) for name in ("dtc", "gtc", "cttc")}
    if target == "gtc":
        c = whole.class_label
        relevant = [
            d for d in detections.for_class(c) if ratio(d, ground_truth.for_class(c)) >= thr["dtc"]
        ]
        thr["gtc"] = _tie(data, ratio(whole, relevant))
    else:
        thr[target] = _tie(data, ratio(whole, ground_truth.for_class(pieces_label)))
    params = default_params(
        dtc_threshold=thr["dtc"], gtc_threshold=thr["gtc"], cttc_threshold=thr["cttc"]
    )
    counts = count_matrix(detections, dataset, params)
    expected = brute_force_counts(gt_rows, det_rows, thr["dtc"], thr["gtc"], thr["cttc"])
    for c, exp in expected.items():
        got = (counts.n_gt[c], counts.n_sys[c], counts.n_tp[c], counts.n_fp[c])
        assert got == (exp["n_gt"], exp["n_sys"], exp["n_tp"], exp["n_fp"])
        assert dict(counts.cross_triggers[c]) == exp["ct"]
    orders = [(data.draw(st.permutations(gt_rows)), data.draw(st.permutations(det_rows)))]
    orders.append((gt_rows[::-1], det_rows[::-1]))
    orders.append((sorted(gt_rows), sorted(det_rows)))
    for gt_order, det_order in orders:
        assert count_matrix(as_events(det_order), as_dataset(gt_order), params) == counts


@PROPERTY
@given(instances())
def test_index_events_are_the_input_stably_sorted_by_file_and_onset(instance):
    gt_rows, _ = instance
    gts = [Event(*r) for r in gt_rows]
    # input position as the last key: stable by construction, not by sort stability
    keys = sorted((g.file_id, g.onset, i) for i, g in enumerate(gts))
    expected = [gts[i] for _, _, i in keys]
    # the same objects, so equal events keep their input order too
    assert [id(g) for g in OnsetIndex(gts).events] == [id(g) for g in expected]


@PROPERTY
@given(instances())
def test_overlaps_equal_all_pairs_in_index_order(instance):
    gt_rows, det_rows = instance
    gts = [Event(*r) for r in gt_rows]
    index = OnsetIndex(gts)
    events = index.events
    assert sorted(map(id, events)) == sorted(map(id, gts))
    for x in (Event(*r) for r in det_rows + gt_rows):
        expected = [(intersection_duration(x, g), i) for i, g in enumerate(events)]
        assert index.overlaps(x) == [(overlap, i) for overlap, i in expected if overlap > 0]


def _exact(x: float) -> Fraction:
    return Fraction(repr(x))


def _exact_overlap(a: Event, b: Event) -> Fraction:
    """``intersection_duration`` of the numbers as written, in rationals."""
    if a.file_id != b.file_id:
        return Fraction(0)
    overlap = min(_exact(a.offset), _exact(b.offset)) - max(_exact(a.onset), _exact(b.onset))
    return max(overlap, Fraction(0))


@PROPERTY
@given(instances(), threshold)
def test_the_coverage_check_is_exact_on_each_class_hits(instance, drawn):
    gt_rows, det_rows = instance
    index = OnsetIndex([Event(*r) for r in gt_rows])
    events = index.events

    def event_of(hit):
        return events[hit[1]]

    for det in (Event(*r) for r in det_rows + gt_rows):
        hits = index.overlaps(det)
        duration = _exact(det.offset) - _exact(det.onset)
        for c in CLASSES:
            parts = [hit for hit in hits if events[hit[1]].class_label == c]
            covered = sum(_exact_overlap(det, g) for g in events if g.class_label == c)
            # the float coverage ratio puts the threshold at, or next to, a tie
            ratio = min(1.0, sum(overlap for overlap, _ in parts) / det.duration)
            for t in (drawn, ratio):
                assert _reaches(det, parts, t, event_of) == (covered >= _exact(t) * duration)


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


def test_ground_truth_index_is_built_lazily_once():
    dataset = as_dataset(TestZeroThresholds.GT)
    assert "onset_index" not in vars(dataset.ground_truth)
    count_matrix(as_events(TestZeroThresholds.DETS), dataset, default_params())
    index = vars(dataset.ground_truth)["onset_index"]
    count_matrix(as_events(TestZeroThresholds.DETS), dataset, default_params())
    assert dataset.ground_truth.onset_index is index
