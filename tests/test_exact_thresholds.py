"""Inclusive tolerances hold exactly for the decimals users write.

Each tolerance compares ``covered >= threshold * duration`` (or a collar
distance with its tolerance) of the numbers as written, whatever the float
rounding of the endpoints and whatever order a coverage sum is taken in.
The probes put one exact tie in each of 199 files, at onsets a float
cannot hold; the properties draw events on decimal grids (tenths and
hundredths of a second, onsets up to 3 h), where ties are common, and
check ``count_matrix`` and ``collar_counts`` against the exact all-pairs
oracle and against themselves under every drawn order of the ground truth
and of the detections. Subnormal probes check the rounding floor of each
check and of the collar's onset window, and 3 h files check, for DTC, GTC
and CTTC alike, that a near tie's band is sized by the check's own
numbers: by the checked event's offset, not the longest file, and for a
cross-trigger by the overlaps with the class checked, not every overlap
of the false positive.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bruteforce import brute_force_collar, brute_force_counts
from sedscore import CollarParams, Dataset, Event, EventSet, collar_counts, count_matrix, matching
from sedscore.io import load_dataset, load_detections

from conftest import default_params

HEADER = "filename\tonset\toffset\tevent_label"
PROBES = range(1, 200)  # onsets 0.1 ... 19.9


def _dec(x: float) -> str:
    return f"{x:.2f}"


def _probe(tmp_path, gt_rows, det_rows):
    """A dataset of one 30 s file per probe, and its detections, read from decimal tables."""
    files = sorted({row[0] for row in gt_rows})
    (tmp_path / "durations.tsv").write_text(
        "filename\tduration\n" + "".join(f"{f}\t30\n" for f in files)
    )
    for name, rows in (("gt.tsv", gt_rows), ("det.tsv", det_rows)):
        lines = ["\t".join(map(str, row)) for row in rows]
        (tmp_path / name).write_text("\n".join([HEADER, *lines]) + "\n")
    dataset = load_dataset(tmp_path / "gt.tsv", tmp_path / "durations.tsv")
    return dataset, load_detections(tmp_path / "det.tsv", dataset)


def _half(k: int) -> tuple[str, str, str]:
    """The onset, half point and end of a 0.3 s event at onset ``k / 10``."""
    onset = round(k / 10, 2)
    return _dec(onset), _dec(onset + 0.15), _dec(onset + 0.3)


def test_dtc_probe_a_detection_exactly_half_covered_is_relevant(tmp_path):
    gt = [(f"f{k:03d}", a, b, "x") for k in PROBES for a, b, _ in [_half(k)]]
    det = [(f"f{k:03d}", a, c, "x") for k in PROBES for a, _, c in [_half(k)]]
    dataset, detections = _probe(tmp_path, gt, det)
    counts = count_matrix(detections, dataset, default_params(dtc_threshold=0.5))
    assert (counts.n_sys["x"], counts.n_fp["x"]) == (199, 0)


def test_gtc_probe_a_ground_truth_exactly_half_covered_is_detected(tmp_path):
    gt = [(f"f{k:03d}", a, c, "x") for k in PROBES for a, _, c in [_half(k)]]
    det = [(f"f{k:03d}", a, b, "x") for k in PROBES for a, b, _ in [_half(k)]]
    dataset, detections = _probe(tmp_path, gt, det)
    counts = count_matrix(detections, dataset, default_params(gtc_threshold=0.5))
    assert (counts.n_tp["x"], counts.n_fp["x"]) == (199, 0)


def test_cttc_probe_a_false_positive_exactly_half_over_another_class_cross_triggers(tmp_path):
    # class y has one ground truth of its own, in a file of its own
    gt = [(f"f{k:03d}", a, b, "x") for k in PROBES for a, b, _ in [_half(k)]]
    gt.append(("f999", "1", "2", "y"))
    det = [(f"f{k:03d}", a, c, "y") for k in PROBES for a, _, c in [_half(k)]]
    dataset, detections = _probe(tmp_path, gt, det)
    counts = count_matrix(detections, dataset, default_params(cttc_threshold=0.5))
    assert counts.n_fp["y"] == 199
    assert counts.cross_triggers["y"]["x"] == 199


def test_collar_probe_an_onset_exactly_a_collar_away_is_a_hit(tmp_path):
    # onsets 0.0 ... 19.8, each detection 0.2 s later, with the same offset
    gt, det = [], []
    for k in range(199):
        onset = round(k / 10, 2)
        gt.append((f"f{k:03d}", _dec(onset), _dec(onset + 1.0), "x"))
        det.append((f"f{k:03d}", _dec(onset + 0.2), _dec(onset + 1.0), "x"))
    dataset, detections = _probe(tmp_path, gt, det)
    counts = collar_counts(detections, dataset, CollarParams(0.2))
    assert (counts.n_tp["x"], counts.n_fp["x"]) == (199, 0)


FILES = ("a", "b")
CLASSES = ("x", "y")
THREE_HOURS = 3 * 3600
thresholds = st.sampled_from((0.0, 0.1, 0.2, 0.25, 0.3, 0.5, 0.6, 0.7, 0.75, 1.0))


@st.composite
def grid_instances(draw):
    """Ground truth and detections of two 3 h files on a grid of tenths or hundredths.

    Every event lies within 4 s after one drawn anchor of its file, so
    most events overlap, many coverages tie a threshold and the anchors'
    large onsets round their last bits.
    """
    scale = draw(st.sampled_from((10, 100)))
    anchors = {f: draw(st.integers(0, THREE_HOURS - 5)) for f in FILES}

    def rows(min_size):
        out = []
        for _ in range(draw(st.integers(min_size, 10))):
            f = draw(st.sampled_from(FILES))
            a, b = sorted(draw(st.lists(st.integers(0, 4 * scale), min_size=2, max_size=2)))
            if a == b:
                continue
            start = anchors[f] * scale
            onset, offset = (start + a) / scale, (start + b) / scale
            out.append((f, onset, offset, draw(st.sampled_from(CLASSES))))
        return out

    gt_rows = rows(1) + [("a", 0.0, 1.0, c) for c in CLASSES]  # every class has ground truth
    return gt_rows, rows(0)


def _events(rows) -> EventSet:
    return EventSet.from_events(Event(*r) for r in rows)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(grid_instances(), thresholds, thresholds, thresholds, st.data())
def test_counts_on_decimal_grids_are_exact_and_order_free(instance, dtc, gtc, cttc, data):
    gt_rows, det_rows = instance
    durations = {f: float(THREE_HOURS) for f in FILES}
    dataset = Dataset(_events(gt_rows), durations)
    params = default_params(dtc_threshold=dtc, gtc_threshold=gtc, cttc_threshold=cttc)
    counts = count_matrix(_events(det_rows), dataset, params)
    expected = brute_force_counts(gt_rows, det_rows, dtc, gtc, cttc)
    for c, exp in expected.items():
        got = (counts.n_gt[c], counts.n_sys[c], counts.n_tp[c], counts.n_fp[c])
        assert got == (exp["n_gt"], exp["n_sys"], exp["n_tp"], exp["n_fp"])
        assert dict(counts.cross_triggers[c]) == exp["ct"]
    assert count_matrix(_events(data.draw(st.permutations(det_rows))), dataset, params) == counts
    for gt_order, det_order in (
        (data.draw(st.permutations(gt_rows)), data.draw(st.permutations(det_rows))),
        (gt_rows[::-1], det_rows[::-1]),
    ):
        reordered = Dataset(_events(gt_order), durations)
        assert count_matrix(_events(det_order), reordered, params) == counts


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    grid_instances(),
    st.sampled_from((0.0, 0.1, 0.2, 0.25, 0.5)),
    st.sampled_from((0.0, 0.2, 0.5, 1.5)),
    st.booleans(),
    st.data(),
)
def test_collar_counts_on_decimal_grids_are_exact(instance, collar, ratio, check_offset, data):
    gt_rows, det_rows = instance
    durations = {f: float(THREE_HOURS) for f in FILES}
    dataset = Dataset(_events(gt_rows), durations)
    params = CollarParams(collar=collar, offset_ratio=ratio, check_offset=check_offset)
    counts = collar_counts(_events(det_rows), dataset, params)
    expected = brute_force_collar(gt_rows, det_rows, collar, ratio, check_offset)
    for c, exp in expected.items():
        assert (counts.n_tp[c], counts.n_fp[c]) == (exp["n_tp"], exp["n_fp"])
    for gt_order, det_order in (
        (data.draw(st.permutations(gt_rows)), data.draw(st.permutations(det_rows))),
        (gt_rows[::-1], det_rows[::-1]),
    ):
        reordered = Dataset(_events(gt_order), durations)
        assert collar_counts(_events(det_order), reordered, params) == counts


# Subnormal events: (wide, narrow) pairs, where the float verdict of
# ``narrow`` covering ``threshold`` of ``wide`` is not the exact one at
# 0.1, 0.3, 0.5 (an exact tie) and 0.7, and the smallest subnormals.
# Onsets 1.9e-322 and 2.1e-322 lie 2e-323 apart as written, a collar tie,
# but 2.47e-323 apart as floats.
SUBNORMAL_PROBES = (
    ((1.9e-322, 6e-322), (1.9e-322, 2.3e-322)),
    ((2e-322, 1.46e-321), (2.2e-322, 6e-322)),
    ((1.9e-322, 1.05e-321), (1.9e-322, 6.2e-322)),
    ((2.3e-322, 1.46e-321), (6e-322, 1.46e-321)),
    ((0.0, 1.5e-323), (5e-324, 1e-323)),
)


def _subnormal_instance():
    """Each probe in three files, decided by DTC, by GTC and by CTTC, next to normal events."""
    gt_rows, det_rows = [], []
    for k, (wide, narrow) in enumerate(SUBNORMAL_PROBES):
        gt_rows += [(f"d{k}", *narrow, "x"), (f"g{k}", *wide, "x"), (f"c{k}", *narrow, "y")]
        det_rows += [(f"d{k}", *wide, "x"), (f"g{k}", *narrow, "x"), (f"c{k}", *wide, "x")]
        for f in (f"d{k}", f"g{k}", f"c{k}"):
            gt_rows.append((f, 0.5, 1.0, "x"))
            det_rows += [(f, 0.5, 0.8, "x"), (f, 0.25, 0.75, "y")]
    gt_rows.append(("k", 1.9e-322, 0.5, "x"))
    det_rows.append(("k", 2.1e-322, 0.5, "x"))
    durations = {row[0]: 1.0 for row in gt_rows}
    return gt_rows, det_rows, Dataset(_events(gt_rows), durations)


def test_counts_of_subnormal_events_are_exact():
    gt_rows, det_rows, dataset = _subnormal_instance()
    detections = _events(det_rows)
    probed = (0.1, 0.3, 0.5, 0.7)
    for dtc, gtc, cttc in itertools.product(probed, probed, probed):
        params = default_params(dtc_threshold=dtc, gtc_threshold=gtc, cttc_threshold=cttc)
        counts = count_matrix(detections, dataset, params)
        for c, exp in brute_force_counts(gt_rows, det_rows, dtc, gtc, cttc).items():
            assert (counts.n_tp[c], counts.n_fp[c]) == (exp["n_tp"], exp["n_fp"]), (dtc, gtc, c)
            assert dict(counts.cross_triggers[c]) == exp["ct"], (cttc, c)


def test_collar_counts_of_subnormal_events_are_exact():
    gt_rows, det_rows, dataset = _subnormal_instance()
    detections = _events(det_rows)
    for collar, ratio, check_offset in itertools.product(
        (0.0, 5e-324, 2e-323, 1e-322, 4.1e-322, 0.1), (0.0, 0.5, 1.5), (False, True)
    ):
        params = CollarParams(collar=collar, offset_ratio=ratio, check_offset=check_offset)
        counts = collar_counts(detections, dataset, params)
        for c, exp in brute_force_collar(gt_rows, det_rows, collar, ratio, check_offset).items():
            assert (counts.n_tp[c], counts.n_fp[c]) == (exp["n_tp"], exp["n_fp"]), (params, c)


def _counted_rechecks(monkeypatch) -> list[Event]:
    """The event of each exact recheck of a coverage check, as they happen."""
    calls = []
    covers = matching._covers

    def counted(x, ys, threshold):
        calls.append(x)
        return covers(x, ys, threshold)

    monkeypatch.setattr(matching, "_covers", counted)
    return calls


def _half_covered(criterion: str, onset: float, half: float, end: float):
    """Whether ``criterion`` finds [onset, end] of a 3 h file covered half by [onset, half].

    DTC checks a detection of ``x`` over a ground truth of ``x``; GTC, a
    ground truth of ``x`` under a detection of ``x``; CTTC, a false
    positive of ``y`` over a ground truth of ``x``. Returns the count that
    the check adds at thresholds of 0.5, the brute force's count and the
    checked event.
    """
    wide, narrow = ("a", onset, end), ("a", onset, half)
    gt_rows, det_rows = {
        "dtc": ([(*narrow, "x")], [(*wide, "x")]),
        "gtc": ([(*wide, "x")], [(*narrow, "x")]),
        # class y has one ground truth of its own, in a file of its own
        "cttc": ([(*narrow, "x"), ("b", 0.0, 1.0, "y")], [(*wide, "y")]),
    }[criterion]
    dataset = Dataset(_events(gt_rows), {"a": float(THREE_HOURS), "b": float(THREE_HOURS)})
    params = default_params(dtc_threshold=0.5, gtc_threshold=0.5, cttc_threshold=0.5)
    counts = count_matrix(_events(det_rows), dataset, params)
    exact = brute_force_counts(gt_rows, det_rows, 0.5, 0.5, 0.5)
    if criterion == "dtc":
        return 1 - counts.n_fp["x"], 1 - exact["x"]["n_fp"], Event(*det_rows[0])
    if criterion == "gtc":
        return counts.n_tp["x"], exact["x"]["n_tp"], Event(*gt_rows[0])
    return counts.cross_triggers["y"]["x"], exact["y"]["ct"]["x"], Event(*det_rows[0])


@pytest.mark.parametrize("criterion", ["dtc", "gtc", "cttc"])
@pytest.mark.parametrize(("miss", "reached"), [(1e-14, 1), (-1e-14, 0)])
def test_a_near_tie_is_banded_by_its_own_check_not_by_the_longest_file(
    monkeypatch, criterion, miss, reached
):
    # a 0.3 s event at onset 0.1 of a 3 h file, covered 1e-14 off half its duration
    rechecks = _counted_rechecks(monkeypatch)
    assert _half_covered(criterion, 0.1, 0.25 + miss, 0.4)[:2] == (reached, reached)
    assert rechecks == []


@pytest.mark.parametrize("criterion", ["dtc", "gtc", "cttc"])
def test_an_exact_tie_late_in_a_long_file_is_rechecked(monkeypatch, criterion):
    rechecks = _counted_rechecks(monkeypatch)
    got, exact, checked = _half_covered(criterion, 10799.1, 10799.25, 10799.4)
    assert (got, exact) == (1, 1)
    assert rechecks == [checked]


def test_a_cross_trigger_is_banded_by_the_overlaps_of_its_own_class(monkeypatch):
    # a false positive of a over one b ground truth, 1e-10 s past a tie at 0.3, and over
    # 40 ground truths of c: banded by all 41 overlaps, the b check would need a recheck
    gt_rows = [("f", 0.0, 1.0, "a"), ("f", 10000.0, 10000.3000000001, "b")]
    gt_rows += [("f", 10000.2 + k / 50, 10000.21 + k / 50, "c") for k in range(40)]
    det_rows = [("f", 10000.0, 10001.0, "a")]
    dataset = Dataset(_events(gt_rows), {"f": float(THREE_HOURS)})
    rechecks = _counted_rechecks(monkeypatch)
    counts = count_matrix(_events(det_rows), dataset, default_params(cttc_threshold=0.3))
    assert rechecks == []
    assert counts.cross_triggers["a"] == {"b": 1, "c": 1}
    assert brute_force_counts(gt_rows, det_rows, 0.5, 0.5, 0.3)["a"]["ct"] == {"b": 1, "c": 1}
