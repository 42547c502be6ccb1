"""Matching engine: tolerance criteria, counts, collar baseline."""

from __future__ import annotations

import random
from collections import Counter

import pytest

from bruteforce import brute_force_collar, brute_force_counts
from conftest import default_params, make_dataset, make_events, random_instance
from sedscore import (
    CollarParams,
    CountsMatrix,
    Event,
    UnknownClassLabel,
    collar_counts,
    collar_match,
    count_matrix,
    validate_events,
)
from sedscore.matching import _verdicts


def ev(onset, offset, file_id="f1", label="dog"):
    return Event(file_id, onset, offset, label)


def row(onset, offset, file_id="f1", label="dog"):
    return (file_id, onset, offset, label)


DURATIONS = {"f1": 100.0, "f2": 100.0}


def score(gt_rows, det_rows, **thresholds):
    """``count_matrix`` of the detection rows against the ground-truth rows."""
    dataset = make_dataset(gt_rows, DURATIONS)
    detections = make_events(det_rows, DURATIONS, dataset)
    return count_matrix(detections, dataset, default_params(**thresholds))


class TestCountsMatrix:
    BASE = {"n_gt": {"dog": 2}, "n_sys": {"dog": 1}, "n_tp": {"dog": 1}, "n_fp": {"dog": 1}}

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("n_tp", {"dog": 3}, "n_tp must lie in [0, n_gt]"),
            ("n_tp", {"dog": -1}, "n_tp must lie in [0, n_gt]"),
            ("n_fp", {"dog": 2}, "n_fp must lie in [0, n_sys]"),
            ("n_fp", {"dog": -1}, "n_fp must lie in [0, n_sys]"),
            ("cross_triggers", {"dog": {"dog": 0}}, "cross-trigger matrix has a diagonal entry"),
        ],
    )
    def test_rejects_inconsistent_counts(self, field, value, message):
        fields = {**self.BASE, "cross_triggers": {"dog": {}}, field: value}
        with pytest.raises(ValueError) as err:
            CountsMatrix(classes=("dog",), **fields)
        assert str(err.value) == f"class 'dog': {message}"


class TestDtcFilter:
    def test_exact_match_is_relevant(self):
        cm = score([row(0, 10)], [row(0, 10)], dtc_threshold=0.5)
        assert (cm.n_sys["dog"], cm.n_fp["dog"]) == (1, 0)

    def test_low_coverage_is_fp(self):
        # 4 covered out of 10 -> 0.4 < 0.5
        cm = score([row(0, 4)], [row(0, 10)], dtc_threshold=0.5)
        assert (cm.n_sys["dog"], cm.n_fp["dog"]) == (1, 1)

    def test_coverage_sums_across_ground_truths(self):
        # (4 + 5) / 10 = 0.9 >= 0.8
        cm = score([row(0, 4), row(5, 10)], [row(0, 10)], dtc_threshold=0.8)
        assert (cm.n_sys["dog"], cm.n_fp["dog"]) == (1, 0)

    def test_partition(self):
        rng = random.Random(5)
        gt_rows, det_rows, durations = random_instance(rng)
        dataset = make_dataset(gt_rows, durations)
        dets = make_events(det_rows, durations, dataset)
        params = default_params(dtc_threshold=0.5)
        # one record per detection, in detection order: relevant or false positive
        records = list(_verdicts(dets, dataset, params))
        assert [label for label, _, _ in records] == [d.class_label for d in dets]
        cm = count_matrix(dets, dataset, params)
        expected = brute_force_counts(gt_rows, det_rows, 0.5, 0.5, 0.3)
        for c in dataset.classes:
            n_fp = sum(1 for label, own, _ in records if label == c and own is None)
            assert cm.n_fp[c] == n_fp == expected[c]["n_fp"]
            assert cm.n_sys[c] == len(dets.for_class(c))

    def test_relevant_set_shrinks_with_threshold(self):
        rng = random.Random(6)
        for _ in range(50):
            gt_rows, det_rows, durations = random_instance(rng)
            dataset = make_dataset(gt_rows, durations)
            dets = make_events(det_rows, durations, dataset)
            # a detection is relevant when its record passes DTC (own hits, not None)
            previous = None
            for threshold in (0.1, 0.4, 0.7, 1.0):
                records = _verdicts(dets, dataset, default_params(dtc_threshold=threshold))
                current = Counter(d for d, (_, own, _) in zip(dets, records) if own is not None)
                if previous is not None:
                    assert current <= previous
                previous = current


class TestGtcSelect:
    def test_split_detections_give_one_tp(self):
        cm = score([row(0, 10)], [row(0, 4), row(5, 10)], gtc_threshold=0.5)
        assert cm.n_tp["dog"] == 1

    def test_no_relevant_detections(self):
        assert score([row(0, 10)], [], gtc_threshold=0.5).n_tp["dog"] == 0

    def test_full_coverage_meets_threshold_one(self):
        assert score([row(0, 10)], [row(0, 10)], gtc_threshold=1.0).n_tp["dog"] == 1

    def test_tp_set_shrinks_with_threshold(self):
        rng = random.Random(8)
        for _ in range(50):
            gt_rows, det_rows, durations = random_instance(rng)
            dataset = make_dataset(gt_rows, durations)
            dets = make_events(det_rows, durations, dataset)
            previous = None
            for threshold in (0.1, 0.4, 0.7, 1.0):
                params = default_params(dtc_threshold=0.3, gtc_threshold=threshold)
                n_tp = count_matrix(dets, dataset, params).n_tp
                expected = brute_force_counts(gt_rows, det_rows, 0.3, threshold, 0.3)
                assert all(n_tp[c] == expected[c]["n_tp"] for c in dataset.classes)
                if previous is not None:
                    assert all(n_tp[c] <= previous[c] for c in dataset.classes)
                previous = n_tp


class TestCttcCount:
    # a dog ground truth in another file makes dog a class, and leaves
    # every dog detection in f1 a false positive

    DOG = row(0, 1, file_id="f2")

    def cross_triggers(self, gt_rows, det_rows):
        cm = score([self.DOG, *gt_rows], det_rows, cttc_threshold=0.3)
        assert cm.n_fp["dog"] == len(det_rows)
        return {other: n for other, n in cm.cross_triggers["dog"].items() if n}

    def test_counts_cross_class_overlap(self):
        assert self.cross_triggers([row(0, 6, label="cat")], [row(0, 10)]) == {"cat": 1}

    def test_plain_fp_triggers_nothing(self):
        assert self.cross_triggers([row(50, 60, label="cat")], [row(0, 10)]) == {}

    def test_one_fp_can_trigger_multiple_classes(self):
        gt_rows = [row(0, 6, label="cat"), row(4, 10, label="speech")]
        assert self.cross_triggers(gt_rows, [row(0, 10)]) == {"cat": 1, "speech": 1}

    def test_counts_bounded_by_fp_count(self):
        rng = random.Random(9)
        for _ in range(50):
            gt_rows, det_rows, durations = random_instance(rng)
            dataset = make_dataset(gt_rows, durations)
            dets = make_events(det_rows, durations, dataset)
            params = default_params(dtc_threshold=0.5, cttc_threshold=0.2)
            cm = count_matrix(dets, dataset, params)
            expected = brute_force_counts(gt_rows, det_rows, 0.5, 0.5, 0.2)
            for c in dataset.classes:
                assert dict(cm.cross_triggers[c]) == expected[c]["ct"]
                assert all(0 <= n <= cm.n_fp[c] for n in cm.cross_triggers[c].values())


class TestCountMatrix:
    def test_identity_system_is_perfect(self, three_class_dataset):
        ds = three_class_dataset
        for rho in (0.1, 0.5, 0.8, 1.0):
            params = default_params(
                dtc_threshold=rho, gtc_threshold=rho, cttc_threshold=rho
            )
            cm = count_matrix(ds.ground_truth, ds, params)
            for c in ds.classes:
                assert cm.n_tp[c] == cm.n_gt[c]
                assert cm.n_fp[c] == 0
                assert all(n == 0 for n in cm.cross_triggers[c].values())

    def test_empty_detections(self, three_class_dataset):
        ds = three_class_dataset
        cm = count_matrix(make_events([], ds.file_durations, ds), ds, default_params())
        assert all(cm.n_sys[c] == 0 and cm.n_tp[c] == 0 and cm.n_fp[c] == 0 for c in ds.classes)
        assert cm.n_gt == {"cat": 2, "dog": 1, "speech": 1}

    def test_three_class_fixture_counts(self, three_class_dataset):
        # Hand-checked layout. Detections:
        #   cat [2,6]      exact hit            -> relevant, cat TP
        #   cat [11,13]    no cat overlap       -> FP; covered 2/2 by dog -> CT cat->dog
        #   dog [10,12]    2/2 covered          -> relevant; dog covered 2/4 = 0.5 -> TP
        #   dog [21,29]    no dog overlap       -> FP; covered 8/8 by speech -> CT dog->speech
        #   speech [19,31] covered 10/12 = 0.83 -> relevant; speech covered 10/10 -> TP
        #   speech [45,50] nothing anywhere     -> FP, no CT
        ds = three_class_dataset
        det_rows = [
            ("f1", 2.0, 6.0, "cat"),
            ("f1", 11.0, 13.0, "cat"),
            ("f1", 10.0, 12.0, "dog"),
            ("f1", 21.0, 29.0, "dog"),
            ("f1", 19.0, 31.0, "speech"),
            ("f1", 45.0, 50.0, "speech"),
        ]
        dets = make_events(det_rows, ds.file_durations, ds)
        cm = count_matrix(dets, ds, default_params())
        assert cm.n_gt == {"cat": 2, "dog": 1, "speech": 1}
        assert cm.n_sys == {"cat": 2, "dog": 2, "speech": 2}
        assert cm.n_tp == {"cat": 1, "dog": 1, "speech": 1}
        assert cm.n_fp == {"cat": 1, "dog": 1, "speech": 1}
        assert cm.cross_triggers == {
            "cat": {"dog": 1, "speech": 0},
            "dog": {"cat": 0, "speech": 1},
            "speech": {"cat": 0, "dog": 0},
        }

    def test_one_detection_covering_many_gts_counts_each(self):
        durations = {"f1": 60.0}
        ds = make_dataset([("f1", 0, 5, "dog"), ("f1", 5, 10, "dog")], durations)
        dets = make_events([("f1", 0, 10, "dog")], durations, ds)
        cm = count_matrix(dets, ds, default_params(gtc_threshold=1.0))
        assert cm.n_tp["dog"] == 2
        assert cm.n_fp["dog"] == 0

    def test_relevant_detection_with_undetected_gt_is_neither_tp_nor_fp(self):
        # [0,4.1] is fully covered (relevant, so not an FP), but covers only
        # 41% of the truth, which therefore stays undetected
        durations = {"f1": 60.0}
        ds = make_dataset([("f1", 0.0, 10.0, "dog")], durations)
        dets = make_events([("f1", 0.0, 4.1, "dog")], durations, ds)
        cm = count_matrix(dets, ds, default_params())
        assert cm.n_tp["dog"] == 0
        assert cm.n_fp["dog"] == 0
        assert cm.n_sys["dog"] == 1

    def test_rejects_label_outside_universe(self, three_class_dataset):
        ds = three_class_dataset
        stray = validate_events([("f1", 0, 1, "cow")], ds.file_durations)
        with pytest.raises(UnknownClassLabel):
            count_matrix(stray, ds, default_params())

    def test_matches_brute_force_smoke(self):
        rng = random.Random(11)
        for _ in range(100):
            gt_rows, det_rows, durations = random_instance(rng)
            dataset = make_dataset(gt_rows, durations)
            detections = make_events(det_rows, durations, dataset)
            dtc = rng.choice([0.1, 0.3, 0.5, 0.7, 0.9, 1.0])
            gtc = rng.choice([0.1, 0.3, 0.5, 0.7, 0.9, 1.0])
            cttc = rng.choice([0.1, 0.3, 0.5])
            cm = count_matrix(
                detections,
                dataset,
                default_params(dtc_threshold=dtc, gtc_threshold=gtc, cttc_threshold=cttc),
            )
            expected = brute_force_counts(gt_rows, det_rows, dtc, gtc, cttc)
            for c in dataset.classes:
                assert cm.n_gt[c] == expected[c]["n_gt"]
                assert cm.n_sys[c] == expected[c]["n_sys"]
                assert cm.n_tp[c] == expected[c]["n_tp"]
                assert cm.n_fp[c] == expected[c]["n_fp"]
                assert dict(cm.cross_triggers[c]) == expected[c]["ct"]


class TestCollarMatch:
    COLLAR = CollarParams(collar=0.2, offset_ratio=0.2)

    def test_within_collars(self):
        # offset tolerance max(0.2, 0.2 * 10) = 2, both deviations inside
        n_tp, n_fp = collar_match([ev(0.1, 9.9)], [ev(0, 10)], self.COLLAR)
        assert (n_tp, n_fp) == (1, 0)

    def test_split_detections_fail_collars(self):
        # [0,4] misses the offset by 6 > 2; [5,10] misses the onset by 5
        n_tp, n_fp = collar_match([ev(0, 4), ev(5, 10)], [ev(0, 10)], self.COLLAR)
        assert (n_tp, n_fp) == (0, 2)

    def test_exact_match_any_collar(self):
        n_tp, n_fp = collar_match([ev(0, 10)], [ev(0, 10)], CollarParams(collar=0.0))
        assert (n_tp, n_fp) == (1, 0)

    def test_onset_only_mode(self):
        params = CollarParams(collar=0.5, offset_ratio=0.2, check_offset=False)
        n_tp, n_fp = collar_match([ev(0.3, 4.0)], [ev(0, 10)], params)
        assert (n_tp, n_fp) == (1, 0)

    def test_onset_just_beyond_the_collar_fails(self):
        # inside the onset window's rounding margin, so only the exact re-check rejects it
        det = ev(10.2 + 1e-12, 20.0)
        assert collar_match([det], [ev(10.0, 20.0)], CollarParams(collar=0.2)) == (0, 1)

    def test_cross_file_never_matches(self):
        n_tp, n_fp = collar_match([ev(0, 10, "f2")], [ev(0, 10, "f1")], self.COLLAR)
        assert (n_tp, n_fp) == (0, 1)

    def test_existence_based_counting(self):
        # two truths validated by one detection; both extra dets match something
        gts = [ev(0, 10), ev(0.1, 10.1)]
        dets = [ev(0.05, 10.05), ev(0.15, 9.95)]
        n_tp, n_fp = collar_match(dets, gts, CollarParams(collar=0.2, offset_ratio=0.2))
        assert (n_tp, n_fp) == (2, 0)

    def test_matches_brute_force(self):
        rng = random.Random(13)
        for _ in range(100):
            gt_rows, det_rows, durations = random_instance(rng)
            dataset = make_dataset(gt_rows, durations)
            detections = make_events(det_rows, durations, dataset)
            collar = CollarParams(
                collar=rng.choice([0.1, 0.25, 1.0]),
                offset_ratio=rng.choice([0.0, 0.2, 0.5]),
                check_offset=rng.random() < 0.8,
            )
            expected = brute_force_collar(
                gt_rows, det_rows, collar.collar, collar.offset_ratio, collar.check_offset
            )
            for c in dataset.classes:
                got = collar_match(
                    list(detections.for_class(c)),
                    list(dataset.ground_truth.for_class(c)),
                    collar,
                )
                assert got == (expected[c]["n_tp"], expected[c]["n_fp"])

    def test_collar_counts_matrix(self, split_detection_case):
        dataset, detections = split_detection_case
        cm = collar_counts(detections, dataset, self.COLLAR)
        assert cm.n_tp == {"dog": 0}
        assert cm.n_fp == {"dog": 2}
        assert cm.cross_triggers == {"dog": {}}
