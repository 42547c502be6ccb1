"""Rates, effective rates and F1."""

from __future__ import annotations

import math
import random
import statistics
from unittest import mock

import pytest

from conftest import default_params, make_dataset
from sedscore import (
    CountsMatrix,
    DegenerateClassCount,
    EmptyClassGroundTruth,
    TimeUnit,
    ZeroLabelDuration,
    compute_rates,
    count_matrix,
    effective_fpr,
    effective_tpr,
    f1_scores,
    rates,
)


def counts_for(classes, n_gt, n_sys, n_tp, n_fp, ct=None):
    ct = ct or {c: {o: 0 for o in classes if o != c} for c in classes}
    return CountsMatrix(
        classes=tuple(classes), n_gt=n_gt, n_sys=n_sys, n_tp=n_tp, n_fp=n_fp, cross_triggers=ct
    )


class TestComputeRates:
    def test_tp_ratio(self):
        durations = {"f1": 7200.0}
        ds = make_dataset([("f1", i * 10.0, i * 10.0 + 5.0, "dog") for i in range(10)], durations)
        cm = counts_for(
            ["dog"], {"dog": 10}, {"dog": 9}, {"dog": 9}, {"dog": 0}, {"dog": {}}
        )
        rates = compute_rates(cm, ds, default_params())
        assert rates["dog"].tp_ratio == 0.9

    def test_fp_rate_per_hour(self):
        # 5 FPs over 7200 s = 2 h -> 2.5 per hour
        durations = {"f1": 7200.0}
        ds = make_dataset([("f1", 0.0, 5.0, "dog")], durations)
        cm = counts_for(["dog"], {"dog": 1}, {"dog": 5}, {"dog": 0}, {"dog": 5}, {"dog": {}})
        rates = compute_rates(cm, ds, default_params())
        assert rates["dog"].fp_rate == 2.5

    def test_ct_rate_normalized_by_label_duration(self):
        # 2 cross-triggers against 600 s of cat labels -> 12 per hour
        durations = {"f1": 7200.0}
        gt_rows = [("f1", 0.0, 600.0, "cat"), ("f1", 1000.0, 1005.0, "dog")]
        ds = make_dataset(gt_rows, durations)
        cm = counts_for(
            ["cat", "dog"],
            {"cat": 1, "dog": 1},
            {"cat": 0, "dog": 2},
            {"cat": 0, "dog": 0},
            {"cat": 0, "dog": 2},
            {"cat": {"dog": 0}, "dog": {"cat": 2}},
        )
        rates = compute_rates(cm, ds, default_params())
        assert rates["dog"].ct_rates["cat"] == 12.0

    def test_unit_conversion(self):
        durations = {"f1": 7200.0}
        ds = make_dataset([("f1", 0.0, 5.0, "dog")], durations)
        cm = counts_for(["dog"], {"dog": 1}, {"dog": 6}, {"dog": 0}, {"dog": 6}, {"dog": {}})
        per_hour = compute_rates(cm, ds, default_params())["dog"].fp_rate
        per_minute = compute_rates(
            cm, ds, default_params(time_unit=TimeUnit.MINUTE)
        )["dog"].fp_rate
        per_second = compute_rates(
            cm, ds, default_params(time_unit=TimeUnit.SECOND)
        )["dog"].fp_rate
        assert per_hour == 3.0
        assert per_minute == pytest.approx(3.0 / 60)
        assert per_second == pytest.approx(3.0 / 3600)

    def test_scaling_counts_and_durations_leaves_rates_unchanged(self):
        rng = random.Random(21)
        durations = {"f1": 3600.0}
        ds1 = make_dataset([("f1", 0.0, 100.0, "dog"), ("f1", 200.0, 300.0, "cat")], durations)
        ds2 = make_dataset(
            [
                ("f1", 0.0, 100.0, "dog"),
                ("f1", 200.0, 300.0, "cat"),
                ("f2", 0.0, 100.0, "dog"),
                ("f2", 200.0, 300.0, "cat"),
            ],
            {"f1": 3600.0, "f2": 3600.0},
        )
        for _ in range(20):
            tp = rng.randint(0, 1)
            fp = rng.randint(0, 5)
            n_ct = rng.randint(0, 3)
            cm1 = counts_for(
                ["cat", "dog"],
                {"cat": 1, "dog": 1},
                {"cat": 0, "dog": tp + fp},
                {"cat": 0, "dog": tp},
                {"cat": 0, "dog": fp},
                {"cat": {"dog": 0}, "dog": {"cat": n_ct}},
            )
            cm2 = counts_for(
                ["cat", "dog"],
                {"cat": 2, "dog": 2},
                {"cat": 0, "dog": 2 * (tp + fp)},
                {"cat": 0, "dog": 2 * tp},
                {"cat": 0, "dog": 2 * fp},
                {"cat": {"dog": 0}, "dog": {"cat": 2 * n_ct}},
            )
            r1 = compute_rates(cm1, ds1, default_params(alpha_ct=1.0))
            r2 = compute_rates(cm2, ds2, default_params(alpha_ct=1.0))
            for c in ("cat", "dog"):
                assert r1[c].tp_ratio == pytest.approx(r2[c].tp_ratio)
                assert r1[c].fp_rate == pytest.approx(r2[c].fp_rate)
                assert r1[c].ct_rates == pytest.approx(r2[c].ct_rates)

    def test_empty_class_ground_truth_rejected(self):
        durations = {"f1": 3600.0}
        ds = make_dataset([("f1", 0.0, 5.0, "dog")], durations)
        cm = counts_for(["dog"], {"dog": 0}, {"dog": 0}, {"dog": 0}, {"dog": 0}, {"dog": {}})
        with pytest.raises(EmptyClassGroundTruth):
            compute_rates(cm, ds, default_params())

    def test_zero_label_duration_rejected(self):
        durations = {"f1": 3600.0}
        ds = make_dataset([("f1", 0.0, 5.0, "dog")], durations)
        cm = counts_for(
            ["cat", "dog"],
            {"cat": 1, "dog": 1},
            {"cat": 0, "dog": 0},
            {"cat": 0, "dog": 0},
            {"cat": 0, "dog": 0},
            {"cat": {"dog": 0}, "dog": {"cat": 0}},
        )
        # 'cat' never occurs in this dataset's ground truth
        with pytest.raises(ZeroLabelDuration):
            compute_rates(cm, ds, default_params())


class TestEffectiveFpr:
    def test_zero_alpha_collapses_to_fp_rate(self):
        assert effective_fpr(7.0, {"a": 100.0}, 0.0, 3) == 7.0

    def test_weighted_mean_of_ct_rates(self):
        assert effective_fpr(10.0, {"a": 6.0, "b": 0.0}, 1.0, 3) == 13.0

    def test_all_zero(self):
        assert effective_fpr(0.0, {"a": 0.0, "b": 0.0}, 1.0, 3) == 0.0

    def test_missing_classes_contribute_zero(self):
        assert effective_fpr(1.0, {}, 1.0, 3) == 1.0

    def test_single_class_with_penalty_rejected(self):
        with pytest.raises(DegenerateClassCount):
            effective_fpr(1.0, {}, 0.5, 1)

    def test_ct_rates_add_left_to_right(self):
        # 1e16 + 1.0 rounds back to 1e16 at each step, unlike a compensated sum
        ct_rates = {"b": 1e16, "c": 1.0, "d": 1.0}
        assert effective_fpr(0.0, ct_rates, 1.0, 4) == 1e16 / 3

    def test_affine_and_monotone(self):
        base = effective_fpr(2.0, {"a": 3.0, "b": 1.0}, 0.7, 3)
        assert effective_fpr(2.5, {"a": 3.0, "b": 1.0}, 0.7, 3) > base
        assert effective_fpr(2.0, {"a": 4.0, "b": 1.0}, 0.7, 3) > base
        bumped = effective_fpr(2.0, {"a": 3.0, "b": 2.0}, 0.7, 3)
        assert bumped == pytest.approx(base + 0.7 * 1.0 / 2)


class TestEffectiveTpr:
    def test_mean_only(self):
        assert effective_tpr([1.0, 0.5, 0.75], 0.0) == 0.75

    def test_population_std_penalty(self):
        assert effective_tpr([1.0, 0.5, 0.75], 1.0) == pytest.approx(0.5458759, abs=1e-6)

    def test_uniform_classes_have_no_penalty(self):
        assert effective_tpr([0.1, 0.1, 0.1], 5.0) == pytest.approx(0.1)

    def test_clamped_at_zero(self):
        assert effective_tpr([1.0, 0.0], 3.0) == 0.0

    def test_no_clamp_returns_literal_value(self):
        literal = effective_tpr([1.0, 0.0], 3.0, clamp=False)
        assert literal == pytest.approx(0.5 - 3.0 * 0.5)

    def test_permutation_invariant(self):
        rng = random.Random(31)
        for _ in range(50):
            values = [rng.random() for _ in range(rng.randint(1, 6))]
            shuffled = values[:]
            rng.shuffle(shuffled)
            assert effective_tpr(values, 1.3) == pytest.approx(effective_tpr(shuffled, 1.3))

    def test_non_increasing_in_alpha(self):
        rng = random.Random(32)
        for _ in range(50):
            values = [rng.random() for _ in range(rng.randint(1, 6))]
            results = [effective_tpr(values, a) for a in (0.0, 0.5, 1.0, 2.0)]
            assert all(x >= y for x, y in zip(results, results[1:]))

    def test_zero_alpha_skips_the_std(self):
        values = [0.1, 0.7, 0.35, 0.35]
        unskipped = statistics.fmean(values) - 0.0 * statistics.pstdev(values)
        with mock.patch("sedscore.rates._pstdev", wraps=rates._pstdev) as pstdev:
            assert effective_tpr(values, 0.0) == unskipped
            assert pstdev.call_count == 0
            effective_tpr(values, 0.5)
            assert pstdev.call_count == 1

    @pytest.mark.parametrize("alpha_st", [0.0, 1.0])
    @pytest.mark.parametrize("clamp", [True, False])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_tp_ratios(self, bad, alpha_st, clamp):
        # with alpha_st 0 and clamp, max(0.0, nan) would give a silent 0
        with pytest.raises(ValueError, match=f"TP ratios must be finite, got {bad}"):
            effective_tpr([0.5, bad, 1.0], alpha_st, clamp=clamp)

    def test_the_finite_check_comes_before_the_std(self):
        with mock.patch("sedscore.rates._pstdev", wraps=rates._pstdev) as pstdev:
            with pytest.raises(ValueError, match="got nan"):
                effective_tpr([0.5, math.nan], 1.0)
        assert pstdev.call_count == 0

    def test_accepts_ints_and_bools(self):
        assert effective_tpr([1, 0.5], 1.0) == 0.5
        assert effective_tpr([True, False], 1.0, clamp=False) == 0.0

    def test_requires_at_least_one_class(self):
        with pytest.raises(ValueError):
            effective_tpr([], 1.0)

    @pytest.mark.parametrize("alpha_st", [math.nan, math.inf, -0.5])
    def test_rejects_non_finite_or_negative_alpha_st(self, alpha_st):
        with pytest.raises(ValueError, match="alpha_st must be finite and >= 0"):
            effective_tpr([1.0, 0.5], alpha_st)


class TestF1Scores:
    def test_perfect_system(self):
        cm = counts_for(
            ["a", "b"],
            {"a": 3, "b": 2},
            {"a": 3, "b": 2},
            {"a": 3, "b": 2},
            {"a": 0, "b": 0},
        )
        report = f1_scores(cm)
        assert report.per_class == {"a": 1.0, "b": 1.0}
        assert report.macro_f1 == 1.0
        assert report.micro_f1 == 1.0

    def test_zero_over_zero_convention(self):
        cm = counts_for(["a"], {"a": 5}, {"a": 0}, {"a": 0}, {"a": 0})
        assert f1_scores(cm).per_class["a"] == 0.0

    def test_class_with_no_ground_truth_and_no_detections_scores_zero(self):
        report = f1_scores(counts_for(["a"], {"a": 0}, {"a": 0}, {"a": 0}, {"a": 0}))
        assert (report.per_class, report.macro_f1, report.micro_f1) == ({"a": 0.0}, 0.0, 0.0)

    def test_hand_computed_value(self):
        # F1 = 18 / (18 + 3 + 1)
        cm = counts_for(["a"], {"a": 10}, {"a": 12}, {"a": 9}, {"a": 3})
        assert f1_scores(cm).per_class["a"] == pytest.approx(0.8182, abs=1e-4)

    def test_macro_equals_micro_for_identical_classes(self):
        cm = counts_for(
            ["a", "b", "c"],
            {c: 10 for c in "abc"},
            {c: 9 for c in "abc"},
            {c: 7 for c in "abc"},
            {c: 2 for c in "abc"},
        )
        report = f1_scores(cm)
        assert report.macro_f1 == pytest.approx(report.micro_f1)

    def test_macro_is_unweighted_mean(self):
        cm = counts_for(
            ["a", "b"],
            {"a": 10, "b": 2},
            {"a": 10, "b": 2},
            {"a": 5, "b": 2},
            {"a": 5, "b": 0},
        )
        report = f1_scores(cm)
        assert report.macro_f1 == pytest.approx(
            (report.per_class["a"] + report.per_class["b"]) / 2
        )


class TestEndToEndRates:
    def test_identity_rates(self, three_class_dataset):
        ds = three_class_dataset
        cm = count_matrix(ds.ground_truth, ds, default_params())
        rates = compute_rates(cm, ds, default_params())
        for c in ds.classes:
            assert rates[c].tp_ratio == 1.0
            assert rates[c].fp_rate == 0.0
            assert rates[c].efpr == 0.0
