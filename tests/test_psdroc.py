"""Pareto filtering, staircase curves, the merged ROC and its area."""

from __future__ import annotations

import math
import random
from itertools import groupby

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sedscore import (
    ClassRates,
    EvalParams,
    OpPoint,
    effective_fpr,
    integrate_psds,
    merge_psd_roc,
    pareto_filter,
    psd_roc_from_rates,
    staircase,
)
from sedscore.psdroc import _psd_roc, _staircase_rows


def points(*pairs):
    return [OpPoint(efpr=e, tp_ratio=r, op_id=f"op{i}") for i, (e, r) in enumerate(pairs)]


def random_op_points(rng, n=None):
    n = n if n is not None else rng.randint(0, 12)
    return points(*[(rng.uniform(0, 120), rng.random()) for _ in range(n)])


def keyed_pareto_filter(points):
    """The filter as written while OpPoint was a dataclass: an explicit sort key."""
    ordered = sorted(points, key=lambda p: (p.efpr, p.tp_ratio, p.op_id))
    kept, best = [], -math.inf
    for _, group in groupby(ordered, key=lambda p: p.efpr):
        group = list(group)
        best = max(best, group[-1].tp_ratio)
        kept.extend(p for p in group if p.tp_ratio >= best)
    return kept


class TestOpPoint:
    def test_keyword_construction_and_default_op_id(self):
        p = OpPoint(efpr=2.0, tp_ratio=0.5)
        assert (p.efpr, p.tp_ratio, p.op_id) == (2.0, 0.5, "")
        assert OpPoint(efpr=2.0, tp_ratio=0.5, op_id="x").op_id == "x"

    def test_field_names_and_order(self):
        assert OpPoint._fields == ("efpr", "tp_ratio", "op_id")
        assert tuple(OpPoint(1.0, 0.25, "x")) == (1.0, 0.25, "x")

    def test_equals_plain_tuple_and_orders_by_fields(self):
        assert OpPoint(1.0, 0.5, "x") == (1.0, 0.5, "x")
        assert OpPoint(1.0, 0.5, "b") < OpPoint(1.0, 0.6, "a") < OpPoint(2.0, 0.0, "a")
        assert OpPoint(1.0, 0.5, "a") < OpPoint(1.0, 0.5, "b")


class TestParetoFilter:
    def test_drops_dominated_point(self):
        kept = pareto_filter(points((5, 0.6), (4, 0.7)))
        assert [(p.efpr, p.tp_ratio) for p in kept] == [(4, 0.7)]

    def test_single_point_unchanged(self):
        kept = pareto_filter(points((5, 0.6)))
        assert [(p.efpr, p.tp_ratio) for p in kept] == [(5, 0.6)]

    def test_equal_efpr_keeps_best(self):
        kept = pareto_filter(points((2, 0.5), (2, 0.8)))
        assert [(p.efpr, p.tp_ratio) for p in kept] == [(2, 0.8)]

    def test_idempotent_and_antichain(self):
        rng = random.Random(41)
        for _ in range(200):
            pts = random_op_points(rng)
            kept = pareto_filter(pts)
            assert pareto_filter(kept) == kept
            for p in kept:
                assert not any(
                    q.tp_ratio > p.tp_ratio and q.efpr <= p.efpr for q in kept
                )
            efprs = [p.efpr for p in kept]
            ratios = [p.tp_ratio for p in kept]
            assert efprs == sorted(efprs)
            assert ratios == sorted(ratios)

    def test_tied_points_keep_the_keyed_sort_order(self):
        rng = random.Random(61)
        for _ in range(200):
            # coarse grids and repeated op ids, so whole points tie too
            pts = [
                OpPoint(rng.choice((0.0, 1.0, 2.0)), rng.choice((0.0, 0.5, 1.0)), rng.choice("ab"))
                for _ in range(rng.randint(0, 12))
            ]
            assert [id(p) for p in pareto_filter(pts)] == [id(p) for p in keyed_pareto_filter(pts)]

    def test_staircase_unchanged_on_random_points(self):
        rng = random.Random(41)
        for _ in range(200):
            pts = random_op_points(rng)
            assert pareto_filter(pts) == keyed_pareto_filter(pts)
            assert staircase(pareto_filter(pts), "c") == staircase(keyed_pareto_filter(pts), "c")


class TestStaircase:
    CURVE = staircase(pareto_filter(points((10, 0.5), (100, 1.0))), "beep")

    def test_holds_previous_value(self):
        assert self.CURVE.value_at(50) == 0.5

    def test_zero_below_first_breakpoint(self):
        assert self.CURVE.value_at(5) == 0.0

    def test_right_continuous_at_breakpoint(self):
        assert self.CURVE.value_at(10) == 0.5

    def test_holds_last_value_beyond_end(self):
        assert self.CURVE.value_at(1e9) == 1.0

    def test_empty_input_gives_zero_curve(self):
        curve = staircase([], "beep")
        assert curve.breakpoints == ()
        assert curve.value_at(0) == 0.0
        assert curve.value_at(50) == 0.0

    def test_duplicate_efpr_collapses_to_best(self):
        curve = staircase(points((3, 0.4), (3, 0.4)))
        assert curve.breakpoints == ((3, 0.4),)

    def test_rejects_unfiltered_points(self):
        with pytest.raises(ValueError):
            staircase(points((1, 0.9), (2, 0.1)))


class TestMergePsdRoc:
    def test_single_class_mean_is_identity(self):
        curve = staircase(points((10, 0.5), (100, 1.0)), "a")
        roc = merge_psd_roc({"a": curve}, alpha_st=0.0, max_efpr=100.0)
        assert roc.points == ((0.0, 0.0), (10.0, 0.5), (100.0, 1.0))

    def test_identical_curves_have_no_spread_penalty(self):
        curve = staircase(points((10, 0.5), (60, 0.9)), "a")
        merged_plain = merge_psd_roc({"a": curve, "b": curve}, 0.0, 100.0)
        merged_penal = merge_psd_roc({"a": curve, "b": curve}, 2.0, 100.0)
        assert merged_plain.points == merged_penal.points

    def test_two_class_hand_case(self):
        a = staircase(points((10, 1.0)), "a")
        b = staircase(points((20, 1.0)), "b")
        roc = merge_psd_roc({"a": a, "b": b}, alpha_st=1.0, max_efpr=20.0)
        assert roc.points == ((0.0, 0.0), (10.0, 0.0), (20.0, 1.0))

    @pytest.mark.parametrize("alpha_st", [math.nan, math.inf, -1.0])
    def test_rejects_non_finite_or_negative_alpha_st(self, alpha_st):
        curve = staircase(points((10, 0.5), (60, 0.9)), "a")
        with pytest.raises(ValueError, match="alpha_st must be finite and >= 0"):
            merge_psd_roc({"a": curve, "b": curve}, alpha_st=alpha_st, max_efpr=100.0)

    def test_breakpoints_beyond_budget_do_not_lift_curve(self):
        curve = staircase(points((10, 0.4), (150, 1.0)), "a")
        roc = merge_psd_roc({"a": curve}, 0.0, 100.0)
        assert roc.points == ((0.0, 0.0), (10.0, 0.4), (100.0, 0.4))

    def test_curve_non_decreasing_without_stability_penalty(self):
        rng = random.Random(43)
        for _ in range(100):
            curves = {
                f"c{i}": staircase(pareto_filter(random_op_points(rng)), f"c{i}")
                for i in range(rng.randint(1, 4))
            }
            roc = merge_psd_roc(curves, 0.0, 100.0)
            values = [v for _, v in roc.points]
            assert values == sorted(values)

    def test_requires_a_class(self):
        with pytest.raises(ValueError):
            merge_psd_roc({}, 0.0, 100.0)


class TestIntegratePsds:
    def test_hand_integration(self):
        # staircase 0 on [0,10), 0.5 on [10,100); the endpoint has measure 0
        pts = [(0.0, 0.0), (10.0, 0.5), (100.0, 1.0)]
        assert integrate_psds(pts, 100.0) == pytest.approx(0.45, abs=1e-9)

    def test_perfect_curve(self):
        assert integrate_psds([(0.0, 1.0)], 100.0) == 1.0

    def test_empty_curve(self):
        assert integrate_psds([], 100.0) == 0.0

    def test_matches_midpoint_quadrature(self):
        rng = random.Random(47)
        for _ in range(20):
            e_max = rng.uniform(10, 200)
            n = rng.randint(1, 25)
            es = sorted(rng.uniform(0, e_max) for _ in range(n))
            vs = sorted(rng.random() for _ in range(n))
            pts = list(zip(es, vs))
            exact = integrate_psds(pts, e_max)
            step = e_max / 10**6
            mids = (np.arange(10**6) + 0.5) * step
            idx = np.searchsorted(es, mids, side="right")
            values = np.where(idx > 0, np.asarray([0.0] + vs)[idx], 0.0)
            assert exact == pytest.approx(values.mean(), abs=1e-6)

    @pytest.mark.parametrize("max_efpr", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_max_efpr_not_finite_and_positive(self, max_efpr):
        with pytest.raises(ValueError, match="^max_efpr must be finite and > 0"):
            integrate_psds([(0.0, 1.0)], max_efpr)


class TestPsdRocFromRates:
    @staticmethod
    def rates(tp, efpr):
        return ClassRates(tp_ratio=tp, fp_rate=efpr, ct_rates={}, efpr=efpr)

    def test_pipeline_hand_case(self):
        rates_by_op = {
            "low": {"beep": self.rates(0.5, 10.0)},
            "high": {"beep": self.rates(1.0, 100.0)},
        }
        roc = psd_roc_from_rates(rates_by_op, EvalParams())
        assert roc.psds == pytest.approx(0.45, abs=1e-9)
        assert roc.curves["beep"].breakpoints == ((10.0, 0.5), (100.0, 1.0))
        assert {p.op_id for p in roc.op_points["beep"]} == {"low", "high"}

    def test_empty_op_points_per_class_mean_zero_curve(self):
        rates_by_op = {"only": {"a": self.rates(0.0, 500.0)}}
        # the only point sits far beyond the budget, so the curve stays at 0
        roc = psd_roc_from_rates(rates_by_op, EvalParams(max_efpr=100.0))
        assert roc.psds == 0.0

    def test_dominated_points_never_change_the_score(self):
        rng = random.Random(53)
        for _ in range(100):
            base = {
                f"op{i}": {"a": self.rates(rng.random(), rng.uniform(0, 120))}
                for i in range(rng.randint(1, 8))
            }
            roc = psd_roc_from_rates(base, EvalParams())
            best = max(r["a"].tp_ratio for r in base.values())
            dominated = dict(base)
            dominated["extra"] = {"a": self.rates(best * rng.random() * 0.99, 130.0)}
            roc2 = psd_roc_from_rates(dominated, EvalParams())
            assert roc2.psds == roc.psds

    def test_score_always_in_unit_interval(self):
        rng = random.Random(59)
        for _ in range(200):
            rates_by_op = {
                f"op{i}": {
                    c: self.rates(rng.random(), rng.uniform(0, 150))
                    for c in ("a", "b", "c")
                }
                for i in range(rng.randint(1, 6))
            }
            params = EvalParams(alpha_st=rng.choice([0.0, 0.5, 1.0, 2.0]))
            roc = psd_roc_from_rates(rates_by_op, params)
            assert 0.0 <= roc.psds <= 1.0

    @pytest.mark.parametrize("nan_op, other_op", [("op1", "op2"), ("op2", "op1")])
    def test_nan_efpr_rejected_whatever_the_op_order(self, nan_op, other_op):
        rates_by_op = {
            nan_op: {"a": self.rates(1.0, math.nan), "b": self.rates(0.5, 10.0)},
            other_op: {"a": self.rates(0.2, 5.0), "b": self.rates(0.8, 20.0)},
        }
        with pytest.raises(ValueError, match=f"^op '{nan_op}': class 'a' has a NaN eFPR$"):
            psd_roc_from_rates(rates_by_op, EvalParams())

    @pytest.mark.parametrize("efpr", [-5.0, -math.inf])
    @pytest.mark.parametrize("bad_op, other_op", [("op1", "op2"), ("op2", "op1")])
    def test_negative_efpr_rejected_whatever_the_op_order(self, efpr, bad_op, other_op):
        # accepted, the (-5, 1.0) point held the curve at 1.0 from eFPR 0 on: PSDS 1.0
        rates_by_op = {
            bad_op: {"a": self.rates(1.0, efpr), "b": self.rates(0.5, 10.0)},
            other_op: {"a": self.rates(0.2, 5.0), "b": self.rates(0.8, 20.0)},
        }
        match = f"^op '{bad_op}': class 'a' has a negative eFPR {efpr}$"
        with pytest.raises(ValueError, match=match):
            psd_roc_from_rates(rates_by_op, EvalParams())

    def test_negative_zero_efpr_is_valid(self):
        rates_by_op = {"op1": {"a": self.rates(1.0, -0.0)}, "op2": {"a": self.rates(0.2, 5.0)}}
        roc = psd_roc_from_rates(rates_by_op, EvalParams())
        assert roc.psds == 1.0
        assert math.copysign(1.0, roc.op_points["a"][0].efpr) == -1.0

    def test_inconsistent_class_sets_rejected(self):
        rates_by_op = {
            "x": {"a": self.rates(0.5, 1.0)},
            "y": {"b": self.rates(0.5, 1.0)},
        }
        with pytest.raises(ValueError):
            psd_roc_from_rates(rates_by_op, EvalParams())


class TestAlphaInterplay:
    """The stability penalty breaks the intuition that a higher
    cross-trigger penalty can only lower the score.

    Pushing one class's good operating point beyond the eFPR budget
    removes a high-but-lonely TP ratio, which can shrink the cross-class
    spread faster than the mean drops. The score is therefore only
    guaranteed non-increasing in the cross-trigger weight when the
    stability weight is zero.
    """

    def test_psds_can_increase_with_ct_penalty_when_stability_penalty_active(self):
        def rates_for(alpha_ct):
            def cr(tp, fp_rate, ct_rates):
                return ClassRates(
                    tp_ratio=tp,
                    fp_rate=fp_rate,
                    ct_rates=ct_rates,
                    efpr=effective_fpr(fp_rate, ct_rates, alpha_ct, 3),
                )

            return {
                "op1": {
                    "a": cr(1.0, 2.0, {"b": 56.0, "c": 0.0}),
                    "b": cr(0.4, 0.0, {}),
                    "c": cr(0.4, 0.0, {}),
                },
                "op2": {
                    "a": cr(0.4, 1.0, {}),
                    "b": cr(0.4, 0.0, {}),
                    "c": cr(0.4, 0.0, {}),
                },
            }

        params_lo = EvalParams(alpha_ct=0.0, alpha_st=1.0, max_efpr=10.0)
        params_hi = EvalParams(alpha_ct=1.0, alpha_st=1.0, max_efpr=10.0)
        psds_lo = psd_roc_from_rates(rates_for(0.0), params_lo).psds
        psds_hi = psd_roc_from_rates(rates_for(1.0), params_hi).psds
        assert psds_hi > psds_lo


def per_op_psd_roc(values_by_op, params, clamp):
    """The builder as written before runs of shared values: one OpPoint per class per op,
    then ``pareto_filter`` on all of a class's points."""
    classes = {tuple(sorted(c for c, _, _ in values)) for values in values_by_op.values()}
    (class_set,) = classes
    columns = {c: [] for c in class_set}
    for op in sorted(values_by_op):
        for c, efpr, tp_ratio in values_by_op[op]:
            columns[c].append(OpPoint(efpr, tp_ratio, op))
    op_points = {c: tuple(points) for c, points in columns.items()}
    curves = {c: staircase(pareto_filter(points), c) for c, points in op_points.items()}
    return merge_psd_roc(
        curves, params.alpha_st, params.max_efpr, clamp=clamp, params=params, op_points=op_points
    )


# few values, so that eFPRs and TP ratios tie; equal values of other types and signs
# (-0.0 and 0.0, 1 and True and 1.0) must keep the ones the per-op builder keeps
TIED_VALUES = st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0, 1, True, 3.0, 150.0])


@st.composite
def values_sweeps(draw):
    """(values_by_op, params, clamp): class values per op, some ops sharing one object."""
    classes = [f"c{i}" for i in range(draw(st.integers(1, 4)))]
    # op ids in a drawn order, so that mapping order and op-id order differ
    ops = draw(st.permutations([f"op{k:02d}" for k in range(draw(st.integers(1, 10)))]))
    values_by_op = {}
    for op in ops:
        share = draw(st.integers(0, 2)) if values_by_op else 0
        if share == 1:  # the object of the op before it in mapping order
            values_by_op[op] = values_by_op[list(values_by_op)[-1]]
        elif share == 2:  # the object of any earlier op, adjacent or not
            values_by_op[op] = values_by_op[draw(st.sampled_from(sorted(values_by_op)))]
        else:
            order = draw(st.permutations(classes))
            values_by_op[op] = [(c, draw(TIED_VALUES), draw(TIED_VALUES)) for c in order]
    params = EvalParams(alpha_st=draw(st.sampled_from([0.0, 1.0])), max_efpr=100.0)
    return values_by_op, params, draw(st.booleans())


@settings(max_examples=300, deadline=None, derandomize=True)
@given(sweep=values_sweeps())
def test_builder_equals_the_per_op_construction(sweep):
    # repr tells -0.0 from 0.0 and True from 1 from 1.0, which == does not
    roc = _psd_roc(*sweep)
    reference = per_op_psd_roc(*sweep)
    assert repr(roc.op_points) == repr(reference.op_points)
    assert repr(roc.curves) == repr(reference.curves)
    assert repr(roc.points) == repr(reference.points)
    assert repr(roc) == repr(reference)
    assert all(type(p) is OpPoint for points in roc.op_points.values() for p in points)


@st.composite
def curves_and_grid(draw):
    """Staircases of tied values and an ascending grid that holds some of their eFPRs."""
    curves = [
        staircase(pareto_filter(points(*draw(st.lists(st.tuples(TIED_VALUES, TIED_VALUES))))))
        for _ in range(draw(st.integers(0, 4)))
    ]
    efprs = [e for curve in curves for e, _ in curve.breakpoints]
    extra = st.one_of(TIED_VALUES, st.floats(-1.0, 200.0), st.sampled_from(efprs or [0.0]))
    return curves, sorted(draw(st.lists(extra, max_size=12)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(drawn=curves_and_grid())
def test_staircase_rows_equal_value_at(drawn):
    curves, grid = drawn
    rows = list(_staircase_rows([c.breakpoints for c in curves], grid))
    # repr tells -0.0 from 0.0 and True from 1 from 1.0, which == does not
    assert repr(rows) == repr([(e, *(c.value_at(e) for c in curves)) for e in grid])
