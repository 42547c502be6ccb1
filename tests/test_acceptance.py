"""Acceptance gate: one test per release criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass/fail lines alongside the pytest output.
"""

from __future__ import annotations

import functools
import os
import random
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from bruteforce import brute_force_counts
from conftest import (
    default_params,
    make_dataset,
    make_events,
    perturbed_detections,
    random_corpus,
    random_event_rows,
    random_instance,
)
from sedscore import (
    CollarParams,
    EvalParams,
    OpPoint,
    collar_counts,
    count_matrix,
    compute_rates,
    effective_tpr,
    f1_scores,
    integrate_psds,
    merge_psd_roc,
    pareto_filter,
    psd_roc_from_rates,
    staircase,
)
from sedscore.io import load_dataset, sweep_operating_points
from sedscore.matching import _verdicts


def criterion(num: int, name: str):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except pytest.skip.Exception as exc:
                print(f"[acceptance {num}] {name}: SKIPPED ({exc})")
                raise
            except BaseException:
                print(f"[acceptance {num}] {name}: FAIL")
                raise
            print(f"[acceptance {num}] {name}: PASS")
            return result

        return wrapper

    return decorate


@criterion(1, "identity system scores perfectly at every tolerance")
def test_criterion_1_identity_system():
    rng = random.Random(1001)
    start = time.perf_counter()
    for _ in range(25):
        durations = random_corpus(rng, max_files=5)
        classes = [f"c{i}" for i in range(rng.randint(1, 3))]
        gt_rows = random_event_rows(rng, durations, classes, max_per_class=20)
        dataset = make_dataset(gt_rows, durations)
        for rho in (0.1, 0.5, 0.8, 1.0):
            params = default_params(
                dtc_threshold=rho, gtc_threshold=rho, cttc_threshold=rho
            )
            counts = count_matrix(dataset.ground_truth, dataset, params)
            rates = compute_rates(counts, dataset, params)
            for c in dataset.classes:
                assert rates[c].tp_ratio == 1.0
                assert rates[c].fp_rate == 0.0
                assert all(v == 0.0 for v in rates[c].ct_rates.values())
            assert f1_scores(counts).macro_f1 == 1.0
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"identity property took {elapsed:.2f}s"


@criterion(2, "counts match an independent all-pairs oracle")
def test_criterion_2_brute_force_equivalence():
    rng = random.Random(1002)
    start = time.perf_counter()
    thresholds = [0.1, 0.3, 0.5, 0.7, 0.9, 1.0]
    for _ in range(1000):
        gt_rows, det_rows, durations = random_instance(rng)
        dataset = make_dataset(gt_rows, durations)
        detections = make_events(det_rows, durations, dataset)
        dtc = rng.choice(thresholds)
        gtc = rng.choice(thresholds)
        cttc = rng.choice(thresholds)
        counts = count_matrix(
            detections,
            dataset,
            default_params(dtc_threshold=dtc, gtc_threshold=gtc, cttc_threshold=cttc),
        )
        expected = brute_force_counts(gt_rows, det_rows, dtc, gtc, cttc)
        for c in dataset.classes:
            assert counts.n_gt[c] == expected[c]["n_gt"]
            assert counts.n_sys[c] == expected[c]["n_sys"]
            assert counts.n_tp[c] == expected[c]["n_tp"]
            assert counts.n_fp[c] == expected[c]["n_fp"]
            assert dict(counts.cross_triggers[c]) == expected[c]["ct"]
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"oracle equivalence took {elapsed:.2f}s"


@criterion(3, "split detections pass intersection criteria but fail collars")
def test_criterion_3_split_detection_robustness():
    durations = {"f1": 60.0}
    dataset = make_dataset([("f1", 0.0, 10.0, "dog")], durations)
    detections = make_events(
        [("f1", 0.0, 4.0, "dog"), ("f1", 5.0, 10.0, "dog")], durations, dataset
    )

    intersection = count_matrix(
        detections, dataset, default_params(dtc_threshold=0.5, gtc_threshold=0.5)
    )
    assert intersection.n_tp["dog"] == 1
    assert intersection.n_fp["dog"] == 0
    intersection_f1 = f1_scores(intersection).macro_f1
    assert intersection_f1 == 1.0

    collar = collar_counts(
        detections, dataset, CollarParams(collar=0.2, offset_ratio=0.2)
    )
    assert collar.n_tp["dog"] == 0
    assert collar.n_fp["dog"] == 2
    collar_f1 = f1_scores(collar).macro_f1
    assert collar_f1 == 0.0

    assert intersection_f1 > collar_f1


@criterion(4, "PSDS matches the hand-integrated staircase")
def test_criterion_4_psds_hand_oracle():
    curve = staircase(pareto_filter([OpPoint(10.0, 0.5, "a"), OpPoint(100.0, 1.0, "b")]))
    roc = merge_psd_roc({"x": curve}, alpha_st=0.0, max_efpr=100.0)
    assert roc.psds == pytest.approx(0.45, abs=1e-9)

    perfect = merge_psd_roc(
        {"x": staircase([OpPoint(0.0, 1.0, "a")])}, alpha_st=0.0, max_efpr=100.0
    )
    assert perfect.psds == 1.0

    empty = merge_psd_roc({"x": staircase([])}, alpha_st=0.0, max_efpr=100.0)
    assert empty.psds == 0.0


def _sweep_rates(rng, n_ops=4):
    """Random dataset and per-operating-point counts for monotonicity checks."""
    durations = random_corpus(rng, max_files=3)
    classes = [f"c{i}" for i in range(3)]
    gt_rows = random_event_rows(rng, durations, classes, max_per_class=8)
    dataset = make_dataset(gt_rows, durations)
    counts_by_op = {}
    for i in range(n_ops):
        det_rows = perturbed_detections(rng, gt_rows, durations, classes)
        detections = make_events(det_rows, durations, dataset)
        counts_by_op[f"op{i}"] = count_matrix(detections, dataset, default_params())
    return dataset, counts_by_op


@criterion(5, "monotonicity suite holds over random sweeps")
def test_criterion_5_monotonicity_suite():
    rng = random.Random(1005)
    alpha_grid = (0.0, 0.5, 1.0, 2.0)
    for _ in range(200):
        gt_rows, det_rows, durations = random_instance(rng)
        dataset = make_dataset(gt_rows, durations)
        dets = make_events(det_rows, durations, dataset)

        # a detection is relevant when its record passes DTC (own hits, not None)
        previous = None
        for rho in (0.1, 0.4, 0.7, 1.0):
            records = _verdicts(dets, dataset, default_params(dtc_threshold=rho))
            current = Counter(d for d, (_, own, _) in zip(dets, records) if own is not None)
            if previous is not None:
                assert current <= previous, "relevant set grew with the detection tolerance"
            previous = current

        previous = None
        for rho in (0.1, 0.4, 0.7, 1.0):
            params = default_params(dtc_threshold=0.3, gtc_threshold=rho)
            n_tp = count_matrix(dets, dataset, params).n_tp
            if previous is not None:
                assert all(n_tp[c] <= previous[c] for c in dataset.classes), (
                    "TP count grew with the ground-truth tolerance"
                )
            previous = n_tp

    for _ in range(200):
        dataset, counts_by_op = _sweep_rates(rng)

        # score non-increasing in the cross-trigger weight, stability weight off;
        # the epsilon absorbs 1-ulp re-association noise when a redundant
        # breakpoint drifts across the integration grid
        scores = []
        for alpha_ct in alpha_grid:
            params = default_params(alpha_ct=alpha_ct)
            rates_by_op = {
                op: compute_rates(cm, dataset, params) for op, cm in counts_by_op.items()
            }
            scores.append(psd_roc_from_rates(rates_by_op, params).psds)
        assert all(b <= a + 1e-12 for a, b in zip(scores, scores[1:])), (
            "PSDS increased with the cross-trigger weight at zero stability weight"
        )

        # score non-increasing in the stability weight, at two cross-trigger weights
        for alpha_ct in (0.0, 1.0):
            params_ct = default_params(alpha_ct=alpha_ct)
            rates_by_op = {
                op: compute_rates(cm, dataset, params_ct) for op, cm in counts_by_op.items()
            }
            scores = [
                psd_roc_from_rates(
                    rates_by_op, default_params(alpha_ct=alpha_ct, alpha_st=alpha_st)
                ).psds
                for alpha_st in alpha_grid
            ]
            assert all(a >= b for a, b in zip(scores, scores[1:])), (
                "PSDS increased with the stability weight"
            )

        # merged curve non-decreasing when the stability weight is zero
        params = default_params()
        rates_by_op = {
            op: compute_rates(cm, dataset, params) for op, cm in counts_by_op.items()
        }
        roc = psd_roc_from_rates(rates_by_op, params)
        values = [v for _, v in roc.points]
        assert values == sorted(values), "merged curve decreased at zero stability weight"


@criterion(6, "staircase integral agrees with midpoint quadrature")
def test_criterion_6_quadrature_check():
    rng = random.Random(1006)
    steps = 10**6
    for _ in range(100):
        e_max = rng.uniform(10.0, 200.0)
        n = rng.randint(1, 30)
        es = sorted(rng.uniform(0.0, e_max) for _ in range(n))
        vs = sorted(rng.random() for _ in range(n))
        exact = integrate_psds(list(zip(es, vs)), e_max)
        step = e_max / steps
        mids = (np.arange(steps) + 0.5) * step
        idx = np.searchsorted(es, mids, side="right")
        midpoint = float(np.where(idx > 0, np.asarray([0.0] + vs)[idx], 0.0).mean())
        assert abs(exact - midpoint) < 1e-6


@criterion(7, "effective TP ratio arithmetic")
def test_criterion_7_etpr_arithmetic():
    assert effective_tpr([1.0, 0.5, 0.75], 1.0) == pytest.approx(0.5458759, abs=1e-6)


@criterion(8, "published-scale reproduction recipe (optional, needs external data)")
def test_criterion_8_published_scale_recipe():
    data_dir = os.environ.get("SEDSCORE_DCASE2019_DIR")
    if not data_dir:
        pytest.skip(
            "set SEDSCORE_DCASE2019_DIR to a directory with gt.tsv, durations.tsv "
            "and system1/ system2/ system3/ operating-point exports; see README"
        )
    root = Path(data_dir)
    dataset = load_dataset(root / "gt.tsv", root / "durations.tsv")
    params = EvalParams()
    expected = {"system1": 0.486, "system2": 0.573, "system3": 0.493}
    for system, value in expected.items():
        counts_by_op = sweep_operating_points(root / system, dataset, params)
        rates_by_op = {
            op: compute_rates(cm, dataset, params) for op, cm in counts_by_op.items()
        }
        roc = psd_roc_from_rates(rates_by_op, params)
        assert roc.psds == pytest.approx(value, abs=0.01), system
