"""The PSD-ROC built straight from counts against the rates path.

``psd_roc_from_counts`` must give exactly what ``psd_roc_from_rates`` gives
on ``compute_rates`` of each operating point: the same floats, compared
with ``==``, and the same exception type and message, raised for the
same operating point and class. Ops may share one ``CountsMatrix`` object,
as the identical consecutive tables of a sweep do; the class values of a
run of ops sharing one object, in mapping order, are computed once.
"""

from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_dataset
from sedscore import (
    CountsMatrix,
    DegenerateClassCount,
    EmptyClassGroundTruth,
    EvalParams,
    TimeUnit,
    ZeroLabelDuration,
    compute_rates,
    psd_roc_from_counts,
    psd_roc_from_rates,
)
from sedscore.rates import _class_values

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True)


def via_rates(counts_by_op, dataset, params, clamp=True):
    rates_by_op = {op: compute_rates(cm, dataset, params) for op, cm in counts_by_op.items()}
    return psd_roc_from_rates(rates_by_op, params, clamp=clamp)


def outcome(build, *args, **kwargs):
    """The result of ``build``, or the type and message of what it raised."""
    try:
        return build(*args, **kwargs)
    except Exception as exc:  # the exception itself is compared
        return type(exc), str(exc)


small_count = st.one_of(st.just(0), st.integers(0, 30))


@st.composite
def sweeps(draw):
    """(counts_by_op, dataset, params, clamp) of a random counts sweep."""
    n_classes = draw(st.integers(1, 12))
    classes = [f"c{i:02d}" for i in range(n_classes)]
    lengths = draw(st.lists(st.floats(0.05, 40.0), min_size=n_classes, max_size=n_classes))
    durations = {f"f{i}": lengths[i] + draw(st.floats(0.0, 500.0)) for i in range(n_classes)}
    dataset = make_dataset(
        [(f"f{i}", 0.0, lengths[i], c) for i, c in enumerate(classes)], durations
    )
    n_gt = {c: draw(st.integers(1, 40)) for c in classes}
    # op ids in a drawn order, so iteration order and sorted order differ
    ops = draw(st.permutations([f"op{k:02d}" for k in range(draw(st.integers(1, 8)))]))
    counts_by_op = {}  # op id -> counts, drawn in mapping order
    for op in ops:
        share = draw(st.integers(0, 3)) if counts_by_op else 0
        if share == 1:  # the object of the op before it in mapping order
            counts_by_op[op] = counts_by_op[list(counts_by_op)[-1]]
            continue
        if share == 2:  # the object of any earlier op, adjacent or not
            counts_by_op[op] = counts_by_op[draw(st.sampled_from(sorted(counts_by_op)))]
            continue
        n_sys = {c: draw(small_count) for c in classes}
        counts_by_op[op] = CountsMatrix(
            classes=tuple(classes),
            n_gt=n_gt,
            n_sys=n_sys,
            n_tp={c: draw(st.integers(0, n_gt[c])) for c in classes},
            n_fp={c: draw(st.integers(0, n_sys[c])) for c in classes},
            cross_triggers={
                c: {other: draw(small_count) for other in classes if other != c}
                for c in classes
            },
        )
    alpha_ct = 0.0 if n_classes == 1 else draw(st.sampled_from((0.0, 0.5, 1.0, 3.7)))
    params = EvalParams(
        alpha_ct=alpha_ct,
        alpha_st=draw(st.sampled_from((0.0, 1.0, 2.5))),
        max_efpr=draw(st.sampled_from((1.0, 100.0, 1e4))),
        time_unit=draw(st.sampled_from(list(TimeUnit))),
    )
    return counts_by_op, dataset, params, draw(st.booleans())


def runs(counts_by_op):
    """The number of runs of one shared counts object, in mapping order."""
    matrices = list(counts_by_op.values())
    return 1 + sum(after is not before for before, after in zip(matrices, matrices[1:]))


@PROPERTY
@given(sweeps())
def test_counts_path_equals_rates_path(sweep):
    counts_by_op, dataset, params, clamp = sweep
    expected = via_rates(counts_by_op, dataset, params, clamp=clamp)
    with mock.patch("sedscore.psdroc._class_values", wraps=_class_values) as class_values:
        roc = psd_roc_from_counts(counts_by_op, dataset, params, clamp=clamp)
    assert class_values.call_count == runs(counts_by_op)
    assert roc.op_points == expected.op_points
    assert {c: curve.breakpoints for c, curve in roc.curves.items()} == {
        c: curve.breakpoints for c, curve in expected.curves.items()
    }
    assert roc.points == expected.points
    assert roc.psds == expected.psds
    assert roc == expected


def test_class_values_run_once_per_run_of_one_counts_object():
    a, b = counts(), counts(n_gt=2)
    # in mapping order 'a', 'b', then 'a' twice and 'b' twice: four runs,
    # although op-id order has three ('a' twice, 'b' three times, 'a' once)
    counts_by_op = {"op6": a, "op3": b, "op1": a, "op2": a, "op4": b, "op5": b}
    assert runs(counts_by_op) == 4
    with mock.patch("sedscore.psdroc._class_values", wraps=_class_values) as class_values:
        roc = psd_roc_from_counts(counts_by_op, DATASET, EvalParams(alpha_ct=1.0))
    assert class_values.call_count == 4
    assert roc == via_rates(counts_by_op, DATASET, EvalParams(alpha_ct=1.0))
    assert [p.op_id for p in roc.op_points["a"]] == [f"op{k}" for k in range(1, 7)]


# --- error parity ------------------------------------------------------------

# classes 'a' and 'b' have labelled duration; 'c' never occurs
DATASET = make_dataset([("f1", 0.0, 5.0, "a"), ("f1", 10.0, 12.0, "b")], {"f1": 60.0})


def counts(classes=("a", "b"), *, n_gt=1, zero_gt=()):
    return CountsMatrix(
        classes=tuple(classes),
        n_gt={c: 0 if c in zero_gt else n_gt for c in classes},
        n_sys={c: 1 for c in classes},
        n_tp={c: 0 for c in classes},
        n_fp={c: 1 for c in classes},
        cross_triggers={c: {o: 1 for o in classes if o != c} for c in classes},
    )


ERROR_CASES = {
    "empty-class-ground-truth": (
        {"op1": counts(), "op2": counts(zero_gt=("b",))},
        EvalParams(),
        EmptyClassGroundTruth,
    ),
    "zero-labelled-duration": ({"op1": counts(("a", "c"))}, EvalParams(), ZeroLabelDuration),
    "cross-trigger-weight-with-one-class": (
        {"op1": counts(("a",))},
        EvalParams(alpha_ct=0.5),
        DegenerateClassCount,
    ),
    "empty-class-before-cross-trigger-weight": (
        {"op1": counts(("a",), zero_gt=("a",))},
        EvalParams(alpha_ct=0.5),
        EmptyClassGroundTruth,
    ),
    "class-sets-disagree": ({"op1": counts(), "op2": counts(("a",))}, EvalParams(), ValueError),
    # op 'z' comes first in the mapping but last in op-id order: its fault wins
    "first-faulty-op-in-mapping-order": (
        {"z": counts(zero_gt=("b",)), "a": counts(("a", "b", "c"))},
        EvalParams(),
        EmptyClassGroundTruth,
    ),
    "first-faulty-class-in-class-order": (
        {"op1": counts(("b", "a"), zero_gt=("a", "b"))},
        EvalParams(),
        EmptyClassGroundTruth,
    ),
    "rates-fault-before-class-set-check": (
        {"op1": counts(("a",)), "op2": counts(zero_gt=("a",))},
        EvalParams(),
        EmptyClassGroundTruth,
    ),
    "one-class-weight-before-later-empty-class": (
        {"op1": counts(("a",)), "op2": counts(("a",), zero_gt=("a",))},
        EvalParams(alpha_ct=1.0),
        DegenerateClassCount,
    ),
}


def test_no_operating_points_rejected():
    with pytest.raises(ValueError, match="^psd_roc_from_counts needs at least one operating"):
        psd_roc_from_counts({}, DATASET, EvalParams())
    with pytest.raises(ValueError, match="^psd_roc_from_rates needs at least one operating"):
        psd_roc_from_rates({}, EvalParams())


@pytest.mark.parametrize("case", sorted(ERROR_CASES))
def test_same_error_as_rates_path(case):
    counts_by_op, params, error = ERROR_CASES[case]
    expected = outcome(via_rates, counts_by_op, DATASET, params)
    assert expected[0] is error
    assert outcome(psd_roc_from_counts, counts_by_op, DATASET, params) == expected

