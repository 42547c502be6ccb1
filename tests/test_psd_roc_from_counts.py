"""The PSD-ROC built straight from counts against the rates path.

``psd_roc_from_counts`` must give exactly what ``psd_roc_from_rates`` gives
on ``compute_rates`` of each operating point: the same floats, compared
with ``==``, and the same exception type and message, raised for the
same operating point and class. Ops may share one ``CountsMatrix`` object,
as the identical consecutive tables of a sweep do, or copy the previous
op's counts with a few classes changed, as the steps of a sweep do; the
class values of a class whose counts equal the previous op's, in mapping
order, are not computed again.
"""

from __future__ import annotations

from dataclasses import replace
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
        share = draw(st.integers(0, 5)) if counts_by_op else 0
        if share == 1:  # the object of the op before it in mapping order
            counts_by_op[op] = counts_by_op[list(counts_by_op)[-1]]
            continue
        if share == 2:  # the object of any earlier op, adjacent or not
            counts_by_op[op] = counts_by_op[draw(st.sampled_from(sorted(counts_by_op)))]
            continue
        if share >= 4:  # a new object copying the op before it, none, one or a few classes changed
            counts_by_op[op] = draw(stepped(counts_by_op[list(counts_by_op)[-1]]))
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


@st.composite
def stepped(draw, before):
    """A new ``CountsMatrix`` copying ``before``, with none, one or a few classes changed."""
    classes = before.classes
    if draw(st.integers(0, 4)) == 0:  # the same counts under another class order
        return replace(before, classes=tuple(draw(st.permutations(classes))))
    n_gt, n_sys, n_tp, n_fp = (
        dict(before.n_gt), dict(before.n_sys), dict(before.n_tp), dict(before.n_fp)
    )
    cross_triggers = {c: dict(row) for c, row in before.cross_triggers.items()}
    for c in draw(st.lists(st.sampled_from(classes), max_size=3, unique=True)):
        change = draw(st.sampled_from(("n_tp", "n_fp", "n_sys", "n_gt", "ct", "ct order")))
        if change == "n_tp":
            n_tp[c] = draw(st.integers(0, n_gt[c]))
        elif change == "n_fp":
            n_fp[c] = draw(st.integers(0, n_sys[c]))
        elif change == "n_sys":  # no class value reads it
            n_sys[c] = draw(st.integers(n_fp[c], n_fp[c] + 30))
        elif change == "n_gt":
            n_gt[c] = draw(st.integers(max(1, n_tp[c]), 40))
        elif change == "ct" and len(classes) > 1:  # the cross-trigger counts alone
            other = draw(st.sampled_from([o for o in classes if o != c]))
            cross_triggers[c][other] = draw(small_count)
        elif change == "ct order":  # equal counts, added up in another order
            row = cross_triggers[c]
            cross_triggers[c] = {o: row[o] for o in draw(st.permutations(list(row)))}
    return CountsMatrix(classes, n_gt, n_sys, n_tp, n_fp, cross_triggers)


def same_class_counts(before, after, c):
    """Whether every count that class ``c``'s values read, in its order, is equal in both."""
    def read(cm):
        return cm.n_gt[c], cm.n_tp[c], cm.n_fp[c], list(cm.cross_triggers[c].items())

    return read(before) == read(after)


def rows_to_compute(counts_by_op):
    """The class rows a build computes, taking the ops in mapping order.

    Every class of the first op and of an op whose class tuple differs from
    the previous op's; otherwise each class whose counts differ from the
    previous op's, none for an op that shares the previous op's object.
    """
    total, before = 0, None
    for after in counts_by_op.values():
        if before is None or after.classes != before.classes:
            total += len(after.classes)
        else:
            total += sum(not same_class_counts(before, after, c) for c in after.classes)
        before = after
    return total


def counted_build(counts_by_op, dataset, params, clamp=True):
    """``psd_roc_from_counts`` and the number of class rows it computed."""
    rows = []

    def class_values(*args):
        for row in _class_values(*args):
            rows.append(row)
            yield row

    with mock.patch("sedscore.psdroc._class_values", class_values):
        roc = psd_roc_from_counts(counts_by_op, dataset, params, clamp=clamp)
    return roc, len(rows)


@PROPERTY
@given(sweeps())
def test_counts_path_equals_rates_path(sweep):
    counts_by_op, dataset, params, clamp = sweep
    expected = via_rates(counts_by_op, dataset, params, clamp=clamp)
    roc, computed = counted_build(counts_by_op, dataset, params, clamp=clamp)
    assert computed == rows_to_compute(counts_by_op)
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
    # although op-id order has three ('a' twice, 'b' three times, 'a' once);
    # 'b' differs from 'a' in both classes, and 'op7' is an equal copy of 'b'
    counts_by_op = {"op6": a, "op3": b, "op1": a, "op2": a, "op4": b, "op5": b}
    counts_by_op["op7"] = counts(n_gt=2)
    roc, computed = counted_build(counts_by_op, DATASET, EvalParams(alpha_ct=1.0))
    assert computed == 4 * 2
    assert roc == via_rates(counts_by_op, DATASET, EvalParams(alpha_ct=1.0))
    assert [p.op_id for p in roc.op_points["a"]] == [f"op{k}" for k in range(1, 8)]


def test_only_the_classes_whose_counts_changed_are_computed_again():
    first = counts(("a", "b"))
    fewer_fp = replace(first, n_fp={"a": 0, "b": 1})  # class 'a' changed
    equal = replace(fewer_fp, n_sys={"a": 5, "b": 1})  # no class value reads n_sys
    counts_by_op = {"op1": first, "op2": fewer_fp, "op3": equal}
    roc, computed = counted_build(counts_by_op, DATASET, EvalParams())
    assert computed == 2 + 1 + 0
    assert roc == via_rates(counts_by_op, DATASET, EvalParams())


# four classes, each with 10 s of labelled duration in a 60 s file
FOUR = make_dataset([("f1", 10.0 * k, 10.0 * k + 10, c) for k, c in enumerate("abcd")], {"f1": 60})


def test_equal_cross_trigger_counts_in_another_order_are_computed_again():
    # 0.1 + 0.2 + 0.3 and 0.3 + 0.2 + 0.1 differ in their last bit
    ascending = {"b": 1, "c": 2, "d": 3}
    first = CountsMatrix(
        classes=tuple("abcd"),
        n_gt=dict.fromkeys("abcd", 1),
        n_sys=dict.fromkeys("abcd", 1),
        n_tp=dict.fromkeys("abcd", 0),
        n_fp=dict.fromkeys("abcd", 1),
        cross_triggers={"a": ascending, **{c: {o: 0 for o in "abcd" if o != c} for c in "bcd"}},
    )
    descending = dict(reversed(ascending.items()))
    assert descending == ascending
    counts_by_op = {
        "op1": first,
        "op2": replace(first, cross_triggers={**first.cross_triggers, "a": descending}),
    }
    params = EvalParams(alpha_ct=1.0, time_unit=TimeUnit.SECOND)
    roc, computed = counted_build(counts_by_op, FOUR, params)
    assert computed == 4 + 1
    assert roc == via_rates(counts_by_op, FOUR, params)
    assert len({p.efpr for p in roc.op_points["a"]}) == 2


# --- error parity ------------------------------------------------------------

# classes 'a' and 'b' have labelled duration; 'c' never occurs
DATASET = make_dataset([("f1", 0.0, 5.0, "a"), ("f1", 10.0, 12.0, "b")], {"f1": 60.0})


def counts(classes=("a", "b"), *, n_gt=1, zero_gt=(), untriggered=()):
    """Counts with a cross-trigger entry for each other class but the ``untriggered``."""
    return CountsMatrix(
        classes=tuple(classes),
        n_gt={c: 0 if c in zero_gt else n_gt for c in classes},
        n_sys={c: 1 for c in classes},
        n_tp={c: 0 for c in classes},
        n_fp={c: 1 for c in classes},
        cross_triggers={
            c: {o: 1 for o in classes if o != c and o not in untriggered} for c in classes
        },
    )


# three classes, none cross-triggered as 'c', which has no labelled duration
ABC = counts(("a", "b", "c"), untriggered=("c",))


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
    # the faulty classes of an op follow classes whose counts did not change
    "empty-class-after-unchanged-classes": (
        {"op1": ABC, "op2": replace(ABC, n_gt={"a": 1, "b": 1, "c": 0})},
        EvalParams(),
        EmptyClassGroundTruth,
    ),
    "first-of-two-empty-classes-after-an-unchanged-class": (
        {"op1": ABC, "op2": replace(ABC, n_gt={"a": 1, "b": 0, "c": 0})},
        EvalParams(),
        EmptyClassGroundTruth,
    ),
    "cross-trigger-change-alone-to-an-unlabelled-class": (
        {
            "op1": ABC,
            "op2": replace(ABC, cross_triggers={**ABC.cross_triggers, "b": {"a": 1, "c": 1}}),
        },
        EvalParams(),
        ZeroLabelDuration,
    ),
    "fault-after-an-equal-copy": (
        {"op1": ABC, "op2": replace(ABC), "op3": replace(ABC, n_gt={"a": 1, "b": 1, "c": 0})},
        EvalParams(),
        EmptyClassGroundTruth,
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

