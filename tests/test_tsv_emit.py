"""TSV emission against the per-cell rule it replaced.

``emit_report(report, "tsv")`` writes label cells as they are, and an
operating-point row holding the same objects as the row before it reuses
that row's cells. It must give, byte for byte, what sending every cell
through one rule gives: ``.6g`` for a float, ``true``/``false`` for a
bool, ``str`` for anything else. Reports built from user ``ClassRates`` or
``F1Report`` can hold ints and bools, which can equal a float but are
written differently (``10000000`` and ``1e+07``, ``true`` and ``1``), and
``-0.0``, which equals ``0.0`` but is written ``-0``.
"""

from __future__ import annotations

from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_dataset
from sedscore import (
    ClassCurve,
    ClassRates,
    CollarParams,
    CountsMatrix,
    EvalParams,
    F1Report,
    build_counts_report,
    build_f1_report,
    build_psds_report,
    emit_report,
    io,
    load_dataset,
    psd_roc_from_counts,
    psd_roc_from_rates,
    sweep_operating_points,
)


def per_cell(value: object) -> str:
    if isinstance(value, float):
        return format(value, ".6g")
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def per_cell_tsv(report: dict) -> str:
    """The TSV report with every cell, labels included, sent through ``per_cell``."""

    def kv(title, mapping):
        return [f"# {title}", *(f"{key}\t{per_cell(value)}" for key, value in mapping.items())]

    def table(title, header, rows):
        return [f"# {title}", "\t".join(header), *("\t".join(map(per_cell, row)) for row in rows)]

    def pairs(title, column, rows):
        cells = [(c, other, value) for c, row in rows.items() for other, value in row.items()]
        return table(title, ("class", "triggered_class", column), cells)

    def per_class(title, columns, rows):
        cells = [(c, *(row[k] for k in columns)) for c, row in rows.items()]
        return table(title, ("class", *columns), cells)

    dataset = {**report["dataset"], "classes": ",".join(report["dataset"]["classes"])}
    blocks = [
        kv("report", {"schema": report["schema"], "type": report["report"]}),
        kv("params", report["params"]),
        kv("dataset", dataset),
    ]
    if "counts" in report:
        blocks.append(per_class("counts", ("n_gt", "n_sys", "n_tp", "n_fp"), report["counts"]))
    if "cross_triggers" in report:
        blocks.append(pairs("cross_triggers", "count", report["cross_triggers"]))
    if "rates" in report:
        rates = report["rates"]
        blocks.append(per_class("rates", ("tp_ratio", "fp_rate", "efpr"), rates))
        blocks.append(pairs("ct_rates", "rate", {c: row["ct_rates"] for c, row in rates.items()}))
    if "f1" in report:
        f1 = report["f1"]
        blocks.append(table("f1", ("class", "f1"), list(f1["per_class"].items())))
        blocks.append(kv("f1_summary", {"macro_f1": f1["macro_f1"], "micro_f1": f1["micro_f1"]}))
    if "psds" in report:
        blocks.append(kv("psds", {"psds": report["psds"]}))
    if "psd_roc" in report:
        blocks.append(table("psd_roc", ("efpr", "etpr"), report["psd_roc"]))
    if "class_rocs" in report:
        classes = sorted(report["class_rocs"])
        curves = [ClassCurve(c, tuple(report["class_rocs"][c])) for c in classes]
        rows = [[e, *(curve.value_at(e) for curve in curves)] for e, _ in report["psd_roc"]]
        blocks.append(table("class_roc", ("efpr", *[f"tpr_{c}" for c in classes]), rows))
    if "operating_points" in report:
        ops = report["operating_points"]
        rows = [(c, *row) for c in sorted(ops) for row in ops[c]]
        blocks.append(table("operating_points", ("class", "op_id", "efpr", "tp_ratio"), rows))
    return "\n\n".join("\n".join(block) for block in blocks) + "\n"


# ints and bools, ints of 7 digits and more (``.6g`` would write 1e+07), both
# zeros, and values equal to others of another type (True, 1, 1.0; 10**7, 1e7)
POOL = [0.0, -0.0, 0.5, 1.0, 1, 0, True, False, 10**7, 12_345_678, 2.5e-7, 1e7, 150.0, -1.5]

# a report draws its values from a few of these, so that (eFPR, TP ratio) pairs repeat
pools = st.lists(st.one_of(st.sampled_from(POOL), st.floats(-1e9, 1e9)), min_size=1, max_size=5)


@st.composite
def values(draw, pool):
    """A value of the pool; a float is sometimes a fresh object of the same
    value and sign, so that equal values need not be one object."""
    value = draw(st.sampled_from(pool))
    if type(value) is float and draw(st.booleans()):
        value = float(repr(value))
    return value


def class_rates(draw, pool, classes, efprs):
    """Drawn rates of each class: eFPRs from ``efprs``, the other rates from ``pool``."""
    return {
        c: ClassRates(
            tp_ratio=draw(values(pool)),
            fp_rate=draw(values(pool)),
            ct_rates={other: draw(values(pool)) for other in classes if other != c},
            efpr=draw(values(efprs)),
        )
        for c in draw(st.permutations(classes))
    }


@st.composite
def reports(draw):
    """Every kind of report, built from drawn counts and user rates."""
    classes = [f"c{i}" for i in range(draw(st.integers(1, 3)))]
    dataset = make_dataset(
        [(f"f{i}", 0.0, 1.0, c) for i, c in enumerate(classes)],
        {f"f{i}": 10.0 for i in range(len(classes))},
    )
    params = EvalParams(alpha_st=draw(st.sampled_from([0.0, 1.0])))
    pool = draw(pools)
    n_gt = {c: draw(st.integers(0, 10**8)) for c in classes}
    n_sys = {c: draw(st.integers(0, 10**8)) for c in classes}
    counts = CountsMatrix(
        classes=tuple(classes),
        n_gt=n_gt,
        n_sys=n_sys,
        n_tp={c: draw(st.integers(0, n_gt[c])) for c in classes},
        n_fp={c: draw(st.integers(0, n_sys[c])) for c in classes},
        cross_triggers={
            c: {other: draw(st.integers(0, 10**8)) for other in classes if other != c}
            for c in classes
        },
    )
    # op ids in a drawn order, so that mapping order and op-id order differ
    ops = draw(st.permutations([f"op{k:02d}" for k in range(draw(st.integers(1, 8)))]))
    rates_by_op = {}
    # a PSD-ROC rejects a negative eFPR; -0.0 stays
    efprs = [-v if v < 0 else v for v in pool]
    for op in ops:
        share = draw(st.integers(0, 2)) if rates_by_op else 0
        if share == 1:  # the rates object of the op before it, as identical tables share
            rates_by_op[op] = rates_by_op[list(rates_by_op)[-1]]
        elif share == 2:  # that of any earlier op
            rates_by_op[op] = rates_by_op[draw(st.sampled_from(sorted(rates_by_op)))]
        else:
            rates_by_op[op] = class_rates(draw, pool, classes, efprs)
    roc = psd_roc_from_rates(rates_by_op, params, clamp=draw(st.booleans()))
    f1 = F1Report(
        per_class={c: draw(values(pool)) for c in classes},
        macro_f1=draw(values(pool)),
        micro_f1=draw(values(pool)),
    )
    collar = draw(st.sampled_from([None, CollarParams(collar=0.2)]))
    return [
        build_counts_report(counts, class_rates(draw, pool, classes, pool), dataset, params),
        build_f1_report(counts, f1, dataset, params, collar=collar),
        build_psds_report(roc, dataset, params),
        build_psds_report(roc, dataset, params, include_psds=False),
    ]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(built=reports())
def test_tsv_equals_the_per_cell_rule(built):
    for report in built:
        assert emit_report(report, "tsv") == per_cell_tsv(report)


GOLDEN = Path(__file__).parent / "golden"


def test_operating_point_rows_are_formatted_unless_they_repeat_the_row_above(
    tmp_path, monkeypatch
):
    # op3's table is op1's with two rows swapped: its counts equal op1's, but
    # dog's values are computed again after op2's false positive
    rows = (GOLDEN / "det.tsv").read_text(encoding="utf-8").splitlines(keepends=True)
    (tmp_path / "op1.tsv").write_text("".join(rows), encoding="utf-8")
    (tmp_path / "op2.tsv").write_text("".join(rows) + "a.wav\t100\t101\tdog\n", encoding="utf-8")
    rows[1], rows[2] = rows[2], rows[1]
    (tmp_path / "op3.tsv").write_text("".join(rows), encoding="utf-8")
    dataset = load_dataset(GOLDEN / "gt.tsv", GOLDEN / "durations.tsv")
    params = EvalParams()
    counts = sweep_operating_points(tmp_path, dataset, params)
    assert counts["op3"] == counts["op1"] and counts["op3"] is not counts["op1"]
    ops = build_psds_report(psd_roc_from_counts(counts, dataset, params), dataset, params)[
        "operating_points"
    ]
    calls = []
    numbers = io._numbers
    monkeypatch.setattr(io, "_numbers", lambda values: calls.append(values) or numbers(values))
    lines = list(io._op_point_lines(ops))
    assert lines == ["\t".join(map(per_cell, (c, *row))) for c in sorted(ops) for row in ops[c]]
    assert len(lines) == 9
    # once per class, then dog again at op2 and at op3
    assert len(calls) == 5
