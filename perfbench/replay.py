"""Traced replay of the CLI pipeline through each module's public calls.

``replay`` does what ``sedscore.cli.main`` does for the ``psds`` and
``f1 --collar`` invocations of the benchmark, one public call at a time,
with a span around each call. Its report must be byte-identical to the
CLI's; the benchmark checks that on every traced pass.
"""

from __future__ import annotations

from pathlib import Path

from sedscore import (
    CollarParams,
    Dataset,
    EvalParams,
    TimeUnit,
    collar_counts,
    compute_rates,
    count_matrix,
    emit_report,
    f1_scores,
    load_durations,
    load_event_table,
    merge_psd_roc,
    pareto_filter,
    staircase,
    validate_events,
)
from sedscore.cli import build_parser
from sedscore.io import build_f1_report, build_psds_report
from sedscore.psdroc import OpPoint

from spans import Tracer


def eval_params(args) -> EvalParams:
    """The evaluation parameters the CLI builds from its parsed arguments."""
    return EvalParams(
        dtc_threshold=args.dtc,
        gtc_threshold=args.gtc,
        cttc_threshold=args.cttc,
        alpha_ct=args.alpha_ct,
        alpha_st=args.alpha_st,
        max_efpr=args.emax,
        time_unit=TimeUnit(args.unit),
    )


def _load_dataset(tracer: Tracer, gt_path: Path, durations_path: Path) -> Dataset:
    with tracer.span("io.parse") as sp:
        durations = load_durations(durations_path)
        rows = load_event_table(gt_path)
        sp.counts["rows"] = len(durations) + len(rows)
    with tracer.span("events.validate") as sp:
        ground_truth = validate_events(rows, durations, source=str(gt_path))
        sp.counts["rows"] = len(rows)
    with tracer.span("events.dataset"):
        return Dataset(ground_truth=ground_truth, file_durations=durations)


def _load_detections(tracer: Tracer, path: Path, dataset: Dataset, op: str):
    with tracer.span("io.parse", op) as sp:
        rows = load_event_table(path)
        sp.counts["rows"] = len(rows)
    with tracer.span("events.validate", op) as sp:
        detections = validate_events(
            rows, dataset.file_durations, allowed_classes=dataset.classes, source=str(path)
        )
        sp.counts["rows"] = len(rows)
    return detections


def _count_spans(sp, counts) -> None:
    sp.counts["dets"] = sum(counts.n_sys.values())
    sp.counts["n_tp"] = counts.total_tp
    sp.counts["n_fp"] = counts.total_fp
    sp.counts["cross_triggers"] = sum(sum(row.values()) for row in counts.cross_triggers.values())


def _psds_report(tracer: Tracer, args, params: EvalParams, dataset: Dataset, counts_out: dict):
    paths = sorted(Path(args.det_dir).glob("*.tsv"), key=lambda p: p.name)
    for path in paths:
        detections = _load_detections(tracer, path, dataset, path.stem)
        with tracer.span("matching.count", path.stem) as sp:
            counts_out[path.stem] = count_matrix(detections, dataset, params)
            _count_spans(sp, counts_out[path.stem])
    rates_by_op = {}
    for op, counts in counts_out.items():
        with tracer.span("rates.rates", op):
            rates_by_op[op] = compute_rates(counts, dataset, params)
    classes = dataset.classes
    op_points = {
        c: tuple(
            OpPoint(efpr=rates_by_op[op][c].efpr, tp_ratio=rates_by_op[op][c].tp_ratio, op_id=op)
            for op in sorted(rates_by_op)
        )
        for c in classes
    }
    curves = {}
    for c in classes:
        with tracer.span("psdroc.pareto") as sp:
            kept = pareto_filter(op_points[c])
            sp.counts["points_in"] = len(op_points[c])
            sp.counts["points_kept"] = len(kept)
        with tracer.span("psdroc.staircase") as sp:
            curves[c] = staircase(kept, c)
            sp.counts["breakpoints"] = len(curves[c].breakpoints)
    clamp = not args.no_clamp
    with tracer.span("psdroc.merge") as sp:
        roc = merge_psd_roc(
            curves, params.alpha_st, params.max_efpr, clamp=clamp, params=params,
            op_points=op_points,
        )
        sp.counts["grid_points"] = len(roc.points)
    with tracer.span("io.report_build"):
        return build_psds_report(roc, dataset, params, include_psds=args.command == "psds")


def _f1_report(tracer: Tracer, args, params: EvalParams, dataset: Dataset, counts_out: dict):
    op = Path(args.det).stem
    detections = _load_detections(tracer, args.det, dataset, op)
    collar = CollarParams(
        collar=args.collar,
        offset_ratio=0.2 if args.collar_ratio is None else args.collar_ratio,
        check_offset=not args.no_offset_check,
    )
    with tracer.span("matching.collar", op):
        counts = collar_counts(detections, dataset, collar)
    with tracer.span("rates.rates", op):
        f1 = f1_scores(counts)
    with tracer.span("io.report_build"):
        return build_f1_report(counts, f1, dataset, params, collar=collar)


def replay(argv: list[str], tracer: Tracer, counts_out: dict | None = None) -> str:
    """Run one ``psds``/``roc`` or ``f1 --collar`` invocation traced.

    Returns the report text the CLI would print. The intersection counts
    of each operating point go into ``counts_out`` when it is given.
    """
    counts_out = {} if counts_out is None else counts_out
    with tracer.span(f"cli.{argv[0]}"):
        args = build_parser().parse_args(argv)
        if args.command not in ("psds", "roc") and args.collar is None:
            raise ValueError("replay covers psds, roc and f1 --collar only")
        params = eval_params(args)
        dataset = _load_dataset(tracer, args.gt, args.durations)
        build = _f1_report if args.command == "f1" else _psds_report
        report = build(tracer, args, params, dataset, counts_out)
        with tracer.span("io.emit") as sp:
            text = emit_report(report, args.format)
            sp.counts["bytes"] = len(text.encode("utf-8"))
    return text
