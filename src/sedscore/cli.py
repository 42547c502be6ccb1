"""Command-line interface.

Exit codes: 0 on success, 1 on a data error (bad table, unknown file,
label outside the class set, ...), an unwritable ``--out`` or a JSON
report value that overflowed to infinity, 2 on a usage error, including
a parameter that :class:`EvalParams` or :class:`CollarParams` rejects.
A report is UTF-8 with ``\\n`` line ends, on stdout as in ``--out``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import SedScoreError
from .events import CollarParams, EvalParams, TimeUnit
from .io import (
    build_counts_report,
    build_f1_report,
    build_psds_report,
    emit_report,
    load_dataset,
    load_detections,
    sweep_operating_points,
)
from .matching import collar_counts, count_matrix
from .psdroc import psd_roc_from_counts
from .rates import compute_rates, f1_scores


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--gt", required=True, type=Path, help="ground-truth event table (TSV)")
    common.add_argument(
        "--durations", required=True, type=Path, help="per-file durations table (TSV)"
    )
    for flag, default, text in (
        ("--dtc", EvalParams.dtc_threshold, "detection tolerance"),
        ("--gtc", EvalParams.gtc_threshold, "ground-truth tolerance"),
        ("--cttc", EvalParams.cttc_threshold, "cross-trigger tolerance"),
        ("--alpha-ct", EvalParams.alpha_ct, "cross-trigger cost weight"),
        ("--alpha-st", EvalParams.alpha_st, "instability cost weight"),
        ("--emax", EvalParams.max_efpr, "eFPR budget in rate units"),
    ):
        common.add_argument(flag, type=float, default=default, help=f"{text} (default %(default)s)")
    common.add_argument(
        "--unit",
        choices=[u.value for u in TimeUnit],
        default=EvalParams.time_unit.value,
        help="time unit for rates (default %(default)s)",
    )
    common.add_argument("--out", type=Path, default=None, help="write report here (default stdout)")
    common.add_argument("--format", choices=["json", "tsv"], default="json")

    parser = argparse.ArgumentParser(
        prog="sedscore",
        description="Evaluate polyphonic sound event detection outputs against "
        "ground truth using intersection tolerance criteria, with a collar "
        "baseline and multi-operating-point PSDS summaries.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_counts = sub.add_parser(
        "counts", parents=[common], help="counts and rates for one detection table"
    )
    p_counts.add_argument("--det", required=True, type=Path, help="detection table (TSV)")

    p_f1 = sub.add_parser("f1", parents=[common], help="F1 scores for one detection table")
    p_f1.add_argument("--det", required=True, type=Path, help="detection table (TSV)")
    p_f1.add_argument(
        "--collar",
        type=float,
        default=None,
        help="switch to collar matching with this onset collar in seconds",
    )
    p_f1.add_argument(
        "--collar-ratio",
        type=float,
        default=None,
        help="offset collar as a fraction of each ground truth's duration "
        f"(default {CollarParams.offset_ratio})",
    )
    p_f1.add_argument(
        "--no-offset-check", action="store_true", help="match on onsets only in collar mode"
    )

    for command, text in (
        ("psds", "PSDS over a directory of operating points"),
        ("roc", "ROC curve tables over a directory of operating points"),
    ):
        p_sweep = sub.add_parser(command, parents=[common], help=text)
        p_sweep.add_argument(
            "--det-dir", required=True, type=Path, help="directory of detection tables, one per OP"
        )
        p_sweep.add_argument(
            "--no-clamp",
            action="store_true",
            help="report the literal effective TP ratio even when negative",
        )
    return parser


def _eval_params(args: argparse.Namespace) -> EvalParams:
    return EvalParams(
        dtc_threshold=args.dtc,
        gtc_threshold=args.gtc,
        cttc_threshold=args.cttc,
        alpha_ct=args.alpha_ct,
        alpha_st=args.alpha_st,
        max_efpr=args.emax,
        time_unit=TimeUnit(args.unit),
    )


def _collar_params(args: argparse.Namespace) -> CollarParams | None:
    if getattr(args, "collar", None) is None:
        return None
    return CollarParams(
        collar=args.collar,
        offset_ratio=CollarParams.offset_ratio if args.collar_ratio is None else args.collar_ratio,
        check_offset=not args.no_offset_check,
    )


def _run(args: argparse.Namespace, params: EvalParams, collar: CollarParams | None) -> dict:
    dataset = load_dataset(args.gt, args.durations)

    if args.command == "counts":
        detections = load_detections(args.det, dataset)
        counts = count_matrix(detections, dataset, params)
        rates = compute_rates(counts, dataset, params)
        return build_counts_report(counts, rates, dataset, params)

    if args.command == "f1":
        detections = load_detections(args.det, dataset)
        if collar is not None:
            counts = collar_counts(detections, dataset, collar)
        else:
            counts = count_matrix(detections, dataset, params)
        return build_f1_report(counts, f1_scores(counts), dataset, params, collar=collar)

    counts_by_op = sweep_operating_points(args.det_dir, dataset, params)
    roc = psd_roc_from_counts(counts_by_op, dataset, params, clamp=not args.no_clamp)
    return build_psds_report(roc, dataset, params, include_psds=args.command == "psds")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "f1" and args.collar is None:
        if args.collar_ratio is not None or args.no_offset_check:
            parser.error("--collar-ratio and --no-offset-check require --collar")
    try:
        params, collar = _eval_params(args), _collar_params(args)
    except ValueError as exc:
        parser.error(str(exc))
    try:
        report = _run(args, params, collar)
        try:
            text = emit_report(report, args.format)
        except ValueError as exc:  # an extreme weight can overflow a value to inf
            print(f"sedscore: error: the report cannot be written as JSON: {exc}", file=sys.stderr)
            return 1
        if args.out is not None:
            args.out.write_bytes(text.encode("utf-8"))
        elif not hasattr(sys.stdout, "buffer"):  # a text stream only, such as a StringIO
            sys.stdout.write(text)
        else:  # the bytes of --out, whatever the stream's encoding and line ends
            sys.stdout.flush()
            sys.stdout.buffer.write(text.encode("utf-8"))
    except (SedScoreError, OSError) as exc:
        print(f"sedscore: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
