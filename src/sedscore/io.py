"""Table parsing, sweep orchestration and report emission.

Event lists follow the DCASE community convention: UTF-8 tab-separated
values with a mandatory header, one event per row, decimal seconds. The
loaders skip a leading byte-order mark, which spreadsheet exports often
carry. A sweep is a directory with one detection table per operating
point; the file stem names the operating point. Parsing is strict and
fail-fast so a half-read sweep can never silently skew a score.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Mapping, NamedTuple, Sequence

from .errors import BadRow, MalformedHeader, NoOperatingPoints
from .events import CollarParams, Dataset, EvalParams, validate_events
from .matching import CountsMatrix, count_matrix
from .psdroc import ClassCurve, PsdRoc
from .rates import ClassRates, F1Report

__all__ = [
    "EVENT_HEADER",
    "DURATIONS_HEADER",
    "TableRow",
    "parse_event_table",
    "parse_durations_table",
    "load_event_table",
    "load_durations",
    "load_dataset",
    "sweep_operating_points",
    "build_counts_report",
    "build_f1_report",
    "build_psds_report",
    "emit_report",
]

EVENT_HEADER = ("filename", "onset", "offset", "event_label")
DURATIONS_HEADER = ("filename", "duration")


class TableRow(NamedTuple):
    """One parsed event row plus its source line for error reporting."""

    filename: str
    onset: float
    offset: float
    event_label: str
    line: int


def _parse_number(raw: str, what: str, line: int, source: str | None) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise BadRow(f"{source or '<input>'}:{line}: {what} '{raw}' is not a number") from None
    if not math.isfinite(value):
        raise BadRow(f"{source or '<input>'}:{line}: {what} '{raw}' is not finite")
    return value


def _data_lines(text: str, header: tuple[str, ...], source: str | None) -> list[str]:
    """Check a table's exact header; return its data lines, trailing empty lines dropped.

    An empty line between data rows stays, so the row parser reports it
    with its line number.
    """
    lines = text.splitlines()
    if not lines or tuple(lines[0].split("\t")) != header:
        raise MalformedHeader(f"{source or '<input>'}:1: expected header '{chr(9).join(header)}'")
    while not lines[-1]:
        lines.pop()
    return lines[1:]


def parse_event_table(text: str, *, source: str | None = None) -> list[TableRow]:
    """Parse an event list. Strict: exact header, exactly four columns.

    Onset/offset must parse as finite numbers; semantic checks (ordering,
    file bounds) are left to validation so their errors carry dataset
    context. A label with leading or trailing whitespace is rejected, as
    it would otherwise silently be a class of its own. A header-only
    table is valid and means an empty detection set. Duplicate rows are
    kept: two identical detections are two detections. Empty lines at the
    end of the table are ignored.
    """
    name = source or "<input>"
    rows: list[TableRow] = []
    for lineno, line in enumerate(_data_lines(text, EVENT_HEADER, source), start=2):
        fields = line.split("\t")
        if len(fields) != 4:
            raise BadRow(
                f"{name}:{lineno}: expected 4 tab-separated fields, got {len(fields)}"
            )
        filename, onset_raw, offset_raw, label = fields
        if not filename:
            raise BadRow(f"{name}:{lineno}: empty filename")
        if not label:
            raise BadRow(f"{name}:{lineno}: empty event_label")
        if label != label.strip():
            raise BadRow(
                f"{name}:{lineno}: event_label {label!r} has leading or trailing whitespace"
            )
        rows.append(
            TableRow(
                filename=filename,
                onset=_parse_number(onset_raw, "onset", lineno, source),
                offset=_parse_number(offset_raw, "offset", lineno, source),
                event_label=label,
                line=lineno,
            )
        )
    return rows


def parse_durations_table(text: str, *, source: str | None = None) -> dict[str, float]:
    """Parse a per-file durations table into a filename -> seconds map.

    Filenames must be unique and durations strictly positive. Empty lines
    at the end of the table are ignored.
    """
    name = source or "<input>"
    durations: dict[str, float] = {}
    for lineno, line in enumerate(_data_lines(text, DURATIONS_HEADER, source), start=2):
        fields = line.split("\t")
        if len(fields) != 2:
            raise BadRow(
                f"{name}:{lineno}: expected 2 tab-separated fields, got {len(fields)}"
            )
        filename, dur_raw = fields
        if not filename:
            raise BadRow(f"{name}:{lineno}: empty filename")
        if filename in durations:
            raise BadRow(f"{name}:{lineno}: duplicate filename '{filename}'")
        duration = _parse_number(dur_raw, "duration", lineno, source)
        if not duration > 0:
            raise BadRow(f"{name}:{lineno}: duration must be > 0, got {dur_raw}")
        durations[filename] = duration
    return durations


def load_event_table(path: str | Path) -> list[TableRow]:
    path = Path(path)
    return parse_event_table(path.read_text(encoding="utf-8-sig"), source=str(path))


def load_durations(path: str | Path) -> dict[str, float]:
    path = Path(path)
    return parse_durations_table(path.read_text(encoding="utf-8-sig"), source=str(path))


def load_dataset(gt_path: str | Path, durations_path: str | Path) -> Dataset:
    """Load and cross-validate ground truth and durations tables."""
    durations = load_durations(durations_path)
    rows = load_event_table(gt_path)
    ground_truth = validate_events(rows, durations, source=str(gt_path))
    return Dataset(ground_truth=ground_truth, file_durations=durations)


def sweep_operating_points(
    det_dir: str | Path,
    dataset: Dataset,
    params: EvalParams,
) -> dict[str, CountsMatrix]:
    """Evaluate every ``*.tsv`` detection table in a directory.

    Returns one counts matrix per table, keyed by file stem, in
    lexicographic filename order regardless of how the directory lists
    them. Any parse or validation problem aborts the whole sweep naming
    the offending file; a partial sweep would make scores incomparable.
    """
    det_dir = Path(det_dir)
    paths = sorted(det_dir.glob("*.tsv"), key=lambda p: p.name)
    if not paths:
        raise NoOperatingPoints(f"no .tsv detection tables in '{det_dir}'")
    counts: dict[str, CountsMatrix] = {}
    for path in paths:
        rows = load_event_table(path)
        detections = validate_events(
            rows,
            dataset.file_durations,
            allowed_classes=dataset.classes,
            source=str(path),
        )
        counts[path.stem] = count_matrix(detections, dataset, params)
    return counts


# --- report assembly -------------------------------------------------------

_SCHEMA = "sedscore-report-v1"


def _params_block(
    params: EvalParams, *, clamp: bool = True, collar: CollarParams | None = None
) -> dict:
    if collar is not None:
        return {
            "mode": "collar",
            "collar": collar.collar,
            "collar_offset_ratio": collar.offset_ratio,
            "check_offset": collar.check_offset,
            "time_unit": params.time_unit.value,
        }
    return {
        "mode": "intersection",
        "dtc_threshold": params.dtc_threshold,
        "gtc_threshold": params.gtc_threshold,
        "cttc_threshold": params.cttc_threshold,
        "alpha_ct": params.alpha_ct,
        "alpha_st": params.alpha_st,
        "max_efpr": params.max_efpr,
        "time_unit": params.time_unit.value,
        "rate_unit": f"per_{params.time_unit.value}",
        "clamp_etpr": clamp,
    }


def _dataset_block(dataset: Dataset) -> dict:
    return {
        "num_files": len(dataset.file_durations),
        "total_duration_seconds": dataset.total_duration,
        "classes": list(dataset.classes),
    }


def _counts_block(counts: CountsMatrix) -> dict:
    return {
        c: {
            "n_gt": counts.n_gt[c],
            "n_sys": counts.n_sys[c],
            "n_tp": counts.n_tp[c],
            "n_fp": counts.n_fp[c],
        }
        for c in counts.classes
    }


def _cross_trigger_block(counts: CountsMatrix) -> dict:
    return {
        c: {other: counts.cross_triggers[c][other] for other in counts.classes if other != c}
        for c in counts.classes
    }


def _rates_block(rates: Mapping[str, ClassRates]) -> dict:
    return {
        c: {
            "tp_ratio": r.tp_ratio,
            "fp_rate": r.fp_rate,
            "efpr": r.efpr,
            "ct_rates": {other: r.ct_rates[other] for other in sorted(r.ct_rates)},
        }
        for c, r in sorted(rates.items())
    }


def build_counts_report(
    counts: CountsMatrix,
    rates: Mapping[str, ClassRates],
    dataset: Dataset,
    params: EvalParams,
) -> dict:
    """Single-operating-point report: counts, cross-triggers and rates."""
    return {
        "schema": _SCHEMA,
        "report": "counts",
        "params": _params_block(params),
        "dataset": _dataset_block(dataset),
        "counts": _counts_block(counts),
        "cross_triggers": _cross_trigger_block(counts),
        "rates": _rates_block(rates),
    }


def build_f1_report(
    counts: CountsMatrix,
    f1: F1Report,
    dataset: Dataset,
    params: EvalParams,
    *,
    collar: CollarParams | None = None,
) -> dict:
    """Single-operating-point F1 report, intersection or collar mode."""
    return {
        "schema": _SCHEMA,
        "report": "f1",
        "params": _params_block(params, collar=collar),
        "dataset": _dataset_block(dataset),
        "counts": _counts_block(counts),
        "f1": {
            "per_class": {c: f1.per_class[c] for c in counts.classes},
            "macro_f1": f1.macro_f1,
            "micro_f1": f1.micro_f1,
        },
    }


def build_psds_report(
    roc: PsdRoc,
    dataset: Dataset,
    params: EvalParams,
    *,
    include_psds: bool = True,
) -> dict:
    """Sweep report: merged ROC, per-class curves, raw operating points.

    With ``include_psds`` false the score itself is left out (curve-only
    export); everything else is identical.
    """
    report = {
        "schema": _SCHEMA,
        "report": "psds" if include_psds else "roc",
        "params": _params_block(params, clamp=roc.clamped),
        "dataset": _dataset_block(dataset),
        "num_operating_points": max(
            (len(pts) for pts in roc.op_points.values()), default=0
        ),
    }
    if include_psds:
        report["psds"] = roc.psds
    report["psd_roc"] = [[e, v] for e, v in roc.points]
    report["class_rocs"] = {
        c: [[e, v] for e, v in roc.curves[c].breakpoints] for c in sorted(roc.curves)
    }
    report["operating_points"] = {
        c: [[p.op_id, p.efpr, p.tp_ratio] for p in roc.op_points[c]]
        for c in sorted(roc.op_points)
    }
    return report


# --- emission ---------------------------------------------------------------


def _fmt(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return format(value, ".6g")
    return str(value)


def _kv_block(title: str, mapping: Mapping[str, object]) -> list[str]:
    lines = [f"# {title}"]
    lines.extend(f"{key}\t{_fmt(value)}" for key, value in mapping.items())
    return lines


def _table_block(title: str, header: Sequence[str], rows: Sequence[Sequence[object]]) -> list[str]:
    lines = [f"# {title}", "\t".join(header)]
    lines.extend("\t".join(_fmt(cell) for cell in row) for row in rows)
    return lines


def _tsv_report(report: dict) -> str:
    blocks: list[list[str]] = []
    blocks.append(_kv_block("report", {"schema": report["schema"], "type": report["report"]}))
    blocks.append(_kv_block("params", report["params"]))
    dataset = dict(report["dataset"])
    dataset["classes"] = ",".join(dataset["classes"])
    blocks.append(_kv_block("dataset", dataset))
    if "counts" in report:
        blocks.append(
            _table_block(
                "counts",
                ("class", "n_gt", "n_sys", "n_tp", "n_fp"),
                [
                    (c, row["n_gt"], row["n_sys"], row["n_tp"], row["n_fp"])
                    for c, row in report["counts"].items()
                ],
            )
        )
    if "cross_triggers" in report:
        blocks.append(
            _table_block(
                "cross_triggers",
                ("class", "triggered_class", "count"),
                [
                    (c, other, n)
                    for c, row in report["cross_triggers"].items()
                    for other, n in row.items()
                ],
            )
        )
    if "rates" in report:
        blocks.append(
            _table_block(
                "rates",
                ("class", "tp_ratio", "fp_rate", "efpr"),
                [
                    (c, row["tp_ratio"], row["fp_rate"], row["efpr"])
                    for c, row in report["rates"].items()
                ],
            )
        )
        blocks.append(
            _table_block(
                "ct_rates",
                ("class", "triggered_class", "rate"),
                [
                    (c, other, rate)
                    for c, row in report["rates"].items()
                    for other, rate in row["ct_rates"].items()
                ],
            )
        )
    if "f1" in report:
        blocks.append(
            _table_block(
                "f1",
                ("class", "f1"),
                list(report["f1"]["per_class"].items()),
            )
        )
        blocks.append(
            _kv_block(
                "f1_summary",
                {"macro_f1": report["f1"]["macro_f1"], "micro_f1": report["f1"]["micro_f1"]},
            )
        )
    if "psds" in report:
        blocks.append(_kv_block("psds", {"psds": report["psds"]}))
    if "psd_roc" in report:
        blocks.append(_table_block("psd_roc", ("efpr", "etpr"), report["psd_roc"]))
    if "class_rocs" in report:
        classes = sorted(report["class_rocs"])
        curves = [ClassCurve(c, tuple(report["class_rocs"][c])) for c in classes]
        rows = [[e, *(curve.value_at(e) for curve in curves)] for e, _ in report["psd_roc"]]
        blocks.append(
            _table_block(
                "class_roc",
                ("efpr", *[f"tpr_{c}" for c in classes]),
                rows,
            )
        )
    if "operating_points" in report:
        blocks.append(
            _table_block(
                "operating_points",
                ("class", "op_id", "efpr", "tp_ratio"),
                [
                    (c, op_id, efpr, tp)
                    for c in sorted(report["operating_points"])
                    for op_id, efpr, tp in report["operating_points"][c]
                ],
            )
        )
    return "\n\n".join("\n".join(block) for block in blocks) + "\n"


def emit_report(report: dict, format: str = "json") -> str:
    """Serialize a report dict as JSON (lossless) or TSV blocks (plot-ready).

    JSON key order is the construction order, which is deterministic, so
    identical inputs produce byte-identical output. TSV numbers are
    rendered with 6 significant digits.
    """
    if format == "json":
        return json.dumps(report, indent=2, allow_nan=False) + "\n"
    if format == "tsv":
        return _tsv_report(report)
    raise ValueError(f"unknown report format '{format}'")
