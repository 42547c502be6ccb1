r"""Table parsing, sweep orchestration and report emission.

Event lists follow the DCASE community convention: UTF-8 tab-separated
values with a mandatory header, one event per row, decimal seconds. The
loaders skip a leading byte-order mark, which spreadsheet exports often
carry, and report a byte that is not UTF-8 as a parse error naming its
line. Lines end at ``\n``, with one ``\r`` before it dropped, so line
numbers are the file's own. A number cell is a plain decimal: one with
an underscore or a non-ASCII character, which ``float`` would read, is
not a number. The loaders check a table column by column, each rule once
over a whole column; a table that fails a check is read again row by
row, which names its first faulty line, so of several faulty rows the
first is reported. Every table is read by one ``os.read`` sized by the
file's size, and read on where the system returns less. A sweep is a
directory with one detection table per operating point, listed by one
directory scan and taken in name order; the file stem names the
operating point. A table whose bytes, compared before they are decoded,
are those of the previous table reuses that table's counts. Tables often
nest, so a row whose exact text appeared in the previous table, or
earlier in the same one, reuses that row's match record instead of being
parsed, validated and matched again, until a table reuses too few rows
to pay for the lookups. While it does, a table that differs from the
previous one in a few rows, in any order, gets its counts by stepping
the previous table's tally by the rows that left and came. Parsing is
strict and fail-fast so a half-read sweep can never silently skew a
score.
"""

from __future__ import annotations

import json
import math
import os
from collections import Counter
from itertools import filterfalse, repeat
from operator import gt
from pathlib import Path
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import BadRow, MalformedHeader, NoOperatingPoints, ParseError
from .events import CollarParams, Dataset, EvalParams, Event, EventSet
from .events import _events_of_columns, _validated
from .matching import CountsMatrix, _Tally, _Verdict, _verdicts, count_matrix
from .psdroc import PsdRoc, _staircase_rows
from .rates import ClassRates, F1Report

__all__ = [
    "EVENT_HEADER",
    "DURATIONS_HEADER",
    "TableRow",
    "load_event_table",
    "load_durations",
    "load_dataset",
    "load_detections",
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


def _parse_number(raw: str, what: str, line: int, name: str) -> float:
    """The finite float a number cell holds.

    ``float`` also takes digit-group underscores, non-ASCII digits and
    surrounding whitespace, so ``1_0`` would read 10.0, ``١٢`` 12.0 and
    ``' 1.5 '`` 1.5; such a cell is not a number, as a padded label is
    refused.
    """
    if "_" in raw or raw != raw.strip() or not raw.isascii():
        raise BadRow(f"{name}:{line}: {what} '{raw}' is not a number")
    try:
        value = float(raw)
    except ValueError:
        raise BadRow(f"{name}:{line}: {what} '{raw}' is not a number") from None
    if not math.isfinite(value):
        raise BadRow(f"{name}:{line}: {what} '{raw}' is not finite")
    return value


# Windows would otherwise translate line ends, which the table's bytes keep.
_READ_FLAGS = os.O_RDONLY | getattr(os, "O_BINARY", 0)


def _read_table(path: str) -> bytes:
    """A table file's bytes, as they are on disk.

    One read sized by the file's size plus one byte finds the end of a
    file that does not grow meanwhile. A read of any other length than the
    file's size goes on until a read returns nothing: the file grew or has
    no size, such as a pipe, or the system returned less than was asked,
    as Linux does past 0x7ffff000 bytes and some network filesystems do
    at any size. A fault of the read names ``path``, as one of the open
    does.
    """
    fd = os.open(path, _READ_FLAGS)
    try:
        size = os.fstat(fd).st_size
        data = os.read(fd, size + 1)
        if len(data) != size:
            chunks = [data]
            while chunk := os.read(fd, 1 << 16):
                chunks.append(chunk)
            data = b"".join(chunks)
    except OSError as exc:
        exc.filename = path  # os.read does not name the file: "Is a directory"
        raise
    finally:
        os.close(fd)
    return data


def _decoded(data: bytes, source: str) -> str:
    """A table's text without a leading byte-order mark; a non-UTF-8 byte names its line."""
    try:
        return data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise ParseError(
            f"{source}:{line}: byte 0x{exc.object[exc.start]:02x} is not valid UTF-8"
        ) from None


def _table_text(path: str | Path) -> tuple[str, str]:
    """``(text, source)`` of a table file, named ``str(Path(path))`` in every message."""
    source = str(Path(path))
    return _decoded(_read_table(source), source), source


def _lines(text: str, header: tuple[str, ...], name: str) -> list[str]:
    """The text of each data row of a table, in order; the first is line 2.

    Lines end at ``\\n``; one ``\\r`` before it is dropped, so LF and CRLF
    tables read alike and no other character shifts a line number. Checks
    the exact header. Empty lines at the end of the table are dropped; an
    empty line between data rows is kept, and :func:`_rows` rejects it.
    """
    if "\r" in text:
        text = text.replace("\r\n", "\n")
        if text.endswith("\r"):
            text = text[:-1]
    lines = text.split("\n")
    if tuple(lines[0].split("\t")) != header:
        raise MalformedHeader(f"{name}:1: expected header '{chr(9).join(header)}'")
    while not lines[-1]:
        lines.pop()
    del lines[0]
    return lines


def _rows(
    lines: Iterable[str], header: tuple[str, ...], name: str
) -> Iterator[tuple[int, list[str]]]:
    """Yield ``(line number, fields)`` for each data line of a table; the first is line 2.

    Checks that every row has one field per header column and a non-empty
    filename; an empty line is a :class:`BadRow` naming its line.
    """
    for lineno, line in enumerate(lines, 2):
        fields = line.split("\t")
        if len(fields) != len(header):
            raise BadRow(
                f"{name}:{lineno}: expected {len(header)} tab-separated fields, got {len(fields)}"
            )
        if not fields[0]:
            raise BadRow(f"{name}:{lineno}: empty filename")
        yield lineno, fields


def _event_rows(lines: Iterable[str], name: str) -> Iterator[tuple[str, float, float, str, int]]:
    """Yield ``(filename, onset, offset, label, line)`` for each data line of an event table.

    The row rules of an event table: a label that is not empty and has no
    leading or trailing whitespace, which would otherwise silently make it
    a class of its own, and a finite onset and offset.
    """
    for lineno, (filename, onset_raw, offset_raw, label) in _rows(lines, EVENT_HEADER, name):
        if not label:
            raise BadRow(f"{name}:{lineno}: empty event_label")
        if label != label.strip():
            raise BadRow(
                f"{name}:{lineno}: event_label {label!r} has leading or trailing whitespace"
            )
        onset = _parse_number(onset_raw, "onset", lineno, name)
        offset = _parse_number(offset_raw, "offset", lineno, name)
        yield filename, onset, offset, label, lineno


# deletes every character a number cell may hold, so that any left is a fault
_NUMBER_CHARS = str.maketrans("", "", "0123456789.eE+-")


def _columns(lines: list[str], width: int) -> list[list[str]] | None:
    """The ``width`` columns of a table's lines, or None if a line has another number of fields.

    Each line is counted on its own: a short line and a long one could
    hold the right number of tabs between them and split into other rows.
    """
    if not set(map(str.count, lines, repeat("\t"))) <= {width - 1}:
        return None
    cells = "\t".join(lines).split("\t") if lines else []
    return [cells[i::width] for i in range(width)]


def _column_numbers(cells: list[str]) -> list[float] | None:
    """The floats of a number column, or None if a cell is not a finite plain decimal.

    The rule of :func:`_parse_number` over a whole column: a cell of the
    characters ``0-9 . e E + -`` only (no underscore, whitespace,
    non-ASCII digit, ``inf`` or ``nan``) that ``float`` reads to a finite
    value, which ``1e999`` is not.
    """
    if "".join(cells).translate(_NUMBER_CHARS):
        return None
    try:
        values = list(map(float, cells))
    except ValueError:
        return None
    return values if all(map(math.isfinite, values)) else None


def _column_durations(lines: list[str]) -> dict[str, float] | None:
    """The filename -> seconds map of a durations table's lines, or None if a check fails."""
    columns = _columns(lines, 2)
    if columns is None:
        return None
    files, cells = columns
    values = _column_numbers(cells)
    if values is None or "" in files or (values and not min(values) > 0):
        return None
    durations = dict(zip(files, values))
    return durations if len(durations) == len(lines) else None  # else a filename repeats


def _column_events(
    lines: list[str], file_durations: Mapping[str, float], allowed: frozenset[str] | None
) -> tuple[Event, ...] | None:
    """The validated events of an event table's lines, or None if a check fails.

    Checks each rule of the row loop (:func:`_event_rows` and
    :func:`events._validated`) once over a whole column, and each distinct
    label and filename once, so it accepts exactly the tables that loop
    accepts and gives the same events; which fault a rejected table holds,
    and on which line, is left to that loop. :func:`events._events_of_columns`
    checks ``Event``'s own two rules and makes the events.
    """
    columns = _columns(lines, 4)
    if columns is None:
        return None
    files, onset_cells, offset_cells, labels = columns
    onsets = _column_numbers(onset_cells)
    offsets = _column_numbers(offset_cells)
    if onsets is None or offsets is None:
        return None
    names, kinds = set(files), set(labels)
    if "" in names or not all(map(file_durations.__contains__, names)):
        return None
    if "" in kinds or list(kinds) != list(map(str.strip, kinds)):
        return None
    if allowed is not None and not kinds <= allowed:
        return None
    if any(map(gt, offsets, map(file_durations.__getitem__, files))):
        return None
    return _events_of_columns(files, onsets, offsets, labels)


def _text_durations(text: str, source: str) -> dict[str, float]:
    """The filename -> seconds map of a durations table's text."""
    lines = _lines(text, DURATIONS_HEADER, source)
    durations = _column_durations(lines)
    if durations is not None:
        return durations
    durations = {}
    for lineno, (filename, dur_raw) in _rows(lines, DURATIONS_HEADER, source):
        if filename in durations:
            raise BadRow(f"{source}:{lineno}: duplicate filename '{filename}'")
        duration = _parse_number(dur_raw, "duration", lineno, source)
        if not duration > 0:
            raise BadRow(f"{source}:{lineno}: duration must be > 0, got {dur_raw}")
        durations[filename] = duration
    return durations


def load_event_table(path: str | Path) -> list[TableRow]:
    """Parse an event table into its rows, in file order, without validating them.

    Strict: the exact ``filename, onset, offset, event_label`` header, and
    four fields per row with a non-empty filename. Onset and offset must be
    finite numbers, and a label may not be empty or carry leading or
    trailing whitespace. Ordering and file bounds are left to
    :func:`validate_events`. A header-only table means no events, duplicate
    rows are kept, and empty lines at the end are ignored.

    This is the remaining two-step entry, to be followed by
    ``validate_events``; :func:`load_detections` and :func:`load_dataset`,
    which read and validate in one pass, are preferred.
    """
    text, source = _table_text(path)
    rows = _event_rows(_lines(text, EVENT_HEADER, source), source)
    return list(map(TableRow._make, rows))


def load_durations(path: str | Path) -> dict[str, float]:
    """Read a ``filename, duration`` table into a filename -> seconds map.

    Strict: the exact header and two fields per row. Filenames must be
    non-empty and unique, and durations finite and strictly positive.
    Empty lines at the end of the table are ignored.
    """
    return _text_durations(*_table_text(path))


def _text_events(
    text: str,
    source: str,
    file_durations: Mapping[str, float],
    allowed: frozenset[str] | None,
) -> EventSet:
    """The validated events of an event table's text, read by columns unless a check fails.

    A table that fails a column check is read again by the row loop, which
    raises the fault of its first faulty line.
    """
    lines = _lines(text, EVENT_HEADER, source)
    events = _column_events(lines, file_durations, allowed)
    if events is None:
        rows = _event_rows(lines, source)
        events = tuple(_validated(rows, file_durations, allowed, source))
    return EventSet(events)


def load_dataset(gt_path: str | Path, durations_path: str | Path) -> Dataset:
    """Load and cross-validate ground truth and durations tables."""
    durations = load_durations(durations_path)
    events = _text_events(*_table_text(gt_path), durations, None)
    return Dataset._of_placed(events, durations)


def load_detections(path: str | Path, dataset: Dataset) -> EventSet:
    """Load a detection table, validated against the dataset's files and classes."""
    allowed = frozenset(dataset.classes)
    return _text_events(*_table_text(path), dataset.file_durations, allowed)


# A table is stepped from the previous table's tally when the lines that
# left and came, one per occurrence, are at most this share of its lines,
# and tallied from scratch otherwise. Timed on Python 3.11 (2 vCPUs), on a
# table of the benchmark's dcase-val (seeds 3 and 7) and long-file (seed
# 7) corpora with a random 5-40% of its lines taken out and put back, a
# step costs 0.52-0.75 us per line that left or came and a tally from
# scratch 0.45-0.63 us per line, so they break even at a share of about
# 0.8. Whole sweeps of those corpora were 1-3% faster (best of 16) with a
# share of 0.35-0.7 than with 0.2, and fine-sweep's no different. The
# share is set well below the break-even.
_STEP_SHARE = 0.5


def _difference(
    before: Counter, after: Counter, n_lines: int, repeated: list[str]
) -> tuple[list[str], list[str], list[str], list[str], list[str]]:
    """How a table differs from the previous one: ``(gone, fresh, left, came, repeats)``.

    ``before`` and ``after`` count the lines of the two tables, ``n_lines``
    is this table's number of lines and ``repeated`` holds the rows that
    ``before`` counts more than once. ``gone`` are the rows of ``before``
    that ``after`` lacks, ``fresh`` those of ``after`` that ``before``
    lacks, in its order: a table that only shrank or only grew, as the
    tables of a sweep do, shows one of the two empty by its size, without
    a scan. ``left`` and ``came`` are the rows that left and came, one per
    occurrence (``gone`` and ``fresh`` from an empty ``before``, which no
    tally is stepped from). ``repeats`` are the rows that ``after`` counts
    more than once, looked for among ``repeated`` and ``fresh`` first: only
    a row that stayed and gained an occurrence makes every row looked at.
    """
    if len(after) < len(before):
        gone = list(filterfalse(after.__contains__, before))
        stayed = len(before) - len(gone)
        fresh = list(filterfalse(before.__contains__, after)) if len(after) > stayed else []
    else:
        fresh = list(filterfalse(before.__contains__, after))
        stayed = len(after) - len(fresh)
        gone = list(filterfalse(after.__contains__, before)) if len(before) > stayed else []
    extra = n_lines - len(after)
    if not (repeated or extra):  # no row repeats: each that left or came did so once
        return gone, fresh, gone, fresh, []
    repeats = [row for row in dict.fromkeys([*repeated, *fresh]) if after.get(row, 0) > 1]
    if sum(after[row] for row in repeats) - len(repeats) != extra:
        repeats = [row for row, n in after.items() if n > 1]
    if not before:
        return gone, fresh, gone, fresh, repeats
    left: list[str] = []
    came: list[str] = []
    for row in dict.fromkeys([*gone, *fresh, *repeated, *repeats]):
        n = before.get(row, 0) - after.get(row, 0)
        if n > 0:
            left += [row] * n
        elif n < 0:
            came += [row] * -n
    return gone, fresh, left, came, repeats


def sweep_operating_points(
    det_dir: str | Path,
    dataset: Dataset,
    params: EvalParams,
) -> dict[str, CountsMatrix]:
    """Evaluate every ``*.tsv`` detection table in a directory.

    Returns one counts matrix per table, keyed by file stem, in
    lexicographic filename order regardless of how the directory lists
    them. Any parse, validation or read problem aborts the whole sweep
    naming the offending file as ``str(Path(det_dir) / name)``; a partial
    sweep would make scores incomparable.

    Each table gives what ``count_matrix(load_detections(path, ...))``
    gives. A table whose bytes, as read and byte-order mark included, are
    those of the previous table, as when a threshold crosses no detection
    score, is neither decoded nor scored again: identical consecutive
    tables share one ``CountsMatrix`` object. Of other tables, a line
    whose exact text appeared in the previous table, or earlier in the
    same one, reuses that line's record: the tables of a threshold sweep
    often nest, so most rows are scored once per sweep. Only the other
    lines are read, column by column as :func:`load_detections` reads a
    table; a table with a fault among them is read again row by row, which
    reports the fault as :func:`load_detections` does, naming the table's
    first faulty line.
    Looking a line up costs a small fraction of scoring it, but it is paid
    on every line, so once a table reuses the record of fewer than one line
    in ten, as when every threshold moves the event edges, the remaining
    tables are scored without lookups.

    While lines are looked up, the previous table's tally is kept. A table
    whose lines that left and came since the previous table, counted once
    per occurrence, are at most :data:`_STEP_SHARE` of its lines steps
    that tally by the records of those lines (:meth:`matching._Tally.step`),
    whatever the order of its lines. Any other table is tallied from
    scratch. Either way its counts are those of ``count_matrix``: every
    verdict is exact, so it does not depend on the order of the lines.
    """
    det_dir = Path(det_dir)
    if not det_dir.is_dir():
        raise NoOperatingPoints(f"detection path '{det_dir}' is not a directory")
    # "*.tsv" as a glob matches it: regardless of case where names have none, as on Windows
    with os.scandir(det_dir) as entries:
        tables = sorted(
            (e.name, e.path) for e in entries if os.path.normcase(e.name).endswith(".tsv")
        )
    if not tables:
        raise NoOperatingPoints(f"no .tsv detection tables in '{det_dir}'")
    allowed = frozenset(dataset.classes)
    counts: dict[str, CountsMatrix] = {}
    # line text -> record: the previous table's lines, and this table's once
    # scored; None once the tables stop repeating lines
    known: dict[str, _Verdict] | None = {}
    previous = None  # the previous table's bytes
    # the count of each line of the previous table, whose records ``known``
    # and whose counts ``tally`` hold, and the lines it repeats
    held: Counter = Counter()
    held_repeats: list[str] = []
    for name, path in tables:
        op = name[:-4] or name  # the file stem: ".tsv" names op ".tsv"
        try:
            data = _read_table(path)
        except OSError as exc:  # named as source is: e.path reads "./x.tsv" where det_dir is "."
            exc.filename = str(det_dir / name)
            raise
        if data == previous:
            counts[op] = matrix
            continue
        previous = data
        source = str(det_dir / name)
        text = _decoded(data, source)
        if known is None:
            events = _text_events(text, source, dataset.file_durations, allowed)
            counts[op] = matrix = count_matrix(events, dataset, params)
            continue
        lines = _lines(text, EVENT_HEADER, source)
        distinct = Counter(lines)  # in the order of first appearance
        gone, fresh, left, came, repeats = _difference(held, distinct, len(lines), held_repeats)
        if fresh:
            events = _column_events(fresh, dataset.file_durations, allowed)
            if events is None:  # a fresh row is faulty: the table's own load names its line
                _text_events(text, source, dataset.file_durations, allowed)
            known.update(zip(fresh, _verdicts(events, dataset, params)))
        if held and len(left) + len(came) <= _STEP_SHARE * len(lines):
            tally.step([known[row] for row in left], [known[row] for row in came])
        else:
            tally = _Tally(map(known.__getitem__, lines), dataset, params)
        counts[op] = matrix = tally.counts()
        if held and 10 * (len(lines) - len(fresh)) < len(lines):
            known = None
        else:
            for line in gone:
                del known[line]
            held, held_repeats = distinct, repeats
    return counts


# --- report assembly -------------------------------------------------------


def _report_head(
    kind: str,
    params: EvalParams,
    dataset: Dataset,
    *,
    clamp: bool = True,
    collar: CollarParams | None = None,
) -> dict:
    """The ``schema``, ``report``, ``params`` and ``dataset`` entries every report opens with."""
    if collar is not None:
        params_block = {
            "mode": "collar",
            "collar": collar.collar,
            "collar_offset_ratio": collar.offset_ratio,
            "check_offset": collar.check_offset,
            "time_unit": params.time_unit.value,
        }
    else:
        params_block = {
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
    return {
        "schema": "sedscore-report-v1",
        "report": kind,
        "params": params_block,
        "dataset": {
            "num_files": len(dataset.file_durations),
            "total_duration_seconds": dataset.total_duration,
            "classes": list(dataset.classes),
        },
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
        **_report_head("counts", params, dataset),
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
        **_report_head("f1", params, dataset, collar=collar),
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
        **_report_head("psds" if include_psds else "roc", params, dataset, clamp=roc.clamped),
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
        c: [[op_id, efpr, tp_ratio] for efpr, tp_ratio, op_id in roc.op_points[c]]
        for c in sorted(roc.op_points)
    }
    return report


# --- emission ---------------------------------------------------------------


def _fmt(value: object) -> str:
    if isinstance(value, float):  # nearly every cell of a report
        return format(value, ".6g")
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _numbers(values: Iterable[object]) -> str:
    """Number cells joined by tabs, each by :func:`_fmt`'s rule."""
    return "\t".join(map(_fmt, values))


def _kv_block(title: str, mapping: Mapping[str, object]) -> list[str]:
    lines = [f"# {title}"]
    lines.extend(f"{key}\t{_fmt(value)}" for key, value in mapping.items())
    return lines


def _table_block(title: str, header: Sequence[str], lines: Iterable[str]) -> list[str]:
    """A titled block: its header, then one formatted line per row."""
    return [f"# {title}", "\t".join(header), *lines]


def _class_table(title: str, columns: Sequence[str], rows: Mapping[str, Mapping]) -> list[str]:
    """One row per class with the named entries of its mapping."""
    return _table_block(
        title,
        ("class", *columns),
        (f"{c}\t{_numbers(row[k] for k in columns)}" for c, row in rows.items()),
    )


def _pair_table(title: str, column: str, rows: Mapping[str, Mapping[str, object]]) -> list[str]:
    """One row per (class, triggered class) pair."""
    return _table_block(
        title,
        ("class", "triggered_class", column),
        (f"{c}\t{other}\t{_fmt(value)}" for c, row in rows.items() for other, value in row.items()),
    )


def _op_point_lines(op_points: Mapping[str, Sequence[Sequence[object]]]) -> Iterator[str]:
    """The ``operating_points`` rows, class by class in sorted order.

    A row holding the same objects as the row before it, as the ops over
    which a class's values are unchanged do, reuses that row's cells; any
    other row is formatted from its own values.
    """
    efpr = tp_ratio = cells = object()
    for c in sorted(op_points):
        for op_id, e, t in op_points[c]:
            if e is not efpr or t is not tp_ratio:
                efpr, tp_ratio = e, t
                cells = _numbers((e, t))
            yield f"{c}\t{op_id}\t{cells}"


def _tsv_report(report: dict) -> str:
    """The report as TSV blocks.

    Class and op-id cells are strings and are written as they are; every
    other value cell follows :func:`_fmt`.
    """
    blocks: list[list[str]] = []
    blocks.append(_kv_block("report", {"schema": report["schema"], "type": report["report"]}))
    blocks.append(_kv_block("params", report["params"]))
    dataset = dict(report["dataset"])
    dataset["classes"] = ",".join(dataset["classes"])
    blocks.append(_kv_block("dataset", dataset))
    if "counts" in report:
        blocks.append(_class_table("counts", ("n_gt", "n_sys", "n_tp", "n_fp"), report["counts"]))
    if "cross_triggers" in report:
        blocks.append(_pair_table("cross_triggers", "count", report["cross_triggers"]))
    if "rates" in report:
        rates = report["rates"]
        blocks.append(_class_table("rates", ("tp_ratio", "fp_rate", "efpr"), rates))
        ct_rates = {c: row["ct_rates"] for c, row in rates.items()}
        blocks.append(_pair_table("ct_rates", "rate", ct_rates))
    if "f1" in report:
        per_class = report["f1"]["per_class"]
        blocks.append(
            _table_block("f1", ("class", "f1"), (f"{c}\t{_fmt(v)}" for c, v in per_class.items()))
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
        blocks.append(_table_block("psd_roc", ("efpr", "etpr"), map(_numbers, report["psd_roc"])))
    if "class_rocs" in report:
        classes = sorted(report["class_rocs"])
        grid = [e for e, _ in report["psd_roc"]]
        rows = _staircase_rows([report["class_rocs"][c] for c in classes], grid)
        blocks.append(
            _table_block(
                "class_roc",
                ("efpr", *[f"tpr_{c}" for c in classes]),
                map(_numbers, rows),
            )
        )
    if "operating_points" in report:
        blocks.append(
            _table_block(
                "operating_points",
                ("class", "op_id", "efpr", "tp_ratio"),
                _op_point_lines(report["operating_points"]),
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
