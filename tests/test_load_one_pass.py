"""The one-pass loaders against the public two-step path, property-tested.

``load_detections`` and ``load_dataset`` read a table straight into
validated events; ``load_event_table`` followed by ``validate_events`` is
the public path that does the same in two passes, row by row. The one-pass
loaders check a table column by column and read a table that fails a check
again through the row loop, which names the fault; so what these tests pin
is that the column checks accept exactly the tables the row loop accepts,
and which fault each path reports first. On the golden corpus's files and
classes, a table that is valid or has one faulty row must give the same
events, or the same exception type and message, on both paths.
"""

from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sedscore import Dataset, SedScoreError, io, validate_events
from sedscore.io import EVENT_HEADER, load_dataset, load_detections, load_event_table

GOLDEN = Path(__file__).parent / "golden"
DATASET = load_dataset(GOLDEN / "gt.tsv", GOLDEN / "durations.tsv")
FILES = sorted(DATASET.file_durations)
CLASSES = DATASET.classes


@st.composite
def valid_rows(draw) -> list[str]:
    """Fields of one valid row, times on a quarter-second grid."""
    file_id = draw(st.sampled_from(FILES))
    ticks = int(DATASET.file_durations[file_id] * 4)
    onset = draw(st.integers(0, ticks - 1))
    offset = draw(st.integers(onset + 1, ticks))
    return [file_id, str(onset / 4), str(offset / 4), draw(st.sampled_from(CLASSES))]


ARABIC_INDIC = str.maketrans("0123456789", "".join(map(chr, range(0x660, 0x66A))))

FAULTS = {
    "none": lambda f, on, off, label: [f, on, off, label],
    "empty label": lambda f, on, off, label: [f, on, off, ""],
    "label whitespace": lambda f, on, off, label: [f, on, off, label + " "],
    "onset not a number": lambda f, on, off, label: [f, "zero", off, label],
    "offset not finite": lambda f, on, off, label: [f, on, "inf", label],
    "negative onset": lambda f, on, off, label: [f, "-1", off, label],
    "zero duration": lambda f, on, off, label: [f, on, on, label],
    "inverted": lambda f, on, off, label: [f, on, str(float(on) - 0.25), label],
    "unknown file": lambda f, on, off, label: ["z.wav", on, off, label],
    "past file end": lambda f, on, off, label: [
        f, on, str(DATASET.file_durations[f] + 1), label
    ],
    "unknown label": lambda f, on, off, label: [f, on, off, "unicorn"],
    "empty filename": lambda f, on, off, label: ["", on, off, label],
    "extra field": lambda f, on, off, label: [f, on, off, label, "0.9"],
    "blank line": lambda f, on, off, label: [],
    # a 2-field row and a 6-field row: their cells, read as one run, would
    # realign into two valid rows
    "fields across two rows": lambda f, on, off, label: [
        f, on + "\n" + off, label, f, on, off, label
    ],
    # number cells that float reads, most of them to the row's own value
    "underscore": lambda f, on, off, label: [f, "0_" + on, off, label],
    "digit group": lambda f, on, off, label: [f, "1_0", off, label],
    "arabic-indic digits": lambda f, on, off, label: [f, on.translate(ARABIC_INDIC), off, label],
    "leading space": lambda f, on, off, label: [f, " " + on, off, label],
    "trailing space": lambda f, on, off, label: [f, on, off + " ", label],
    "nan": lambda f, on, off, label: [f, "nan", off, label],
    "Infinity": lambda f, on, off, label: [f, on, "Infinity", label],
    "overflow": lambda f, on, off, label: [f, on, "1e999", label],
    # number cells of only the characters a number uses, that float refuses
    "empty onset": lambda f, on, off, label: [f, "", off, label],
    "bare exponent": lambda f, on, off, label: [f, on + "e", off, label],
    "lone sign": lambda f, on, off, label: [f, on, "-", label],
    "lone carriage return": lambda f, on, off, label: [f, on + "\r", off, label],
    "label trailing separator": lambda f, on, off, label: [f, on, off, label + "\x1c"],
}

# valid, if unusual, rewrites of a row's own numbers: no fault
VALID = {
    "none": FAULTS["none"],
    "signed, no leading zero": lambda f, on, off, label: [
        f, "+" + on.removeprefix("0"), off.removesuffix("0"), label
    ],
    "exponent": lambda f, on, off, label: [f, on, f"{float(off) * 100:.0f}E-2", label],
    "negative zero onset": lambda f, on, off, label: [f, "-0", off, label],
}
FAULTS.update(VALID)


@st.composite
def tables(draw, faults=FAULTS) -> str:
    """A table with at most one row rewritten by one of ``faults``, LF or CRLF line ends."""
    rows = draw(st.lists(valid_rows(), max_size=12))
    fault = draw(st.sampled_from(sorted(faults)))
    if rows:
        i = draw(st.integers(0, len(rows) - 1))
        rows[i] = faults[fault](*rows[i])
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    lines = ["\t".join(EVENT_HEADER), *("\t".join(row) for row in rows)]
    return newline.join(lines) + (newline if draw(st.booleans()) else "")


def outcome(load):
    """``("ok", events)`` of a load, or the type and message of its error."""
    try:
        return "ok", load()
    except SedScoreError as exc:
        return type(exc), str(exc)


@pytest.fixture(scope="module")
def table_path(tmp_path_factory):
    return tmp_path_factory.mktemp("one_pass") / "t.tsv"


@settings(max_examples=300, deadline=None)
@given(text=tables())
def test_detections_match_the_two_step_path(table_path, text):
    table_path.write_bytes(text.encode("utf-8"))
    one_pass = outcome(lambda: load_detections(table_path, DATASET).events)
    two_step = outcome(
        lambda: validate_events(
            load_event_table(table_path),
            DATASET.file_durations,
            allowed_classes=DATASET.classes,
            source=str(table_path),
        ).events
    )
    assert one_pass == two_step


@settings(max_examples=150, deadline=None)
@given(text=tables())
def test_ground_truth_matches_the_two_step_path(table_path, text):
    table_path.write_bytes(text.encode("utf-8"))
    durations = DATASET.file_durations
    one_pass = outcome(lambda: load_dataset(table_path, GOLDEN / "durations.tsv").ground_truth)
    two_step = outcome(
        lambda: Dataset(
            validate_events(load_event_table(table_path), durations, source=str(table_path)),
            durations,
        ).ground_truth
    )
    assert one_pass == two_step


def no_row_loop(*args):
    raise AssertionError("a valid table entered the row loop")


@settings(max_examples=100, deadline=None)
@given(text=tables(VALID))
def test_a_valid_table_is_read_by_columns_alone(table_path, text):
    table_path.write_bytes(text.encode("utf-8"))
    two_step = validate_events(
        load_event_table(table_path), DATASET.file_durations, allowed_classes=DATASET.classes
    ).events
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(io, "_event_rows", no_row_loop)
        patch.setattr(io, "_rows", no_row_loop)
        assert load_detections(table_path, DATASET).events == two_step
        if two_step:  # a dataset needs ground truth
            dataset = load_dataset(table_path, GOLDEN / "durations.tsv")
            assert dataset.ground_truth.events == two_step
