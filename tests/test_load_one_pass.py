"""The one-pass loaders against the public two-step path, property-tested.

``load_detections`` and ``load_dataset`` read a table straight into
validated events; ``load_event_table`` followed by ``validate_events`` is
the public path that does the same in two passes. Both share one loop from
row to event, ``events._validated``, so what these tests pin is how each
path turns a table row into that loop's input and which fault each reports
first. On the golden corpus's files and classes, a table that is valid or
has one faulty row must give the same events, or the same exception type
and message, on both paths.
"""

from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sedscore import Dataset, SedScoreError, validate_events
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
}


@st.composite
def tables(draw) -> str:
    """A table with at most one faulty row, LF or CRLF line ends."""
    rows = draw(st.lists(valid_rows(), max_size=12))
    fault = draw(st.sampled_from(sorted(FAULTS)))
    if rows:
        i = draw(st.integers(0, len(rows) - 1))
        rows[i] = FAULTS[fault](*rows[i])
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
