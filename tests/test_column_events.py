"""A valid table's events are made by columns, never through ``Event.__init__``.

``load_dataset``, ``load_detections``, a sweep's fresh rows and
``validate_events`` given a list of rows or events check the rows over
whole columns, ``Event``'s own onset and duration rules included, and then
fill each field of all the events through its slot. The events they make
must be ``Event`` objects like any other: equal, hash-equal, picklable and
copyable, with a ``-0`` onset's sign kept. A table with a faulty row is
read again by the row loop, whose ``Event`` names the fault.
"""

from __future__ import annotations

import copy
import math
import pickle
from pathlib import Path

import pytest

from sedscore import Event, NegativeOnset, NonPositiveDuration, validate_events
from sedscore.io import (
    EVENT_HEADER,
    load_dataset,
    load_detections,
    load_event_table,
    sweep_operating_points,
)

from conftest import default_params

GOLDEN = Path(__file__).parent / "golden"
HEADER = "\t".join(EVENT_HEADER)


@pytest.fixture
def inits(monkeypatch):
    """The field tuples of every ``Event.__init__`` call made while the test runs."""
    calls = []
    init = Event.__init__

    def counted(self, *fields):
        calls.append(fields)
        init(self, *fields)

    monkeypatch.setattr(Event, "__init__", counted)
    return calls


def test_valid_tables_are_loaded_and_swept_without_event_init(inits):
    dataset = load_dataset(GOLDEN / "gt.tsv", GOLDEN / "durations.tsv")
    detections = load_detections(GOLDEN / "det.tsv", dataset)
    swept = sweep_operating_points(GOLDEN / "ops", dataset, default_params())
    assert len(dataset.ground_truth) and len(detections) and len(swept) == 4
    assert inits == []


def test_valid_rows_are_validated_without_event_init(inits):
    dataset = load_dataset(GOLDEN / "gt.tsv", GOLDEN / "durations.tsv")
    rows = load_event_table(GOLDEN / "det.tsv")
    detections = validate_events(
        rows, dataset.file_durations, allowed_classes=dataset.classes, source="det.tsv"
    )
    again = validate_events(detections.events, dataset.file_durations)
    assert len(detections) == len(rows) and again == detections
    assert detections == load_detections(GOLDEN / "det.tsv", dataset)
    assert inits == []


@pytest.mark.parametrize(
    "row, error, message",
    [
        ("a.wav\t-1\t2\tspeech", NegativeOnset, "onset -1.0 of 'speech' in 'a.wav' is negative"),
        (
            "a.wav\t3\t3\tspeech",
            NonPositiveDuration,
            "event 'speech' [3.0, 3.0] in 'a.wav' has non-positive duration",
        ),
    ],
)
def test_a_faulty_row_reaches_event_init_through_the_row_loop(
    tmp_path, inits, row, error, message
):
    dataset = load_dataset(GOLDEN / "gt.tsv", GOLDEN / "durations.tsv")
    path = tmp_path / "det.tsv"
    path.write_text("\n".join([HEADER, "a.wav\t1\t2\tspeech", row]) + "\n")
    with pytest.raises(error) as err:
        load_detections(path, dataset)
    assert str(err.value) == f"{message} ({path}, line 3)"
    assert inits[-1] == ("a.wav", *map(float, row.split("\t")[1:3]), "speech")


def test_column_built_events_behave_as_events_made_by_init(tmp_path):
    dataset = load_dataset(GOLDEN / "gt.tsv", GOLDEN / "durations.tsv")
    path = tmp_path / "det.tsv"
    path.write_text(f"{HEADER}\na.wav\t-0\t2.5\tspeech\nb.wav\t1.25\t4\tdog\n")
    events = load_detections(path, dataset).events
    fields = [("a.wav", -0.0, 2.5, "speech"), ("b.wav", 1.25, 4.0, "dog")]
    assert events == tuple(Event(*f) for f in fields)
    for e, f in zip(events, fields):
        assert type(e) is Event and e == Event(*f) and hash(e) == hash(Event(*f))
        assert not hasattr(e, "__dict__")
        copies = [copy.copy(e), copy.deepcopy(e)]
        copies += [pickle.loads(pickle.dumps(e, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
        for back in copies:
            assert type(back) is Event and back == e
            assert math.copysign(1.0, back.onset) == math.copysign(1.0, e.onset)
    assert math.copysign(1.0, events[0].onset) == -1.0
