"""Core data model: timed events, event sets, datasets and parameters.

All times are seconds, kept as plain floats on a continuous timeline; no
quantization grid is imposed. Events in different files never intersect,
which is how a single-timeline formulation generalizes to a multi-file
corpus. Every type here is immutable after construction, so values can be
shared freely across threads.
"""

from __future__ import annotations

import enum
import math
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import islice, repeat
from operator import add, attrgetter, gt
from typing import Callable, Iterable, Iterator, Mapping

from .errors import (
    EventExceedsFileDuration,
    NegativeOnset,
    NonPositiveDuration,
    UnknownClassLabel,
    UnknownFile,
    ValidationError,
)

__all__ = [
    "Event",
    "EventSet",
    "Dataset",
    "EvalParams",
    "CollarParams",
    "TimeUnit",
    "intersection_duration",
    "total_intersection",
    "validate_events",
]


class TimeUnit(enum.Enum):
    """Reporting unit for rates (events per unit of time)."""

    SECOND = "second"
    MINUTE = "minute"
    HOUR = "hour"

    @property
    def seconds(self) -> float:
        return _UNIT_SECONDS[self]


_UNIT_SECONDS = {TimeUnit.SECOND: 1.0, TimeUnit.MINUTE: 60.0, TimeUnit.HOUR: 3600.0}

_set = object.__setattr__  # sets a field of a frozen instance


@dataclass(frozen=True, init=False, slots=True)
class Event:
    """One labelled time interval inside one audio file.

    Used for both ground-truth labels and system detections. The onset must
    be non-negative and the offset strictly greater than the onset; later
    stages divide by event durations, so zero-length events are never valid.
    """

    file_id: str
    onset: float
    offset: float
    class_label: str

    # Written by hand, in place of the generated frozen __init__ and a
    # __post_init__ check, so that each rule keeps one message. A valid
    # table's events are made without it, by _events_of_columns.
    def __init__(self, file_id: str, onset: float, offset: float, class_label: str) -> None:
        if onset < 0:
            raise NegativeOnset(f"onset {onset} of '{class_label}' in '{file_id}' is negative")
        if not offset > onset:
            for what, value in (("onset", onset), ("offset", offset)):
                if math.isnan(value):
                    raise ValidationError(
                        f"{what} {value} of '{class_label}' in '{file_id}' is not a number"
                    )
            raise NonPositiveDuration(
                f"event '{class_label}' [{onset}, {offset}] in "
                f"'{file_id}' has non-positive duration"
            )
        _set(self, "file_id", file_id)
        _set(self, "onset", onset)
        _set(self, "offset", offset)
        _set(self, "class_label", class_label)

    @property
    def duration(self) -> float:
        return self.offset - self.onset


def _events_of_columns(
    files: list[str],
    onsets: list[float],
    offsets: list[float],
    labels: list[str],
    file_durations: Mapping[str, float],
    allowed: frozenset[str] | None,
) -> tuple[Event, ...] | None:
    """The checked events of four columns, or None if a row breaks a rule of :func:`_validated`.

    The rules of ``Event`` and :func:`_check_placement`, each checked once
    over whole columns: a non-negative onset and an offset after it, which
    a NaN in either column fails; a file with a duration entry, which the
    offset does not pass; and, given ``allowed``, a label in it. The events
    are then made without ``Event.__init__``, each field set for all of
    them through its slot, so no Python code runs per event. Columns that
    fail are left to the row loop, whose ``Event`` or placement check
    names the first fault. Serves :func:`validate_events` and the table
    loaders alike, so the column rules live here alone.
    """
    if not min(onsets, default=0.0) >= 0 or not all(map(gt, offsets, onsets)):
        return None
    # a file with no entry reads as lasting -inf, which every offset, being positive, passes
    if any(map(gt, offsets, map(file_durations.get, files, repeat(-math.inf)))):
        return None
    if allowed is not None and not allowed.issuperset(labels):
        return None
    events = tuple(map(object.__new__, repeat(Event, len(onsets))))
    for field, column in zip(Event.__slots__, (files, onsets, offsets, labels)):
        deque(map(getattr(Event, field).__set__, events, column), 0)
    return events


def intersection_duration(a: Event, b: Event) -> float:
    """Duration of the temporal overlap of two events, in seconds.

    Events in different files never overlap. Symmetric, never negative, and
    never larger than the shorter of the two events.
    """
    if a.file_id != b.file_id:
        return 0.0
    overlap = min(a.offset, b.offset) - max(a.onset, b.onset)
    return overlap if overlap > 0 else 0.0


def total_intersection(x: Event, ys: Iterable[Event]) -> float:
    """Sum of pairwise overlaps between ``x`` and every event in ``ys``.

    The sum is taken literally over all events: if the events in ``ys``
    overlap each other, the shared region is counted once per event. The
    result can therefore exceed the duration of ``x``.
    """
    return _left_sum(intersection_duration(x, y) for y in ys)


def _left_sum(values: Iterable[float]) -> float:
    """``values`` added one at a time, left to right, starting from 0.0.

    Builtin ``sum`` does exactly this up to Python 3.11. From 3.12 it
    compensates the rounding of float sums, so its last digits, and with
    them the bytes of a report, would depend on the Python version.
    """
    return reduce(add, values, 0.0)


class OnsetIndex:
    """Events sorted by file and onset, for pruned overlap lookups.

    ``events`` are the indexed events in file-then-onset order, a stable
    sort, so events with equal keys keep their input order; every position
    a lookup returns is a position in ``events``. ``onsets``, ``offsets``
    and ``labels`` hold the fields of ``events`` as columns, so a lookup
    reads no event. ``spans[file_id]`` is the ``[start, end)`` slice of
    that file's events in these lists and ``run_max_offset``. Within a
    file, ``run_max_offset[k]`` is the largest offset of the events up to
    ``k``, so both pruning bounds of a lookup are bisections on stored
    floats and no rounding can drop an overlapping event.
    """

    __slots__ = ("events", "onsets", "offsets", "labels", "run_max_offset", "spans")

    def __init__(self, events: Iterable[Event]) -> None:
        self.events = events = sorted(events, key=attrgetter("file_id", "onset"))
        self.onsets = list(map(attrgetter("onset"), events))
        self.offsets = list(map(attrgetter("offset"), events))
        self.labels = list(map(attrgetter("class_label"), events))
        self.run_max_offset: list[float] = []
        self.spans: dict[str, tuple[int, int]] = {}
        prev = None
        for k, ev in enumerate(events):
            file_id, offset = ev.file_id, ev.offset
            if file_id != prev:
                prev, start, top = file_id, k, offset
            elif offset > top:
                top = offset
            self.run_max_offset.append(top)
            self.spans[file_id] = (start, k + 1)

    def overlaps(self, x: Event) -> tuple[list[tuple[float, int]], list[tuple[float, int]]]:
        """``(own, other)``: the ``(overlap, position)`` of each indexed event that overlaps ``x``.

        One scan splits the hits: ``own`` holds those of ``x``'s class,
        ``other`` those of every other class, each in index order. Only
        events of ``x``'s file with a positive overlap appear. Each overlap
        is the value :func:`intersection_duration` gives, with ``min`` and
        ``max`` written out: builtin calls would dominate the cost of this
        loop.
        """
        own: list[tuple[float, int]] = []
        other: list[tuple[float, int]] = []
        span = self.spans.get(x.file_id)
        if span is None:
            return own, other
        onset, offset, label = x.onset, x.offset, x.class_label
        lo = bisect_right(self.run_max_offset, onset, *span)
        hi = bisect_left(self.onsets, offset, lo, span[1])
        onsets, offsets, labels = self.onsets, self.offsets, self.labels
        for i in range(lo, hi):
            start, end = onsets[i], offsets[i]
            overlap = (offset if offset <= end else end) - (onset if onset >= start else start)
            if overlap > 0:
                if labels[i] == label:
                    own.append((overlap, i))
                else:
                    other.append((overlap, i))
        return own, other

    def onset_window(self, x: Event, reach: float) -> range:
        """Positions of the indexed events of ``x``'s file with onsets near ``x``'s.

        The window reaches ``reach`` either side, widened by a relative 1e-9
        and by the smallest normal float, far more than the rounding of an
        onset difference, a subnormal one included, so rounding never drops
        a candidate; the caller re-checks each one.
        """
        span = self.spans.get(x.file_id)
        if span is None:
            return range(0)
        reach += (x.onset + reach) * 1e-9 + 2.0**-1022
        lo = bisect_left(self.onsets, x.onset - reach, *span)
        hi = bisect_right(self.onsets, x.onset + reach, lo, span[1])
        return range(lo, hi)


@dataclass(frozen=True)
class EventSet:
    """An immutable collection of events with a class index.

    Event order is preserved from construction; the class index is a plain
    projection of the event tuple and keeps that relative order, while
    ``onset_index`` sorts by file and onset for overlap lookups.
    """

    events: tuple[Event, ...]

    @classmethod
    def from_events(cls, events: Iterable[Event]) -> "EventSet":
        return cls(tuple(events))

    @cached_property
    def by_class(self) -> Mapping[str, tuple[Event, ...]]:
        index: dict[str, list[Event]] = {}
        for ev in self.events:
            index.setdefault(ev.class_label, []).append(ev)
        return {label: tuple(evs) for label, evs in index.items()}

    @cached_property
    def onset_index(self) -> OnsetIndex:
        """Onset index of all events, built on first use."""
        return OnsetIndex(self.events)

    @cached_property
    def class_labels(self) -> tuple[str, ...]:
        """All labels present, sorted. For a ground-truth set this is the
        class universe of the evaluation."""
        return tuple(sorted(self.by_class))

    def for_class(self, label: str) -> tuple[Event, ...]:
        return self.by_class.get(label, ())

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)


def _row_fields(row: object) -> tuple[str, float, float, str, int | None]:
    """``(file_id, onset, offset, label, line)`` of an ``Event`` or a row sequence."""
    if isinstance(row, Event):
        return row.file_id, row.onset, row.offset, row.class_label, None
    file_id, onset, offset, label = tuple(row)[:4]  # type: ignore[call-overload]
    return str(file_id), float(onset), float(offset), str(label), getattr(row, "line", None)


def _columns_of_rows(rows: object) -> list[list] | None:
    """The four field columns of a list or tuple of rows, as :func:`_row_fields` reads them.

    Either every row is an ``Event``, whose fields are taken as they are,
    or every row is a tuple or list, whose first four items are converted
    by ``str`` and ``float`` as that function converts them. Any other
    rows, a mix of the two kinds included, give None; so does a row of
    fewer than four items, whose fault the row loop reports in its place.
    A conversion that fails raises.
    """
    if type(rows) not in (list, tuple):
        return None
    if all(map(isinstance, rows, repeat(Event))):
        return [list(map(attrgetter(field), rows)) for field in Event.__slots__]
    if not all(map(isinstance, rows, repeat((tuple, list)))):
        return None
    columns = list(islice(zip(*rows), 4))
    if len(columns) < 4:
        return None
    return [list(map(kind, column)) for kind, column in zip((str, float, float, str), columns)]


def _check_placement(
    ev: Event, file_durations: Mapping[str, float], allowed: frozenset[str] | None = None
) -> None:
    """Check that ``ev`` lies within a known file and, given ``allowed``, has an allowed label."""
    file_duration = file_durations.get(ev.file_id)
    if file_duration is None:
        raise UnknownFile(f"no duration entry for file '{ev.file_id}'")
    if ev.offset > file_duration:
        raise EventExceedsFileDuration(
            f"event '{ev.class_label}' ends at {ev.offset} but file '{ev.file_id}' lasts "
            f"{file_duration}"
        )
    if allowed is not None and ev.class_label not in allowed:
        raise UnknownClassLabel(
            f"label '{ev.class_label}' in '{ev.file_id}' is not a ground-truth class"
        )


def _where(source: str | None, line: int | None) -> str:
    parts = []
    if source is not None:
        parts.append(str(source))
    if line is not None:
        parts.append(f"line {line}")
    return f" ({', '.join(parts)})" if parts else ""


def _validated(
    rows: Iterable[tuple[str, float, float, str, int | None]],
    file_durations: Mapping[str, float],
    allowed: frozenset[str] | None,
    source: str | None,
) -> Iterator[Event]:
    """Yield the checked event of each ``(file_id, onset, offset, label, line)`` row.

    The row loop's last step: it serves :func:`validate_events` and the
    table loaders once a column check fails. Every rule has one message,
    raised by :class:`Event`, :func:`_check_placement` or the row loop; a
    fault is re-raised with ``source`` and the row's line appended, and of
    several faulty rows the first one is reported.
    """
    line = None
    try:
        for file_id, onset, offset, label, line in rows:
            ev = Event(file_id, onset, offset, label)
            _check_placement(ev, file_durations, allowed)
            yield ev
    except ValidationError as exc:
        raise type(exc)(f"{exc}{_where(source, line)}") from None


def validate_events(
    rows: Iterable[object],
    file_durations: Mapping[str, float],
    *,
    allowed_classes: Iterable[str] | None = None,
    source: str | None = None,
) -> EventSet:
    """Check raw event rows against the data model and build an EventSet.

    ``rows`` may be ``Event`` objects or ``(file_id, onset, offset, label)``
    sequences; rows with a ``line`` attribute (as produced by the table
    parser) get that line, and ``source``, appended to the error message.
    Each row becomes an :class:`Event`, which checks its own onset and
    duration; then it must reference a known file and end no later than
    that file does. When ``allowed_classes`` is given (detections), labels
    outside it are rejected; labels outside the ground truth would
    otherwise silently score as pure false positives and hide file mix-ups.

    A list or tuple of rows of one kind, all ``Event`` objects or all
    tuples and lists (parsed ``TableRow`` objects included), is checked
    column by column first, each rule once over a whole column, and its
    events are made without ``Event.__init__``. Any other rows, and rows
    that fail a check or a conversion, are read row by row, which raises
    the first faulty row's error, so both ways give the same events and
    the same errors.

    Validation is idempotent: feeding back the events of a valid EventSet
    reproduces it exactly.
    """
    allowed = None if allowed_classes is None else frozenset(allowed_classes)
    try:
        columns = _columns_of_rows(rows)
        events = None if columns is None else _events_of_columns(*columns, file_durations, allowed)
    except Exception:  # the row loop raises it again, after any fault of an earlier row
        events = None
    if events is None:
        events = tuple(_validated(map(_row_fields, rows), file_durations, allowed, source))
    return EventSet(events)


@dataclass(frozen=True)
class Dataset:
    """Ground truth plus the per-file durations it was annotated on.

    The total duration is the sum of the file durations, not of the labels:
    unlabelled silence still counts toward false-positive rate denominators.
    A dataset must contain at least one ground-truth event, since the
    ground truth defines the class universe of the evaluation.
    """

    ground_truth: EventSet
    file_durations: Mapping[str, float]

    def __post_init__(self) -> None:
        """Keep a copy of the durations, check them, require ground truth and place it."""
        durations = dict(self.file_durations)
        object.__setattr__(self, "file_durations", durations)
        for file_id, dur in durations.items():
            if not (math.isfinite(dur) and dur > 0):
                raise ValidationError(f"file '{file_id}' has non-positive duration {dur}")
        self._check_ground_truth()
        for ev in self.ground_truth.events:
            _check_placement(ev, durations)

    def _check_ground_truth(self) -> None:
        if not self.ground_truth.events:
            raise ValidationError("ground truth contains no events; class set would be empty")

    @classmethod
    def _of_placed(cls, ground_truth: EventSet, file_durations: dict[str, float]) -> "Dataset":
        """``Dataset(ground_truth, file_durations)`` of events already placed in those files.

        ``file_durations`` is a map of its own that ``load_durations`` has
        checked, and the table loaders check each event's placement, over
        whole columns or, in a table that fails a check, in
        :func:`_validated` as it reads each row, so that the message names
        the line; neither is copied or checked a second time here.
        """
        dataset = object.__new__(cls)
        object.__setattr__(dataset, "ground_truth", ground_truth)
        object.__setattr__(dataset, "file_durations", file_durations)
        dataset._check_ground_truth()
        return dataset

    @cached_property
    def total_duration(self) -> float:
        """Total corpus duration in seconds."""
        return _left_sum(self.file_durations.values())

    @property
    def classes(self) -> tuple[str, ...]:
        return self.ground_truth.class_labels

    @cached_property
    def class_durations(self) -> Mapping[str, float]:
        """Summed duration of the ground-truth labels of each class."""
        totals: dict[str, float] = {}
        for label, evs in self.ground_truth.by_class.items():
            totals[label] = _left_sum(ev.duration for ev in evs)
        return totals


_UNIT_INTERVAL = ("in [0, 1]", lambda v: 0.0 <= v <= 1.0)
_NON_NEGATIVE = (">= 0", lambda v: v >= 0)
_POSITIVE = ("> 0", lambda v: v > 0)


def _check_fields(params: object, **rules: tuple[str, Callable[[float], bool]]) -> None:
    """Raise ``ValueError`` naming the first field that is NaN, infinite or out of range."""
    for name, (rule, ok) in rules.items():
        value = getattr(params, name)
        if not (math.isfinite(value) and ok(value)):
            raise ValueError(f"{name} must be finite and {rule}, got {value}")


@dataclass(frozen=True)
class EvalParams:
    """Tolerances and weights of an intersection-criterion evaluation.

    ``max_efpr`` is expressed in the reporting ``time_unit`` (the default,
    100 with per-hour rates, caps the ROC at 100 false positives per hour).
    """

    dtc_threshold: float = 0.5
    gtc_threshold: float = 0.5
    cttc_threshold: float = 0.3
    alpha_ct: float = 0.0
    alpha_st: float = 0.0
    max_efpr: float = 100.0
    time_unit: TimeUnit = TimeUnit.HOUR

    def __post_init__(self) -> None:
        _check_fields(
            self,
            dtc_threshold=_UNIT_INTERVAL,
            gtc_threshold=_UNIT_INTERVAL,
            cttc_threshold=_UNIT_INTERVAL,
            alpha_ct=_NON_NEGATIVE,
            alpha_st=_NON_NEGATIVE,
            max_efpr=_POSITIVE,
        )
        if not isinstance(self.time_unit, TimeUnit):
            object.__setattr__(self, "time_unit", TimeUnit(self.time_unit))


@dataclass(frozen=True)
class CollarParams:
    """Settings of the collar-based baseline matcher.

    A detection matches a ground truth when its onset lies within
    ``collar`` seconds of the truth onset and, if ``check_offset`` is set,
    its offset lies within ``max(collar, offset_ratio * truth duration)``.
    """

    collar: float
    offset_ratio: float = 0.2
    check_offset: bool = True

    def __post_init__(self) -> None:
        _check_fields(self, collar=_NON_NEGATIVE, offset_ratio=_NON_NEGATIVE)
