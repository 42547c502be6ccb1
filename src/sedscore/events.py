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
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

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
    "OnsetIndex",
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


@dataclass(frozen=True)
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

    def __post_init__(self) -> None:
        if self.onset < 0:
            raise NegativeOnset(f"event onset {self.onset} is negative")
        if not self.offset > self.onset:
            raise NonPositiveDuration(
                f"event [{self.onset}, {self.offset}] has non-positive duration"
            )

    @property
    def duration(self) -> float:
        return self.offset - self.onset


def intersection_duration(a: Event, b: Event) -> float:
    """Duration of the temporal overlap of two events, in seconds.

    Events in different files never overlap. Symmetric, never negative, and
    never larger than the shorter of the two events.
    """
    if a.file_id != b.file_id:
        return 0.0
    # min(offsets) - max(onsets), written out: builtin calls dominate the
    # cost of this function in the matching loops
    overlap = (a.offset if a.offset <= b.offset else b.offset) - (
        a.onset if a.onset >= b.onset else b.onset
    )
    return overlap if overlap > 0 else 0.0


def total_intersection(x: Event, ys: Iterable[Event]) -> float:
    """Sum of pairwise overlaps between ``x`` and every event in ``ys``.

    The sum is taken literally over all events: if the events in ``ys``
    overlap each other, the shared region is counted once per event. The
    result can therefore exceed the duration of ``x``.
    """
    return sum(intersection_duration(x, y) for y in ys)


class OnsetIndex:
    """Events sorted by file and onset, for pruned overlap lookups.

    ``spans[file_id]`` is the ``[start, end)`` slice of that file's events
    in ``onsets``, ``run_max_offset`` and ``order``; ``order`` maps each
    sorted slot to the event's position in ``events``, the input order.
    Within a file, ``run_max_offset[k]`` is the largest offset of the
    slots up to ``k``, so both pruning bounds of a lookup are bisections on
    stored floats and no rounding can drop an overlapping event.
    """

    __slots__ = ("events", "order", "onsets", "run_max_offset", "spans")

    def __init__(self, events: Sequence[Event]) -> None:
        self.events = events
        keys = sorted((ev.file_id, ev.onset, i) for i, ev in enumerate(events))
        self.order = [i for _, _, i in keys]
        self.onsets = [onset for _, onset, _ in keys]
        self.run_max_offset: list[float] = []
        self.spans: dict[str, tuple[int, int]] = {}
        prev = None
        for slot, (file_id, _, i) in enumerate(keys):
            offset = events[i].offset
            if file_id != prev:
                prev, start, top = file_id, slot, offset
            elif offset > top:
                top = offset
            self.run_max_offset.append(top)
            self.spans[file_id] = (start, slot + 1)

    def coverage(self, x: Event) -> dict[str, float]:
        """Summed overlap of ``x`` with the indexed events of each class.

        Only events of ``x``'s file and classes with a non-zero overlap
        count. Each sum runs over the non-zero overlaps in input order;
        adding zeros never changes a float sum, so the values equal
        :func:`total_intersection` over the class's events, bit for bit.
        """
        span = self.spans.get(x.file_id)
        if span is None:
            return {}
        lo = bisect_right(self.run_max_offset, x.onset, *span)
        hi = bisect_left(self.onsets, x.offset, lo, span[1])
        events = self.events
        if hi - lo == 1:
            y = events[self.order[lo]]
            overlap = intersection_duration(x, y)
            return {y.class_label: overlap} if overlap > 0 else {}
        parts: dict[str, list[float]] = {}
        for i in sorted(self.order[lo:hi]):
            y = events[i]
            overlap = intersection_duration(x, y)
            if overlap > 0:
                if y.class_label in parts:
                    parts[y.class_label].append(overlap)
                else:
                    parts[y.class_label] = [overlap]
        return {label: sum(overlaps) for label, overlaps in parts.items()}


@dataclass(frozen=True)
class EventSet:
    """An immutable collection of events with class and file indexes.

    Event order is preserved from construction; the class and file indexes
    are plain projections of the event tuple and keep that relative order,
    while ``onset_index`` sorts by file and onset for overlap lookups.
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
    def by_file(self) -> Mapping[str, tuple[Event, ...]]:
        index: dict[str, list[Event]] = {}
        for ev in self.events:
            index.setdefault(ev.file_id, []).append(ev)
        return {file_id: tuple(evs) for file_id, evs in index.items()}

    @cached_property
    def onset_index(self) -> OnsetIndex:
        """Onset index of all events, built on first use."""
        return OnsetIndex(self.events)

    @property
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
    if isinstance(row, Event):
        return row.file_id, row.onset, row.offset, row.class_label, None
    file_id, onset, offset, label = tuple(row)[:4]  # type: ignore[call-overload]
    return str(file_id), float(onset), float(offset), str(label), getattr(row, "line", None)


def _where(source: str | None, line: int | None) -> str:
    parts = []
    if source is not None:
        parts.append(str(source))
    if line is not None:
        parts.append(f"line {line}")
    return f" ({', '.join(parts)})" if parts else ""


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
    parser) get that line echoed in error messages. Every event must
    reference a known file, start at or after zero, have strictly positive
    duration, and end no later than its file does. When ``allowed_classes``
    is given (detections), labels outside it are rejected; labels outside
    the ground truth would otherwise silently score as pure false positives
    and hide file mix-ups.

    Validation is idempotent: feeding back the events of a valid EventSet
    reproduces it exactly.
    """
    if isinstance(rows, EventSet):
        rows = rows.events
    allowed = None if allowed_classes is None else frozenset(allowed_classes)
    out: list[Event] = []
    for row in rows:
        file_id, onset, offset, label, line = _row_fields(row)
        where = _where(source, line)
        if file_id not in file_durations:
            raise UnknownFile(f"no duration entry for file '{file_id}'{where}")
        if onset < 0:
            raise NegativeOnset(f"onset {onset} of '{label}' in '{file_id}' is negative{where}")
        if not offset > onset:
            raise NonPositiveDuration(
                f"event '{label}' [{onset}, {offset}] in '{file_id}' has "
                f"non-positive duration{where}"
            )
        if offset > file_durations[file_id]:
            raise EventExceedsFileDuration(
                f"event '{label}' ends at {offset} but file '{file_id}' lasts "
                f"{file_durations[file_id]}{where}"
            )
        if allowed is not None and label not in allowed:
            raise UnknownClassLabel(
                f"label '{label}' in '{file_id}' is not a ground-truth class{where}"
            )
        out.append(Event(file_id, onset, offset, label))
    return EventSet(tuple(out))


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
        durations = dict(self.file_durations)
        object.__setattr__(self, "file_durations", durations)
        for file_id, dur in durations.items():
            if not (math.isfinite(dur) and dur > 0):
                raise ValidationError(f"file '{file_id}' has non-positive duration {dur}")
        if not self.ground_truth.events:
            raise ValidationError("ground truth contains no events; class set would be empty")
        for ev in self.ground_truth.events:
            if ev.file_id not in durations:
                raise UnknownFile(f"ground-truth event references unknown file '{ev.file_id}'")
            if ev.offset > durations[ev.file_id]:
                raise EventExceedsFileDuration(
                    f"ground-truth event ends at {ev.offset} but file "
                    f"'{ev.file_id}' lasts {durations[ev.file_id]}"
                )

    @cached_property
    def total_duration(self) -> float:
        """Total corpus duration in seconds."""
        return sum(self.file_durations.values())

    @property
    def classes(self) -> tuple[str, ...]:
        return self.ground_truth.class_labels

    @cached_property
    def class_durations(self) -> Mapping[str, float]:
        """Summed duration of the ground-truth labels of each class."""
        totals: dict[str, float] = {}
        for label, evs in self.ground_truth.by_class.items():
            totals[label] = sum(ev.duration for ev in evs)
        return totals


def _check_ratio(name: str, value: float) -> None:
    if not (0.0 <= value <= 1.0):
        raise ValueError(f"{name} must lie in [0, 1], got {value}")


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
        _check_ratio("dtc_threshold", self.dtc_threshold)
        _check_ratio("gtc_threshold", self.gtc_threshold)
        _check_ratio("cttc_threshold", self.cttc_threshold)
        if self.alpha_ct < 0:
            raise ValueError(f"alpha_ct must be >= 0, got {self.alpha_ct}")
        if self.alpha_st < 0:
            raise ValueError(f"alpha_st must be >= 0, got {self.alpha_st}")
        if not self.max_efpr > 0:
            raise ValueError(f"max_efpr must be > 0, got {self.max_efpr}")
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
        if self.collar < 0:
            raise ValueError(f"collar must be >= 0, got {self.collar}")
        if self.offset_ratio < 0:
            raise ValueError(f"offset_ratio must be >= 0, got {self.offset_ratio}")
