"""Data model: interval arithmetic, validation, parameter objects."""

from __future__ import annotations

import dataclasses
import math
import pickle
import random

import pytest

from sedscore import (
    CollarParams,
    Dataset,
    EvalParams,
    Event,
    EventExceedsFileDuration,
    EventSet,
    NegativeOnset,
    NonPositiveDuration,
    TimeUnit,
    UnknownClassLabel,
    UnknownFile,
    ValidationError,
    intersection_duration,
    total_intersection,
    validate_events,
)
from sedscore.io import TableRow


def ev(onset, offset, file_id="f1", label="dog"):
    return Event(file_id, onset, offset, label)


class TestIntersectionDuration:
    def test_partial_overlap(self):
        assert intersection_duration(ev(0, 2), ev(1, 3)) == 1.0

    def test_abutting_intervals_are_disjoint(self):
        assert intersection_duration(ev(0, 2), ev(2, 5)) == 0.0

    def test_different_files_never_intersect(self):
        assert intersection_duration(ev(0, 2, "f1"), ev(0, 2, "f2")) == 0.0

    def test_symmetry_and_bounds_randomized(self):
        rng = random.Random(101)
        for _ in range(500):
            a = ev(rng.uniform(0, 50), rng.uniform(51, 100), rng.choice(["f1", "f2"]))
            b = ev(rng.uniform(0, 50), rng.uniform(51, 100), rng.choice(["f1", "f2"]))
            d = intersection_duration(a, b)
            assert d == intersection_duration(b, a)
            assert 0.0 <= d <= min(a.duration, b.duration)


class TestTotalIntersection:
    def test_sum_over_disjoint_events(self):
        x = ev(0, 10)
        assert total_intersection(x, [ev(0, 4), ev(5, 10)]) == 9.0

    def test_empty_set(self):
        assert total_intersection(ev(0, 10), []) == 0.0

    def test_overlapping_events_counted_per_event(self):
        # [2,6] and [4,8] share [4,6]; the literal sum counts it twice.
        x = ev(0, 10)
        assert total_intersection(x, [ev(2, 6), ev(4, 8)]) == 8.0

    def test_additive_over_partitions(self):
        rng = random.Random(7)
        x = ev(0, 30)
        ys = [ev(rng.uniform(0, 25), rng.uniform(26, 30)) for _ in range(12)]
        k = rng.randint(1, len(ys) - 1)
        whole = total_intersection(x, ys)
        parts = total_intersection(x, ys[:k]) + total_intersection(x, ys[k:])
        assert whole == pytest.approx(parts, abs=1e-12)


class TestEventInvariants:
    def test_zero_duration_rejected(self):
        with pytest.raises(NonPositiveDuration):
            ev(3.0, 3.0)

    def test_inverted_rejected(self):
        with pytest.raises(NonPositiveDuration):
            ev(5.0, 2.0)

    def test_negative_onset_rejected(self):
        with pytest.raises(NegativeOnset):
            ev(-1.0, 2.0)

    @pytest.mark.parametrize("onset, offset", [(-1.0, 2.0), (3.0, 3.0)])
    def test_error_names_file_and_label(self, onset, offset):
        with pytest.raises(ValidationError) as err:
            ev(onset, offset, file_id="clip_7", label="siren")
        assert "'clip_7'" in str(err.value)
        assert "'siren'" in str(err.value)

    @pytest.mark.parametrize(
        "make, what",
        [
            (lambda: ev(math.nan, 1.0, "f", "x"), "onset"),
            (lambda: ev(0.0, math.nan, "f", "x"), "offset"),
            (lambda: ev(math.nan, math.nan, "f", "x"), "onset"),
            (lambda: dataclasses.replace(ev(0.0, 1.0, "f", "x"), offset=math.nan), "offset"),
        ],
        ids=["onset", "offset", "both", "replace"],
    )
    def test_a_nan_time_is_not_a_number(self, make, what):
        # not a non-positive duration, which NaN's false comparisons would make it
        with pytest.raises(ValidationError) as err:
            make()
        assert type(err.value) is ValidationError
        assert str(err.value) == f"{what} nan of 'x' in 'f' is not a number"

    def test_a_nan_row_from_code_names_its_line(self):
        with pytest.raises(ValidationError) as err:
            validate_events([TableRow("f", 0.0, math.nan, "x", 3)], {"f": 10.0})
        assert type(err.value) is ValidationError
        assert str(err.value) == "offset nan of 'x' in 'f' is not a number (line 3)"


class TestEventValue:
    """``Event``'s own constructor keeps what a generated frozen dataclass gives."""

    def test_keyword_construction(self):
        e = Event(file_id="f1", onset=1.0, offset=2.0, class_label="dog")
        assert (e.file_id, e.onset, e.offset, e.class_label) == ("f1", 1.0, 2.0, "dog")
        assert e == ev(1.0, 2.0)

    def test_replace_checks_the_invariants_again(self):
        e = ev(1.0, 2.0)
        assert dataclasses.replace(e, offset=3.0) == ev(1.0, 3.0)
        with pytest.raises(NonPositiveDuration):
            dataclasses.replace(e, offset=0.5)
        with pytest.raises(NegativeOnset):
            dataclasses.replace(e, onset=-1.0)

    @pytest.mark.parametrize("field", ["file_id", "onset", "offset", "class_label"])
    def test_fields_cannot_be_assigned(self, field):
        e = ev(1.0, 2.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(e, field, getattr(e, field))

    def test_equality_hash_and_repr(self):
        e = ev(1.0, 2.0)
        assert e == ev(1.0, 2.0) and e != ev(1.0, 2.5) and e != ev(1.0, 2.0, label="cat")
        assert hash(e) == hash(("f1", 1.0, 2.0, "dog"))
        assert repr(e) == "Event(file_id='f1', onset=1.0, offset=2.0, class_label='dog')"
        assert [f.name for f in dataclasses.fields(Event)] == [
            "file_id",
            "onset",
            "offset",
            "class_label",
        ]

    def test_pickle_round_trip(self):
        e = ev(-0.0, 2.0)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(e, protocol))
            assert back == e and math.copysign(1.0, back.onset) == -1.0, protocol

    @pytest.mark.parametrize(
        "onset, offset, error, message",
        [
            (-1.0, 2.0, NegativeOnset, "onset -1.0 of 'siren' in 'clip_7' is negative"),
            (
                3.0,
                3.0,
                NonPositiveDuration,
                "event 'siren' [3.0, 3.0] in 'clip_7' has non-positive duration",
            ),
        ],
    )
    def test_messages(self, onset, offset, error, message):
        with pytest.raises(error) as err:
            ev(onset, offset, file_id="clip_7", label="siren")
        assert str(err.value) == message


class TestValidateEvents:
    DUR = {"f1": 10.0}

    def test_accepts_valid_row(self):
        es = validate_events([("f1", 1.0, 3.0, "dog")], self.DUR)
        assert es.events == (Event("f1", 1.0, 3.0, "dog"),)

    def test_rejects_zero_duration(self):
        with pytest.raises(NonPositiveDuration):
            validate_events([("f1", 3.0, 3.0, "dog")], self.DUR)

    def test_rejects_unknown_file(self):
        with pytest.raises(UnknownFile):
            validate_events([("f9", 0.0, 1.0, "dog")], self.DUR)

    def test_rejects_negative_onset(self):
        with pytest.raises(NegativeOnset):
            validate_events([("f1", -0.5, 1.0, "dog")], self.DUR)

    def test_rejects_event_past_file_end(self):
        with pytest.raises(EventExceedsFileDuration):
            validate_events([("f1", 5.0, 11.0, "dog")], self.DUR)

    def test_rejects_label_outside_universe(self):
        with pytest.raises(UnknownClassLabel):
            validate_events([("f1", 0.0, 1.0, "cow")], self.DUR, allowed_classes={"dog"})

    def test_idempotent(self):
        rows = [("f1", 1.0, 3.0, "dog"), ("f1", 0.5, 2.0, "cat"), ("f1", 1.0, 3.0, "dog")]
        once = validate_events(rows, self.DUR)
        twice = validate_events(once, self.DUR)
        assert once == twice

    def test_preserves_row_order_and_duplicates(self):
        rows = [("f1", 1.0, 3.0, "dog"), ("f1", 1.0, 3.0, "dog"), ("f1", 0.0, 1.0, "cat")]
        es = validate_events(rows, self.DUR)
        assert len(es) == 3
        assert es.events[0] == es.events[1]

    @pytest.mark.parametrize(
        "row",
        [("f1", "1.5", "3", "dog"), ("f1", 1.5, 3.0, "dog", 0.9), ["f1", 1.5, 3.0, "dog"]],
        ids=["string-fields", "score-field", "list"],
    )
    def test_accepts_row_shapes(self, row):
        es = validate_events([row], self.DUR)
        assert es.events == (Event("f1", 1.5, 3.0, "dog"),)

    def test_events_and_tuples_mixed(self):
        events = (Event("f1", 1.0, 3.0, "dog"), Event("f1", 0.5, 2.0, "cat"))
        assert validate_events(events, self.DUR).events == events
        mixed = [events[0], ("f1", 0.5, 2.0, "cat")]
        assert validate_events(mixed, self.DUR).events == events

    @pytest.mark.parametrize(
        "row, source, suffix",
        [
            (TableRow("f9", 0.0, 1.0, "dog", 7), None, " (line 7)"),
            (Event("f9", 0.0, 1.0, "dog"), "x.tsv", " (x.tsv)"),
        ],
        ids=["table-row", "event"],
    )
    def test_error_names_source_and_line(self, row, source, suffix):
        with pytest.raises(UnknownFile) as info:
            validate_events([row], self.DUR, source=source)
        assert str(info.value) == f"no duration entry for file 'f9'{suffix}"


class TestEventSet:
    def test_indices_are_projections(self):
        rows = [
            ("f1", 1.0, 3.0, "dog"),
            ("f2", 0.0, 2.0, "cat"),
            ("f1", 4.0, 5.0, "cat"),
        ]
        es = validate_events(rows, {"f1": 10.0, "f2": 10.0})
        assert sum(len(v) for v in es.by_class.values()) == len(es)
        assert es.class_labels == ("cat", "dog")
        assert [e.file_id for e in es.for_class("cat")] == ["f2", "f1"]
        assert es.for_class("cow") == ()


class TestDataset:
    def test_total_duration_is_sum_of_files(self):
        gt = validate_events([("f1", 0.0, 1.0, "dog")], {"f1": 10.0, "f2": 5.0})
        ds = Dataset(gt, {"f1": 10.0, "f2": 5.0})
        assert ds.total_duration == 15.0
        assert ds.classes == ("dog",)
        assert ds.class_durations["dog"] == 1.0

    def test_rejects_empty_ground_truth(self):
        with pytest.raises(ValidationError):
            Dataset(EventSet(()), {"f1": 10.0})

    def test_sums_add_left_to_right(self):
        # 1e16 + 1.0 rounds back to 1e16 at each step; a compensated sum,
        # as builtin ``sum`` takes from Python 3.12, gives 1e16 + 2
        durations = {"f1": 1e16, "f2": 1.0, "f3": 1.0}
        rows = [("f1", 0.0, 1e16, "dog"), ("f2", 0.0, 1.0, "dog"), ("f3", 0.0, 1.0, "dog")]
        ds = Dataset(validate_events(rows, durations), durations)
        assert ds.total_duration == 1e16
        assert ds.class_durations["dog"] == 1e16
        ys = [ev(0.0, 1e16), ev(0.0, 1.0), ev(1.0, 2.0)]
        assert total_intersection(ev(0.0, 1e16), ys) == 1e16

    def test_rejects_gt_event_in_unknown_file(self):
        gt = EventSet((Event("f9", 0.0, 1.0, "dog"),))
        with pytest.raises(UnknownFile, match="'f9'"):
            Dataset(gt, {"f1": 10.0})

    def test_rejects_gt_event_beyond_file(self):
        gt = EventSet((Event("f1", 0.0, 20.0, "dog"),))
        with pytest.raises(EventExceedsFileDuration):
            Dataset(gt, {"f1": 10.0})

    def test_rejects_nonpositive_file_duration(self):
        gt = EventSet((Event("f1", 0.0, 1.0, "dog"),))
        with pytest.raises(ValidationError):
            Dataset(gt, {"f1": 10.0, "f2": 0.0})


FIELDS = ("dtc_threshold", "gtc_threshold", "cttc_threshold", "alpha_ct", "alpha_st", "max_efpr")


class TestParams:
    def test_defaults(self):
        p = EvalParams()
        assert (p.dtc_threshold, p.gtc_threshold, p.cttc_threshold) == (0.5, 0.5, 0.3)
        assert (p.alpha_ct, p.alpha_st, p.max_efpr) == (0.0, 0.0, 100.0)
        assert p.time_unit is TimeUnit.HOUR

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"dtc_threshold": 1.5},
            {"gtc_threshold": -0.1},
            {"cttc_threshold": 2.0},
            {"alpha_ct": -1.0},
            {"alpha_st": -0.5},
            {"max_efpr": 0.0},
            *(
                {field: value}
                for field in FIELDS
                for value in (math.nan, math.inf, -math.inf)
            ),
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            EvalParams(**kwargs)

    def test_time_unit_from_its_name(self):
        assert EvalParams(time_unit="hour").time_unit is TimeUnit.HOUR

    def test_time_unit_seconds(self):
        assert TimeUnit.SECOND.seconds == 1.0
        assert TimeUnit.MINUTE.seconds == 60.0
        assert TimeUnit.HOUR.seconds == 3600.0

    def test_collar_params_reject_negative(self):
        with pytest.raises(ValueError):
            CollarParams(collar=-0.1)
        with pytest.raises(ValueError):
            CollarParams(collar=0.2, offset_ratio=-1.0)
        for kwargs in ({"collar": math.nan}, {"collar": math.inf}, {"offset_ratio": math.nan}):
            with pytest.raises(ValueError, match=next(iter(kwargs))):
                CollarParams(**{"collar": 0.2, **kwargs})
