"""Table parsing, sweeps and report emission."""

from __future__ import annotations

import json
import os

import pytest

from conftest import default_params, make_dataset
from sedscore import (
    BadRow,
    Dataset,
    EvalParams,
    EventExceedsFileDuration,
    MalformedHeader,
    NegativeOnset,
    NoOperatingPoints,
    NonPositiveDuration,
    ParseError,
    UnknownClassLabel,
    UnknownFile,
    sweep_operating_points,
    validate_events,
)
from sedscore import events
from sedscore.events import Event
from sedscore.io import (
    _text_durations,
    _text_events,
    build_counts_report,
    build_f1_report,
    build_psds_report,
    TableRow,
    emit_report,
    load_dataset,
    load_detections,
    load_durations,
    load_event_table,
)
from sedscore.matching import count_matrix
from sedscore.psdroc import psd_roc_from_rates
from sedscore.rates import compute_rates, f1_scores

HEADER = "filename\tonset\toffset\tevent_label"


def text_events(text, source="<input>"):
    """The events of an event table's text, read as the one-pass loaders read it."""
    return list(_text_events(text, source, {"f1": 60.0}, None))


def text_durations(text):
    return _text_durations(text, "<input>")


class TestParseEventTable:
    def test_single_row(self):
        assert text_events(f"{HEADER}\nf1\t0.5\t2.0\tdog\n") == [Event("f1", 0.5, 2.0, "dog")]

    def test_header_only_is_empty_table(self):
        assert text_events(f"{HEADER}\n") == []

    def test_crlf_accepted(self):
        events = text_events(f"{HEADER}\r\nf1\t0.5\t2.0\tdog\r\n")
        assert events == [Event("f1", 0.5, 2.0, "dog")]

    def test_missing_header(self):
        with pytest.raises(MalformedHeader, match=r"^<input>:1: expected header "):
            text_events("f1\t0.5\t2.0\tdog\n")

    def test_wrong_header_order(self):
        with pytest.raises(MalformedHeader, match=r"^<input>:1: expected header "):
            text_events("filename\toffset\tonset\tevent_label\n")

    def test_empty_input(self):
        with pytest.raises(MalformedHeader, match=r"^<input>:1: expected header "):
            text_events("")

    def test_wrong_column_count(self):
        with pytest.raises(BadRow, match=r"^<input>:3: expected 4 tab-separated fields, got 3$"):
            text_events(f"{HEADER}\nf1\t0\t1\tdog\nf1\t0\t1\n")

    def test_non_numeric_time(self):
        with pytest.raises(BadRow, match=r"^<input>:2: onset 'zero' is not a number$"):
            text_events(f"{HEADER}\nf1\tzero\t1\tdog\n")

    def test_non_finite_time(self):
        with pytest.raises(BadRow, match=r"^<input>:2: onset 'nan' is not finite$"):
            text_events(f"{HEADER}\nf1\tnan\t1\tdog\n")

    # float() reads each of these cells: 10.0, 12.0, 1.0, 1.5 and 1.0
    @pytest.mark.parametrize("cell", ["1_0", "\u0661\u0662", "1\u00a0", " 1.5 ", "1\x0b"])
    @pytest.mark.parametrize("label", ["dog_bark", "chien_\u00e9"])
    def test_number_cell_that_float_would_misread_is_not_a_number(self, cell, label):
        # in a table that is ASCII but for the cell, and in one with a non-ASCII label
        with pytest.raises(BadRow) as err:
            text_events(f"{HEADER}\nf1\t0\t1\t{label}\nf1\t2\t{cell}\t{label}\n")
        assert str(err.value) == f"<input>:3: offset '{cell}' is not a number"

    def test_inverted_times_parse_but_fail_validation(self):
        with pytest.raises(NonPositiveDuration, match=r"\(<input>, line 2\)$"):
            text_events(f"{HEADER}\nf1\t2.0\t0.5\tdog\n")

    def test_duplicate_rows_are_two_detections(self):
        assert len(text_events(f"{HEADER}\nf1\t0\t1\tdog\nf1\t0\t1\tdog\n")) == 2

    def test_preserves_row_order(self):
        events = text_events(f"{HEADER}\nf1\t5\t6\tb\nf1\t0\t1\ta\n")
        assert [e.class_label for e in events] == ["b", "a"]

    def test_trailing_blank_lines_are_ignored(self):
        for tail in ("\n\n", "\n\n\n", "\r\n\r\n"):
            events = text_events(f"{HEADER}\nf1\t0.5\t2.0\tdog{tail}")
            assert events == [Event("f1", 0.5, 2.0, "dog")]
        assert text_events(f"{HEADER}\n\n") == []

    def test_blank_line_between_rows_names_its_line(self):
        with pytest.raises(BadRow, match=r"<input>:3: expected 4 tab-separated fields, got 1"):
            text_events(f"{HEADER}\nf1\t0\t1\tdog\n\nf1\t2\t3\tdog\n\n")

    @pytest.mark.parametrize("label", ["dog ", " dog", " dog ", "dog\u00a0"])
    def test_label_with_surrounding_whitespace_rejected(self, label):
        with pytest.raises(BadRow) as err:
            text_events(f"{HEADER}\nf1\t0\t1\tdog\nf1\t0\t1\t{label}\n", source="gt.tsv")
        assert str(err.value).startswith("gt.tsv:3: ")
        assert repr(label) in str(err.value)

    def test_label_with_inner_space_is_kept(self):
        assert text_events(f"{HEADER}\nf1\t0\t1\tdog bark\n")[0].class_label == "dog bark"

    @pytest.mark.parametrize("char", ["\x0c", "\u2028"])
    def test_only_newline_ends_a_line(self, char):
        with pytest.raises(BadRow) as err:
            text_events(f"{HEADER}\nf1\t0\t1\tdog{char}\nf1\t2\t3\tdog\n")
        assert str(err.value) == (
            f"<input>:2: event_label {'dog' + char!r} has leading or trailing whitespace"
        )
        with pytest.raises(BadRow, match=r"^<input>:3: onset 'zero' is not a number$"):
            text_events(f"{HEADER}\nf1\t0\t1\tdog{char}bark\nf1\tzero\t1\tdog\n")

    def test_final_lone_carriage_return_is_dropped(self):
        assert text_events(f"{HEADER}\nf1\t0\t1\tdog\r")[0].class_label == "dog"

    def test_lone_carriage_return_does_not_end_a_line(self):
        with pytest.raises(BadRow, match=r"^<input>:2: expected 4 tab-separated fields, got 7$"):
            text_events(f"{HEADER}\nf1\t0\t1\tdog\rf1\t2\t3\tdog\n")


class TestParseDurationsTable:
    def test_basic(self):
        durations = text_durations("filename\tduration\nf1\t10\nf2\t5.5\n")
        assert durations == {"f1": 10.0, "f2": 5.5}

    def test_duplicate_filename_rejected(self):
        with pytest.raises(BadRow, match=r"^<input>:3: duplicate filename 'f1'$"):
            text_durations("filename\tduration\nf1\t10\nf1\t5\n")

    @pytest.mark.parametrize("cell", ["1_0", "\u0661\u0662", " 1.5 ", "1\x0b"])
    def test_number_cell_that_float_would_misread_is_not_a_number(self, cell):
        with pytest.raises(BadRow) as err:
            text_durations(f"filename\tduration\nf_1\t10\nf_2\t{cell}\n")
        assert str(err.value) == f"<input>:3: duration '{cell}' is not a number"

    def test_nonpositive_duration_rejected(self):
        with pytest.raises(BadRow, match=r"^<input>:2: duration must be > 0, got 0$"):
            text_durations("filename\tduration\nf1\t0\n")

    def test_bad_header(self):
        with pytest.raises(MalformedHeader, match=r"^<input>:1: expected header "):
            text_durations("file\tduration\nf1\t10\n")

    def test_trailing_blank_lines_are_ignored(self):
        assert text_durations("filename\tduration\nf1\t10\n\n\n") == {"f1": 10.0}

    def test_blank_line_between_rows_names_its_line(self):
        with pytest.raises(BadRow, match=r"<input>:3: expected 2 tab-separated fields, got 1"):
            text_durations("filename\tduration\nf1\t10\n\nf2\t5\n")

    @pytest.mark.parametrize(
        "rows, message",
        [
            ("f1\t10\nf2\t5\nf1\t10\n", "<input>:4: duplicate filename 'f1'"),
            ("f1\t10\nf2\t-0\n", "<input>:3: duration must be > 0, got -0"),
            ("f1\t10\nf2\t1e999\n", "<input>:3: duration '1e999' is not finite"),
            ("f1\t10\nf2\n5\tf3\t5\n", "<input>:3: expected 2 tab-separated fields, got 1"),
            ("\t10\nf2\t5\n", "<input>:2: empty filename"),
            ("f1\t10\nf2\t\n", "<input>:3: duration '' is not a number"),
            ("f1\t1e\nf2\t5\n", "<input>:2: duration '1e' is not a number"),
        ],
        ids=[
            "duplicate",
            "negative-zero",
            "overflow",
            "fields-across-two-rows",
            "empty-filename",
            "empty-duration",
            "bare-exponent",
        ],
    )
    def test_a_column_fault_names_its_line(self, rows, message):
        # the column checks refuse the table; the row loop names the faulty line
        with pytest.raises(BadRow) as err:
            text_durations(f"filename\tduration\n{rows}")
        assert str(err.value) == message


def write_tables(tmp_path, gt_rows, durations):
    gt = tmp_path / "gt.tsv"
    gt.write_text(
        HEADER + "\n" + "".join(f"{f}\t{a}\t{b}\t{c}\n" for f, a, b, c in gt_rows),
        encoding="utf-8",
    )
    dur = tmp_path / "durations.tsv"
    dur.write_text(
        "filename\tduration\n" + "".join(f"{f}\t{d}\n" for f, d in durations.items()),
        encoding="utf-8",
    )
    return gt, dur


def add_byte_order_mark(path):
    """Prefix a table with the UTF-8 byte-order mark spreadsheet exports write."""
    path.write_text("\ufeff" + path.read_text(encoding="utf-8"), encoding="utf-8")


def write_detections(path, rows):
    path.write_text(
        HEADER + "\n" + "".join(f"{f}\t{a}\t{b}\t{c}\n" for f, a, b, c in rows),
        encoding="utf-8",
    )


class TestLoadDataset:
    def test_places_each_ground_truth_row_once(self, tmp_path, monkeypatch):
        # the loader places each row once, as a column, and the dataset built
        # from its events places none again; only a faulty table goes through
        # the row loop, which places each event as it reads it to name the line
        placed = []
        check = events._check_placement
        monkeypatch.setattr(
            events, "_check_placement", lambda ev, *args: placed.append(ev) or check(ev, *args)
        )
        rows = [("f1", 0.0, 10.0, "dog"), ("f2", 1.0, 2.0, "cat"), ("f1", 5.0, 6.0, "dog")]
        durations = {"f1": 60.0, "f2": 30.0}
        dataset = load_dataset(*write_tables(tmp_path, rows, durations))
        assert list(dataset.ground_truth) == [Event(*row) for row in rows]
        assert placed == []
        rows.append(("f2", 29.0, 31.0, "cat"))
        with pytest.raises(EventExceedsFileDuration, match=r"\(.*gt\.tsv, line 5\)$"):
            load_dataset(*write_tables(tmp_path, rows, durations))
        assert placed == [Event(*row) for row in rows]

    def test_loaded_ground_truth_is_placed_again_in_a_dataset_built_in_code(self, tmp_path):
        loaded = load_dataset(*write_tables(tmp_path, [("f1", 0.0, 10.0, "dog")], {"f1": 60.0}))
        with pytest.raises(EventExceedsFileDuration):
            Dataset(loaded.ground_truth, {"f1": 5.0})
        with pytest.raises(UnknownFile):
            Dataset(loaded.ground_truth, {"f2": 60.0})

    def test_round_trip(self, tmp_path):
        gt, dur = write_tables(
            tmp_path, [("f1", 0.0, 10.0, "dog")], {"f1": 60.0, "f2": 30.0}
        )
        dataset = load_dataset(gt, dur)
        assert isinstance(dataset, Dataset)
        assert dataset.total_duration == 90.0
        assert dataset.classes == ("dog",)

    @pytest.mark.parametrize(
        "row, error",
        [
            (("f9", 0.0, 1.0, "dog"), UnknownFile),
            (("f1", -1.0, 1.0, "dog"), NegativeOnset),
            (("f1", 2.0, 2.0, "dog"), NonPositiveDuration),
            (("f1", 5.0, 2.0, "dog"), NonPositiveDuration),
            (("f1", 50.0, 61.0, "dog"), EventExceedsFileDuration),
        ],
        ids=["unknown-file", "negative-onset", "zero-duration", "inverted", "past-end"],
    )
    def test_gt_error_names_file_and_line(self, tmp_path, row, error):
        gt, dur = write_tables(tmp_path, [row], {"f1": 60.0})
        with pytest.raises(error) as err:
            load_dataset(gt, dur)
        assert "gt.tsv" in str(err.value)
        assert "line 2" in str(err.value)

    def test_every_table_is_named_by_its_normalised_path(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        write_tables(tmp_path, [("f9", 0.0, 1.0, "dog")], {"f1": 60.0})
        with pytest.raises(UnknownFile) as err:
            load_dataset("./gt.tsv", "./durations.tsv")
        assert str(err.value) == "no duration entry for file 'f9' (gt.tsv, line 2)"
        write_tables(tmp_path, [("f1", 0.0, 1.0, "dog")], {"f1": 0.0})
        with pytest.raises(BadRow) as err:
            load_dataset("./gt.tsv", "./durations.tsv")
        assert str(err.value) == "durations.tsv:2: duration must be > 0, got 0.0"
        write_tables(tmp_path, [("f1", 0.0, 1.0, "dog")], {"f1": 60.0})
        write_detections(tmp_path / "det.tsv", [("f1", 0.0, 1.0, "cat")])
        with pytest.raises(UnknownClassLabel) as err:
            load_detections("./det.tsv", load_dataset("./gt.tsv", "./durations.tsv"))
        assert "(det.tsv, line 2)" in str(err.value)

    def test_event_table_byte_order_mark_is_skipped(self, tmp_path):
        gt, _ = write_tables(tmp_path, [("f1", 0.0, 10.0, "dog")], {"f1": 60.0})
        add_byte_order_mark(gt)
        assert load_event_table(gt) == [TableRow("f1", 0.0, 10.0, "dog", 2)]

    def test_durations_byte_order_mark_is_skipped(self, tmp_path):
        _, dur = write_tables(tmp_path, [("f1", 0.0, 10.0, "dog")], {"f1": 60.0})
        add_byte_order_mark(dur)
        assert load_durations(dur) == {"f1": 60.0}

    @pytest.mark.parametrize("table", ["gt", "durations", "det"])
    def test_invalid_utf8_names_table_and_line(self, tmp_path, table):
        gt, dur = write_tables(tmp_path, [("f1", 0.0, 10.0, "dog")], {"f1": 60.0, "f2": 5.0})
        det = tmp_path / "det.tsv"
        write_detections(det, [("f1", 0.0, 1.0, "dog")])
        path = {"gt": gt, "durations": dur, "det": det}[table]
        path.write_bytes(path.read_bytes().replace(b"f1", b"f\xe9"))
        with pytest.raises(ParseError) as err:
            load_detections(det, load_dataset(gt, dur))
        assert str(err.value) == f"{path}:2: byte 0xe9 is not valid UTF-8"

    def test_invalid_utf8_after_byte_order_mark_counts_lines_of_the_file(self, tmp_path):
        path = tmp_path / "det.tsv"
        rows = f"{HEADER}\r\nf1\t0\t1\tdog\r\n".encode("utf-8")
        path.write_bytes(b"\xef\xbb\xbf" + rows + b"f1\t0\t1\tdo\xe9\r\n")
        with pytest.raises(ParseError, match=r"det\.tsv:3: byte 0xe9 is not valid UTF-8"):
            load_event_table(path)


class TestLoadDetections:
    def test_returns_validated_events(self, tmp_path):
        dataset = load_dataset(*write_tables(tmp_path, [("f1", 0.0, 10.0, "dog")], {"f1": 60.0}))
        write_detections(tmp_path / "det.tsv", [("f1", 1.0, 2.0, "dog"), ("f1", 3.0, 4.0, "dog")])
        detections = load_detections(tmp_path / "det.tsv", dataset)
        spans = [(e.onset, e.offset) for e in detections.for_class("dog")]
        assert spans == [(1.0, 2.0), (3.0, 4.0)]

    @pytest.mark.parametrize(
        "row, error",
        [
            (("f1", 0.0, 1.0, "cow"), UnknownClassLabel),
            (("f1", 50.0, 70.0, "dog"), EventExceedsFileDuration),
        ],
    )
    def test_rejects_against_dataset_naming_table_and_line(self, tmp_path, row, error):
        dataset = load_dataset(*write_tables(tmp_path, [("f1", 0.0, 10.0, "dog")], {"f1": 60.0}))
        write_detections(tmp_path / "det.tsv", [row])
        with pytest.raises(error, match=r"det\.tsv.*line 2"):
            load_detections(tmp_path / "det.tsv", dataset)

    def test_first_faulty_line_is_reported(self, tmp_path):
        dataset = load_dataset(*write_tables(tmp_path, [("f1", 0.0, 10.0, "dog")], {"f1": 60.0}))
        rows = [("f1", 0.0, 1.0, "cow"), ("f1", "zero", 1.0, "dog")]
        write_detections(tmp_path / "det.tsv", rows)
        with pytest.raises(UnknownClassLabel, match=r"det\.tsv, line 2\)$"):
            load_detections(tmp_path / "det.tsv", dataset)

    def test_crlf_table(self, tmp_path):
        dataset = load_dataset(*write_tables(tmp_path, [("f1", 0.0, 10.0, "dog")], {"f1": 60.0}))
        path = tmp_path / "det.tsv"
        path.write_bytes(f"{HEADER}\r\nf1\t1\t2\tdog\r\n\r\n".encode("utf-8"))
        assert [(e.onset, e.offset) for e in load_detections(path, dataset)] == [(1.0, 2.0)]


class TestSweep:
    def setup_sweep(self, tmp_path, n_ops=3):
        gt, dur = write_tables(tmp_path, [("f1", 0.0, 10.0, "dog")], {"f1": 60.0})
        dataset = load_dataset(gt, dur)
        ops = tmp_path / "ops"
        ops.mkdir()
        for i in range(n_ops):
            write_detections(ops / f"op_0.{i}.tsv", [("f1", 0.0, 10.0, "dog")])
        return dataset, ops

    def test_one_matrix_per_file_keyed_by_stem(self, tmp_path):
        dataset, ops = self.setup_sweep(tmp_path)
        counts = sweep_operating_points(ops, dataset, default_params())
        assert list(counts) == ["op_0.0", "op_0.1", "op_0.2"]

    def test_tables_are_listed_as_a_glob_lists_them(self, tmp_path):
        # hidden tables too; "*.tsv" ignores case where file names have none
        dataset, ops = self.setup_sweep(tmp_path, n_ops=1)
        for name in (".tsv", ".h.tsv", "upper.TSV"):
            write_detections(ops / name, [("f1", 0.0, 10.0, "dog")])
        counts = sweep_operating_points(ops, dataset, default_params())
        assert list(counts) == [p.stem for p in sorted(ops.glob("*.tsv"), key=lambda p: p.name)]
        assert list(counts)[:3] == [".h", ".tsv", "op_0.0"]

    def test_empty_table_is_a_malformed_header(self, tmp_path):
        dataset, ops = self.setup_sweep(tmp_path, n_ops=1)
        (ops / "x.tsv").write_bytes(b"")
        expected = f"{ops / 'x.tsv'}:1: expected header '{HEADER}'"
        with pytest.raises(MalformedHeader) as exc:
            sweep_operating_points(ops, dataset, default_params())
        assert str(exc.value) == expected
        with pytest.raises(MalformedHeader) as exc:
            load_detections(ops / "x.tsv", dataset)
        assert str(exc.value) == expected

    def test_identity_op_scores_perfectly(self, tmp_path):
        dataset, ops = self.setup_sweep(tmp_path, n_ops=1)
        counts = sweep_operating_points(ops, dataset, default_params())
        rates = compute_rates(counts["op_0.0"], dataset, default_params())
        assert rates["dog"].tp_ratio == 1.0
        assert rates["dog"].efpr == 0.0

    def test_empty_directory_rejected(self, tmp_path):
        dataset, ops = self.setup_sweep(tmp_path, n_ops=0)
        with pytest.raises(NoOperatingPoints):
            sweep_operating_points(ops, dataset, default_params())

    @pytest.mark.parametrize("target", ["missing", "ops/op_0.0.tsv"])
    def test_path_that_is_not_a_directory_is_named(self, tmp_path, target):
        dataset, _ = self.setup_sweep(tmp_path, n_ops=1)
        path = tmp_path / target
        with pytest.raises(NoOperatingPoints, match="is not a directory") as exc:
            sweep_operating_points(path, dataset, default_params())
        assert str(path) in str(exc.value)

    def test_malformed_file_aborts_naming_it(self, tmp_path):
        dataset, ops = self.setup_sweep(tmp_path, n_ops=2)
        (ops / "broken.tsv").write_text("not a header\n", encoding="utf-8")
        with pytest.raises(MalformedHeader, match="broken.tsv"):
            sweep_operating_points(ops, dataset, default_params())

    def test_a_short_read_is_read_on_to_the_end(self, tmp_path, monkeypatch):
        # a read may return less than it was asked for, as Linux does past
        # 0x7ffff000 bytes and some network filesystems do at any size
        gt_rows = [("f1", 0.0, 10.0, "dog"), ("f1", 20.0, 30.0, "cat"), ("f2", 5.0, 9.0, "dog")]
        dataset = load_dataset(*write_tables(tmp_path, gt_rows, {"f1": 60.0, "f2": 30.0}))
        ops = tmp_path / "ops"
        ops.mkdir()
        rows = [("f1", 1.0, 9.0, "dog"), ("f1", 21.0, 28.0, "dog"), ("f2", 5.5, 8.0, "dog")]
        for i in range(4):
            write_detections(ops / f"op_{i}.tsv", rows[i % 2 :] + [("f1", 40.0, 41.0 + i, "cat")])
        uncapped = sweep_operating_points(ops, dataset, default_params())
        loaded = load_detections(ops / "op_0.tsv", dataset)
        read = os.read
        monkeypatch.setattr(os, "read", lambda fd, n: read(fd, min(n, 7)))
        assert sweep_operating_points(ops, dataset, default_params()) == uncapped
        assert load_detections(ops / "op_0.tsv", dataset) == loaded
        assert load_dataset(tmp_path / "gt.tsv", tmp_path / "durations.tsv") == dataset

    def test_every_table_read_closes_its_file(self, tmp_path, monkeypatch):
        # os.open gives a bare descriptor, which no ResourceWarning reports if left open
        dataset, ops = self.setup_sweep(tmp_path)
        (ops / "op_1.0.tsv").mkdir()
        opened, os_open, os_close = set(), os.open, os.close

        def tracked_open(*args, **kwargs):
            fd = os_open(*args, **kwargs)
            opened.add(fd)
            return fd

        def tracked_close(fd):
            opened.discard(fd)
            os_close(fd)

        monkeypatch.setattr(os, "open", tracked_open)
        monkeypatch.setattr(os, "close", tracked_close)
        load_dataset(tmp_path / "gt.tsv", tmp_path / "durations.tsv")
        load_detections(ops / "op_0.0.tsv", dataset)
        with pytest.raises(OSError):
            sweep_operating_points(ops, dataset, default_params())
        assert not opened

    def test_unknown_label_aborts_naming_file(self, tmp_path):
        dataset, ops = self.setup_sweep(tmp_path, n_ops=1)
        write_detections(ops / "stray.tsv", [("f1", 0.0, 1.0, "cow")])
        with pytest.raises(UnknownClassLabel, match="stray.tsv"):
            sweep_operating_points(ops, dataset, default_params())


def sample_reports():
    durations = {"f1": 7200.0}
    gt_rows = [("f1", 0.0, 10.0, "dog"), ("f1", 20.0, 30.0, "cat")]
    dataset = make_dataset(gt_rows, durations)
    params = default_params()
    detections = validate_events(gt_rows, durations, allowed_classes=dataset.classes)
    counts = count_matrix(detections, dataset, params)
    rates = compute_rates(counts, dataset, params)
    counts_report = build_counts_report(counts, rates, dataset, params)
    f1_report = build_f1_report(counts, f1_scores(counts), dataset, params)
    rates_by_op = {
        "low": {"dog": _cr(0.5, 10.0), "cat": _cr(0.5, 10.0)},
        "high": {"dog": _cr(1.0, 100.0), "cat": _cr(1.0, 100.0)},
    }
    roc = psd_roc_from_rates(rates_by_op, params)
    psds_report = build_psds_report(roc, dataset, params)
    return counts_report, f1_report, psds_report


def _cr(tp, efpr):
    from sedscore import ClassRates

    return ClassRates(tp_ratio=tp, fp_rate=efpr, ct_rates={}, efpr=efpr)


class TestEmitReport:
    def test_json_round_trips_losslessly(self):
        for report in sample_reports():
            text = emit_report(report, "json")
            assert json.loads(text) == report

    def test_json_contains_psds_value(self):
        *_, psds_report = sample_reports()
        text = emit_report(psds_report, "json")
        assert '"psds": 0.45' in text
        assert json.loads(text)["psds"] == 0.45

    def test_json_is_deterministic(self):
        first = [emit_report(r, "json") for r in sample_reports()]
        second = [emit_report(r, "json") for r in sample_reports()]
        assert first == second

    def test_tsv_roc_block_has_one_line_per_point(self):
        *_, psds_report = sample_reports()
        text = emit_report(psds_report, "tsv")
        block = text.split("# psd_roc\n")[1].split("\n\n")[0]
        lines = block.strip().split("\n")
        assert lines[0] == "efpr\tetpr"
        assert len(lines) - 1 == len(psds_report["psd_roc"]) == 3

    def test_tsv_cross_trigger_block_omits_diagonal(self):
        counts_report, *_ = sample_reports()
        text = emit_report(counts_report, "tsv")
        block = text.split("# cross_triggers\n")[1].split("\n\n")[0]
        lines = block.strip().split("\n")[1:]
        # 2 classes -> 2x1 ordered off-diagonal pairs
        assert len(lines) == 2
        for line in lines:
            c, other, _ = line.split("\t")
            assert c != other

    def test_tsv_uses_six_significant_digits(self):
        counts_report, *_ = sample_reports()
        counts_report = json.loads(json.dumps(counts_report))
        counts_report["rates"]["dog"]["fp_rate"] = 0.123456789
        text = emit_report(counts_report, "tsv")
        assert "0.123457" in text
        assert "0.123456789" not in text

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            emit_report({"schema": "x", "report": "counts"}, "xml")


class TestReportShapes:
    def test_counts_report_keys(self):
        counts_report, f1_report, psds_report = sample_reports()
        assert list(counts_report) == [
            "schema",
            "report",
            "params",
            "dataset",
            "counts",
            "cross_triggers",
            "rates",
        ]
        assert list(f1_report) == [
            "schema",
            "report",
            "params",
            "dataset",
            "counts",
            "f1",
        ]
        assert psds_report["report"] == "psds"
        assert psds_report["num_operating_points"] == 2
        assert psds_report["operating_points"]["dog"] == [
            ["high", 100.0, 1.0],
            ["low", 10.0, 0.5],
        ]

    def test_roc_report_has_no_score(self):
        durations = {"f1": 7200.0}
        dataset = make_dataset([("f1", 0.0, 10.0, "dog")], durations)
        params = EvalParams()
        roc = psd_roc_from_rates({"only": {"dog": _cr(1.0, 0.0)}}, params)
        report = build_psds_report(roc, dataset, params, include_psds=False)
        assert report["report"] == "roc"
        assert "psds" not in report
        assert report["psd_roc"] == [[0.0, 1.0], [100.0, 1.0]]
