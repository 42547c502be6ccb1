"""End-to-end command-line tests."""

from __future__ import annotations

import errno
import io
import json
import os
import sys
from pathlib import Path

import pytest

from sedscore.cli import main

HEADER = "filename\tonset\toffset\tevent_label"


def write_event_table(path, rows):
    path.write_text(
        HEADER + "\n" + "".join(f"{f}\t{a}\t{b}\t{c}\n" for f, a, b, c in rows),
        encoding="utf-8",
    )


@pytest.fixture
def workspace(tmp_path):
    """Split-detection corpus plus a two-point sweep with a known score.

    One class over a 7200 s file. The sweep's first operating point finds
    one of two ground truths with 20 false positives (10 per hour), the
    second finds both with 200 (100 per hour), which pins the final score
    at 0.45 with default settings.
    """
    gt_rows = [("f1", 0.0, 10.0, "dog"), ("f1", 100.0, 101.0, "dog")]
    write_event_table(tmp_path / "gt.tsv", gt_rows)
    (tmp_path / "durations.tsv").write_text("filename\tduration\nf1\t7200\n", encoding="utf-8")
    write_event_table(
        tmp_path / "det.tsv", [("f1", 0.0, 4.0, "dog"), ("f1", 5.0, 10.0, "dog")]
    )
    ops = tmp_path / "ops"
    ops.mkdir()
    fps = [("f1", 200.0 + 2 * k, 200.5 + 2 * k, "dog") for k in range(20)]
    write_event_table(ops / "low.tsv", [("f1", 0.0, 10.0, "dog"), *fps])
    fps = [("f1", 200.0 + 2 * k, 200.5 + 2 * k, "dog") for k in range(200)]
    write_event_table(ops / "high.tsv", [*gt_rows, *fps])
    return tmp_path


def run(capsys, *argv) -> tuple[int, str]:
    code = main([str(a) for a in argv])
    return code, capsys.readouterr().out


def common(ws):
    return ["--gt", ws / "gt.tsv", "--durations", ws / "durations.tsv"]


class TestCounts:
    def test_counts_report(self, workspace, capsys):
        code, out = run(
            capsys, "counts", *common(workspace), "--det", workspace / "det.tsv"
        )
        assert code == 0
        report = json.loads(out)
        assert report["counts"]["dog"] == {"n_gt": 2, "n_sys": 2, "n_tp": 1, "n_fp": 0}
        assert report["params"]["dtc_threshold"] == 0.5

    def test_missing_detection_file_exits_1(self, workspace, capsys):
        code = main(
            [str(a) for a in ["counts", *common(workspace), "--det", workspace / "missing.tsv"]]
        )
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_malformed_detection_file_exits_1(self, workspace, capsys):
        bad = workspace / "bad.tsv"
        bad.write_text("onset\toffset\n", encoding="utf-8")
        code = main([str(a) for a in ["counts", *common(workspace), "--det", bad]])
        assert code == 1
        err = capsys.readouterr().err
        assert "bad.tsv" in err

    def test_detection_file_that_is_not_utf8_exits_1(self, workspace, capsys):
        det = workspace / "latin1.tsv"
        det.write_bytes(f"{HEADER}\nf1\t0\t4\tdog\nf1\t5\t10\tdog\xe9\n".encode("latin-1"))
        code = main([str(a) for a in ["counts", *common(workspace), "--det", det]])
        err = capsys.readouterr().err
        assert code == 1
        assert err == f"sedscore: error: {det}:3: byte 0xe9 is not valid UTF-8\n"

    def test_a_non_ascii_label_reaches_an_ascii_stdout_as_the_bytes_of_out(
        self, tmp_path, monkeypatch
    ):
        rows = [("f1", 0.0, 10.0, "chiené"), ("f1", 20.0, 30.0, "dog")]
        write_event_table(tmp_path / "gt.tsv", rows)
        write_event_table(tmp_path / "det.tsv", rows[:1])
        (tmp_path / "durations.tsv").write_text("filename\tduration\nf1\t60\n", encoding="utf-8")
        argv = ["counts", *map(str, common(tmp_path)), "--det", str(tmp_path / "det.tsv")]
        argv += ["--format", "tsv"]
        stdout = io.TextIOWrapper(io.BytesIO(), encoding="ascii")
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main(argv) == 0
        assert main([*argv, "--out", str(tmp_path / "report.tsv")]) == 0
        written = stdout.buffer.getvalue()
        assert written == (tmp_path / "report.tsv").read_bytes()
        assert "\nchiené\t1\t1\t1\t0\n".encode() in written

    def test_unknown_flag_exits_2(self, workspace):
        with pytest.raises(SystemExit) as exc:
            main([str(a) for a in ["counts", *common(workspace), "--bogus"]])
        assert exc.value.code == 2

    def test_bad_threshold_exits_2(self, workspace):
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    str(a)
                    for a in [
                        "counts",
                        *common(workspace),
                        "--det",
                        workspace / "det.tsv",
                        "--dtc",
                        "1.5",
                    ]
                ]
            )
        assert exc.value.code == 2


@pytest.mark.parametrize(
    "command, flags",
    [
        ("f1", ["--collar", "nan"]),
        ("psds", ["--emax", "inf"]),
        ("psds", ["--alpha-st", "nan"]),
    ],
    ids=["f1-collar-nan", "psds-emax-inf", "psds-alpha-st-nan"],
)
def test_non_finite_parameter_is_usage_error(workspace, capsys, command, flags):
    target = ["--det", workspace / "det.tsv"] if command == "f1" else ["--det-dir", workspace / "ops"]
    with pytest.raises(SystemExit) as exc:
        main([str(a) for a in [command, *common(workspace), *target, *flags]])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "must be finite" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["counts", "f1"])
def test_no_clamp_is_a_usage_error_outside_a_sweep(workspace, capsys, command):
    argv = [command, *common(workspace), "--det", workspace / "det.tsv", "--no-clamp"]
    with pytest.raises(SystemExit) as exc:
        main([str(a) for a in argv])
    assert exc.value.code == 2
    assert "unrecognized arguments: --no-clamp" in capsys.readouterr().err


class TestF1:
    def test_intersection_beats_collar_on_split_detections(self, workspace, capsys):
        code, out = run(capsys, "f1", *common(workspace), "--det", workspace / "det.tsv")
        assert code == 0
        intersection = json.loads(out)
        code, out = run(
            capsys,
            "f1",
            *common(workspace),
            "--det",
            workspace / "det.tsv",
            "--collar",
            "0.2",
            "--collar-ratio",
            "0.2",
        )
        assert code == 0
        collar = json.loads(out)
        assert collar["params"]["mode"] == "collar"
        assert collar["f1"]["macro_f1"] < intersection["f1"]["macro_f1"]
        assert collar["counts"]["dog"]["n_fp"] == 2

    def test_collar_ratio_without_collar_is_usage_error(self, workspace):
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    str(a)
                    for a in [
                        "f1",
                        *common(workspace),
                        "--det",
                        workspace / "det.tsv",
                        "--collar-ratio",
                        "0.3",
                    ]
                ]
            )
        assert exc.value.code == 2


class TestPsds:
    def test_sweep_psds_value(self, workspace, capsys):
        code, out = run(capsys, "psds", *common(workspace), "--det-dir", workspace / "ops")
        assert code == 0
        report = json.loads(out)
        assert report["psds"] == pytest.approx(0.45, abs=1e-9)
        assert report["params"]["dtc_threshold"] == 0.5
        assert report["params"]["gtc_threshold"] == 0.5
        assert report["params"]["cttc_threshold"] == 0.3
        assert report["params"]["max_efpr"] == 100.0
        assert report["psd_roc"] == [[0.0, 0.0], [10.0, 0.5], [100.0, 1.0]]

    def test_roc_subcommand_omits_score(self, workspace, capsys):
        code, out = run(capsys, "roc", *common(workspace), "--det-dir", workspace / "ops")
        assert code == 0
        report = json.loads(out)
        assert "psds" not in report
        assert len(report["psd_roc"]) == 3

    def test_empty_sweep_dir_exits_1(self, workspace, capsys):
        empty = workspace / "empty"
        empty.mkdir()
        code, _ = run(capsys, "psds", *common(workspace), "--det-dir", empty)
        assert code == 1

    def test_byte_identical_reruns(self, workspace, capsys):
        args = ["psds", *common(workspace), "--det-dir", workspace / "ops"]
        _, first = run(capsys, *args)
        _, second = run(capsys, *args)
        assert first == second

    def test_output_file_and_tsv(self, workspace, capsys):
        out_path = workspace / "report.tsv"
        code, out = run(
            capsys,
            "psds",
            *common(workspace),
            "--det-dir",
            workspace / "ops",
            "--format",
            "tsv",
            "--out",
            out_path,
        )
        assert code == 0
        assert out == ""
        text = out_path.read_text(encoding="utf-8")
        assert "# psd_roc" in text
        assert "psds\t0.45" in text

    def test_unwritable_output_path_exits_1(self, workspace, capsys):
        out_path = workspace / "missing" / "report.json"
        argv = ["psds", *common(workspace), "--det-dir", workspace / "ops", "--out", out_path]
        assert main([str(a) for a in argv]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("sedscore: error: ")
        assert str(out_path) in err
        assert "Traceback" not in err

    def test_unit_flag_changes_rates(self, workspace, capsys):
        code, out = run(
            capsys,
            "psds",
            *common(workspace),
            "--det-dir",
            workspace / "ops",
            "--unit",
            "second",
            "--emax",
            str(100.0 / 3600.0),
        )
        assert code == 0
        report = json.loads(out)
        # same curve, axes rescaled to per-second rates
        assert report["psds"] == pytest.approx(0.45, abs=1e-9)

    def test_ranking_workflow_between_two_systems(self, workspace, capsys, tmp_path):
        # a second, weaker system: same sweep but it never finds the second truth
        weak = workspace / "weak_ops"
        weak.mkdir()
        fps = [("f1", 200.0 + 2 * k, 200.5 + 2 * k, "dog") for k in range(20)]
        write_event_table(weak / "low.tsv", [("f1", 0.0, 4.1, "dog"), *fps])
        fps = [("f1", 200.0 + 2 * k, 200.5 + 2 * k, "dog") for k in range(100)]
        write_event_table(weak / "high.tsv", [("f1", 0.0, 10.0, "dog"), *fps])
        _, strong_out = run(capsys, "psds", *common(workspace), "--det-dir", workspace / "ops")
        _, weak_out = run(capsys, "psds", *common(workspace), "--det-dir", weak)
        assert json.loads(strong_out)["psds"] > json.loads(weak_out)["psds"]

    def test_no_clamp_flag_passes_through(self, workspace, capsys):
        code, out = run(
            capsys,
            "psds",
            *common(workspace),
            "--det-dir",
            workspace / "ops",
            "--no-clamp",
        )
        assert code == 0
        assert json.loads(out)["params"]["clamp_etpr"] is False


def _os_error(code: int, path) -> str:
    return f"sedscore: error: [Errno {code}] {os.strerror(code)}: '{path}'\n"


class TestSweepTables:
    """How a sweep lists its tables and names a table that fails to read or parse."""

    def psds_error(self, workspace, capsys, det_dir) -> str:
        code = main(["psds", *map(str, common(workspace)), "--det-dir", str(det_dir)])
        assert code == 1
        return capsys.readouterr().err

    def test_sub_directory_named_as_a_table_exits_1_naming_it(self, workspace, capsys, monkeypatch):
        (workspace / "ops" / "x.tsv").mkdir()
        monkeypatch.chdir(workspace)
        err = self.psds_error(workspace, capsys, "ops")
        assert err == _os_error(errno.EISDIR, Path("ops", "x.tsv"))

    def test_dangling_symlink_exits_1_naming_it(self, workspace, capsys, monkeypatch):
        (workspace / "ops" / "x.tsv").symlink_to(workspace / "nowhere.tsv")
        monkeypatch.chdir(workspace)
        err = self.psds_error(workspace, capsys, "ops")
        assert err == _os_error(errno.ENOENT, Path("ops", "x.tsv"))

    def test_unreadable_table_exits_1_naming_it(self, workspace, capsys, monkeypatch):
        table = workspace / "ops" / "x.tsv"
        table.write_text(HEADER + "\n", encoding="utf-8")
        table.chmod(0)
        if os.access(table, os.R_OK):  # a superuser reads it: fail its open as for anyone else
            open_file = os.open

            def refusing_open(path, *args, **kwargs):
                if os.path.basename(path) == "x.tsv":
                    raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)
                return open_file(path, *args, **kwargs)

            monkeypatch.setattr(os, "open", refusing_open)
        monkeypatch.chdir(workspace)
        err = self.psds_error(workspace, capsys, "ops")
        assert err == _os_error(errno.EACCES, Path("ops", "x.tsv"))

    def test_current_directory_names_a_table_by_its_bare_name(self, workspace, capsys, monkeypatch):
        # a fault of the table and one of its read alike: the scan would name it ./x.tsv
        table = workspace / "ops" / "x.tsv"
        table.write_text("not a header\n", encoding="utf-8")
        monkeypatch.chdir(workspace / "ops")
        err = self.psds_error(workspace, capsys, ".")
        assert err == f"sedscore: error: x.tsv:1: expected header '{HEADER}'\n"
        table.unlink()
        table.mkdir()
        assert self.psds_error(workspace, capsys, ".") == _os_error(errno.EISDIR, "x.tsv")

    def test_absolute_directory_names_a_table_by_its_absolute_path(self, workspace, capsys):
        (workspace / "ops" / "x.tsv").write_text("not a header\n", encoding="utf-8")
        ops = (workspace / "ops").absolute()
        err = self.psds_error(workspace, capsys, ops)
        assert err == f"sedscore: error: {ops / 'x.tsv'}:1: expected header '{HEADER}'\n"
