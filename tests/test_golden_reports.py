"""Byte pins of every CLI report on a fixed corpus.

``tests/golden/`` holds three classes over three files, one detection
table, a four-table sweep (``ops``) and that sweep with each table
followed by a byte-identical copy and the last by one more copy with CRLF
line ends (``ops_repeated``). Each invocation below is run in JSON and
TSV and its output must equal ``tests/golden/expected/<name>.<format>``
byte for byte. After a deliberate report change, re-record with
``PYTHONPATH=src python tests/test_golden_reports.py`` and review the diff.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from sedscore.cli import main

CORPUS = Path(__file__).parent / "golden"
DET, OPS = str(CORPUS / "det.tsv"), str(CORPUS / "ops")
OPS_REPEATED = str(CORPUS / "ops_repeated")

INVOCATIONS = {
    "counts": ["counts", "--det", DET, "--alpha-ct", "0.5"],
    "f1": ["f1", "--det", DET],
    "f1_collar": ["f1", "--det", DET, "--collar", "0.2"],
    "psds": ["psds", "--det-dir", OPS, "--alpha-ct", "1", "--alpha-st", "1"],
    "psds_repeated": ["psds", "--det-dir", OPS_REPEATED, "--alpha-ct", "1", "--alpha-st", "1"],
    "roc": ["roc", "--det-dir", OPS, "--no-clamp", "--alpha-st", "2"],
}


def _argv(name: str, fmt: str) -> list[str]:
    tables = ["--gt", str(CORPUS / "gt.tsv"), "--durations", str(CORPUS / "durations.tsv")]
    return [*INVOCATIONS[name], *tables, "--format", fmt]


@pytest.mark.parametrize("fmt", ["json", "tsv"])
@pytest.mark.parametrize("name", sorted(INVOCATIONS))
def test_report_bytes(name, fmt, capsys):
    assert main(_argv(name, fmt)) == 0
    expected = (CORPUS / "expected" / f"{name}.{fmt}").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected


if __name__ == "__main__":
    (CORPUS / "expected").mkdir(exist_ok=True)
    for name in INVOCATIONS:
        for fmt in ("json", "tsv"):
            main([*_argv(name, fmt), "--out", str(CORPUS / "expected" / f"{name}.{fmt}")])
