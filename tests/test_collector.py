"""The CLI pauses the cyclic garbage collector for its run, and the run needs none.

``cli.main`` switches the collector off around scoring and writing the
report, and back on afterwards only if it was on, however the run ends.
That is safe only because the scoring path builds no reference cycles,
so reference counting frees everything it makes: the cyclic garbage one
run leaves must not grow with its input.
"""

from __future__ import annotations

import gc
from pathlib import Path

import pytest

from sedscore import cli
from test_golden_reports import CORPUS, INVOCATIONS, _argv

TABLES = ["--gt", CORPUS / "gt.tsv", "--durations", CORPUS / "durations.tsv"]


@pytest.fixture
def collector():
    """Restores the collector's state after a test that switches it."""
    collecting = gc.isenabled()
    yield
    if collecting:
        gc.enable()
    else:
        gc.disable()


DET = ["counts", "--det", CORPUS / "det.tsv", *TABLES]
OVERFLOW = ["psds", "--det-dir", CORPUS / "ops", "--alpha-st", "1e308", "--no-clamp", *TABLES]
ENDINGS = {  # argv, and the exit code or the exception main ends with
    "exit-0": (DET, 0),
    "missing-det-table": (["counts", "--det", CORPUS / "missing.tsv", *TABLES], 1),
    "json-overflow": (OVERFLOW, 1),
    "usage-error": (["counts", *TABLES], SystemExit),
    "unexpected-exception": (DET, RuntimeError),
}


@pytest.mark.usefixtures("collector")
@pytest.mark.parametrize("collecting", [True, False], ids=["on", "off"])
@pytest.mark.parametrize("ending", sorted(ENDINGS))
def test_main_gives_the_collector_back_as_it_found_it(ending, collecting, monkeypatch):
    argv, expected = ENDINGS[ending]
    during = []  # whether the collector ran during each _run
    run = cli._run

    def watched(*args):
        during.append(gc.isenabled())
        if expected is RuntimeError:
            raise RuntimeError("unexpected")
        return run(*args)

    monkeypatch.setattr(cli, "_run", watched)
    if collecting:
        gc.enable()
    else:
        gc.disable()
    argv = [str(a) for a in argv]
    if isinstance(expected, int):
        assert cli.main(argv) == expected
    else:
        with pytest.raises(expected) as raised:
            cli.main(argv)
        if expected is SystemExit:
            assert raised.value.code == 2
    assert gc.isenabled() is collecting
    assert during == ([] if expected is SystemExit else [False])


def _copies(src: Path, dst: Path, times: int) -> None:
    """``src`` with its rows ``times`` over, each copy's file names prefixed with its number."""
    header, *rows = src.read_bytes().splitlines(keepends=True)
    dst.write_bytes(header + b"".join(b"%d-" % k + row for k in range(times) for row in rows))


def _scaled_corpus(root: Path, times: int) -> Path:
    """The golden corpus, every table ``times`` as long under new file names."""
    for src in CORPUS.rglob("*.tsv"):
        dst = root / src.relative_to(CORPUS)
        dst.parent.mkdir(parents=True, exist_ok=True)
        _copies(src, dst, times)
    return root


def _garbage(argv: list[str]) -> int:
    """The unreachable cycles one paused run of ``argv``, report included, leaves."""
    args = cli.build_parser().parse_args(argv)
    params, collar = cli._eval_params(args), cli._collar_params(args)
    gc.collect()
    gc.disable()
    cli.emit_report(cli._run(args, params, collar), args.format)
    return gc.collect()


@pytest.mark.usefixtures("collector")
@pytest.mark.parametrize("fmt", ["json", "tsv"])
@pytest.mark.parametrize("name", sorted(INVOCATIONS))
def test_scoring_builds_no_cyclic_garbage_that_grows_with_its_input(name, fmt, tmp_path):
    golden = _argv(name, fmt)
    large = [a.replace(str(CORPUS), str(_scaled_corpus(tmp_path, 10))) for a in golden]
    _garbage(golden)  # lazy set-up, such as a first import, is not the run's garbage
    found = _garbage(golden)
    assert _garbage(large) == found
    if fmt == "tsv":
        assert found == 0
