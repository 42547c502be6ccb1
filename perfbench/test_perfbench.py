"""Tests of the benchmark itself: corpora, spans, metric names, checks.

Run from the root of the repository with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import re
import time
from pathlib import Path

import pytest

import corpus
import run
import speed as speed_mod
from oracle import Oracle, counts_of, read_rows
from spans import Span, Tracer, covered, self_times, summed_counts
from speed import HostSpeed

sedscore = run.import_program()

from replay import replay  # noqa: E402  (needs the sedscore import path)

TINY = corpus.Workload(
    name="tiny", n_files=4, file_seconds=60, n_classes=3, n_gt=40, n_ops=6,
    dets_per_op=30, gt_seconds=(0.5, 5.0),
    psds_flags=("--dtc", "0.1", "--gtc", "0.1", "--alpha-ct", "0.5", "--alpha-st", "1"),
    report_format="tsv",
)


def _files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*.tsv"))}


@pytest.mark.parametrize("workload", [TINY, corpus.WORKLOADS["long-file"]], ids=lambda w: w.name)
def test_same_seed_gives_identical_bytes(tmp_path, workload):
    a = _files(corpus.generate(workload, 7, tmp_path / "a").root)
    b = _files(corpus.generate(workload, 7, tmp_path / "b").root)
    assert a == b
    assert len(a) == workload.n_ops + 2


def test_other_seed_gives_other_tables(tmp_path):
    a = _files(corpus.generate(TINY, 1, tmp_path / "a").root)
    b = _files(corpus.generate(TINY, 2, tmp_path / "b").root)
    assert a.keys() == b.keys()
    assert a["gt.tsv"] != b["gt.tsv"]
    assert all(a[k] != b[k] for k in a if k.startswith("dets/") and len(a[k]) > 100)


def test_tables_nest_like_a_threshold_sweep(tmp_path):
    c = corpus.generate(TINY, 3, tmp_path / "c")
    tables = [set(read_rows(c.op_path(k))) for k in range(TINY.n_ops)]
    assert all(later <= earlier for earlier, later in zip(tables, tables[1:]))
    assert len(tables[0]) > len(tables[-1])


def test_covered_merges_overlapping_children():
    assert covered(0.0, 10.0, []) == 0.0
    assert covered(0.0, 10.0, [(1.0, 3.0), (2.0, 4.0), (6.0, 7.0)]) == 4.0
    assert covered(0.0, 10.0, [(-5.0, 1.0), (9.0, 12.0)]) == 2.0


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span(0, "cli.psds", 0.0, 10.0, None, "w", None),
        Span(1, "io.parse", 1.0, 3.0, 0, "w", "op_0"),
        Span(2, "matching.count", 3.0, 8.0, 0, "w", "op_0"),
        Span(3, "io.parse", 4.0, 5.0, 2, "w", "op_0"),
    ]
    assert self_times(spans) == {"cli.psds": 3.0, "io.parse": 3.0, "matching.count": 4.0}
    total = sum(self_times(spans).values())
    assert total == spans[0].duration


def test_tracer_nests_spans_and_inherits_the_op():
    tracer = Tracer("w")
    with tracer.span("cli.psds") as root:
        with tracer.span("io.parse", "op_3") as parse:
            with tracer.span("events.validate") as inner:
                inner.counts["rows"] = 5
        with tracer.span("io.emit"):
            pass
    names = [(sp.name, sp.parent, sp.op) for sp in tracer.spans]
    assert names == [
        ("cli.psds", None, None),
        ("io.parse", root.id, "op_3"),
        ("events.validate", parse.id, "op_3"),
        ("io.emit", root.id, None),
    ]
    assert all(sp.start <= sp.end for sp in tracer.spans)
    assert summed_counts(tracer.spans) == {"events.validate.rows": 5}
    assert sum(self_times(tracer.spans).values()) == pytest.approx(root.duration)


def test_metric_names_are_well_formed_and_match_the_manifest():
    pattern = re.compile(r"[A-Za-z0-9_.-]+")
    manifest = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = {m["name"]: m["unit"] for m in manifest["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in manifest["per_layer"]}
    assert end_to_end == run.END_TO_END_UNITS
    assert per_layer == run.PER_LAYER_UNITS
    names = [*end_to_end, *per_layer, *(w["name"] for w in manifest["workloads"])]
    assert all(pattern.fullmatch(name) and len(name) <= 64 for name in names)
    assert len(names) == len(set(names))
    assert {w["name"] for w in manifest["workloads"]} == set(corpus.WORKLOADS)


def test_tail_level_depends_on_the_guaranteed_count_only():
    samples = [float(i) for i in range(1, 201)]
    assert run.tail(samples, 200) == (95.0, 190.0)
    assert run.tail(samples + [1000.0] * 50, 200)[0] == 95.0
    assert run.tail(samples[:40], 40) == (75.0, 30.0)


def test_oracle_agrees_with_count_matrix(tmp_path):
    c = corpus.generate(TINY, 5, tmp_path / "c")
    dataset = sedscore.load_dataset(c.gt, c.durations)
    for dtc, gtc, cttc in [(0.5, 0.5, 0.3), (0.1, 0.9, 0.0), (1.0, 0.0, 1.0)]:
        oracle = Oracle(read_rows(c.gt), dtc, gtc, cttc)
        params = sedscore.EvalParams(dtc, gtc, cttc)
        for k in range(TINY.n_ops):
            rows = sedscore.load_event_table(c.op_path(k))
            dets = sedscore.validate_events(rows, dataset.file_durations)
            matrix = sedscore.count_matrix(dets, dataset, params)
            assert counts_of(matrix) == oracle.counts(read_rows(c.op_path(k)))


@pytest.mark.parametrize("fmt", ["json", "tsv"])
def test_replay_reproduces_the_cli_report(tmp_path, fmt):
    c = corpus.generate(TINY, 9, tmp_path / "c")
    workload = corpus.Workload(**{**TINY.__dict__, "report_format": fmt})
    tracer = Tracer("tiny")
    for argv in workload.invocations(c):
        rc, cli_text, _ = run.run_cli(sedscore.cli, argv)
        assert rc == 0
        assert replay(argv, tracer) == cli_text
    names = {sp.name for sp in tracer.spans}
    assert {"cli.psds", "cli.f1", "matching.count", "matching.collar", "psdroc.pareto"} <= names


def test_replay_psds_equals_psd_roc_from_rates(tmp_path):
    c = corpus.generate(TINY, 11, tmp_path / "c")
    argv = TINY.invocations(c)[0][:-2] + ["--format", "json"]
    counts: dict = {}
    report = json.loads(replay(argv, Tracer("tiny"), counts))
    dataset = sedscore.load_dataset(c.gt, c.durations)
    params = sedscore.EvalParams(0.1, 0.1, 0.3, alpha_ct=0.5, alpha_st=1.0)
    rates = {op: sedscore.compute_rates(m, dataset, params) for op, m in counts.items()}
    assert report["psds"] == sedscore.psd_roc_from_rates(rates, params).psds


def test_scaled_takes_kernel_runs_out_and_rescales(tmp_path):
    speed = HostSpeed(tmp_path / "k")
    ref = speed_mod.REFERENCE_S
    speed.runs = [(0.0, 2 * ref), (1.0, 1.0 + 2 * ref), (9.0, 9.0 + 2 * ref)]
    speed._starts = [s for s, _ in speed.runs]
    raw, scaled = speed.scaled(0.5, 1.5)
    assert raw == pytest.approx(1.0 - 2 * ref)
    assert scaled == pytest.approx(raw / 2)
    # No kernel run near the interval: the latest one sets the speed.
    assert speed.scaled(5.0, 6.0) == pytest.approx((1.0, 0.5))


def test_timer_ticks_during_a_long_call(tmp_path):
    speed = HostSpeed(tmp_path / "k")
    with speed.timer():
        end = time.perf_counter() + 6 * speed_mod.PERIOD_S
        while time.perf_counter() < end:
            pass
    assert len(speed.runs) >= 3
    assert all(s < e for s, e in speed.runs)
