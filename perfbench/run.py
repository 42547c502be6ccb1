#!/usr/bin/env python3
"""Benchmark of the sedscore scoring pipeline on seeded synthetic corpora.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload dcase-val --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30

``--trace 0`` drives the real CLI in-process through ``sedscore.cli.main``
and reports the end-to-end metrics; ``--trace 1`` alternates untraced CLI
passes with a traced replay of the same pipeline and reports per-layer
metrics. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import resource
import shutil
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

import corpus
from oracle import Oracle, counts_of, read_rows
from spans import Tracer, self_times, summed_counts
from speed import REFERENCE_S, HostSpeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
GOLDEN = HERE / "golden.json"

# Every measured run makes at least this many cycles (one CLI pass plus one
# sweep of per-op scoring), whatever --seconds says, so that medians rest on
# several samples and the tail percentile is the same on every run.
MIN_CYCLES = 4
TAIL_LEVELS = (99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "peak_rss_mb": "MB",
}

# Per-layer time metrics: metric name -> span name whose self time it sums.
LAYER_TIMES = {
    "io.parse_s": "io.parse",
    "events.validate_s": "events.validate",
    "events.dataset_s": "events.dataset",
    "matching.count_s": "matching.count",
    "matching.collar_s": "matching.collar",
    "rates.rates_s": "rates.rates",
    "psdroc.pareto_s": "psdroc.pareto",
    "psdroc.staircase_s": "psdroc.staircase",
    "psdroc.merge_s": "psdroc.merge",
    "io.report_build_s": "io.report_build",
    "io.emit_s": "io.emit",
}
# Per-layer counts: metric name -> "<span name>.<count>" summed over spans.
LAYER_COUNTS = {
    "io.rows_parsed": "io.parse.rows",
    "matching.dets_scored": "matching.count.dets",
    "matching.n_tp": "matching.count.n_tp",
    "matching.n_fp": "matching.count.n_fp",
    "matching.cross_triggers": "matching.count.cross_triggers",
    "psdroc.points_in": "psdroc.pareto.points_in",
    "psdroc.points_kept": "psdroc.pareto.points_kept",
    "psdroc.grid_points": "psdroc.merge.grid_points",
    "psdroc.breakpoints": "psdroc.staircase.breakpoints",
    "io.report_bytes": "io.emit.bytes",
}
PER_LAYER_UNITS = {
    **{name: "s" for name in LAYER_TIMES},
    **{name: "count" for name in LAYER_COUNTS},
    "io.parse_us_per_row": "us",
    "events.validate_us_per_row": "us",
    "matching.count_us_per_det": "us",
    "psdroc.kept_ratio": "ratio",
    "io.report_bytes": "bytes",
    "cli.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


class ProgramMissing(Exception):
    """The checkout holds no sedscore sources to benchmark."""


def import_program():
    """Import ``sedscore`` from this checkout's ``src``, never from elsewhere."""
    package = ROOT / "src" / "sedscore"
    if not (package / "__init__.py").is_file():
        raise ProgramMissing(f"no sedscore sources at {package}")
    sys.path.insert(0, str(ROOT / "src"))
    import sedscore
    import sedscore.cli

    if Path(sedscore.__file__).resolve().parent != package.resolve():
        raise ProgramMissing(f"sedscore imported from {sedscore.__file__}, not {package}")
    return sedscore


def tail(samples: list[float], guaranteed: int) -> tuple[float, float]:
    """(level, value) of the highest percentile in TAIL_LEVELS that has at
    least TAIL_BEYOND samples beyond it in a run of ``guaranteed`` samples.

    The level depends only on the guaranteed count, so it is the same on
    every run even when a run collects more samples.
    """
    for level in TAIL_LEVELS:
        if guaranteed - math.ceil(level / 100 * guaranteed) >= TAIL_BEYOND:
            break
    ordered = sorted(samples)
    rank = max(1, math.ceil(level / 100 * len(ordered)))
    return level, ordered[rank - 1]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class Tally:
    """Operations attempted and failed, with the reason of each failure."""

    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def record(self, ok: bool, reason: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append(reason)


def run_cli(cli, argv: list[str]) -> tuple[int, str, tuple[float, float]]:
    """One in-process CLI invocation: (exit code, stdout, (start, end))."""
    out = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # an uncaught error would end a real CLI process with exit 1
        traceback.print_exc()
        rc = 1
    return rc, out.getvalue(), (start, time.perf_counter())


class Bench:
    """One workload's corpus, reference results and measurement loops."""

    def __init__(self, sedscore, workload, seed: int, root: Path) -> None:
        self.sedscore = sedscore
        self.workload = workload
        self.corpus = corpus.generate(workload, seed, root)
        self.calls = workload.invocations(self.corpus)
        from replay import eval_params  # imports sedscore, so only once it is on the path

        args = sedscore.cli.build_parser().parse_args(self.calls[0])
        self.params = eval_params(args)
        self.op_paths = sorted(self.corpus.det_dir.glob("*.tsv"), key=lambda p: p.name)
        oracle = Oracle(read_rows(self.corpus.gt), args.dtc, args.gtc, args.cttc)
        self.expected = {p.stem: oracle.counts(read_rows(p)) for p in self.op_paths}
        golden = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.is_file() else {}
        self.golden: list[str] | None = golden.get(workload.name, {}).get(str(seed))
        self.reference = self.golden
        self.tally = Tally()
        self.notes: list[str] = []

    @property
    def ops_scored(self) -> int:
        """Tables scored by one pass of the workload's invocations."""
        return len(self.op_paths) + len(self.calls) - 1

    def check_reports(self, texts: list[str], rcs: list[int]) -> None:
        digests = [digest(t) for t in texts]
        if self.reference is None and all(rc == 0 for rc in rcs):
            self.reference = digests
        for i, (d, rc) in enumerate(zip(digests, rcs)):
            ok = rc == 0 and self.reference is not None and d == self.reference[i]
            self.tally.record(ok, f"{self.calls[i][0]}: exit {rc}, digest {d[:12]}")

    def cli_pass(self, speed: HostSpeed | None = None) -> tuple[list[tuple[float, float]], list[str]]:
        """One pass of the workload's invocations: their intervals and reports.

        With ``speed``, its kernel runs on a timer during each invocation.
        """
        texts, rcs, intervals = [], [], []
        for argv in self.calls:
            with speed.timer() if speed else contextlib.nullcontext():
                rc, text, interval = run_cli(self.sedscore.cli, argv)
            texts.append(text)
            rcs.append(rc)
            intervals.append(interval)
        self.check_reports(texts, rcs)
        return intervals, texts

    def time_setup(self, speed: HostSpeed) -> list[tuple[float, float]]:
        """``load_dataset`` intervals: at least 11 and 0.5 s worth."""
        intervals: list[tuple[float, float]] = []
        while len(intervals) < 11 or (
            sum(e - s for s, e in intervals) < 0.5 and len(intervals) < 2000
        ):
            speed.maybe_tick()
            start = time.perf_counter()
            self.sedscore.load_dataset(self.corpus.gt, self.corpus.durations)
            intervals.append((start, time.perf_counter()))
        return intervals

    def op_sweep(self, dataset, speed: HostSpeed | None = None) -> list[tuple[float, float]]:
        """Intervals of scoring each table against the loaded dataset."""
        s = self.sedscore
        intervals = []
        for path in self.op_paths:
            if speed:
                speed.maybe_tick()
            start = time.perf_counter()
            rows = s.load_event_table(path)
            detections = s.validate_events(
                rows, dataset.file_durations, allowed_classes=dataset.classes, source=str(path)
            )
            counts = s.count_matrix(detections, dataset, self.params)
            s.compute_rates(counts, dataset, self.params)
            intervals.append((start, time.perf_counter()))
            self.tally.record(counts_of(counts) == self.expected[path.stem],
                              f"{path.stem}: counts differ from the oracle")
        return intervals

    def measure(self, seconds: float, speed: HostSpeed) -> dict[str, float]:
        """End-to-end metrics, tracing off, scaled to the reference speed."""
        passes: list[list[tuple[float, float]]] = []
        ops: list[tuple[float, float]] = []
        setup = self.time_setup(speed)
        dataset = self.sedscore.load_dataset(self.corpus.gt, self.corpus.durations)
        start = time.perf_counter()
        while len(passes) < MIN_CYCLES or time.perf_counter() - start < seconds:
            passes.append(self.cli_pass(speed)[0])
            ops += self.op_sweep(dataset, speed)
        speed.tick()
        setup_raw, setup_scaled = zip(*(speed.scaled(*iv) for iv in setup))
        op_raw, op_scaled = zip(*(speed.scaled(*iv) for iv in ops))
        pass_raw = [sum(speed.scaled(*iv)[0] for iv in p) for p in passes]
        walls = [sum(speed.scaled(*iv)[1] for iv in p) for p in passes]
        setup_s = median(setup_scaled)
        setup_in_pass = len(self.calls) * setup_s
        level, tail_s = tail(op_scaled, MIN_CYCLES * len(self.op_paths))
        self.notes = [
            f"op_ms_tail is p{level:g} of {len(op_scaled)} samples",
            f"{len(walls)} CLI passes of {len(self.calls)} invocations, "
            f"{self.ops_scored} tables scored per pass",
            f"raw (unscaled) medians: wall {median(pass_raw):.4f} s, "
            f"setup {median(setup_raw):.6f} s, op p50 {median(op_raw) * 1e3:.4f} ms",
            f"reference kernel median {median(speed.kernel_times()):.6f} s "
            f"over {len(speed.runs)} runs, reference {REFERENCE_S} s",
        ]
        return {
            "wall_s": median(walls),
            "setup_s": setup_s,
            "ops_per_s": median([self.ops_scored / (w - setup_in_pass) for w in walls]),
            "op_ms_p50": median(op_scaled) * 1e3,
            "op_ms_tail": tail_s * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }

    def measure_traced(self, seconds: float, trace_path: Path) -> dict[str, float]:
        """Per-layer metrics from traced replays, alternated with CLI passes."""
        from replay import replay  # imports sedscore, so only once it is on the path

        untraced: list[float] = []
        traced: list[float] = []
        layer_times: dict[str, list[float]] = {}
        counts: dict[str, int] | None = None
        tracer = Tracer(self.workload.name)
        start = time.perf_counter()
        while len(traced) < MIN_CYCLES or time.perf_counter() - start < seconds:
            intervals, cli_texts = self.cli_pass()
            untraced.append(sum(e - s for s, e in intervals))
            first = len(tracer.spans)
            op_counts: dict = {}
            texts = []
            for argv in self.calls:
                texts.append(replay(argv, tracer, op_counts))
            spans = tracer.spans[first:]
            traced.append(sum(sp.duration for sp in spans if sp.parent is None))
            for i, text in enumerate(texts):
                self.tally.record(text == cli_texts[i],
                                  f"replay of {self.calls[i][0]} differs from the CLI report")
            for op, matrix in op_counts.items():
                self.tally.record(counts_of(matrix) == self.expected[op],
                                  f"replay {op}: counts differ from the oracle")
            pass_counts = summed_counts(spans)
            self.tally.record(counts is None or pass_counts == counts,
                              "per-layer counts differ between traced passes")
            counts = pass_counts
            selfs = self_times(spans)
            for metric, name in LAYER_TIMES.items():
                layer_times.setdefault(metric, []).append(selfs.get(name, 0.0))
            layer_times.setdefault("cli.self_s", []).append(
                sum(v for k, v in selfs.items() if k.startswith("cli."))
            )
        tracer.write(trace_path)
        metrics = {metric: median(values) for metric, values in layer_times.items()}
        for metric, key in LAYER_COUNTS.items():
            metrics[metric] = counts.get(key, 0)
        metrics["io.parse_us_per_row"] = metrics["io.parse_s"] / metrics["io.rows_parsed"] * 1e6
        metrics["events.validate_us_per_row"] = (
            metrics["events.validate_s"] / counts["events.validate.rows"] * 1e6
        )
        metrics["matching.count_us_per_det"] = (
            metrics["matching.count_s"] / metrics["matching.dets_scored"] * 1e6
        )
        metrics["psdroc.kept_ratio"] = metrics["psdroc.points_kept"] / metrics["psdroc.points_in"]
        metrics["trace.wall_s"] = median(traced)
        metrics["trace.overhead_s"] = median(traced) - median(untraced)
        self.notes = [
            f"{len(traced)} traced passes; spans written to {trace_path.relative_to(ROOT)}",
        ]
        return metrics


def run_workload(sedscore, name: str, seed: int, seconds: float, trace: bool) -> dict:
    WORK.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=WORK))
    try:
        bench = Bench(sedscore, corpus.WORKLOADS[name], seed, tmp / "corpus")
        if trace:
            values = bench.measure_traced(seconds, WORK / "traces" / f"{name}-seed{seed}.jsonl")
            units = PER_LAYER_UNITS
        else:
            values = bench.measure(seconds, HostSpeed(tmp / "kernel"))
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    tally = bench.tally
    golden = "golden digests" if bench.golden is not None else "no golden digest for this seed"
    for metric in units:
        print(f"{name:<11} {metric:<28} {values[metric]:>16.6f} {units[metric]}")
    print(f"{name:<11} failed_frac {tally.failed}/{tally.attempted} ({golden}; "
          "counts checked against the oracle)")
    for note in bench.notes:
        print(f"{name:<11} {note}")
    for reason in tally.reasons:
        print(f"{name:<11} FAILED {reason}", file=sys.stderr)
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m: {"value": values[m], "unit": units[m]} for m in units},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*corpus.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        sedscore = import_program()
    except ProgramMissing as exc:
        print(f"perfbench: error: {exc}", file=sys.stderr)
        return 2
    names = list(corpus.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {
        name: run_workload(sedscore, name, args.seed, args.seconds, bool(args.trace))
        for name in names
    }
    if len(results) == 1:
        result = results[args.workload]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": value
                for name, r in results.items()
                for metric, value in r["metrics"].items()
            },
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
