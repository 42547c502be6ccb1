"""Seeded synthetic corpora for the three benchmark workloads.

A corpus is a ground-truth table, a durations table and one detection
table per operating point (op). Every detection candidate carries a
score, and op ``k`` holds the candidates whose score reaches its
threshold, so the tables nest the way a real threshold sweep does. The
thresholds are driven by the scores: op ``k`` of ``n`` keeps the top
``(n - k) / n`` of the candidates, so table sizes do not depend on the
seed and neither does the work per op.

All times are multiples of 1/32 s written with five decimals. They parse
to exact binary fractions, so coverage sums are exact in floats whatever
order they are added in, and an independent counter gives the same
verdicts as the program. The same seed gives byte-identical files.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

TICKS_PER_SECOND = 32
SCORE_LEVELS = 100_000


@dataclass(frozen=True)
class Workload:
    """Shape of one workload's corpus and the CLI invocations run on it."""

    name: str
    n_files: int
    file_seconds: int
    n_classes: int
    n_gt: int
    n_ops: int
    dets_per_op: int
    gt_seconds: tuple[float, float]
    psds_flags: tuple[str, ...]
    report_format: str = "json"

    def invocations(self, corpus: "Corpus") -> list[list[str]]:
        """The ``sedscore`` argument lists of one pass over the corpus."""
        common = ["--gt", str(corpus.gt), "--durations", str(corpus.durations)]
        return [
            ["psds", *common, "--det-dir", str(corpus.det_dir), *self.psds_flags,
             "--format", self.report_format],
            # The collar baseline on the middle op, the paper's comparison.
            ["f1", *common, "--det", str(corpus.middle_op), "--collar", "0.2"],
        ]


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        # DCASE-2019-validation scale: many short files, so parsing and
        # validation take their largest share of any workload.
        Workload(
            name="dcase-val", n_files=1168, file_seconds=10, n_classes=10, n_gt=3500,
            n_ops=50, dets_per_op=3000, gt_seconds=(0.25, 6.0), psds_flags=(),
        ),
        # Two long recordings: all-pairs matching per file dominates, and
        # the collar baseline pays the same per-file pairing.
        Workload(
            name="long-file", n_files=2, file_seconds=3 * 3600, n_classes=10, n_gt=1200,
            n_ops=10, dets_per_op=1050, gt_seconds=(1.0, 12.0),
            psds_flags=("--dtc", "0.7", "--gtc", "0.7", "--alpha-st", "1"),
        ),
        # Score-driven fine thresholds on tiny tables: the Pareto filter
        # and the class-curve merge dominate; TSV output reads class_roc.
        Workload(
            name="fine-sweep", n_files=20, file_seconds=10, n_classes=10, n_gt=60,
            n_ops=2000, dets_per_op=55, gt_seconds=(0.5, 4.0),
            psds_flags=("--dtc", "0.1", "--gtc", "0.1", "--cttc", "0.3",
                        "--alpha-ct", "0.5", "--alpha-st", "1"),
            report_format="tsv",
        ),
    )
}


@dataclass(frozen=True)
class Corpus:
    """Paths of one generated corpus."""

    root: Path
    n_ops: int

    @property
    def gt(self) -> Path:
        return self.root / "gt.tsv"

    @property
    def durations(self) -> Path:
        return self.root / "durations.tsv"

    @property
    def det_dir(self) -> Path:
        return self.root / "dets"

    def op_path(self, k: int) -> Path:
        return self.det_dir / f"op_{k:04d}.tsv"

    @property
    def middle_op(self) -> Path:
        return self.op_path(self.n_ops // 2)


def _fmt(ticks: int) -> str:
    return f"{ticks / TICKS_PER_SECOND:.5f}"


def _rows(events: list[tuple[str, int, int, str]]) -> str:
    lines = ["filename\tonset\toffset\tevent_label"]
    lines.extend(f"{f}\t{_fmt(on)}\t{_fmt(off)}\t{c}" for f, on, off, c in events)
    return "\n".join(lines) + "\n"


def _clip(value: int, lo: int, hi: int) -> int:
    return max(lo, min(hi, value))


def _event(rng: random.Random, file_ticks: int, lo_s: float, hi_s: float) -> tuple[int, int]:
    length = _clip(round(rng.uniform(lo_s, hi_s) * TICKS_PER_SECOND), 1, file_ticks)
    onset = rng.randrange(0, file_ticks - length + 1)
    return onset, onset + length


def _score(rng: random.Random, mean: float) -> int:
    return _clip(round(rng.gauss(mean, 0.2) * SCORE_LEVELS), 0, SCORE_LEVELS - 1)


def generate(workload: Workload, seed: int, root: Path) -> Corpus:
    """Write the corpus of ``workload`` for ``seed`` under ``root``.

    ``root`` must not exist yet. The generator only calls the seeded
    ``random.Random``, so the output depends on nothing but its arguments.
    """
    w = workload
    rng = random.Random(f"{w.name}/{seed}")
    files = [f"{w.name}_{i:04d}.wav" for i in range(w.n_files)]
    classes = [f"class_{i:02d}" for i in range(w.n_classes)]
    file_ticks = w.file_seconds * TICKS_PER_SECOND

    gt = []
    for i in range(w.n_gt):
        onset, offset = _event(rng, file_ticks, *w.gt_seconds)
        # The first events cover every class, so no detection label is unknown.
        label = classes[i] if i < w.n_classes else rng.choice(classes)
        gt.append((files[i % w.n_files], onset, offset, label))
    gt.sort()

    # Twice the mean table size, as the tables keep on average half of them.
    candidates = []
    jitter = max(1, round(0.15 * w.gt_seconds[1] * TICKS_PER_SECOND))
    while len(candidates) < 2 * w.dets_per_op:
        roll = rng.random()
        if roll < 0.55:
            # Jittered copy of a ground truth, sometimes split in two.
            f, on, off, c = rng.choice(gt)
            on = _clip(on + rng.randint(-jitter, jitter), 0, file_ticks - 1)
            off = _clip(off + rng.randint(-jitter, jitter), on + 1, file_ticks)
            score = _score(rng, 0.65)
            if rng.random() < 0.2 and off - on >= 2:
                cut = rng.randint(on + 1, off - 1)
                candidates.append((score, f, on, cut, c))
                candidates.append((_score(rng, 0.6), f, cut, off, c))
            else:
                candidates.append((score, f, on, off, c))
        elif roll < 0.7:
            # Ground truth detected under another class: a cross-trigger.
            f, on, off, c = rng.choice(gt)
            other = rng.choice([k for k in classes if k != c])
            candidates.append((_score(rng, 0.45), f, on, off, other))
        else:
            # Plain false alarm anywhere in the corpus.
            on, off = _event(rng, file_ticks, *w.gt_seconds)
            candidates.append((_score(rng, 0.35), rng.choice(files), on, off, rng.choice(classes)))
    candidates = candidates[: 2 * w.dets_per_op]
    candidates.sort(key=lambda cand: (-cand[0], cand[1:]))

    det_dir = root / "dets"
    det_dir.mkdir(parents=True)
    (root / "durations.tsv").write_text(
        "filename\tduration\n" + "".join(f"{f}\t{w.file_seconds}\n" for f in files),
        encoding="utf-8",
    )
    (root / "gt.tsv").write_text(_rows(gt), encoding="utf-8")
    corpus = Corpus(root=root, n_ops=w.n_ops)
    for k in range(w.n_ops):
        kept = candidates[: len(candidates) * (w.n_ops - k) // w.n_ops]
        corpus.op_path(k).write_text(_rows(sorted(c[1:] for c in kept)), encoding="utf-8")
    return corpus
