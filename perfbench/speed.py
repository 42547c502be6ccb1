"""Host speed reference: scales measured times to a fixed host speed.

A shared VM can change speed by up to 2x within a fraction of a second,
as other tenants come and go (measured on a 2-vCPU Xeon VM), so raw times
of one run say as much about the neighbours as about the program. While a run
measures, a fixed reference kernel that never calls ``sedscore`` is timed
about every ``PERIOD_S``: between short measured calls, and from a timer
signal during long ones (the CLI invocations). A measured interval is
scaled by ``REFERENCE_S`` over the mean kernel time during it and within
``WINDOW_S`` of it, after the kernel runs inside it are taken out. The
result is the time the interval would take on a host where the kernel
takes ``REFERENCE_S`` seconds.

The kernel sums interval overlaps with the benchmark's own oracle index
over a fixed corpus: float arithmetic, list indexing and bisection, like
the matcher, without allocating containers that would change when the
program's garbage collector runs. A change that slows the whole
interpreter (a global trace hook, say) slows the kernel too and is partly
hidden; the raw times are printed alongside.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

import corpus
from oracle import Oracle, read_rows

# About the median kernel time on a 2-vCPU Intel Xeon VM at 2.1 GHz with
# Python 3.11; scaled times read like raw ones on such a host.
REFERENCE_S = 0.004
PERIOD_S = 0.05
# Kernel runs this close to a measured interval also count toward its
# speed, so that a short interval still averages several of them.
WINDOW_S = 0.25

KERNEL = corpus.Workload(
    name="kernel", n_files=4, file_seconds=600, n_classes=4, n_gt=1200, n_ops=1,
    dets_per_op=900, gt_seconds=(1.0, 8.0), psds_flags=(),
)


class HostSpeed:
    """Samples the reference kernel and scales measured intervals.

    Intervals are ``(start, end)`` pairs of ``time.perf_counter`` readings.
    """

    def __init__(self, root: Path) -> None:
        c = corpus.generate(KERNEL, 0, root)
        oracle = Oracle(read_rows(c.gt), 0.5, 0.5, 0.3)
        self._queries = [
            (oracle.gt_index[(f, label)], on, off)
            for f, on, off, label in read_rows(c.op_path(0))
            if (f, label) in oracle.gt_index
        ]
        self.runs: list[tuple[float, float]] = []
        self._starts: list[float] = []
        self._busy = False

    def kernel(self) -> float:
        total = 0.0
        for index, on, off in self._queries:
            total += index.coverage(on, off)
        return total

    def tick(self, *_signal) -> None:
        """Time one kernel run (also the timer's signal handler)."""
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        self.kernel()
        self.runs.append((start, time.perf_counter()))
        self._starts.append(start)
        self._busy = False

    def maybe_tick(self) -> None:
        """Time a kernel run if none ended in the last ``PERIOD_S``."""
        if not self.runs or time.perf_counter() - self.runs[-1][1] >= PERIOD_S:
            self.tick()

    @contextmanager
    def timer(self) -> Iterator[None]:
        """Time a kernel run every ``PERIOD_S`` while the block runs."""
        previous = signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)

    def kernel_times(self) -> list[float]:
        return [end - start for start, end in self.runs]

    def scaled(self, start: float, end: float) -> tuple[float, float]:
        """(raw, scaled) seconds of ``[start, end]`` outside kernel runs.

        Call after the run, so that kernel runs after the interval count.
        """
        lo = bisect.bisect_left(self._starts, start - WINDOW_S)
        hi = bisect.bisect_right(self._starts, end + WINDOW_S)
        window = self.runs[lo:hi] or self.runs[-1:]
        inside = sum(max(0.0, min(e, end) - max(s, start)) for s, e in window)
        raw = end - start - inside
        return raw, raw * REFERENCE_S / statistics.fmean(e - s for s, e in window)
