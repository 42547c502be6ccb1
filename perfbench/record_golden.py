#!/usr/bin/env python3
"""Record the golden report digests of every workload for a range of seeds.

Usage, from the root of the repository:

    python3 perfbench/record_golden.py --seeds 0-39

For each workload and seed it generates the corpus, runs the workload's
CLI invocations once, checks every op's counts against the independent
oracle, and stores the SHA-256 of each report in ``golden.json``. Re-record
only when a change is meant to alter the reports or the corpora, and say
so in the change's description.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile

import corpus
import run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True, help="inclusive range such as 0-39")
    args = parser.parse_args()
    lo, _, hi = args.seeds.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    sedscore = run.import_program()
    golden = json.loads(run.GOLDEN.read_text(encoding="utf-8")) if run.GOLDEN.is_file() else {}
    run.WORK.mkdir(parents=True, exist_ok=True)
    for name in corpus.WORKLOADS:
        for seed in seeds:
            tmp = tempfile.mkdtemp(prefix=f"golden-{name}-{seed}-", dir=run.WORK)
            try:
                bench = run.Bench(sedscore, corpus.WORKLOADS[name], seed, run.Path(tmp) / "c")
                bench.reference = None
                bench.cli_pass()
                dataset = sedscore.load_dataset(bench.corpus.gt, bench.corpus.durations)
                bench.op_sweep(dataset)
            finally:
                shutil.rmtree(tmp, ignore_errors=True)
            if bench.tally.failed:
                print(f"{name} seed {seed}: {bench.tally.reasons}", file=sys.stderr)
                return 1
            golden.setdefault(name, {})[str(seed)] = bench.reference
            print(f"{name} seed {seed}: {[d[:12] for d in bench.reference]}")
    golden = {name: dict(sorted(golden[name].items(), key=lambda kv: int(kv[0])))
              for name in sorted(golden)}
    run.GOLDEN.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
