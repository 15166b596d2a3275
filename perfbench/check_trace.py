"""Tracing overhead and count repeatability, per workload.

    python3 perfbench/check_trace.py [--seed 0] [workload ...]

For each workload (all four by default) runs the benchmark untraced and
traced three times each at one seed, for ``run_seconds`` of BENCHMARK.json,
alternating which goes first.
Prints the median untraced ``tokens_per_s``, the median traced
``tracing.tokens_per_s`` and the overhead between them, and checks that
every count (calls, bytes, hits, tokens, ratios of counts) is exactly the
same in all traced runs. Exits 1 if any count moved or a run failed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from inputs import MAKERS
from layers import BENCHMARK, EXACT

HERE = Path(__file__).resolve().parent
PAIRS = 3
SECONDS = BENCHMARK["run_seconds"]


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=600)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {"correct": False}
    if out.returncode != 0 or not result["correct"]:
        raise RuntimeError(f"{workload} trace={trace} failed:\n{out.stderr[-2000:]}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("workloads", nargs="*", default=list(MAKERS))
    args = parser.parse_args()
    ok = True
    print(f"{'workload':20s} {'untraced tok/s':>15s} {'traced tok/s':>13s} {'overhead':>9s}  counts")
    for workload in args.workloads:
        plain, traced = [], []
        for k in range(PAIRS):
            for trace in ((0, 1) if k % 2 == 0 else (1, 0)):
                (traced if trace else plain).append(run(workload, args.seed, SECONDS, trace))
        moved = sorted({n for t in traced[1:] for n in EXACT if t[n] != traced[0][n]})
        ok = ok and not moved
        plain_tps = statistics.median(m["tokens_per_s"] for m in plain)
        traced_tps = statistics.median(m["tracing.tokens_per_s"] for m in traced)
        print(
            f"{workload:20s} {plain_tps:15.1f} {traced_tps:13.1f} {1.0 - traced_tps / plain_tps:9.1%}  "
            f"{'repeat' if not moved else 'MOVED: ' + ', '.join(moved)}",
            flush=True,
        )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
