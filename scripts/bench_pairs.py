"""Run the benchmark in alternating parent/change pairs and record every raw result.

    python3 scripts/bench_pairs.py --parent REV_OR_DIR --change REV_OR_DIR \
        --pairs 5 --out BENCH_<n>.json [--seed 0]

For each workload of ``BENCHMARK.json``, runs ``perfbench/run.py --trace 0``
for the ``run_seconds`` it sets, from the parent checkout and from the
change checkout, ``--pairs`` times each. The parent runs first in even pairs and
the change runs first in odd pairs, so a machine whose speed drifts favours
neither side. Both sides of every pair get the same ``--seed``.

``--out`` gets every run's raw result line (``null`` for a run that printed
none, with the tail of its stderr), its side, seed, pair and order, and is
rewritten after every run, so a stopped script leaves what it finished.
The script computes no statistics and claims nothing.

A side is a git revision of this repository, exported with ``git archive``
into a temporary directory, or a checkout directory, run in place. A
directory is recorded by its git ``HEAD`` (null outside a work tree) and by
the git tree hashes of the code a run reads, ``src`` and ``perfbench``;
``git rev-parse COMMIT:src`` prints the same hash for a commit that holds the
same code, whether or not the directory had committed it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 900


def git(*args: str, **env: str) -> str:
    return subprocess.run(
        ["git", *args], check=True, capture_output=True, text=True, env={**os.environ, **env}
    ).stdout.strip()


def code_trees(where: Path, scratch: Path) -> dict:
    """The git tree hashes of ``src`` and ``perfbench`` as they are in ``where``,
    computed in a throwaway repository so ``where`` is left as it is."""
    repo = scratch / "trees.git"
    if not repo.exists():
        git("init", "-q", "--bare", str(repo))
    tree_of = {"GIT_DIR": str(repo), "GIT_WORK_TREE": str(where.resolve()),
               "GIT_INDEX_FILE": str(scratch / "trees.index")}
    git("read-tree", "--empty", **tree_of)
    git("add", "-A", "src", "perfbench", **tree_of)
    tree = git("write-tree", **tree_of)
    return {name: git("rev-parse", f"{tree}:{name}", GIT_DIR=str(repo)) for name in ("src", "perfbench")}


def checkout(name: str, side: str, scratch: Path) -> tuple[Path, dict]:
    """The directory to run ``side`` from, and how the record names it."""
    if Path(side, "perfbench", "run.py").is_file():
        try:
            head = git("-C", side, "rev-parse", "--verify", "HEAD")
        except subprocess.CalledProcessError:
            head = None
        return Path(side), {"head": head, "trees": code_trees(Path(side), scratch)}
    rev = git("-C", str(ROOT), "rev-parse", "--verify", f"{side}^{{commit}}")
    target = scratch / name
    target.mkdir()
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", rev], check=True, capture_output=True
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(target)], input=archive, check=True)
    return target, {"rev": rev}


def run_once(where: Path, workload: str, seed: int, seconds: int) -> dict:
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    # run.py stops its stub server with SIGINT, which a background shell may ignore
    proc = subprocess.run(
        cmd, cwd=where, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    run = {"started": started, "rc": proc.returncode, "result": result}
    if result is None:
        run["stderr_tail"] = proc.stderr[-2000:]
    return run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]

    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as scratch:
        dirs, names = {}, {}
        for side in ("parent", "change"):
            dirs[side], names[side] = checkout(side, getattr(args, side), Path(scratch))
        record = {
            "command": ["python3", "perfbench/run.py", "--seconds", str(seconds), "--trace", "0"],
            "sides": names,
            "host": {
                "machine": platform.machine(),
                "cpus": os.cpu_count(),
                "python": platform.python_version(),
            },
            "runs": [],
        }
        out = Path(args.out)
        for workload in workloads:
            for pair in range(args.pairs):
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                for position, side in enumerate(order):
                    run = run_once(dirs[side], workload, args.seed, seconds)
                    record["runs"].append(
                        {"workload": workload, "pair": pair, "position": position,
                         "side": side, "seed": args.seed, **run}
                    )
                    out.write_text(json.dumps(record, indent=1) + "\n")
                    value = (run["result"] or {}).get("metrics", {}).get("tokens_per_s", {})
                    print(f"{workload} pair {pair} {side}: rc {run['rc']}, "
                          f"tokens_per_s {value.get('value')}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
