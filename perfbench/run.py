"""rsdkit benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload short-table-v4k --seed 3 --seconds 25 --trace 0

Generates the workload's inputs from the seed, then runs the rsdkit command
(``generate`` or ``analyze``) again and again, each time in a fresh process,
until ``--seconds`` have passed (at least three times). Every command's
output must hash the same; the last one goes through the output checks in
``checks.py``. The last line of stdout is the result:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, each the median over the
commands of the run. ``--trace 1`` wraps every layer (``child.py``,
``stubproc.py``) and reports the per-layer metrics of ``layers.py`` instead,
also as medians over commands. ``attempted`` counts decode attempts
(``analyze``: commands), ``failed`` those that recorded an error.

Must run from a checkout holding ``src/rsdkit``; the inputs, outputs and
logs live under ``.bench_work/`` and are removed after a correct run.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import (
    GOLDEN_SEED,
    CheckFailed,
    check_analyze,
    check_generate,
    check_golden,
    ensure,
    sha256_file,
    sha256_tree,
)
from inputs import MAKERS, write_remote_client
from layers import END_TO_END, EXACT, UNITS, Spans, command_metrics
from stubproc import StubProcess
from tracing import load_spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_COMMANDS = 3
COMMAND_TIMEOUT_S = 150


def run_command(work: Path, argv: list[str], tag: str, trace: bool) -> dict:
    """One rsdkit command in a fresh process; returns ``child.py``'s report
    plus the spawn time and, when traced, the spans."""
    result_path = work / f"cmd-{tag}.json"
    spans_path = work / f"spans-{tag}.json"
    log = work / f"cmd-{tag}.log"
    cmd = [sys.executable, str(HERE / "child.py"), "--result", str(result_path)]
    if trace:
        cmd += ["--spans", str(spans_path)]
    cmd += ["--", *argv]
    t_spawn = time.monotonic_ns()
    with open(log, "wb") as err:
        proc = subprocess.run(
            cmd, cwd=work, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
            timeout=COMMAND_TIMEOUT_S,
        )
    tail = log.read_text(errors="replace")[-2000:]
    if proc.returncode != 0 or not result_path.exists():
        raise CheckFailed(f"{' '.join(argv)}: harness exited {proc.returncode}:\n{tail}")
    result = json.loads(result_path.read_text())
    if result["rc"] != 0:
        raise CheckFailed(f"{' '.join(argv)}: rsdkit exited {result['rc']}:\n{tail}")
    result["t_spawn"] = t_spawn
    if trace:
        result["spans"] = load_spans(spans_path)
        spans_path.unlink()
    return result


def end_to_end(result: dict, tokens: int, problems: int) -> dict[str, float]:
    work_s = (result["t_end"] - result["t_setup_end"]) * 1e-9
    m = {
        "setup_s": (result["t_setup_end"] - result["t_spawn"]) * 1e-9,
        "tokens_per_s": tokens / work_s,
        "problems_per_s": problems / work_s,
        "peak_rss_mb": result["maxrss_kb"] / 1024.0,
    }
    assert set(m) == {name for name, _ in END_TO_END}, sorted(m)
    return m


class Workload:
    """Runs the commands of one workload and checks what they wrote."""

    def __init__(self, name: str, seed: int, work: Path, trace: bool) -> None:
        self.name = name
        self.seed = seed
        self.work = work
        self.trace = trace
        self.inputs = MAKERS[name](work, seed)
        self.digest: str | None = None
        self.results: list[dict] = []

    @property
    def analyze(self) -> bool:
        return self.inputs["kind"] == "analyze"

    def analysis_dir(self, i: int) -> Path:
        # a fresh directory per command: rewriting a thousand existing CSV
        # files got slower from command to command
        return self.work / f"analysis-{i}"

    def argv(self, i: int) -> list[str]:
        if self.analyze:
            return ["analyze", str(self.inputs["dataset"]), "--out", str(self.analysis_dir(i))]
        return ["generate", str(self.inputs["config"])]

    def output_digest(self, i: int) -> str:
        if self.analyze:
            return sha256_tree(self.analysis_dir(i))
        return sha256_file(self.work / "out" / "dataset.jsonl")

    def run(self, seconds: float) -> None:
        start = time.monotonic()
        while len(self.results) < MIN_COMMANDS or time.monotonic() - start < seconds:
            i = len(self.results)
            result = run_command(self.work, self.argv(i), str(i), self.trace)
            digest = self.output_digest(i)
            ensure(self.digest in (None, digest), f"command {i} wrote different bytes")
            self.digest = digest
            self.results.append(result)
            if self.analyze and i > 0:
                shutil.rmtree(self.analysis_dir(i - 1))

    def check(self) -> None:
        scratch = self.work / "reexport.jsonl"
        if self.analyze:
            check_analyze(self.inputs, self.analysis_dir(len(self.results) - 1), scratch)
        else:
            check_generate(self.inputs, self.work / "out" / "dataset.jsonl", self.work / "out" / "report.json", scratch)
        check_golden(self.name, self.seed, self.digest)

    def tokens_problems(self, result: dict) -> tuple[int, int]:
        if self.analyze:
            return self.inputs["tokens"], self.inputs["records"]
        return result["work"]["tokens"], result["work"]["problems"]

    def attempted_failed(self) -> tuple[int, int]:
        if self.analyze:
            return len(self.results), 0
        return (
            sum(r["work"]["attempts"] for r in self.results),
            sum(r["work"]["failed"] for r in self.results),
        )


def run_remote(wl: Workload, seconds: float) -> list:
    """Commands against the stub in its own process, then the same models
    in-process: the two datasets must be byte-identical."""
    server_spans = wl.work / "server-spans.json" if wl.trace else None
    with StubProcess(wl.inputs["serve"], wl.work / "stub.log", server_spans) as stub:
        write_remote_client(wl.inputs, stub.base_url)
        wl.run(seconds)
        rc = stub.stop()
    ensure(rc == 0, f"stub server exited {rc}: {(wl.work / 'stub.log').read_text()[-2000:]}")
    run_command(wl.work, ["generate", str(wl.inputs["serve"])], "inproc", trace=False)
    ensure(
        sha256_file(wl.work / "inproc" / "dataset.jsonl") == wl.digest,
        "remote dataset differs from the in-process dataset of the same models",
    )
    if server_spans is None:
        return [None] * len(wl.results)
    dump = load_spans(server_spans)
    return [Spans(dump, (r["t_spawn"], r["t_end"])) for r in wl.results]


def median_metrics(per_command: list[dict[str, float]], units: dict[str, str]) -> dict:
    return {
        name: {"value": statistics.median(m[name] for m in per_command), "unit": unit}
        for name, unit in units.items()
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(MAKERS))
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    src = ROOT / "src"
    if not (src / "rsdkit" / "cli.py").is_file():
        print(f"rsdkit sources not found under {src}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    work = ROOT / ".bench_work" / f"{args.workload}-s{args.seed}-t{args.trace}-{time.time_ns()}"
    work.mkdir(parents=True)
    wl = Workload(args.workload, args.seed, work, bool(args.trace))
    correct = True
    metrics: dict = {}
    try:
        if args.workload == "remote-stub-v4k":
            servers = run_remote(wl, args.seconds)
        else:
            wl.run(args.seconds)
            servers = [None] * len(wl.results)
        wl.check()
        if args.trace:
            per_command = [
                command_metrics(r, r["spans"], s, wl.tokens_problems(r)[0])
                for r, s in zip(wl.results, servers)
            ]
            metrics = median_metrics(per_command, UNITS)
            for i, m in enumerate(per_command[1:], start=1):
                moved = [n for n in EXACT if m[n] != per_command[0][n]]
                ensure(not moved, f"counts differ between commands 0 and {i}: {moved}")
        else:
            per_command = [end_to_end(r, *wl.tokens_problems(r)) for r in wl.results]
            metrics = median_metrics(per_command, dict(END_TO_END))
    except (CheckFailed, subprocess.TimeoutExpired, RuntimeError) as exc:
        print(f"{args.workload} seed {args.seed}: {exc}", file=sys.stderr)
        correct = False
    attempted, failed = wl.attempted_failed()
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1), "failed": failed, "metrics": metrics}))
    if correct:
        shutil.rmtree(work)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
