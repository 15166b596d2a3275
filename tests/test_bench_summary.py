"""``scripts/bench_summary.py`` reproduces the figures a bench record's change log cites."""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "bench_summary.py"


def load_script():
    spec = importlib.util.spec_from_file_location("bench_summary", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_13_remote_tokens_per_s():
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "BENCH_13.json"], cwd=ROOT, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert "not correct: parent 0, change 0" in proc.stdout
    (row,) = [cells for cells in map(str.split, proc.stdout.splitlines()) if cells[:2] == ["remote-stub-v4k", "tokens_per_s"]]
    assert row[2:] == ["647", "(581–659)", "772", "(751–837)", "1.193", "10/10", "yes", "yes"]


def run(workload: str, side: str, pair: int, **metrics) -> dict:
    result = {"correct": True, "metrics": {k: {"value": v} for k, v in metrics.items()}}
    return {"workload": workload, "side": side, "pair": pair, "result": result}


def test_pairs_are_won_in_the_better_direction_and_ties_count_for_neither():
    benchmark = {
        "workloads": [{"name": "w"}],
        "end_to_end": [
            {"name": "fast", "unit": "1/s", "better": "higher", "bound": 0.25},
            {"name": "mem", "unit": "MB", "better": "lower", "bound": 0.1},
        ],
    }
    parent = [(10.0, 50.0), (10.0, 50.0), (10.0, 50.0), (12.0, 50.0)]
    change = [(11.0, 49.0), (10.0, 56.0), (9.0, 56.0), (13.0, 56.0)]
    runs = [run("w", "parent", i, fast=f, mem=m) for i, (f, m) in enumerate(parent)]
    runs += [run("w", "change", i, fast=f, mem=m) for i, (f, m) in enumerate(change)]
    runs.append({"workload": "w", "side": "change", "pair": 4, "result": None})  # a failed run
    fast, mem = load_script().summarize({"runs": runs}, benchmark)
    assert (fast["won"], fast["pairs"], fast["within_bound"]) == (2, 4, True)
    assert fast["parent"] == (10.0, 10.0, 10.5) and fast["change"] == (10.5, 9.75, 11.5)
    assert fast["gap_over_iqr"] is False  # 0.5 is not more than the parent's 0.5
    assert (mem["won"], mem["within_bound"]) == (1, False)  # 56 > 50 · 1.1
    assert json.loads(json.dumps(mem))  # plain data
