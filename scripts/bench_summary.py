"""Summarize a ``scripts/bench_pairs.py`` record against ``BENCHMARK.json``.

    python3 scripts/bench_summary.py BENCH_<n>.json

For each workload and each end-to-end metric of ``BENCHMARK.json``, prints
one row:

- each side's median and its q1–q3 (``statistics.quantiles``, inclusive
  method, the same as numpy's default percentiles);
- the change/parent ratio of the medians;
- the pairs the change won, in the metric's ``better`` direction (a tie
  counts for neither side), out of the pairs where both runs gave a result;
- ``bound``: whether the change's median is within the metric's bound of
  the parent's (``yes`` or ``NO``);
- ``gap>iqr``: whether the medians differ, in the better direction, by more
  than the parent's q3 − q1.

A run counts only when it printed a result with ``"correct": true``; the
header line names each side's count of runs that did not.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(record: dict, benchmark: dict) -> list[dict]:
    """One row per (workload, end-to-end metric) that has runs on both sides."""
    values: dict[tuple[str, str, int], dict] = {}
    for run in record["runs"]:
        result = run.get("result")
        if result and result.get("correct"):
            values[(run["workload"], run["side"], run["pair"])] = result["metrics"]
    rows = []
    for workload in [w["name"] for w in benchmark["workloads"]]:
        pairs = sorted({p for (w, _, p) in values if w == workload})
        for metric in benchmark["end_to_end"]:
            name, higher = metric["name"], metric["better"] == "higher"
            side = {
                s: [values[(workload, s, p)][name]["value"] for p in pairs if (workload, s, p) in values]
                for s in ("parent", "change")
            }
            if not side["parent"] or not side["change"]:
                continue
            both = [
                (values[(workload, "parent", p)][name]["value"], values[(workload, "change", p)][name]["value"])
                for p in pairs
                if (workload, "parent", p) in values and (workload, "change", p) in values
            ]
            won = sum(1 for a, b in both if (b > a if higher else b < a))
            (pq1, pmed, pq3), (cq1, cmed, cq3) = _quartiles(side["parent"]), _quartiles(side["change"])
            limit = pmed * (1 - metric["bound"]) if higher else pmed * (1 + metric["bound"])
            gain = cmed - pmed if higher else pmed - cmed
            rows.append({
                "workload": workload, "metric": name, "unit": metric["unit"],
                "parent": (pmed, pq1, pq3), "change": (cmed, cq1, cq3),
                "ratio": cmed / pmed if pmed else float("nan"),
                "won": won, "pairs": len(both),
                "within_bound": cmed >= limit if higher else cmed <= limit,
                "gap_over_iqr": gain > pq3 - pq1,
            })
    return rows


def _fmt(v: float) -> str:
    return f"{v:,.0f}" if abs(v) >= 100 else f"{v:.4g}"


def _spread(stats: tuple[float, float, float]) -> str:
    median, q1, q3 = stats
    return f"{_fmt(median)} ({_fmt(q1)}–{_fmt(q3)})"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("record", help="a BENCH_<n>.json written by scripts/bench_pairs.py")
    args = parser.parse_args()
    record = json.loads(Path(args.record).read_text())
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    failed = {s: sum(1 for r in record["runs"] if r["side"] == s and not (r.get("result") or {}).get("correct"))
              for s in ("parent", "change")}
    print(f"{args.record}: {len(record['runs'])} runs; not correct: parent {failed['parent']}, "
          f"change {failed['change']}")
    header = ("workload", "metric", "parent median (q1–q3)", "change median (q1–q3)", "ratio", "won",
              "bound", "gap>iqr")
    lines = [header]
    for row in summarize(record, benchmark):
        lines.append((
            row["workload"], row["metric"], _spread(row["parent"]), _spread(row["change"]),
            f"{row['ratio']:.3f}", f"{row['won']}/{row['pairs']}",
            "yes" if row["within_bound"] else "NO", "yes" if row["gap_over_iqr"] else "no",
        ))
    widths = [max(len(line[i]) for line in lines) for i in range(len(header))]
    for line in lines:
        print("  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip())
    return 0


if __name__ == "__main__":
    sys.exit(main())
