"""Output checks run on every benchmark run.

The report checks recompute every figure from the raw JSON lines with this
file's own code, so a bug in rsdkit's aggregation cannot also hide itself.
Each check raises :class:`CheckFailed` with the reason.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

GOLDEN = Path(__file__).resolve().parent / "golden.json"
GOLDEN_SEED = 0
DIAGNOSTIC_THRESHOLD = 0.01


class CheckFailed(AssertionError):
    pass


def ensure(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def sha256_tree(root: Path) -> str:
    """One hash over every file under ``root``, by sorted relative path."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode() + b"\0")
        h.update(sha256_file(path).encode())
    return h.hexdigest()


def check_golden(workload: str, seed: int, digest: str) -> None:
    if seed != GOLDEN_SEED:
        return
    golden = json.loads(GOLDEN.read_text())
    ensure(workload in golden, f"no golden hash for {workload} (this run: {digest})")
    ensure(golden[workload] == digest, f"{workload} hash {digest} != golden {golden[workload]}")


def read_dataset(path: Path) -> tuple[list[dict], dict]:
    lines = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line]
    ensure(bool(lines) and lines[-1].get("kind") == "manifest", f"{path}: no closing manifest")
    return lines[:-1], lines[-1]


def check_roundtrip(path: Path, scratch: Path) -> None:
    """rsdkit re-imports the dataset and re-exports it byte for byte."""
    from rsdkit.pipeline import export_dataset, import_dataset

    export_dataset(import_dataset(path), scratch)
    ensure(scratch.read_bytes() == path.read_bytes(), f"{path}: re-export differs from the file")
    scratch.unlink()


def _perplexity(records: list[dict]) -> float:
    s = [r["surprisal_student"] for r in records]
    if any(math.isinf(x) for x in s):
        return math.inf
    return math.exp(sum(s) / len(s))


def expected_report(records: list[dict], threshold: float) -> dict:
    total = sum(len(r["records"]) for r in records)
    tokens = [t for r in records for t in r["records"]]
    below = sum(1 for t in tokens if t["p_student"] is not None and t["p_student"] < threshold)
    fallbacks = sum(1 for t in tokens if t["fallback"])
    coordinated = any(r["regime"] in ("rsd", "skd") for r in records)
    ppl = np.asarray([_perplexity(r["records"]) for r in records])
    q1, median, q3 = (float(np.percentile(ppl, q)) for q in (25, 50, 75))
    return {
        "problems_attempted": len(records),
        "correctly_solved": sum(1 for r in records if r["kind"] == "full-trace"),
        "fallback_rate_pct": 100.0 * fallbacks / total if coordinated else None,
        "sub_threshold_pct": 100.0 * below / total,
        "sub_threshold": threshold,
        "avg_token_count": total / len(records),
        "perplexity_summary": {
            "min": float(ppl.min()),
            "q1": q1,
            "median": median,
            "q3": q3,
            "max": float(ppl.max()),
            "mean": float(ppl.mean()),
        },
    }


def _close(a, b) -> bool:
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_close(a[k], b[k]) for k in a)
    if a is None or b is None:
        return a is b
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


def check_report(report_path: Path, records: list[dict], threshold: float) -> dict:
    got = json.loads(report_path.read_text())
    want = expected_report(records, threshold)
    ensure(_close(got, want), f"{report_path} does not match the recomputed report:\n{got}\n{want}")
    return want


def _detokenizer(token_text):
    if token_text is None:
        return lambda tokens: " ".join(str(t) for t in tokens)
    return lambda tokens: "".join(token_text[t] for t in tokens)


def check_generate(inputs: dict, dataset: Path, report: Path, scratch: Path) -> dict:
    """All checks on one ``generate`` output; returns the recomputed report."""
    from rsdkit.pipeline import Verifier

    records, manifest = read_dataset(dataset)
    ensure(
        manifest.get("record_count") == inputs["problems"] == len(records),
        f"manifest counts {manifest.get('record_count')} records for {inputs['problems']} problems",
    )
    ensure(manifest.get("schema") == "rsdkit-dataset-v1", f"unexpected schema {manifest.get('schema')}")
    check_roundtrip(dataset, scratch)
    verifier = Verifier(mode=inputs["verifier"]["mode"])
    detokenize = _detokenizer(inputs["token_text"])
    for i, rec in enumerate(records):
        ensure(rec["problem_id"] == f"p{i:05d}", f"record {i} is for {rec['problem_id']}")
        verdict = verifier.judge(detokenize(rec["tokens"]), inputs["answers"][i])
        if rec["kind"] == "full-trace":
            ensure(verdict == "correct", f"full trace for {rec['problem_id']} fails the verifier again")
        else:
            ensure(rec["verdict"] != "correct", f"prefix for {rec['problem_id']} claims a correct verdict")
    want = check_report(report, records, DIAGNOSTIC_THRESHOLD)
    ensure(
        want["fallback_rate_pct"] is None or want["fallback_rate_pct"] < 100.0,
        "every token fell back: the models share no context (uniform rows)",
    )
    return want


def check_analyze(inputs: dict, out: Path, scratch: Path) -> None:
    records, _ = read_dataset(inputs["dataset"])
    check_roundtrip(inputs["dataset"], scratch)
    check_report(out / "report.json", records, DIAGNOSTIC_THRESHOLD)
    surprisal = sorted(out.glob("surprisal_*.csv"))
    ensure(len(surprisal) == len(records), f"{len(surprisal)} surprisal CSVs for {len(records)} records")
    with open(out / "perplexity.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    ensure(len(rows) == len(records), f"perplexity.csv has {len(rows)} rows for {len(records)} records")
    for row, rec in zip(rows, records):
        ensure(row[0] == rec["problem_id"], f"perplexity.csv row {row[0]} out of order")
        ensure(_close(float(row[1]), _perplexity(rec["records"])), f"perplexity of {row[0]} is {row[1]}")
    tally: dict[int, int] = {}
    for rec in records:
        for t in rec["records"]:
            if t["p_student"] < DIAGNOSTIC_THRESHOLD:
                tally[t["token"]] = tally.get(t["token"], 0) + 1
    with open(out / "token_tally.csv", newline="") as fh:
        got = [(int(a), int(b)) for a, b in list(csv.reader(fh))[1:]]
    ensure(got == sorted(tally.items(), key=lambda kv: (-kv[1], kv[0])), "token_tally.csv differs")
