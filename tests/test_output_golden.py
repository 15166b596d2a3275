"""Golden digests of the files ``generate``, ``sweep`` and ``analyze`` write.

Each case runs one CLI command on small table models and compares the sha256
of its output tree (every file's relative path and bytes, in path order) with
a digest recorded from the reference implementation. ``analyze`` is covered
for all three input kinds: a dataset, a traces JSONL file and external
traces. ``generate`` is covered twice: in process, where it decodes serially,
and with both models served over HTTP, where it decodes on a pool of 4 threads.
Any change to an output byte or file name fails the case.
"""

from __future__ import annotations

import hashlib
import json
import threading
from pathlib import Path

import pytest

from rsdkit import cli
from rsdkit.cli import main
from rsdkit.decoding import GenerationConfig, decode
from rsdkit.models import TableModel
from rsdkit.stub_server import StubServer

TOKEN_TEXT = ["a", "b", "c", "d", ""]
TEACHER = {
    "backend": "table",
    "eos_token": 4,
    "rows": [
        {"suffix": [0], "probs": [0.05, 0.6, 0.2, 0.1, 0.05]},
        {"suffix": [1], "probs": [0.1, 0.5, 0.3, 0.05, 0.05]},
        {"suffix": [1, 2], "probs": [0.3, 0.1, 0.1, 0.4, 0.1]},
    ],
    "default": [0.25, 0.25, 0.2, 0.15, 0.15],
}
STUDENT = {
    "backend": "table",
    "eos_token": 4,
    "rows": [
        {"suffix": [1], "probs": [0.3, 0.6, 0.005, 0.06, 0.035]},
        {"suffix": [3], "probs": [0.015, 0.008, 0.5, 0.3, 0.177]},
    ],
    "default": [0.4, 0.3, 0.2, 0.015, 0.085],
}
EXTERNAL = [
    {"prompt_tokens": [0], "tokens": [1, 1, 2, 3, 3, 0, 4]},
    {"prompt_tokens": [0, 2], "tokens": [3, 1, 2, 2]},
    {"prompt_tokens": [1], "tokens": [0, 3, 3, 1, 1, 1, 2, 4]},
]

DIGESTS = {
    "generate": "1f735a73a499ebf68a2fc777a3845b10666f1d0a82882d3e4980f8379246022e",
    "sweep": "eea087b7fa5e3a8883045badb48dcf93f9f057ef79f5de2fff39d32e573b6845",
    "analyze-dataset": "5d6ba2cf62010650fcbb63ad01febef61801d0ae793556842321fc9f1aa0d724",
    "analyze-traces": "94e7d796d532439e443d490d5ec200b5142aeed553de0a37dd966b86585e38cd",
    "analyze-external": "111bbe67a5cd6c9d9ea6ea01791244745e716ce8bcb70714ec5742646da9a01c",
}


def _tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def _write_config(root: Path) -> Path:
    answers = ["bbb", "bbcd", "abb", "zzz", "bcd", "bbbb"]
    with open(root / "problems.jsonl", "w") as fh:
        for i, answer in enumerate(answers):
            prompt = [0] if i % 2 == 0 else [0, 1]
            fh.write(json.dumps({"id": f"q{i}", "prompt_tokens": prompt, "answer": answer}) + "\n")
    config = {
        "generation": {
            "regime": "rsd",
            "p_th": 0.01,
            "temperature": 0.8,
            "max_tokens": 4,
            "context_limit": 64,
            "seed": 7,
        },
        "teacher": TEACHER,
        "student": STUDENT,
        "token_text": TOKEN_TEXT,
        "verifier": {"mode": "exact-match", "normalization": []},
        "attempts": 4,
        "prefix_length": 3,
        "diagnostic_threshold": 0.1,
        "problems": "problems.jsonl",
        "output": {"dataset": "gen/dataset.jsonl", "report": "gen/report.json"},
        "workers": 1,
    }
    path = root / "run.json"
    path.write_text(json.dumps(config))
    return path


def _table(spec) -> TableModel:
    rows = {tuple(row["suffix"]): row["probs"] for row in spec["rows"]}
    return TableModel(rows, spec["default"], eos_token=spec["eos_token"])


def _traces_file(root: Path) -> Path:
    teacher, student = _table(TEACHER), _table(STUDENT)
    traces = []
    for seed, (regime, p_th) in enumerate([("rsd", 0.05), ("skd", 0.2), ("rsd", 0.3), ("skd", 0.05)]):
        cfg = GenerationConfig(p_th=p_th, max_tokens=10, temperature=0.9, context_limit=64,
                               seed=seed, regime=regime)
        traces.append(decode(teacher, student, [0, 1], cfg))
    path = root / "traces.jsonl"
    path.write_text("".join(t.to_json_line() + "\n" for t in traces))
    return path


def _run(root: Path, case: str) -> Path:
    cfg = _write_config(root)
    if case == "generate":
        assert main(["generate", str(cfg)]) == 0
        return root / "gen"
    if case == "sweep":
        assert main(["sweep", str(cfg), "--thresholds", "0.3,0.05", "--out-dir", str(root / "sweep")]) == 0
        return root / "sweep"
    if case == "analyze-dataset":
        assert main(["generate", str(cfg)]) == 0
        source, extra = root / "gen" / "dataset.jsonl", []
    elif case == "analyze-traces":
        source, extra = _traces_file(root), []
    else:
        source, extra = root / "external.jsonl", ["--config", str(cfg)]
        source.write_text("".join(json.dumps(row) + "\n" for row in EXTERNAL))
    out = root / "analysis"
    assert main(["analyze", str(source), "--threshold", "0.1", "--out", str(out), *extra]) == 0
    return out


@pytest.mark.parametrize("case", sorted(DIGESTS))
def test_output_tree_digest(case, tmp_path):
    assert _tree_digest(_run(tmp_path, case)) == DIGESTS[case]


def test_generate_digest_over_remote_models_on_four_workers(tmp_path, monkeypatch):
    threads, inner = [], cli.decode
    monkeypatch.setattr(cli, "decode", lambda *args: threads.append(threading.get_ident()) or inner(*args))
    cfg = _write_config(tmp_path)
    config = json.loads(cfg.read_text())
    with StubServer({"teacher": _table(TEACHER), "student": _table(STUDENT)}) as server:
        for role in ("teacher", "student"):
            config[role] = {"backend": "remote", "base_url": server.base_url, "model_name": role}
        cfg.write_text(json.dumps({**config, "workers": 4}))
        assert main(["generate", str(cfg)]) == 0
    assert threads and threading.get_ident() not in threads  # every decode ran on the pool
    assert _tree_digest(tmp_path / "gen") == DIGESTS["generate"]
