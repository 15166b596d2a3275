"""The benchmark's traced run still finds every rsdkit name it wraps.

``perfbench/child.py`` patches module attributes by name (``cli.decode``,
``cli.assemble_dataset``, ``pipeline.rejection_sample`` and more). A rename in
``src/`` breaks ``perfbench/run.py --trace 1`` without failing any unit test;
this runs the traced child once on a tiny table config to catch it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_traced_child_runs_generate(tmp_path):
    pytest.importorskip("requests")  # install_tracing wraps requests.Session
    config = {
        "generation": {"regime": "rsd", "p_th": 0.05, "max_tokens": 4, "context_limit": 16},
        "teacher": {"backend": "table", "default": [0.1, 0.6, 0.2, 0.1], "eos_token": 3},
        "student": {"backend": "table", "default": [0.25, 0.4, 0.25, 0.1], "eos_token": 3},
        "token_text": ["a", "b", "c", ""],
        "verifier": {"mode": "exact-match", "normalization": []},
        "attempts": 3,
        "problems": "problems.jsonl",
        "workers": 2,
    }
    (tmp_path / "run.json").write_text(json.dumps(config))
    rows = [{"id": f"q{i}", "prompt_tokens": [0], "answer": answer} for i, answer in enumerate(["b", "zzz", "bb"])]
    (tmp_path / "problems.jsonl").write_text("".join(json.dumps(row) + "\n" for row in rows))

    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), "--result", "result.json",
         "--spans", "spans.json", "--", "generate", "run.json"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads((tmp_path / "result.json").read_text())
    assert result["rc"] == 0, proc.stderr
    # the probe wraps pipeline.rejection_sample, so its counts prove the call-time lookup
    assert result["work"]["problems"] == 3
    assert result["work"]["attempts"] >= 3
    assert (tmp_path / "spans.json").is_file()
    assert (tmp_path / "dataset.jsonl").is_file()


def test_remote_workload_passes_its_own_checks():
    """One untraced ``remote-stub-v4k`` run: its checks cover the golden sha256 of the
    dataset and that decoding over HTTP, block verification included, writes the bytes
    the same models write in-process."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "remote-stub-v4k",
         "--seed", "0", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    assert lines, proc.stderr
    result = json.loads(lines[-1])
    assert result["correct"] is True, proc.stderr[-2000:]
    assert proc.returncode == 0
