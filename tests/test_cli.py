"""Command surface: generate, analyze, sweep, stub-serve, exit codes."""

from __future__ import annotations

import gc
import json
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from pathlib import Path

import pytest

from rsdkit import cli
from rsdkit.cli import DEFAULT_SWEEP_THRESHOLDS, build_parser, build_stub_server, main
from rsdkit.config import load_run_config, build_model
from rsdkit.metrics import aggregate_records
from rsdkit.decoding import TokenRecord, _surprisal
from rsdkit.pipeline import DatasetRecord, export_dataset, import_dataset, score_external_traces
from rsdkit.remote import BackendEndpoint, BackendUnavailableError, handshake

TOKEN_TEXT = ["a", "b", "c", ""]
TOY_DATASET = Path(__file__).resolve().parent.parent / "fixtures" / "toy_dataset.jsonl"
TOY_LINES = TOY_DATASET.read_text().splitlines()
GOOD_TRACE = (
    '{"config":{"context_limit":8192,"max_tokens":1,"p_th":0.01,"regime":"rsd","seed":0,"temperature":0.7,'
    '"threshold_uses_raw":true},"prompt":[0],"records":[{"accepted":true,"fallback":false,"p_student":0.5,'
    '"p_teacher":1.0,"proposer":"teacher","surprisal_student":0.6931471805599453,"token":1}],'
    '"terminated_by":"length-budget"}'
)
BAD_TRACE = '{"records": [], "config": {"bad": true}, "prompt": []}'
GOOD_EXTERNAL = json.dumps({"prompt_tokens": [0], "tokens": [1, 2]})


def edited(line: str, **fields) -> str:
    """``line`` with ``fields`` set, or removed where the value is None."""
    row = {**json.loads(line), **fields}
    return json.dumps({key: value for key, value in row.items() if value is not None})


# (kind, lines, what the error names after "<path>: ") of inputs whose fault is on their first or last line
BAD_INPUTS = [
    pytest.param("dataset", ['{"kind": "full-trace"'], "line 1: invalid JSON", id="dataset-lines0"),
    pytest.param("dataset", [TOY_LINES[0], '{"kind": "full-trace"'], "line 2: invalid JSON", id="dataset-lines1"),
    pytest.param("traces", [BAD_TRACE], "line 1: missing key 'terminated_by'", id="traces-lines2"),
    pytest.param("external", [json.dumps({"prompt_tokens": [0], "tokens": [99]})], "line 1: token 99",
                 id="external-lines3"),
    pytest.param("dataset", TOY_LINES[:-1] + ['{"kind": "manifest", "record_count": 4, "schema": "rsdkit-dataset-v1"}'],
                 "manifest declares 4 records, found 3", id="dataset-count-mismatch"),
    pytest.param("dataset", TOY_LINES[:-1], "no manifest line", id="dataset-no-manifest"),
    pytest.param("traces", [GOOD_TRACE, BAD_TRACE], "line 2: missing key 'terminated_by'", id="traces-bad-last-line"),
    pytest.param("external", [json.dumps({"prompt_tokens": [0], "tokens": t}) for t in ([1, 2], [99])],
                 "line 2: token 99", id="external-bad-last-line"),
    pytest.param("external", [json.dumps({"prompt_tokens": [0], "tokens": [1.7, True]})],
                 "line 1: token must be an integer, got 1.7", id="external-float-token"),
    pytest.param("external", [json.dumps({"prompt_tokens": [True], "tokens": [1]})],
                 "line 1: prompt token must be an integer, got True", id="external-bool-prompt-token"),
    # one missing key and one value of the wrong type on line 2, for each reader analyze runs
    pytest.param("dataset", [TOY_LINES[0], edited(TOY_LINES[1], problem_id=None)],
                 "line 2: missing key 'problem_id'", id="dataset-missing-key"),
    pytest.param("dataset", [TOY_LINES[0], edited(TOY_LINES[1], problem_id=5)],
                 "line 2: problem_id must be a string, got 5", id="dataset-wrong-type"),
    pytest.param("traces", [GOOD_TRACE, edited(GOOD_TRACE, records=None)],
                 "line 2: missing key 'records'", id="traces-missing-key"),
    pytest.param("traces", [GOOD_TRACE, GOOD_TRACE.replace('"accepted":true', '"accepted":1')],
                 "line 2: accepted must be true or false, got 1", id="traces-wrong-type"),
    pytest.param("external", [GOOD_EXTERNAL, edited(GOOD_EXTERNAL, tokens=None)],
                 "line 2: missing key 'tokens'", id="external-missing-key"),
    pytest.param("external", [GOOD_EXTERNAL, edited(GOOD_EXTERNAL, tokens="12")],
                 "line 2: token must be an integer, got '1'", id="external-wrong-type"),
]


# (the key refused, the vocab_map expansions holding it)
BAD_EXPANSION_KEYS = [
    *((key, {key: [1]}) for key in (" 3", "+3", "0_3", "03", "\u0663", "x")),
    ("03", {"3": [1], "03": [2]}),
]


def analyze_argv(tmp_path: Path, kind: str, lines: list[str]) -> list[str]:
    """``analyze`` of ``lines`` written as a ``kind`` input, with the config external traces need."""
    path = tmp_path / f"{kind}.jsonl"
    path.write_text("\n".join(lines) + "\n")
    if kind != "external":
        return ["analyze", str(path)]
    return ["analyze", str(path), "--config", str(write_config(tmp_path, answers=["b"]))]
SRC = Path(__file__).resolve().parent.parent / "src"


def write_config(tmp_path: Path, *, answers, attempts=2, p_th=0.01, student=None, **overrides):
    """Toy run config plus a problems file; returns the config path."""
    problems = tmp_path / "problems.jsonl"
    with open(problems, "w") as fh:
        for i, answer in enumerate(answers):
            fh.write(json.dumps({"id": f"q{i}", "prompt_tokens": [0], "answer": answer}) + "\n")
    config = {
        "generation": {
            "regime": "rsd",
            "p_th": p_th,
            "temperature": 0.7,
            "max_tokens": 6,
            "context_limit": 64,
            "seed": 11,
        },
        "teacher": {
            "backend": "table",
            "eos_token": 3,
            "rows": [],
            "default": [0.0, 1.0, 0.0, 0.0],  # always proposes "b"
        },
        "student": student
        or {
            "backend": "table",
            "eos_token": 3,
            "rows": [],
            "default": [0.2, 0.5, 0.2, 0.1],
        },
        "token_text": TOKEN_TEXT,
        "verifier": {"mode": "exact-match", "normalization": []},
        "attempts": attempts,
        "prefix_length": 128,
        "problems": "problems.jsonl",
        "output": {"dataset": "dataset.jsonl", "report": "report.json"},
        "workers": 1,
    }
    config.update(overrides)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config, indent=2))
    return path


class TestGenerate:
    def test_always_correct_verifier_gives_full_traces(self, tmp_path):
        # teacher one-hot "b", confident student: deterministic "bbbbbb"
        cfg_path = write_config(tmp_path, answers=["bbbbbb"] * 3)
        assert main(["generate", str(cfg_path)]) == 0
        records = import_dataset(tmp_path / "dataset.jsonl")
        assert [r.kind for r in records] == ["full-trace"] * 3
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["correctly_solved"] == 3
        assert report["problems_attempted"] == 3

    def test_never_correct_verifier_gives_prefixes(self, tmp_path):
        cfg_path = write_config(tmp_path, answers=["zzz"] * 3, attempts=2)
        assert main(["generate", str(cfg_path)]) == 0
        records = import_dataset(tmp_path / "dataset.jsonl")
        assert [r.kind for r in records] == ["upft-prefix"] * 3
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["correctly_solved"] == 0

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg_path = write_config(tmp_path, answers=["bbbbbb", "zzz"])
        assert main(["generate", str(cfg_path)]) == 0
        first = (tmp_path / "dataset.jsonl").read_bytes()
        first_report = (tmp_path / "report.json").read_bytes()
        assert main(["generate", str(cfg_path)]) == 0
        assert (tmp_path / "dataset.jsonl").read_bytes() == first
        assert (tmp_path / "report.json").read_bytes() == first_report

    def test_serial_and_parallel_runs_match(self, tmp_path):
        cfg_path = write_config(tmp_path, answers=["bbbbbb", "zzz", "bb", "ab"] * 3)
        assert main(["generate", str(cfg_path), "--workers", "1"]) == 0
        serial = (tmp_path / "dataset.jsonl").read_bytes()
        assert main(["generate", str(cfg_path), "--workers", "4"]) == 0
        parallel = (tmp_path / "dataset.jsonl").read_bytes()
        assert serial == parallel

    def test_in_process_pair_decodes_on_the_calling_thread(self, tmp_path, monkeypatch):
        threads, inner = [], cli.decode
        monkeypatch.setattr(cli, "decode", lambda *args: threads.append(threading.get_ident()) or inner(*args))
        cfg_path = write_config(tmp_path, answers=["bbbbbb", "zzz", "bb", "ab"] * 3)
        assert main(["generate", str(cfg_path), "--workers", "4"]) == 0
        assert len(threads) > 12
        assert set(threads) == {threading.get_ident()}

    @pytest.mark.parametrize("workers", ["1", "4"])
    def test_unsalvageable_problem_keeps_the_old_dataset(self, tmp_path, monkeypatch, capsys, workers):
        cfg_path = write_config(tmp_path, answers=["bbbbbb", "zzz", "bb", "ab"])
        problems = [json.loads(line) for line in (tmp_path / "problems.jsonl").read_text().splitlines()]
        problems[2]["prompt_tokens"] = [0, 0]  # the one problem the broken decoder below fails
        (tmp_path / "problems.jsonl").write_text("".join(json.dumps(p) + "\n" for p in problems))
        assert main(["generate", str(cfg_path), "--workers", workers]) == 0
        old = {name: (tmp_path / name).read_bytes() for name in ("dataset.jsonl", "report.json")}
        decode = cli.decode

        def failing_decode(teacher, student, prompt, cfg, vmap=None):
            if len(prompt) == 2:
                raise ValueError("no token for this prompt")
            return decode(teacher, student, prompt, cfg, vmap)

        monkeypatch.setattr(cli, "decode", failing_decode)
        assert main(["generate", str(cfg_path), "--workers", workers, "--threshold", "0.3"]) == 1
        assert "no attempt produced a trace to salvage" in capsys.readouterr().err
        assert {name: (tmp_path / name).read_bytes() for name in old} == old
        assert not list(tmp_path.glob("*.partial"))

    @pytest.mark.parametrize("command", ["generate", "sweep"])
    def test_unsalvageable_problem_leaves_no_new_directory(self, tmp_path, monkeypatch, capsys, command):
        output = {"dataset": "new/deeper/dataset.jsonl", "report": "new/report.json"}
        cfg_path = write_config(tmp_path, answers=["bbbbbb", "bb"], output=output)

        def failing_decode(*args, **kwargs):
            raise ValueError("no token for this prompt")

        monkeypatch.setattr(cli, "decode", failing_decode)
        argv = {
            "generate": ["generate", str(cfg_path)],
            "sweep": ["sweep", str(cfg_path), "--thresholds", "0.01", "--out-dir", str(tmp_path / "new" / "sweep")],
        }[command]
        assert main(argv) == 1
        assert "no attempt produced a trace to salvage" in capsys.readouterr().err
        assert not (tmp_path / "new").exists()

    def test_records_are_exported_as_they_arrive(self, tmp_path, monkeypatch):
        cfg_path = write_config(tmp_path, answers=["bbbbbb", "zzz", "bb"])
        events = []
        decode, export = cli.decode, cli.export_dataset

        def watching_decode(*args, **kwargs):
            events.append("decode")
            return decode(*args, **kwargs)

        def watching_export(records, path):
            def watched():
                for record in records:
                    events.append(f"export {record.problem_id}")
                    yield record

            export(watched(), path)

        monkeypatch.setattr(cli, "decode", watching_decode)
        monkeypatch.setattr(cli, "export_dataset", watching_export)
        assert main(["generate", str(cfg_path), "--workers", "1"]) == 0
        # serially, each record is written before the next problem is decoded
        # (q0 is solved at its first attempt, q1 and q2 use both)
        assert events == ["decode", "export q0", "decode", "decode", "export q1", "decode", "decode", "export q2"]
        assert len(import_dataset(tmp_path / "dataset.jsonl")) == 3

    def test_map_path_resolves_against_the_config_directory(self, tmp_path, monkeypatch):
        vm = tmp_path / "vm"
        vm.mkdir()
        (vm / "map.json").write_text(json.dumps({"shared_size": 4, "suppressed": [], "expansions": {}}))
        write_config(vm, answers=["bbbbbb", "zzz"], vocab_map={"path": "map.json"})
        monkeypatch.chdir(vm)
        assert main(["generate", "run.json"]) == 0
        from_inside = (vm / "dataset.jsonl").read_bytes()
        (vm / "dataset.jsonl").unlink()
        monkeypatch.chdir(tmp_path)
        assert main(["generate", "vm/run.json"]) == 0
        assert (vm / "dataset.jsonl").read_bytes() == from_inside

    def test_threshold_flag_overrides_config(self, tmp_path):
        cfg_path = write_config(tmp_path, answers=["bbbbbb"])
        assert main(["generate", str(cfg_path), "--threshold", "0.9"]) == 0
        records = import_dataset(tmp_path / "dataset.jsonl")
        # student probability of "b" is 0.5 < 0.9: everything falls back
        assert all(r.fallback for rec in records for r in rec.records)

    def test_no_partial_files_left_on_success(self, tmp_path):
        cfg_path = write_config(tmp_path, answers=["bbbbbb"])
        assert main(["generate", str(cfg_path)]) == 0
        assert not list(tmp_path.glob("*.partial"))

    def test_failed_report_write_keeps_the_old_report(self, tmp_path, monkeypatch, capsys):
        cfg_path = write_config(tmp_path, answers=["bbbbbb"])
        assert main(["generate", str(cfg_path)]) == 0
        report_path = tmp_path / "report.json"
        old_report = report_path.read_bytes()
        write_text = Path.write_text

        def torn_write(self, text, *args, **kwargs):
            write_text(self, text[: len(text) // 2], *args, **kwargs)
            raise OSError("disk full")

        monkeypatch.setattr(Path, "write_text", torn_write)
        assert main(["generate", str(cfg_path), "--threshold", "0.9"]) == 1
        assert "disk full" in capsys.readouterr().err
        assert report_path.read_bytes() == old_report

    @pytest.mark.parametrize("name", ["report.json", "sweep_report.json", "sweep_table.txt"])
    def test_failed_analyze_or_sweep_write_keeps_the_old_file(self, tmp_path, monkeypatch, name):
        cfg_path = write_config(tmp_path, answers=["bbbbbb"])
        assert main(["generate", str(cfg_path)]) == 0
        out = tmp_path / "out"
        if name == "report.json":
            argv = ["analyze", str(tmp_path / "dataset.jsonl"), "--out", str(out)]
        else:
            argv = ["sweep", str(cfg_path), "--thresholds", "0.01", "--out-dir", str(out)]
        assert main(argv) == 0
        old = (out / name).read_bytes()
        write_text = Path.write_text

        def torn_write(self, text, *args, **kwargs):
            if not self.name.startswith(name):
                return write_text(self, text, *args, **kwargs)
            write_text(self, text[: len(text) // 2], *args, **kwargs)
            raise OSError("disk full")

        monkeypatch.setattr(Path, "write_text", torn_write)
        assert main(argv) == 1
        assert (out / name).read_bytes() == old


class TestAnalyze:
    def generate(self, tmp_path, **kwargs):
        cfg_path = write_config(tmp_path, **kwargs)
        assert main(["generate", str(cfg_path)]) == 0
        return tmp_path / "dataset.jsonl"

    def test_dataset_analysis_outputs(self, tmp_path):
        dataset = self.generate(tmp_path, answers=["bbbbbb", "zzz"])
        out = tmp_path / "analysis"
        assert main(["analyze", str(dataset), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        for key in ("correctly_solved", "fallback_rate_pct", "sub_threshold_pct", "avg_token_count"):
            assert key in report
        records = import_dataset(dataset)
        for rec in records:
            csv_path = out / f"surprisal_{rec.problem_id}.csv"
            rows = csv_path.read_text().strip().splitlines()
            assert len(rows) == 1 + len(rec.records)
        assert (out / "perplexity.csv").exists()
        assert (out / "token_tally.csv").exists()

    def test_default_threshold_is_one_percent(self):
        args = build_parser().parse_args(["analyze", "whatever.jsonl"])
        assert args.threshold == 0.01

    def test_external_traces_match_manual_composition(self, tmp_path):
        cfg_path = write_config(tmp_path, answers=["bbbbbb"])
        external = tmp_path / "external.jsonl"
        rows = [
            {"prompt_tokens": [0], "tokens": [1, 1, 2, 0, 1]},
            {"prompt_tokens": [0], "tokens": [2, 2, 0]},
        ]
        external.write_text("".join(json.dumps(r) + "\n" for r in rows))
        out = tmp_path / "ext_analysis"
        assert (
            main(["analyze", str(external), "--config", str(cfg_path), "--out", str(out)]) == 0
        )
        report = json.loads((out / "report.json").read_text())

        cfg = load_run_config(cfg_path)
        student = build_model(cfg.student_spec, "student")
        scored = score_external_traces(rows, student)
        agg = aggregate_records(((None, records) for records in scored), 0.01)
        expected = 100.0 * agg.below / agg.tokens
        assert report["sub_threshold_pct"] == expected
        assert report["fallback_rate_pct"] is None
        assert report["traces"] == 2

    def test_trace_jsonl_analysis(self, tmp_path):
        from rsdkit.decoding import GenerationConfig, decode
        from rsdkit.models import TableModel

        teacher = TableModel({}, [0.0, 1.0, 0.0, 0.0], eos_token=3)
        student = TableModel({}, [0.2, 0.5, 0.2, 0.1], eos_token=3)
        traces = [
            decode(teacher, student, [0], GenerationConfig(p_th=0.01, max_tokens=4, seed=s))
            for s in range(3)
        ]
        path = tmp_path / "traces.jsonl"
        path.write_text("".join(t.to_json_line() + "\n" for t in traces))
        out = tmp_path / "trace_analysis"
        assert main(["analyze", str(path), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["traces"] == 3
        assert report["fallback_rate_pct"] == 0.0

    def test_mixed_regimes_have_no_fallback_rate(self, tmp_path):
        # one rule for both report paths: a fallback rate only when every item is rsd/skd
        from rsdkit.decoding import GenerationConfig, decode
        from rsdkit.metrics import dataset_report
        from rsdkit.models import TableModel
        from rsdkit.pipeline import AttemptOutcome, RejectionResult, problem_record

        teacher = TableModel({}, [0.0, 1.0, 0.0, 0.0], eos_token=3)
        student = TableModel({}, [0.2, 0.5, 0.2, 0.1], eos_token=3)
        traces = [
            decode(teacher, student, [0], GenerationConfig(p_th=0.3, max_tokens=4)),
            decode(None, student, [0], GenerationConfig(p_th=0.3, max_tokens=4, regime="solo-student")),
        ]
        solved = [AttemptOutcome(f"p{i}", 0, t, "correct") for i, t in enumerate(traces)]
        records = [problem_record(RejectionResult(a.problem_id, a, [a])) for a in solved]
        assert dataset_report(records)["fallback_rate_pct"] is None

        path = tmp_path / "traces.jsonl"
        path.write_text("".join(t.to_json_line() + "\n" for t in traces))
        out = tmp_path / "mixed_analysis"
        assert main(["analyze", str(path), "--out", str(out)]) == 0
        assert json.loads((out / "report.json").read_text())["fallback_rate_pct"] is None


def write_synthetic_dataset(path: Path, n_records: int, tokens: int = 300) -> None:
    """``n_records`` full traces of ``tokens`` token records each, with
    student probabilities on both sides of 1%."""
    probs = (0.5, 0.004, 0.2, 0.03, 0.009)

    def record(i: int) -> DatasetRecord:
        steps = []
        for k in range(tokens):
            p = probs[(i * 3 + k) % len(probs)]
            steps.append(TokenRecord((i + k) % 7, "teacher", True, False, 0.5, p, _surprisal(p)))
        return DatasetRecord(f"p{i}", "full-trace", "correct", tuple(r.token for r in steps),
                             f"p{i}#attempt-0", "rsd", steps)

    export_dataset([record(i) for i in range(n_records)], path)


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


def analysis_peak_bytes(tmp_path: Path, n_records: int) -> int:
    dataset = tmp_path / f"data{n_records}.jsonl"
    write_synthetic_dataset(dataset, n_records)
    tracemalloc.start()
    try:
        assert main(["analyze", str(dataset), "--out", str(tmp_path / f"out{n_records}")]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


class TestStreamingAnalysis:
    """``analyze`` reads one item at a time into ``<out>.partial/`` and
    publishes it only when the whole input has been read."""

    def test_peak_does_not_grow_with_records(self, tmp_path):
        # each record holds 300 token records; a command that kept them all
        # would double its peak from 20 records to 40
        analysis_peak_bytes(tmp_path, 2)  # warm caches and imports outside the measurement
        small, large = analysis_peak_bytes(tmp_path, 20), analysis_peak_bytes(tmp_path, 40)
        assert large < 1.25 * small, (small, large)

    @pytest.mark.parametrize("kind, lines, message", BAD_INPUTS)
    def test_failed_rerun_keeps_every_old_file(self, tmp_path, kind, lines, message):
        out = tmp_path / "out"
        assert main(["analyze", str(TOY_DATASET), "--out", str(out)]) == 0
        (out / "notes.txt").write_text("kept\n")
        before = tree_bytes(out)
        assert main(analyze_argv(tmp_path, kind, lines) + ["--out", str(out)]) == 4
        assert tree_bytes(out) == before
        assert not (tmp_path / "out.partial").exists()

    def test_successful_rerun_replaces_its_files_and_keeps_others(self, tmp_path):
        dataset = tmp_path / "data.jsonl"
        write_synthetic_dataset(dataset, 3, tokens=5)
        out = tmp_path / "out"
        assert main(["analyze", str(dataset), "--out", str(out), "--threshold", "0.005"]) == 0
        (out / "notes.txt").write_text("kept\n")
        old_report = (out / "report.json").read_bytes()
        assert main(["analyze", str(dataset), "--out", str(out)]) == 0
        assert (out / "notes.txt").read_text() == "kept\n"
        assert (out / "report.json").read_bytes() != old_report
        fresh = tmp_path / "fresh"
        assert main(["analyze", str(dataset), "--out", str(fresh)]) == 0
        assert {k: v for k, v in tree_bytes(out).items() if k != "notes.txt"} == tree_bytes(fresh)
        assert not (tmp_path / "out.partial").exists()

    def test_items_whose_names_slug_alike_are_data_error(self, tmp_path, capsys):
        # "p 1" and "p_1" both name surprisal_p_1.csv; the later one used to replace the earlier
        dataset = tmp_path / "data.jsonl"
        text = TOY_DATASET.read_text().replace('"problem_id":"fix-a"', '"problem_id":"p 1"')
        dataset.write_text(text.replace('"problem_id":"fix-b"', '"problem_id":"p_1"'))
        out = tmp_path / "out"
        out.mkdir()
        (out / "surprisal_p_1.csv").write_text("old\n")
        before = tree_bytes(out)
        assert main(["analyze", str(dataset), "--out", str(out)]) == 4
        error = json.loads(capsys.readouterr().err.splitlines()[-1])["error"]
        assert error["kind"] == "data"
        assert "items 'p 1' and 'p_1' would both write surprisal_p_1.csv" in error["message"]
        assert tree_bytes(out) == before
        assert not (tmp_path / "out.partial").exists()

    def test_stale_partial_directory_does_not_leak(self, tmp_path):
        dataset = tmp_path / "data.jsonl"
        write_synthetic_dataset(dataset, 2, tokens=5)
        out = tmp_path / "out"
        stale = tmp_path / "out.partial"
        stale.mkdir()
        (stale / "surprisal_killed.csv").write_text("step,surprisal,accepted,fallback\n")
        assert main(["analyze", str(dataset), "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "perplexity.csv", "report.json", "surprisal_p0.csv", "surprisal_p1.csv", "token_tally.csv",
        ]
        assert not stale.exists()


class TestSweep:
    def test_single_threshold_matches_generate(self, tmp_path):
        cfg_path = write_config(tmp_path, answers=["bbbbbb", "zzz"])
        assert main(["generate", str(cfg_path), "--threshold", "0.01"]) == 0
        generate_bytes = (tmp_path / "dataset.jsonl").read_bytes()
        out = tmp_path / "sweep"
        assert main(["sweep", str(cfg_path), "--thresholds", "0.01", "--out-dir", str(out)]) == 0
        assert (out / "dataset_p0.01.jsonl").read_bytes() == generate_bytes
        sweep_report = json.loads((out / "sweep_report.json").read_text())
        assert sweep_report["thresholds"] == [0.01]
        assert len(sweep_report["rows"]) == 1

    def test_higher_threshold_forces_more_fallbacks(self, tmp_path):
        # student gives the proposed token probability 0.5: thresholds above
        # that force 100% fallback, below it none
        cfg_path = write_config(tmp_path, answers=["bbbbbb"])
        out = tmp_path / "sweep"
        assert (
            main(["sweep", str(cfg_path), "--thresholds", "0.01,0.9", "--out-dir", str(out)]) == 0
        )
        rows = json.loads((out / "sweep_report.json").read_text())["rows"]
        assert rows[0]["fallback_rate_pct"] == 0.0
        assert rows[1]["fallback_rate_pct"] == 100.0
        table = (out / "sweep_table.txt").read_text()
        assert table.splitlines()[0].startswith("p_th")

    def test_pair_is_built_once_and_outputs_match_generate(self, tmp_path, monkeypatch):
        cfg_path = write_config(tmp_path, answers=["bbbbbb", "zzz"])
        thresholds = ("0.01", "0.3", "0.9")
        expected = {}
        for th in thresholds:
            assert main(["generate", str(cfg_path), "--threshold", th]) == 0
            expected[th] = [(tmp_path / name).read_bytes() for name in ("dataset.jsonl", "report.json")]

        built = []
        build_model = cli.build_model

        def counting_build_model(spec, role="model"):
            built.append(role)
            return build_model(spec, role)

        monkeypatch.setattr(cli, "build_model", counting_build_model)
        out = tmp_path / "sweep"
        argv = ["sweep", str(cfg_path), "--thresholds", ",".join(thresholds), "--out-dir", str(out)]
        assert main(argv) == 0
        assert sorted(built) == ["student", "teacher"]
        for th in thresholds:
            names = (f"dataset_p{float(th):g}.jsonl", f"report_p{float(th):g}.json")
            assert [(out / name).read_bytes() for name in names] == expected[th]

    def test_default_threshold_set(self):
        args = build_parser().parse_args(["sweep", "cfg.json"])
        parsed = [float(x) for x in args.thresholds.split(",")]
        assert parsed == list(DEFAULT_SWEEP_THRESHOLDS) == [0.10, 0.03, 0.01, 0.003]


def run_python(code: str, *args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    return subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=60
    )


class TestRemoteBackend:
    def test_cli_import_leaves_requests_unloaded(self):
        proc = run_python("import sys, rsdkit.cli; sys.exit('requests' in sys.modules)")
        assert proc.returncode == 0, proc.stderr

    def test_remote_generate_runs_without_requests_and_logs_its_http_health(self, tmp_path):
        served = build_stub_server(load_run_config(write_config(tmp_path, answers=["b"])), "127.0.0.1", 0)
        asked, inner = [], served.models["teacher"].next_distributions
        served.models["teacher"].next_distributions = lambda ctx, more: asked.append(ctx + more) or inner(ctx, more)
        with served:
            teacher = {"backend": "remote", "base_url": served.base_url, "model_name": "teacher"}
            cfg_path = write_config(tmp_path, answers=["bbbbbb", "zzz"], teacher=teacher)
            code = (
                "import sys; sys.modules['requests'] = None; from rsdkit import cli; "
                "sys.exit(cli.main(sys.argv[1:]))"
            )
            proc = run_python(code, "generate", str(cfg_path))
        assert proc.returncode == 0, proc.stderr
        lines = [line for line in proc.stderr.splitlines() if line.startswith("remote ")]
        assert [line.split()[1] for line in lines] == ["teacher"]
        stats = json.loads(lines[0].split(maxsplit=2)[2])
        assert set(stats) == {"requests", "rows", "retries", "request_bytes", "response_bytes", "round_trip_s"}
        assert stats["requests"] > 0
        assert stats["rows"] == stats["requests"]  # a teacher proposes one row per request
        assert stats["retries"] == 0
        assert stats["requests"] == len(asked)  # every row asked for reached the server
        # the same prompt in each of 3 attempts (q0 solved at its first, q1 never), asked each time
        assert asked.count([0]) == 3

    def test_remote_generate_closes_every_connection(self, tmp_path):
        served = build_stub_server(load_run_config(write_config(tmp_path, answers=["b"])), "127.0.0.1", 0)
        with served:
            teacher = {"backend": "remote", "base_url": served.base_url, "model_name": "teacher"}
            cfg_path = write_config(tmp_path, answers=["bbbbbb", "zzz", "bb", "ab"], teacher=teacher, workers=2)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert main(["generate", str(cfg_path)]) == 0
                gc.collect()
        assert [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)] == []

    def test_remote_pair_decodes_on_a_pool_and_matches_serial(self, tmp_path, monkeypatch):
        threads, inner = [], cli.decode
        monkeypatch.setattr(cli, "decode", lambda *args: threads.append(threading.get_ident()) or inner(*args))
        served = build_stub_server(load_run_config(write_config(tmp_path, answers=["b"])), "127.0.0.1", 0)
        with served:
            teacher = {"backend": "remote", "base_url": served.base_url, "model_name": "teacher"}
            cfg_path = write_config(tmp_path, answers=["bbbbbb", "zzz", "bb", "ab"] * 3, teacher=teacher)
            assert main(["generate", str(cfg_path), "--workers", "1"]) == 0
            serial = (tmp_path / "dataset.jsonl").read_bytes()
            assert set(threads) == {threading.get_ident()}
            threads.clear()
            assert main(["generate", str(cfg_path), "--workers", "4"]) == 0
        assert len(set(threads)) > 1
        assert (tmp_path / "dataset.jsonl").read_bytes() == serial

    @pytest.mark.parametrize(
        "key, value",
        [("max_retries", -1), ("timeout_s", 0), ("backoff_s", -0.5), ("max_retries", 2.7), ("max_retries", True),
         ("timeout_s", True), ("backoff_s", False), ("vocab_size", 4.9), ("vocab_size", True), ("eos_token", "3"),
         ("eos_token", 3.0)],
    )
    def test_impossible_retry_setting_is_config_error_at_once(self, tmp_path, capsys, key, value):
        teacher = {"backend": "remote", "base_url": "http://127.0.0.1:9", "model_name": "m", key: value}
        cfg_path = write_config(tmp_path, answers=["b"], teacher=teacher)
        assert main(["generate", str(cfg_path)]) == 2
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
        assert error["kind"] == "config"
        assert f"{key} must be" in error["message"]

    @pytest.mark.parametrize("base_url", ["localhost:8000", "127.0.0.1:9", "ftp://127.0.0.1:1", "http://"])
    def test_malformed_base_url_is_config_error_at_once(self, tmp_path, capsys, base_url):
        teacher = {"backend": "remote", "base_url": base_url, "model_name": "m"}
        cfg_path = write_config(tmp_path, answers=["b"], teacher=teacher)
        start = time.perf_counter()
        assert main(["generate", str(cfg_path)]) == 2
        assert time.perf_counter() - start < 0.5
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
        assert error["kind"] == "config"
        assert repr(base_url) in error["message"]


class TestStubServe:
    def test_server_built_from_config_serves_roles(self, tmp_path):
        cfg_path = write_config(tmp_path, answers=["b"])
        server = build_stub_server(load_run_config(cfg_path), "127.0.0.1", 0)
        with server:
            for role, vocab in (("teacher", 4), ("student", 4)):
                caps = handshake(BackendEndpoint(base_url=server.base_url, model_name=role))
                assert caps.vocab_size == vocab

    def test_remote_spec_cannot_be_served(self, tmp_path):
        cfg_path = write_config(
            tmp_path,
            answers=["b"],
            teacher={"backend": "remote", "base_url": "http://localhost:1", "model_name": "m"},
        )
        assert main(["stub-serve", str(cfg_path)]) == 2


class TestExitCodes:
    def test_missing_config_is_config_error(self, tmp_path):
        assert main(["generate", str(tmp_path / "nope.json")]) == 2

    def test_invalid_config_value_is_config_error(self, tmp_path):
        cfg_path = write_config(tmp_path, answers=["b"], attempts=0)
        assert main(["generate", str(cfg_path)]) == 2

    def test_corrupt_dataset_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"kind": "full-trace"\n')
        assert main(["analyze", str(bad)]) == 4

    def test_missing_problems_file_is_data_error(self, tmp_path):
        cfg_path = write_config(tmp_path, answers=["b"])
        (tmp_path / "problems.jsonl").unlink()
        assert main(["generate", str(cfg_path)]) == 4

    def test_vocabulary_mismatch_in_external_traces_is_data_error(self, tmp_path):
        cfg_path = write_config(tmp_path, answers=["b"])
        external = tmp_path / "external.jsonl"
        external.write_text(json.dumps({"prompt_tokens": [0], "tokens": [99]}) + "\n")
        assert main(["analyze", str(external), "--config", str(cfg_path)]) == 4

    def test_external_trace_fault_names_the_file_line(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, answers=["b"])
        external = tmp_path / "external.jsonl"
        rows = [{"prompt_tokens": [0], "tokens": [1, 2]}, {"prompt_tokens": [0], "tokens": [99]}]
        external.write_text(json.dumps(rows[0]) + "\n\n" + json.dumps(rows[1]) + "\n")
        assert main(["analyze", str(external), "--config", str(cfg_path)]) == 4
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
        assert error["kind"] == "data"
        assert f"{external}: line 3: token 99 out of vocabulary" in error["message"]

    @pytest.mark.parametrize("kind, lines, message", BAD_INPUTS)
    def test_bad_input_leaves_no_analysis_directory(self, tmp_path, capsys, kind, lines, message):
        assert main(analyze_argv(tmp_path, kind, lines)) == 4
        error = json.loads(capsys.readouterr().err.splitlines()[-1])["error"]
        assert f"{tmp_path / kind}.jsonl: {message}" in error["message"]
        assert not (tmp_path / f"{kind}_analysis").exists()
        assert not (tmp_path / f"{kind}_analysis.partial").exists()
        # nor the parent directories an --out below new directories needs
        assert main(analyze_argv(tmp_path, kind, lines) + ["--out", str(tmp_path / "new" / "dir" / "out")]) == 4
        assert not (tmp_path / "new").exists()

    @pytest.mark.parametrize(
        "kind, field, value, message",
        [
            pytest.param(*case, id=f"{case[0]}-{case[1]}={case[2]!r}")
            for case in [
                ("dataset", "p_student", "0.5", "p_student must be a number or null, got '0.5'"),
                ("dataset", "p_teacher", True, "p_teacher must be a number or null, got True"),
                ("dataset", "surprisal_student", [1.0], "surprisal_student must be a number or null, got [1.0]"),
                ("dataset", "accepted", "false", "accepted must be true or false, got 'false'"),
                ("dataset", "fallback", 0, "fallback must be true or false, got 0"),
                ("dataset", "token", 1980.0, "token must be an integer, got 1980.0"),
                ("dataset", "proposer", "nobody", "unknown proposer 'nobody'"),
                ("record", "problem_id", 5, "problem_id must be a string, got 5"),
                ("record", "source_trace_ref", 7, "source_trace_ref must be a string, got 7"),
                ("record", "stats", [], "stats must be an object, got []"),
                ("traces", "token", "1", "token must be an integer, got '1'"),
                ("traces", "prompt", [0.0], "prompt token must be an integer, got 0.0"),
                ("traces", "prompt", [True], "prompt token must be an integer, got True"),
            ]
        ],
    )
    def test_record_fields_are_refused_not_converted(self, tmp_path, capsys, kind, field, value, message):
        if kind in ("dataset", "record"):  # a token record's field, or the dataset record's own
            item = json.loads(TOY_LINES[0])
            (item if kind == "record" else item["records"][0])[field] = value
            lines = [json.dumps(item), '{"kind":"manifest","record_count":1,"schema":"rsdkit-dataset-v1"}']
            kind = "dataset"
        else:
            item = json.loads(GOOD_TRACE)
            (item if field == "prompt" else item["records"][0])[field] = value
            lines = [json.dumps(item)]
        assert main(analyze_argv(tmp_path, kind, lines)) == 4
        error = json.loads(capsys.readouterr().err.splitlines()[-1])["error"]
        assert error["kind"] == "data"
        assert f"{tmp_path / kind}.jsonl: " in error["message"] and "line 1" in error["message"]
        assert message in error["message"]

    def test_malformed_trace_file_is_data_error(self, tmp_path):
        path = tmp_path / "traces.jsonl"
        path.write_text('{"records": [], "config": {"bad": true}, "prompt": []}\n')
        assert main(["analyze", str(path)]) == 4

    def test_unreachable_backend_is_backend_error(self, tmp_path):
        cfg_path = write_config(
            tmp_path,
            answers=["b"],
            teacher={
                "backend": "remote",
                "base_url": "http://127.0.0.1:9",
                "model_name": "m",
                "timeout_s": 0.2,
                "max_retries": 0,
                "backoff_s": 0.01,
            },
        )
        assert main(["generate", str(cfg_path)]) == 3

    @pytest.mark.parametrize("capabilities", [False, True], ids=["handshake", "mid-run"])
    def test_non_json_backend_body_is_backend_error(
        self, tmp_path, capsys, html_server, capabilities
    ):
        teacher = {"backend": "remote", "base_url": html_server(capabilities), "model_name": "m"}
        cfg_path = write_config(tmp_path, answers=["b"], teacher=teacher)
        assert main(["generate", str(cfg_path)]) == 3
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
        assert error["kind"] == "backend"
        assert "body is not JSON" in error["message"]
        assert not (tmp_path / "dataset.jsonl").exists()

    def test_server_older_than_wire_protocol_v4_is_backend_error(self, tmp_path, capsys, html_server):
        teacher = {"backend": "remote", "base_url": html_server(capabilities=True, v4=False), "model_name": "m"}
        cfg_path = write_config(tmp_path, answers=["b"], teacher=teacher)
        assert main(["generate", str(cfg_path)]) == 3
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
        assert error["kind"] == "backend"
        assert "advertises no max_continuation" in error["message"]
        assert not (tmp_path / "dataset.jsonl").exists()

    def test_model_spec_key_its_backend_does_not_read_is_config_error(self, tmp_path, capsys):
        student = {"backend": "table", "eos_token": 3, "default": [0.25] * 4, "max_inflight": 8}
        cfg_path = write_config(tmp_path, answers=["b"], student=student)
        assert main(["generate", str(cfg_path)]) == 2
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
        assert error["kind"] == "config"
        assert "max_inflight" in error["message"]

    def test_backend_outage_mid_run_is_backend_error(self, tmp_path, monkeypatch, capsys):
        def outage(*args, **kwargs):
            raise BackendUnavailableError("server went away after the handshake")

        monkeypatch.setattr(cli, "decode", outage)
        cfg_path = write_config(tmp_path, answers=["b", "b"])
        assert main(["generate", str(cfg_path)]) == 3
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"]["kind"] == "backend"
        assert not (tmp_path / "dataset.jsonl").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["generate", "CONFIG", "--threshold", "2"],
            ["generate", "CONFIG", "--threshold", "-0.5"],
            ["generate", "CONFIG", "--attempts", "0"],
            ["generate", "CONFIG", "--workers", "0"],
            ["generate", "CONFIG", "--workers", "-1"],
            ["sweep", "CONFIG", "--thresholds", "0.1,1.5"],
            ["sweep", "CONFIG", "--thresholds", "0.1,abc"],
            ["sweep", "CONFIG", "--workers", "0"],
            ["analyze", "DATASET", "--threshold", "5"],
            ["analyze", "DATASET", "--threshold", "-1"],
        ],
        ids=lambda argv: f"{argv[0]}{argv[2]}={argv[3]}",
    )
    def test_out_of_range_override_is_config_error_before_any_work(
        self, tmp_path, monkeypatch, capsys, argv
    ):
        def no_work(*args, **kwargs):
            raise AssertionError("decoded before the overrides were checked")

        monkeypatch.setattr(cli, "decode", no_work)
        cfg_path = write_config(tmp_path, answers=["b"])
        sweep_dir = tmp_path / "sweep"
        analysis_dir = tmp_path / "analysis"
        argv = [{"CONFIG": str(cfg_path), "DATASET": str(TOY_DATASET)}.get(a, a) for a in argv]
        argv += {"sweep": ["--out-dir", str(sweep_dir)], "analyze": ["--out", str(analysis_dir)]}.get(
            argv[0], []
        )
        assert main(argv) == 2
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"]["kind"] == "config"
        assert "must" in payload["error"]["message"]
        assert not (tmp_path / "dataset.jsonl").exists()
        assert not sweep_dir.exists()
        assert not analysis_dir.exists()

    def test_non_numeric_config_count_is_config_error(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, answers=["b"], attempts="two")
        assert main(["generate", str(cfg_path)]) == 2
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
        assert error["kind"] == "config"
        assert "attempts" in error["message"]

    @pytest.mark.parametrize(
        "prompt, generation",
        [
            (list(range(3)) * 3 + [0], {"max_tokens": 6, "context_limit": 8}),  # 10 > 8 tokens
            ([7], {}),  # outside V=4
        ],
        ids=["overlong", "out-of-vocabulary"],
    )
    def test_undecodable_prompt_is_data_error_before_any_decoding(
        self, tmp_path, monkeypatch, capsys, prompt, generation
    ):
        calls = []
        monkeypatch.setattr(cli, "decode", lambda *args: calls.append(args))
        gen = {"regime": "rsd", "p_th": 0.01, "max_tokens": 6, "context_limit": 64, **generation}
        cfg_path = write_config(tmp_path, answers=["b", "b"], generation=gen)
        rows = [{"id": "q0", "prompt_tokens": [0], "answer": "b"},
                {"id": "q1", "prompt_tokens": prompt, "answer": "b"}]
        (tmp_path / "problems.jsonl").write_text("".join(json.dumps(r) + "\n" for r in rows))
        assert main(["generate", str(cfg_path)]) == 4
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
        assert error["kind"] == "data"
        assert "'q1'" in error["message"]
        assert calls == []
        assert not (tmp_path / "dataset.jsonl").exists()

    def test_prompt_token_that_is_not_an_integer_is_data_error_naming_the_line(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, answers=["b", "b"])
        rows = [{"id": "q0", "prompt_tokens": [0], "answer": "b"},
                {"id": "q1", "prompt_tokens": [1.5, True, "2"], "answer": "b"}]
        (tmp_path / "problems.jsonl").write_text("".join(json.dumps(r) + "\n" for r in rows))
        assert main(["generate", str(cfg_path)]) == 4
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
        assert error["kind"] == "data"
        assert "problems.jsonl: line 2: prompt token must be an integer, got 1.5" in error["message"]
        assert not (tmp_path / "dataset.jsonl").exists()

    @pytest.mark.parametrize(
        "row, reason",
        [
            ({"id": "q1", "prompt_tokens": [0]}, "missing key 'answer'"),
            ({"id": "q1", "prompt_tokens": "01", "answer": "b"}, "prompt token must be an integer, got '0'"),
            ({"id": "q1", "prompt_text": 5, "answer": "b"}, "prompt_text must be a string, got 5"),
            ({"id": "q1", "prompt_text": ["a", "b"], "answer": "b"}, "prompt_text must be a string, got ['a', 'b']"),
            ({"id": "q1", "prompt_text": "az", "answer": "b"}, "prompt_text character 'z' not in token_text"),
            ({"id": "q0", "prompt_tokens": [0], "answer": "b"}, "duplicate problem id 'q0'"),
            ({"id": "q1", "answer": "b"}, "need prompt_tokens or prompt_text"),
            ({"id": "q1", "prompt_tokens": [], "answer": "b"}, "problem 'q1' has an empty prompt"),
        ],
        ids=["missing-key", "wrong-type-tokens", "number-text", "list-text", "unknown-character", "duplicate-id",
             "no-prompt", "empty-prompt"],
    )
    def test_problems_line_fault_is_data_error_reading_path_line_reason(
        self, tmp_path, monkeypatch, capsys, row, reason
    ):
        calls = []
        monkeypatch.setattr(cli, "decode", lambda *args: calls.append(args))
        cfg_path = write_config(tmp_path, answers=["b"])
        problems = tmp_path / "problems.jsonl"
        rows = [{"id": "q0", "prompt_text": "ab", "answer": "b"}, row]
        problems.write_text("".join(json.dumps(r) + "\n" for r in rows))
        assert main(["generate", str(cfg_path)]) == 4
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
        assert error["kind"] == "data"
        assert error["message"] == f"{problems}: line 2: {reason}"
        assert calls == []
        assert not (tmp_path / "dataset.jsonl").exists()

    def test_token_text_without_single_characters_is_config_error_for_prompt_text(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, answers=["b"], token_text=["ab", "bc", "ca", ""])
        (tmp_path / "problems.jsonl").write_text(json.dumps({"id": "q0", "prompt_text": "ab", "answer": "b"}) + "\n")
        assert main(["generate", str(cfg_path)]) == 2
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
        assert error["kind"] == "config"
        assert "single-character token_text entry" in error["message"]

    def test_token_text_without_single_characters_serves_prompt_tokens_problems(self, tmp_path):
        # a table of multi-character fragments still renders traces; only prompt_text needs single characters
        cfg_path = write_config(tmp_path, answers=["bb"], token_text=["aa", "bb", "cc", ""])
        assert main(["generate", str(cfg_path)]) == 0
        assert (tmp_path / "dataset.jsonl").exists()

    @pytest.mark.parametrize(
        "regime, teacher_size, token_text, emitted",
        [
            ("rsd", 4, TOKEN_TEXT[:3], 4),
            ("solo-student", 4, TOKEN_TEXT[:2], 4),
            ("solo-teacher", 6, TOKEN_TEXT, 6),
        ],
    )
    def test_token_text_shorter_than_the_emitted_vocabulary_is_config_error_before_any_decoding(
        self, tmp_path, monkeypatch, capsys, regime, teacher_size, token_text, emitted
    ):
        # the run emits ids of the student's vocabulary, or of the teacher's in solo-teacher
        calls = []
        monkeypatch.setattr(cli, "decode", lambda *args: calls.append(args))
        teacher = {"backend": "table", "eos_token": 3, "rows": [], "default": [0.0, 1.0] + [0.0] * (teacher_size - 2)}
        generation = {"regime": regime, "p_th": 0.01, "max_tokens": 6, "context_limit": 64, "seed": 11}
        cfg_path = write_config(tmp_path, answers=["b"], teacher=teacher, generation=generation, token_text=token_text)
        assert main(["generate", str(cfg_path)]) == 2
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
        assert error["kind"] == "config"
        assert f"token_text has {len(token_text)} entries, fewer than the {emitted} ids" in error["message"]
        assert calls == []
        assert not (tmp_path / "dataset.jsonl").exists()

    def test_token_text_covering_the_emitted_vocabulary_is_enough(self, tmp_path):
        # solo-student emits student ids only: a teacher with a larger vocabulary needs no more entries
        teacher = {"backend": "table", "eos_token": 3, "rows": [], "default": [0.0, 1.0, 0.0, 0.0, 0.0, 0.0]}
        generation = {"regime": "solo-student", "p_th": 0.01, "max_tokens": 6, "context_limit": 64, "seed": 11}
        cfg_path = write_config(tmp_path, answers=["b"], teacher=teacher, generation=generation)
        assert main(["generate", str(cfg_path)]) == 0

    @pytest.mark.parametrize(
        "overrides, key",
        [
            ({"verifier": {"mode": "exact-match", "normalisation": []}}, "normalisation"),
            ({"output": {"datset": "mine.jsonl"}}, "datset"),
            (
                {"student": {"backend": "table", "eos_token": 3, "default": [0.25] * 4,
                             "rows": [{"sufix": [0], "probs": [0.25] * 4}]}},
                "sufix",
            ),
            ({"vocab_map": {"path": "map.json", "expansions": {}}}, "expansions"),
            ({"vocab_map": {"shared_size": 4, "supressed": []}}, "supressed"),
            ({"vocab_map": {"teacher_vocab_size": 4, "suppressed": [1]}}, "suppressed"),
        ],
        ids=["verifier", "output", "table-row", "map-path", "map-inline", "map-derived"],
    )
    def test_unknown_nested_key_is_config_error_and_writes_nothing(
        self, tmp_path, monkeypatch, capsys, overrides, key
    ):
        calls = []
        monkeypatch.setattr(cli, "decode", lambda *args: calls.append(args))
        cfg_path = write_config(tmp_path, answers=["b"], **overrides)
        before = sorted(tmp_path.iterdir())
        assert main(["generate", str(cfg_path)]) == 2
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
        assert error["kind"] == "config"
        assert repr(key) in error["message"]
        assert calls == []
        assert sorted(tmp_path.iterdir()) == before

    # each used to be converted or kept: "python3 check.py" ran as 16 one-character arguments, so every
    # judge was unverifiable and the run exited 0 having solved nothing
    @pytest.mark.parametrize(
        "key, value",
        [("command", "python3 check.py"), ("command", [1, 2]), ("timeout_s", True), ("timeout_s", "30"),
         ("timeout_s", 0), ("timeout_s", -5), ("timeout_s", float("nan")), ("normalization", "strip")],
    )
    def test_verifier_setting_of_the_wrong_shape_is_config_error_and_writes_nothing(
        self, tmp_path, monkeypatch, capsys, key, value
    ):
        calls = []
        monkeypatch.setattr(cli, "decode", lambda *args: calls.append(args))
        verifier = {"mode": "external-command", "command": [sys.executable, "check.py"], key: value}
        cfg_path = write_config(tmp_path, answers=["b"], verifier=verifier)
        before = sorted(tmp_path.iterdir())
        assert main(["generate", str(cfg_path)]) == 2
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
        assert error["kind"] == "config"
        assert f"bad verifier settings: {key} must be" in error["message"]
        assert calls == []
        assert sorted(tmp_path.iterdir()) == before

    @pytest.mark.parametrize(
        "vocab_map, message",
        [
            ({"shared_size": 4, "suppressed": [1], "expansions": {"1": [9]}}, "expansion value 9"),
            ({"shared_size": 4, "suppressed": [], "expansions": {"7": [1]}}, "expansion key 7"),
            ({"shared_size": 5}, "shared_size 5"),
            ({"teacher_vocab_size": 6, "student_vocab_size": 4}, "(6, 4)"),
            # int() used to round each of these to a map that fits the 4-token pair
            ({"shared_size": 4.0}, "shared_size must be an integer"),
            ({"shared_size": 3, "suppressed": [3.2]}, "suppressed must be an integer"),
            ({"shared_size": 3, "expansions": {"3": [1.5, 2]}}, "expansions[3] must be an integer"),
            ({"teacher_vocab_size": 4.6}, "teacher_vocab_size must be an integer"),
            ({"teacher_vocab_size": 4, "student_vocab_size": "4"}, "student_vocab_size must be an integer"),
            ({"teacher_vocab_size": 4, "expansions": {"3": [True]}}, "expansions[3] must be an integer"),
            # int() used to read each of these keys as an id, or "3" and "03" as one id
            *[({form: 4, "expansions": keys}, f"expansions key {bad!r}")
              for form in ("shared_size", "teacher_vocab_size") for bad, keys in BAD_EXPANSION_KEYS],
        ],
        ids=["value-outside-teacher", "key-outside-student", "shared-size", "derived-sizes",
             "float-shared-size", "float-suppressed", "float-expansion", "float-teacher-size",
             "string-student-size", "bool-derived-expansion",
             *[f"{form}-keys-{'-'.join(map(repr, keys))}" for form in ("inline", "derived")
               for _, keys in BAD_EXPANSION_KEYS]],
    )
    def test_map_that_is_malformed_or_does_not_fit_the_pair_is_config_error_before_any_decoding(
        self, tmp_path, monkeypatch, capsys, vocab_map, message
    ):
        calls = []
        monkeypatch.setattr(cli, "decode", lambda *args: calls.append(args))
        cfg_path = write_config(tmp_path, answers=["b"], vocab_map=vocab_map)
        (tmp_path / "problems.jsonl").write_text(
            json.dumps({"id": "a", "prompt_tokens": [0, 1], "answer": "b"}) + "\n"
        )
        assert main(["generate", str(cfg_path)]) == 2
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
        assert error["kind"] == "config"
        assert message in error["message"]
        assert calls == []
        assert not (tmp_path / "dataset.jsonl").exists()

    def test_solo_regime_ignores_the_map(self, tmp_path):
        generation = {"regime": "solo-student", "max_tokens": 6, "context_limit": 64, "seed": 11}
        vocab_map = {"teacher_vocab_size": 6, "student_vocab_size": 4}
        cfg_path = write_config(tmp_path, answers=["b"], generation=generation, vocab_map=vocab_map)
        assert main(["generate", str(cfg_path)]) == 0

    @pytest.mark.parametrize("order", [1.5, 2.0, "2"])
    def test_non_integer_ngram_order_is_config_error(self, tmp_path, capsys, order):
        # int() used to truncate 1.5 to 1 without a word
        student = {"backend": "ngram", "eos_token": 3, "corpus": [0, 1, 2, 3], "order": order}
        cfg_path = write_config(tmp_path, answers=["b"], student=student)
        assert main(["generate", str(cfg_path)]) == 2
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
        assert error["kind"] == "config"
        assert "order" in error["message"]
        assert not (tmp_path / "dataset.jsonl").exists()

    @pytest.mark.parametrize(
        "key, value",
        [
            ("vocab_size", 4.9), ("vocab_size", "4"), ("eos_token", True), ("order", True),
            ("corpus", [0, 1, -1, 2]), ("corpus", [0, 1, 3.7]), ("corpus", [0, "2", 1]), ("corpus", [0, True, 2]),
            ("smoothing", float("nan")), ("smoothing", float("inf")), ("smoothing", True),
        ],
    )
    def test_ngram_spec_value_that_would_be_rounded_is_config_error(self, tmp_path, capsys, key, value):
        student = {"backend": "ngram", "eos_token": 3, "corpus": [0, 1, 2, 3], "order": 1, key: value}
        cfg_path = write_config(tmp_path, answers=["b"], student=student)
        assert main(["generate", str(cfg_path)]) == 2
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
        assert error["kind"] == "config"
        assert "student: bad model spec" in error["message"]
        assert not (tmp_path / "dataset.jsonl").exists()

    def test_table_eos_token_that_would_be_rounded_is_config_error(self, tmp_path, capsys):
        student = {"backend": "table", "eos_token": 1.7, "rows": [], "default": [0.2, 0.5, 0.2, 0.1]}
        assert main(["generate", str(write_config(tmp_path, answers=["b"], student=student))]) == 2
        assert "eos_token must be an integer" in capsys.readouterr().err

    def test_non_utf8_config_is_config_error(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, answers=["b"])
        cfg_path.write_bytes(cfg_path.read_bytes().replace(b'"rsd"', b'"rsd\xff"'))
        assert main(["generate", str(cfg_path)]) == 2
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
        assert error["kind"] == "config"
        assert str(cfg_path) in error["message"]

    @pytest.mark.parametrize(
        "kind, line",
        [("problems", 1), ("dataset", 1), ("dataset", 2), ("traces", 2), ("external", 2)],
    )
    def test_non_utf8_input_is_data_error(self, tmp_path, capsys, kind, line):
        from rsdkit.decoding import GenerationConfig, decode

        cfg_path = write_config(tmp_path, answers=["b"])
        model = build_model(load_run_config(cfg_path).student_spec)
        first = {
            "problems": json.dumps({"id": "q0", "prompt_tokens": [0], "answer": "b"}),
            "dataset": TOY_DATASET.read_text().splitlines()[0],
            "traces": decode(model, model, [0], GenerationConfig(p_th=0.01, max_tokens=4)).to_json_line(),
            "external": json.dumps({"prompt_tokens": [0], "tokens": [1, 2]}),
        }[kind]
        lines = [first.encode(), b"\xff\xfe{}"]
        path = tmp_path / ("problems.jsonl" if kind == "problems" else f"{kind}.jsonl")
        path.write_bytes(b"\n".join(lines[2 - line :]) + b"\n")
        argv = ["generate", str(cfg_path)] if kind == "problems" else ["analyze", str(path)]
        argv += ["--config", str(cfg_path)] if kind == "external" else []
        assert main(argv) == 4
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
        assert error["kind"] == "data"
        assert f"{path}: line {line}: not UTF-8" in error["message"]

    @pytest.mark.parametrize(
        "field, value",
        [("regime", "rsdx"), ("verdict", "maybe"), ("tokens", [1, 2, 2])],
    )
    def test_inconsistent_dataset_record_is_data_error(self, tmp_path, capsys, field, value):
        lines = TOY_DATASET.read_text().splitlines()
        record = json.loads(lines[0])
        record[field] = value
        lines[0] = json.dumps(record)
        path = tmp_path / "bad.jsonl"
        path.write_text("\n".join(lines) + "\n")
        assert main(["analyze", str(path)]) == 4
        message = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]["message"]
        assert "line 1" in message
        assert field in message

    def test_unknown_flag_is_hard_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["generate", "cfg.json", "--frobnicate"])
        assert exc.value.code == 2

    def test_structured_error_emitted(self, tmp_path, capsys):
        main(["generate", str(tmp_path / "nope.json")])
        err = capsys.readouterr().err
        payload = json.loads(err.strip().splitlines()[-1])
        assert payload["error"]["kind"] == "config"


class TestHelp:
    def test_help_mentions_every_generate_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for flag in ("--workers", "--threshold", "--seed", "--attempts"):
            assert flag in out

    def test_top_level_help_lists_subcommands(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        out = capsys.readouterr().out
        for name in ("generate", "analyze", "sweep", "stub-serve"):
            assert name in out


class TestEmptyDatasetAnalyze:
    def test_empty_dataset_is_data_error(self, tmp_path):
        from rsdkit.pipeline import export_dataset

        path = tmp_path / "empty.jsonl"
        export_dataset([], path)
        assert main(["analyze", str(path)]) == 4

    def test_zero_token_record_is_data_error(self, tmp_path, capsys):
        record = {
            "kind": "full-trace",
            "problem_id": "p0",
            "records": [],
            "regime": "rsd",
            "source_trace_ref": "p0#attempt-0",
            "stats": {},
            "tokens": [],
            "verdict": "correct",
        }
        manifest = {"kind": "manifest", "record_count": 1, "schema": "rsdkit-dataset-v1"}
        path = tmp_path / "zero.jsonl"
        path.write_text(json.dumps(record) + "\n" + json.dumps(manifest) + "\n")
        assert main(["analyze", str(path)]) == 4
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
        assert error["kind"] == "data" and "line 1" in error["message"]


class TestRegimeMatrix:
    """All four regimes generate from the same problems; reports keep the
    summary-table shape (solo rows have no fallback rate, coordinated rows do)."""

    def test_reports_across_regimes(self, tmp_path):
        reports = {}
        for regime in ("rsd", "skd", "solo-teacher", "solo-student"):
            workdir = tmp_path / regime.replace("-", "_")
            workdir.mkdir()
            cfg_path = write_config(
                workdir,
                answers=["bbbbbb", "zzz", "bb"],
                generation={
                    "regime": regime,
                    "p_th": 0.05,
                    "temperature": 0.7,
                    "max_tokens": 6,
                    "context_limit": 64,
                    "seed": 11,
                },
            )
            assert main(["generate", str(cfg_path)]) == 0
            reports[regime] = json.loads((workdir / "report.json").read_text())
        for regime in ("rsd", "skd"):
            assert reports[regime]["fallback_rate_pct"] is not None
        for regime in ("solo-teacher", "solo-student"):
            assert reports[regime]["fallback_rate_pct"] is None
        for report in reports.values():
            assert report["problems_attempted"] == 3
            assert set(report) >= {
                "correctly_solved",
                "fallback_rate_pct",
                "sub_threshold_pct",
                "avg_token_count",
                "perplexity_summary",
            }

    def test_analyze_rerun_is_idempotent(self, tmp_path):
        cfg_path = write_config(tmp_path, answers=["bbbbbb", "zzz"])
        assert main(["generate", str(cfg_path)]) == 0
        out = tmp_path / "analysis"
        assert main(["analyze", str(tmp_path / "dataset.jsonl"), "--out", str(out)]) == 0
        first = (out / "report.json").read_bytes()
        assert main(["analyze", str(tmp_path / "dataset.jsonl"), "--out", str(out)]) == 0
        assert (out / "report.json").read_bytes() == first


class TestConsoleEntry:
    def test_module_invocation_shows_help(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "rsdkit.cli", "--help"], capture_output=True, text=True
        )
        assert proc.returncode == 0
        assert "generate" in proc.stdout
