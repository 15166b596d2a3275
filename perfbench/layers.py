"""Per-layer metrics derived from one traced command's spans.

A layer's self time is its spans' total duration minus the part covered by
their direct children. Counts are per command; every command of a run does
the same work, so they repeat exactly from command to command and from run
to run at one seed.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path

import numpy as np

NS = 1e-9

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
PER_LAYER = [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]]
END_TO_END = [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]]
UNITS = dict(PER_LAYER)
# counts that must repeat exactly between commands and between runs at one seed
EXACT = [n for n, u in PER_LAYER if u in ("count", "bytes") or n.endswith(("_ratio", "per_attempt", "per_problem"))]


class Spans:
    """Calls, total and self time per span name."""

    def __init__(self, dump: dict, window: tuple[int, int] | None = None) -> None:
        names = dump["names"]
        spans = dump["spans"]
        if window is not None:
            lo, hi = window
            spans = [s for s in spans if s[2] >= lo and s[3] <= hi]
        covered: dict[int, int] = defaultdict(int)
        for _sid, _nid, start, end, parent, _attempt in spans:
            if parent >= 0:
                covered[parent] += end - start
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.durations: dict[str, list[int]] = defaultdict(list)
        for sid, nid, start, end, _parent, _attempt in spans:
            name = names[nid]
            self.calls[name] += 1
            self.total[name] += end - start
            self.self_ns[name] += end - start - covered[sid]
            self.durations[name].append(end - start)
        self.count = len(spans)

    def self_s(self, name: str) -> float:
        return self.self_ns[name] * NS

    def total_s(self, name: str) -> float:
        return self.total[name] * NS


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def command_metrics(result: dict, client: dict, server: Spans | None, tokens: int) -> dict[str, float]:
    """Every per-layer metric for one traced command.

    ``tokens`` is what the command's throughput counts: tokens emitted over
    all attempts for ``generate``, tokens read for ``analyze``.
    """
    c = Spans(client)
    counters = client["counters"]
    work = result["work"]
    m: dict[str, float] = {}
    for role in ("teacher", "student"):
        name = f"models.{role}.next_distribution"
        m[f"{name}.calls"] = c.calls[name]
        m[f"{name}.self_s"] = c.self_s(name)
    for layer, name in (
        ("models.apply_temperature", "models.apply_temperature"),
        ("models.sample", "models.sample"),
        ("vocab.suppress", "vocab.suppress"),
        ("seeding.derive_seed", "seeding.derive_seed"),
        ("decoding.decode", "decoding.decode"),
        ("pipeline.verifier.judge", "pipeline.verifier.judge"),
    ):
        m[f"{layer}.calls"] = c.calls[name]
        m[f"{layer}.self_s"] = c.self_s(name)
    m["models.apply_temperature.per_attempt"] = _ratio(c.calls["models.apply_temperature"], work["attempts"])
    m["decoding.tokens"] = work["tokens"]
    m["decoding.accept_ratio"] = _ratio(work["accepted"], work["tokens"])
    per_problem = np.asarray(c.durations["pipeline.rejection_sample"], dtype=np.float64) * NS
    m["pipeline.rejection_sample.s"] = float(per_problem.sum())
    m["pipeline.rejection_sample.p50_s"] = float(np.percentile(per_problem, 50)) if per_problem.size else 0.0
    m["pipeline.rejection_sample.p90_s"] = float(np.percentile(per_problem, 90)) if per_problem.size else 0.0
    m["pipeline.attempts_per_problem"] = _ratio(work["attempts"], work["problems"])
    m["pipeline.solve_ratio"] = _ratio(work["solved"], work["problems"])
    m["pipeline.failed_ratio"] = _ratio(work["failed"], work["attempts"])
    m["pipeline.assemble_dataset.self_s"] = c.self_s("pipeline.assemble_dataset")
    m["pipeline.export_dataset.self_s"] = c.self_s("pipeline.export_dataset")
    m["pipeline.export_dataset.bytes"] = counters.get("pipeline.export_dataset.bytes", 0)
    for name in ("config.load_run_config", "config.build_model.teacher", "config.build_model.student", "config.load_problems"):
        m[f"{name}.s"] = c.total_s(name)

    calls = c.calls["remote.next_distribution"]
    posts = c.calls["remote.request.POST"]
    http = c.calls["remote.http.POST"]
    m["remote.next_distribution.calls"] = calls
    m["remote.cache.hits"] = calls - posts
    m["remote.cache.hit_ratio"] = _ratio(calls - posts, calls)
    m["remote.http.requests"] = http
    m["remote.http.retries"] = http - posts
    m["remote.http.failed"] = counters.get("remote.http.POST.failed", 0)
    m["remote.http.round_trip_s"] = c.total_s("remote.http.POST")
    m["remote.http.request_bytes"] = counters.get("remote.http.POST.request_bytes", 0)
    m["remote.http.response_bytes"] = counters.get("remote.http.POST.response_bytes", 0)
    m["remote.json_decode.self_s"] = c.self_s("remote.json_decode")
    m["remote.decode_payload.self_s"] = c.self_s("remote.decode_payload")
    s = server
    m["stub_server.requests"] = s.calls["stub_server.handler"] if s else 0
    m["stub_server.handler.s"] = s.total_s("stub_server.handler") if s else 0.0
    m["stub_server.model.s"] = s.total_s("stub_server.model") if s else 0.0
    m["stub_server.full_payload.self_s"] = s.self_s("stub_server.full_payload") if s else 0.0
    m["stub_server.json_encode.self_s"] = s.self_s("stub_server.json_encode") if s else 0.0
    m["remote.http.wait_s"] = m["remote.http.round_trip_s"] - m["stub_server.handler.s"]

    m["pipeline.import_dataset.self_s"] = c.self_s("pipeline.import_dataset")
    for name in ("metrics.dataset_report", "metrics.records_perplexity", "metrics.low_prob_token_tally", "metrics.csv"):
        m[f"{name}.self_s"] = c.self_s(name)
    m["metrics.csv.files"] = c.calls["metrics.csv"]
    m["tracing.spans"] = c.count + (s.count if s else 0)
    work_s = (result["t_end"] - result["t_setup_end"]) * NS
    m["tracing.tokens_per_s"] = tokens / work_s
    assert set(m) == set(UNITS), sorted(set(m) ^ set(UNITS))
    return m
