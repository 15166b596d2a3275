"""Acceptance suite: one test per criterion, tolerances pinned.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass line per
criterion. Every expected value is either forced by construction, derived
from an independent oracle implemented here (plain-Python enumeration,
raw-JSON rescans, replay), or a frozen hand computation.
"""

from __future__ import annotations

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from rsdkit.cli import main
from rsdkit.decoding import GenerationConfig, decode
from rsdkit.metrics import (
    aggregate_records,
    low_prob_token_tally,
    records_perplexity,
    step_entropy,
)
from rsdkit.models import Distribution, TableModel
from rsdkit.pipeline import (
    Problem,
    Verifier,
    run_generation,
    write_traces_jsonl,
)
from rsdkit.metrics import dataset_report
from rsdkit.remote import BackendEndpoint, RemoteModel
from rsdkit.stub_server import StubServer
from rsdkit.vocab import DualContext, build_vocab_map, replay_student_context, suppress

REPO = Path(__file__).resolve().parent.parent

ACCEPTANCE_THRESHOLDS = (0.003, 0.01, 0.03, 0.1)


def passed(n: int, detail: str) -> None:
    print(f"PASS criterion {n:02d}: {detail}")


def random_pair(rng: np.random.Generator, vocab: int | None = None):
    """Seeded toy teacher/student pair over one shared vocabulary."""
    vocab = vocab or int(rng.integers(3, 8))
    eos = vocab - 1

    def model():
        rows = {}
        for _ in range(int(rng.integers(0, 3))):
            suffix = tuple(int(t) for t in rng.integers(0, vocab, size=int(rng.integers(1, 3))))
            rows[suffix] = rng.dirichlet(np.ones(vocab) * rng.uniform(0.3, 2.0))
        return TableModel(rows, rng.dirichlet(np.ones(vocab) * rng.uniform(0.3, 2.0)), eos_token=eos)

    return model(), model()


class TestCriterion1ThresholdInvariant:
    def test_accepted_records_always_meet_threshold(self):
        start = time.monotonic()
        rng = np.random.default_rng(20240817)
        violations = 0
        accepted_total = 0
        traces = 0
        for p_th in ACCEPTANCE_THRESHOLDS:
            for trial in range(250):
                teacher, student = random_pair(rng)
                cfg = GenerationConfig(
                    p_th=p_th,
                    max_tokens=16,
                    temperature=0.7,
                    context_limit=64,
                    seed=int(rng.integers(0, 2**63)),
                )
                trace = decode(teacher, student, [0], cfg)
                traces += 1
                for rec in trace.records:
                    if rec.accepted:
                        accepted_total += 1
                        if not rec.p_student >= p_th:
                            violations += 1
        elapsed = time.monotonic() - start
        assert traces == 1000
        assert violations == 0
        assert accepted_total > 0
        assert elapsed < 30.0
        passed(
            1,
            f"{traces} traces, {accepted_total} accepted records, 0 violations "
            f"({elapsed:.1f}s < 30s)",
        )


class TestCriterion2Degeneracy:
    def test_zero_threshold_regimes_collapse_to_solo(self):
        rng = np.random.default_rng(7777)
        rsd_mismatches = 0
        skd_mismatches = 0
        for run in range(200):
            teacher, student = random_pair(rng)
            seed = int(rng.integers(0, 2**63))
            shared = dict(p_th=0.0, max_tokens=12, temperature=0.7, context_limit=64, seed=seed)
            rsd = decode(teacher, student, [0], GenerationConfig(**shared))
            solo_t = decode(teacher, None, [0], GenerationConfig(**shared, regime="solo-teacher"))
            if rsd.tokens() != solo_t.tokens():
                rsd_mismatches += 1
            skd = decode(teacher, student, [0], GenerationConfig(**shared, regime="skd"))
            solo_s = decode(None, student, [0], GenerationConfig(**shared, regime="solo-student"))
            if skd.tokens() != solo_s.tokens():
                skd_mismatches += 1
        assert rsd_mismatches == 0
        assert skd_mismatches == 0
        passed(2, "200 RSD=solo-teacher and 200 SKD=solo-student runs, zero mismatches")


# ---------------------------------------------------------------------------
# criterion 3: exhaustive branch enumeration, implemented independently of the
# engine (plain-Python lookup, tempering, and per-step emission marginals)
# ---------------------------------------------------------------------------


def oracle_lookup(rows: dict, default: list[float], ctx: list[int]) -> list[float]:
    best, best_len = default, -1
    for suffix, row in rows.items():
        n = len(suffix)
        if n <= len(ctx) and tuple(ctx[len(ctx) - n :]) == suffix and n > best_len:
            best, best_len = row, n
    return best


def oracle_temper(probs: list[float], temperature: float) -> list[float]:
    if temperature == 1.0:
        return list(probs)
    weights = [math.pow(p, 1.0 / temperature) if p > 0.0 else 0.0 for p in probs]
    z = sum(weights)
    return [w / z for w in weights]


def oracle_emission(tspec, sspec, ctx: list[int], p_th: float, temperature: float) -> list[float]:
    pt = oracle_temper(oracle_lookup(*tspec, ctx), temperature)
    ps_raw = oracle_lookup(*sspec, ctx)
    ps_temp = oracle_temper(ps_raw, temperature)
    fallback_mass = sum(pt[y] for y in range(len(pt)) if ps_raw[y] < p_th)
    out = [
        (pt[w] if ps_raw[w] >= p_th else 0.0) + fallback_mass * ps_temp[w]
        for w in range(len(pt))
    ]
    assert abs(sum(out) - 1.0) < 1e-12
    return out


def oracle_enumerate(tspec, sspec, prompt, p_th, temperature, max_tokens, eos):
    strings: dict[tuple[int, ...], float] = {}

    def go(ctx: list[int], emitted: list[int], prob: float) -> None:
        if emitted and emitted[-1] == eos or len(emitted) == max_tokens:
            strings[tuple(emitted)] = strings.get(tuple(emitted), 0.0) + prob
            return
        for token, p in enumerate(oracle_emission(tspec, sspec, ctx, p_th, temperature)):
            if p > 0.0:
                go(ctx + [token], emitted + [token], prob * p)

    go(list(prompt), [], 1.0)
    assert abs(sum(strings.values()) - 1.0) < 1e-9
    return strings


ORACLE_PAIRS = [
    # (teacher rows, teacher default, student rows, student default, p_th, T, vocab)
    ({}, [0.5, 0.3, 0.2], {}, [0.6, 0.25, 0.15], 0.2, 1.0, 3),
    (
        {(1,): [0.1, 0.1, 0.8]},
        [0.45, 0.45, 0.1],
        {(1,): [0.2, 0.7, 0.1]},
        [1 / 3, 1 / 3, 1 / 3],
        0.15,
        0.7,
        3,
    ),
    ({}, [0.0, 1.0, 0.0, 0.0], {}, [0.05, 0.12, 0.63, 0.2], 0.125, 0.8, 4),
    ({}, [0.4, 0.4, 0.2], {}, [0.55, 0.4, 0.05], 0.1, 0.5, 3),
    (
        {},
        [0.25, 0.25, 0.25, 0.25],
        {(0,): [0.7, 0.1, 0.1, 0.1]},
        [0.1, 0.2, 0.3, 0.4],
        0.3,
        1.0,
        4,
    ),
]


class TestCriterion3DecodeDistributionOracle:
    RUNS = 100_000

    def test_empirical_string_frequencies_match_enumeration(self):
        start = time.monotonic()
        for pair_idx, (t_rows, t_def, s_rows, s_def, p_th, temp, vocab) in enumerate(ORACLE_PAIRS):
            eos = vocab - 1
            expected = oracle_enumerate(
                ({tuple(k): v for k, v in t_rows.items()}, t_def),
                ({tuple(k): v for k, v in s_rows.items()}, s_def),
                [0],
                p_th,
                temp,
                max_tokens=3,
                eos=eos,
            )
            teacher = TableModel(t_rows, t_def, eos_token=eos)
            student = TableModel(s_rows, s_def, eos_token=eos)
            counts: dict[tuple[int, ...], int] = {}
            for seed in range(self.RUNS):
                cfg = GenerationConfig(
                    p_th=p_th,
                    max_tokens=3,
                    temperature=temp,
                    context_limit=16,
                    seed=seed * 1009 + pair_idx,
                )
                key = tuple(decode(teacher, student, [0], cfg).tokens())
                counts[key] = counts.get(key, 0) + 1
            # every observed string must be possible
            impossible = set(counts) - set(expected)
            assert not impossible, f"pair {pair_idx} produced impossible strings {impossible}"
            for string, p in expected.items():
                freq = counts.get(string, 0) / self.RUNS
                band = 4.0 * math.sqrt(p * (1.0 - p) / self.RUNS)
                assert abs(freq - p) <= band, (
                    f"pair {pair_idx} string {string}: freq {freq:.5f} vs p {p:.5f} "
                    f"(4se band {band:.5f})"
                )
        elapsed = time.monotonic() - start
        assert elapsed < 120.0
        passed(
            3,
            f"{len(ORACLE_PAIRS)} pairs x {self.RUNS} runs inside 4 standard errors "
            f"({elapsed:.1f}s < 120s)",
        )


class TestCriterion4MetricIdentities:
    def generated_traces(self):
        rng = np.random.default_rng(31337)
        traces = []
        for trial in range(60):
            teacher, student = random_pair(rng)
            cfg = GenerationConfig(
                p_th=float(rng.choice(ACCEPTANCE_THRESHOLDS)),
                max_tokens=14,
                temperature=0.7,
                context_limit=64,
                seed=trial,
            )
            traces.append(decode(teacher, student, [0], cfg))
        return [t for t in traces if len(t.records)]

    def test_identities_and_bounds(self):
        traces = self.generated_traces()
        assert traces
        for trace in traces:
            with np.errstate(divide="ignore"):  # ln 0 is -inf: an unscoreable token
                series = -np.log([r.p_student for r in trace.records])
            assert records_perplexity(trace.records) == pytest.approx(
                math.exp(float(series.mean())), rel=1e-9
            )
        rng = np.random.default_rng(5150)
        for _ in range(200):
            size = int(rng.integers(2, 20))
            h = step_entropy(Distribution(rng.dirichlet(np.ones(size) * rng.uniform(0.1, 3))))
            assert 0.0 <= h <= math.log(size) + 1e-12
        thresholds = sorted(float(t) for t in rng.uniform(0.0, 0.5, size=20))
        items = [(t.config.regime, t.records) for t in traces]
        ratios = [aggregate_records(items, t).below / sum(map(len, traces)) for t in thresholds]
        assert ratios == sorted(ratios)
        passed(
            4,
            f"exp(mean surprisal)=perplexity on {len(traces)} traces at 1e-9, entropy "
            "bounds on 200 distributions, ratio monotone across 20 thresholds",
        )


class TestCriterion5RecountOracles:
    def test_engine_aggregates_equal_independent_rescan(self, tmp_path):
        rng = np.random.default_rng(60601)
        traces = []
        for trial in range(50):
            teacher, student = random_pair(rng)
            cfg = GenerationConfig(
                p_th=0.03, max_tokens=12, temperature=0.7, context_limit=64, seed=trial
            )
            traces.append(decode(teacher, student, [0], cfg))
        path = tmp_path / "traces.jsonl"
        write_traces_jsonl(traces, path)

        # independent rescan: raw JSON, no engine types
        raw = [json.loads(line) for line in path.read_text().splitlines() if line.strip()]
        assert len(raw) == 50
        total = sum(len(r["records"]) for r in raw)
        scan_fallbacks = sum(1 for r in raw for rec in r["records"] if rec["fallback"])
        scan_below = sum(1 for r in raw for rec in r["records"] if rec["p_student"] < 0.01)
        scan_tally: dict[int, int] = {}
        for r in raw:
            for rec in r["records"]:
                if rec["p_student"] < 0.01:
                    scan_tally[rec["token"]] = scan_tally.get(rec["token"], 0) + 1

        agg = aggregate_records(((t.config.regime, t.records) for t in traces), 0.01)
        assert agg.coordinated
        assert agg.fallbacks / agg.tokens == scan_fallbacks / total
        assert agg.below / agg.tokens == scan_below / total
        assert low_prob_token_tally((t.records for t in traces), 0.01) == scan_tally
        passed(5, f"fallback, sub-threshold, tally over {total} serialized records, bit-exact")


class TestCriterion6PipelineShape:
    def test_twelve_full_traces_and_eight_prefixes(self):
        teacher = TableModel({}, [0.0, 1.0, 0.0, 0.0], eos_token=3)
        student = TableModel({}, [0.2, 0.5, 0.2, 0.1], eos_token=3)
        cfg = GenerationConfig(
            p_th=0.01, max_tokens=150, temperature=0.7, context_limit=256, seed=5
        )
        # deterministic construction: rsd emits "b" x 150; 12 problems carry
        # that as the reference answer, 8 carry an unreachable one
        solved_text = "b" * 150
        token_text = ["a", "b", "c", ""]
        problems = [
            Problem(
                id=f"p{i:02d}",
                prompt_tokens=(0,),
                answer=solved_text if i % 5 != 4 and i < 15 else "zzz",
            )
            for i in range(20)
        ]
        expected_solved = sum(1 for p in problems if p.answer == solved_text)
        assert expected_solved == 12

        def generator(prompt, seed):
            return decode(teacher, student, prompt, cfg.with_seed(seed))

        records = list(
            run_generation(
                problems,
                generator,
                Verifier(mode="exact-match", normalization=()),
                attempts=2,
                base_seed=99,
                detokenize=lambda ts: "".join(token_text[t] for t in ts),
                prefix_length=128,
            )
        )

        kinds = [r.kind for r in records]
        assert kinds.count("full-trace") == 12
        assert kinds.count("upft-prefix") == 8
        assert [r.problem_id for r in records] == [p.id for p in problems]
        assert all(len(r.tokens) <= 128 for r in records if r.kind == "upft-prefix")
        assert all(len(r.tokens) == 128 for r in records if r.kind == "upft-prefix")

        report = dataset_report(records, 0.01)
        assert report["problems_attempted"] == 20
        assert report["correctly_solved"] == 12
        total_tokens = sum(len(r.records) for r in records)
        assert report["avg_token_count"] == total_tokens / 20
        assert report["fallback_rate_pct"] == 0.0
        assert 0.0 <= report["sub_threshold_pct"] <= 100.0
        assert report["perplexity_summary"]["min"] <= report["perplexity_summary"]["max"]
        passed(6, "20 problems -> 12 full traces + 8 prefixes (all exactly 128 tokens)")


class TestCriterion7Determinism:
    def test_serial_and_parallel_generate_byte_identical(self, tmp_path):
        problems = tmp_path / "problems.jsonl"
        answers = ["bbbbbb", "zzz", "bb", "ab", "ba", "zzz"] * 2
        with open(problems, "w") as fh:
            for i, answer in enumerate(answers):
                fh.write(
                    json.dumps({"id": f"q{i}", "prompt_tokens": [0], "answer": answer}) + "\n"
                )
        config = {
            "generation": {
                "regime": "rsd",
                "p_th": 0.05,
                "temperature": 0.7,
                "max_tokens": 6,
                "context_limit": 64,
                "seed": 23,
            },
            "teacher": {
                "backend": "table",
                "eos_token": 3,
                "rows": [{"suffix": [1], "probs": [0.3, 0.3, 0.2, 0.2]}],
                "default": [0.1, 0.6, 0.2, 0.1],
            },
            "student": {
                "backend": "ngram",
                "corpus": [0, 1, 1, 2, 1, 1, 0, 3, 1, 2, 1, 3],
                "order": 2,
                "smoothing": 0.5,
                "vocab_size": 4,
                "eos_token": 3,
            },
            "token_text": ["a", "b", "c", ""],
            "verifier": {"mode": "exact-match", "normalization": []},
            "attempts": 3,
            "prefix_length": 4,
            "problems": "problems.jsonl",
            "output": {"dataset": "dataset.jsonl", "report": "report.json"},
        }
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(config))

        outputs = {}
        for workers in ("1", "4"):
            assert main(["generate", str(cfg_path), "--workers", workers]) == 0
            outputs[workers] = (tmp_path / "dataset.jsonl").read_bytes()
        assert outputs["1"] == outputs["4"]
        passed(7, f"serial vs 4-worker dataset files identical ({len(outputs['1'])} bytes)")


class TestCriterion8BackendEquivalence:
    def test_stub_server_decodes_byte_identical(self):
        rng = np.random.default_rng(424242)
        teacher = TableModel(
            {(1,): rng.dirichlet(np.ones(4))}, rng.dirichlet(np.ones(4)), eos_token=3
        )
        student = TableModel({}, rng.dirichlet(np.ones(4)), eos_token=3)
        with StubServer({"teacher": teacher}) as server:
            remote_teacher = RemoteModel(
                BackendEndpoint(base_url=server.base_url, model_name="teacher")
            )
            mismatches = 0
            for seed in range(100):
                cfg = GenerationConfig(
                    p_th=0.05, max_tokens=8, temperature=0.7, context_limit=32, seed=seed
                )
                local = decode(teacher, student, [0], cfg)
                over_wire = decode(remote_teacher, student, [0], cfg)
                if local.to_json_line() != over_wire.to_json_line():
                    mismatches += 1
        assert mismatches == 0
        passed(8, "100 seeded traces via stub server byte-identical to in-process")


class TestCriterion9VocabularyAlignment:
    TEACHER_VOCAB = 152064
    STUDENT_VOCAB = 151936
    EXPANSIONS = {
        151665: (27, 26865, 29),
        151668: (522, 26865, 29),  # the documented student-only marker
    }

    def build(self):
        vmap = build_vocab_map(self.TEACHER_VOCAB, self.STUDENT_VOCAB, self.EXPANSIONS)
        teacher_row = np.zeros(self.TEACHER_VOCAB)
        teacher_row[7] = 0.5
        teacher_row[3] = 0.35
        teacher_row[9] = 0.05
        teacher_row[self.STUDENT_VOCAB :] = 0.1 / 128  # mass on the synthetic surplus
        teacher = TableModel({}, teacher_row, eos_token=9)
        student_row = np.zeros(self.STUDENT_VOCAB)
        student_row[151668] = 0.9
        student_row[9] = 0.05
        student_row[7] = 1e-5
        student_row[3] = 0.04999
        student = TableModel({}, student_row, eos_token=9)
        return vmap, teacher, student

    def test_replay_verification_and_suppression_normalization(self):
        vmap, teacher, student = self.build()
        assert vmap.expand(151668) == (522, 26865, 29)
        surplus = frozenset(range(self.STUDENT_VOCAB, self.TEACHER_VOCAB))
        assert len(surplus) == 128
        assert surplus <= vmap.suppressed

        raw = teacher.next_distribution([7])
        filtered = suppress(raw, vmap)
        assert abs(float(filtered.probs.sum()) - 1.0) <= 1e-9
        assert float(filtered.probs[list(surplus)].sum()) == 0.0
        assert filtered.probs[151668] == 0.0  # teacher homonym of the marker

        traces_with_native = 0
        for seed in range(20):
            cfg = GenerationConfig(
                p_th=0.01, max_tokens=6, temperature=0.7, context_limit=64, seed=seed
            )
            trace = decode(teacher, student, [3], cfg, vmap)
            stream = list(trace.prompt) + trace.tokens()
            if any(vmap.is_student_only(t) for t in stream):
                traces_with_native += 1
            # two independent reconstructions of the teacher-side context
            replayed = replay_student_context(stream, vmap)
            ctx = DualContext.from_prompt(stream, vmap, 4 * len(stream) + 4)
            assert ctx.teacher == replayed
            assert ctx.student == stream
            assert len(replayed) >= len(stream)
        assert traces_with_native > 0
        passed(
            9,
            f"{traces_with_native}/20 traces used student-native markers, replay-verified; "
            "128 suppressed ids, distributions renormalized within 1e-9",
        )


class TestCriterion10ReferenceStatisticsDocumentation:
    def test_analyze_on_shipped_fixture_matches_hand_computation(self, tmp_path):
        fixture = REPO / "fixtures" / "toy_dataset.jsonl"
        out = tmp_path / "analysis"
        assert main(["analyze", str(fixture), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())

        # schema: every summary-table column plus the average token count
        for column in (
            "correctly_solved",
            "fallback_rate_pct",
            "sub_threshold_pct",
            "avg_token_count",
            "problems_attempted",
            "perplexity_summary",
        ):
            assert column in report, column

        # frozen hand computation: 8 tokens, 4 fallbacks, 2 below 1%;
        # 2 of 3 records solved
        assert report["problems_attempted"] == 3
        assert report["correctly_solved"] == 2
        assert report["fallback_rate_pct"] == 50.0
        assert report["sub_threshold_pct"] == 25.0
        assert report["avg_token_count"] == 8 / 3
        assert report["sub_threshold"] == 0.01
        expected_ppls = [
            math.exp((-math.log(0.5) - math.log(0.004) - math.log(0.2)) / 3),
            math.exp((-math.log(0.9) - math.log(0.008)) / 2),
            math.exp((-math.log(0.6) - math.log(0.7) - math.log(0.8)) / 3),
        ]
        assert report["perplexity_summary"]["min"] == pytest.approx(
            min(expected_ppls), rel=1e-12
        )
        assert report["perplexity_summary"]["max"] == pytest.approx(
            max(expected_ppls), rel=1e-12
        )
        assert report["perplexity_summary"]["mean"] == pytest.approx(
            sum(expected_ppls) / 3, rel=1e-12
        )
        passed(10, "analyze on shipped fixture: schema complete, values exact")
