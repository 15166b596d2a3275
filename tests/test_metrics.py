"""Metric definitions, identities, and recount oracles."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rsdkit import metrics
from rsdkit.decoding import GenerationConfig, TokenRecord, Trace, _surprisal, decode
from rsdkit.metrics import (
    aggregate_records,
    dataset_report,
    low_prob_token_tally,
    records_perplexity,
    step_entropy,
    summary_stats,
    write_surprisal_csv,
    write_token_tally_csv,
)
from rsdkit.models import Distribution, TableModel
from rsdkit.pipeline import DatasetRecord


def make_trace(p_students, regime="rsd", fallbacks=None, tokens=None) -> Trace:
    fallbacks = fallbacks or [False] * len(p_students)
    tokens = tokens or list(range(len(p_students)))
    records = [
        TokenRecord(
            token=tokens[i],
            proposer="student" if fallbacks[i] else "teacher",
            accepted=not fallbacks[i],
            fallback=fallbacks[i],
            p_teacher=0.5,
            p_student=p,
            surprisal_student=math.inf if p == 0 else -math.log(p),
        )
        for i, p in enumerate(p_students)
    ]
    cfg = GenerationConfig(p_th=0.01, max_tokens=max(len(p_students), 1), regime=regime)
    return Trace(prompt=(0,), records=records, config=cfg, terminated_by="length-budget")


class TestSurprisal:
    """The surprisal decoding records for each token, ``-ln(p_student)``."""

    def test_certain_token_has_zero_surprisal(self):
        assert _surprisal(1.0) == 0.0

    def test_inverse_e_token_has_unit_surprisal(self):
        assert _surprisal(math.exp(-1)) == pytest.approx(1.0, abs=1e-12)

    def test_one_percent_token(self):
        assert _surprisal(0.01) == pytest.approx(4.605170185988091, abs=1e-9)

    def test_zero_probability_flags_infinity(self):
        series = [_surprisal(p) for p in (0.5, 0.0, 0.5)]
        assert series[1] == math.inf
        assert np.isfinite([series[0], series[2]]).all()

    def test_unscored_trace_rejected(self):
        trace = make_trace([0.5])
        trace.records[0].surprisal_student = None
        with pytest.raises(ValueError, match="no surprisal values"):
            records_perplexity(trace.records)


class TestEntropy:
    def test_one_hot_is_zero(self):
        assert step_entropy(Distribution([0.0, 1.0, 0.0])) == 0.0

    def test_uniform_is_log_vocab(self):
        assert step_entropy(Distribution([0.25] * 4)) == pytest.approx(math.log(4), abs=1e-12)

    def test_half_half_with_zeros(self):
        assert step_entropy(Distribution([0.5, 0.5, 0.0, 0.0])) == pytest.approx(
            math.log(2), abs=1e-12
        )

    def test_bounds_hold_on_random_distributions(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            size = int(rng.integers(2, 16))
            h = step_entropy(Distribution(rng.dirichlet(np.ones(size) * rng.uniform(0.1, 4))))
            assert 0.0 <= h <= math.log(size) + 1e-12


class TestPerplexity:
    def test_constant_half_probability_gives_two(self):
        assert records_perplexity(make_trace([0.5, 0.5, 0.5]).records) == pytest.approx(2.0, rel=1e-12)

    def test_single_tenth_probability_gives_ten(self):
        assert records_perplexity(make_trace([0.1]).records) == pytest.approx(10.0, rel=1e-12)

    def test_geometric_mean_identity(self):
        assert records_perplexity(make_trace([0.5, 0.125]).records) == pytest.approx(4.0, rel=1e-12)

    def test_equals_exp_mean_surprisal(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            probs = rng.uniform(1e-4, 1.0, size=int(rng.integers(1, 30)))
            trace = make_trace(list(probs))
            lhs = records_perplexity(trace.records)
            rhs = math.exp(float(np.mean(-np.log(probs))))
            assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_empty_records_have_nan_perplexity(self):
        assert math.isnan(records_perplexity(make_trace([]).records))

    def test_infinite_surprisal_flags_infinite_perplexity(self):
        assert records_perplexity(make_trace([0.5, 0.0]).records) == math.inf


class TestSubThreshold:
    def test_one_of_three_below(self):
        agg = aggregate_records([("rsd", make_trace([0.5, 0.005, 0.2]).records)], 0.01)
        assert agg.below / agg.tokens == pytest.approx(1 / 3)

    def test_none_below(self):
        assert aggregate_records([("rsd", make_trace([0.5, 0.2]).records)], 0.01).below == 0

    def test_strict_inequality_at_boundary(self):
        assert aggregate_records([("rsd", make_trace([0.01]).records)], 0.01).below == 0

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(12)
        traces = [make_trace(list(rng.uniform(0, 0.3, size=20))) for _ in range(5)]
        thresholds = sorted(rng.uniform(0, 0.4, size=20))
        items = [(t.config.regime, t.records) for t in traces]
        counts = [aggregate_records(items, th).below for th in thresholds]
        assert counts == sorted(counts)


class TestFallbackRate:
    def test_all_accepted_is_zero(self):
        assert aggregate_records([("rsd", make_trace([0.5] * 4).records)]).fallbacks == 0

    def test_all_fallback_is_one(self):
        agg = aggregate_records([("rsd", make_trace([0.5] * 4, fallbacks=[True] * 4).records)])
        assert agg.fallbacks / agg.tokens == 1.0

    def test_solo_traces_rejected(self):
        trace = make_trace([0.5], regime="solo-student")
        agg = aggregate_records([(trace.config.regime, trace.records)])
        assert not agg.coordinated
        assert agg.report_fields()["fallback_rate_pct"] is None

    def test_mixed_collection_matches_recount(self):
        rng = np.random.default_rng(4)
        traces = [
            make_trace(
                list(rng.uniform(0, 1, size=6)), fallbacks=list(rng.random(6) < 0.3)
            )
            for _ in range(8)
        ]
        expected = sum(r.fallback for t in traces for r in t.records) / sum(len(t) for t in traces)
        agg = aggregate_records((t.config.regime, t.records) for t in traces)
        assert agg.coordinated
        assert agg.fallbacks / agg.tokens == expected


class TestRecountOracle:
    """Engine aggregates must equal an independent rescan of serialized JSONL."""

    def build_dataset(self, tmp_path):
        rng = np.random.default_rng(99)
        traces = []
        for i in range(12):
            teacher = TableModel({}, rng.dirichlet(np.ones(5)), eos_token=4)
            student = TableModel({}, rng.dirichlet(np.ones(5) * 0.4), eos_token=4)
            cfg = GenerationConfig(p_th=0.05, max_tokens=10, seed=i)
            traces.append(decode(teacher, student, [0], cfg))
        path = tmp_path / "traces.jsonl"
        path.write_text("".join(t.to_json_line() + "\n" for t in traces))
        return traces, path

    def rescan(self, path):
        rows = [json.loads(line) for line in path.read_text().splitlines() if line.strip()]
        return [r["records"] for r in rows]

    def test_fallback_rate_recount(self, tmp_path):
        traces, path = self.build_dataset(tmp_path)
        raw = self.rescan(path)
        total = sum(len(r) for r in raw)
        fallbacks = sum(1 for recs in raw for r in recs if r["fallback"])
        agg = aggregate_records((t.config.regime, t.records) for t in traces)
        assert agg.fallbacks / agg.tokens == fallbacks / total

    def test_sub_threshold_recount(self, tmp_path):
        traces, path = self.build_dataset(tmp_path)
        raw = self.rescan(path)
        total = sum(len(r) for r in raw)
        below = sum(1 for recs in raw for r in recs if r["p_student"] < 0.02)
        agg = aggregate_records(((t.config.regime, t.records) for t in traces), 0.02)
        assert agg.below / agg.tokens == below / total

    def test_tally_recount(self, tmp_path):
        traces, path = self.build_dataset(tmp_path)
        raw = self.rescan(path)
        counts: dict[int, int] = {}
        for recs in raw:
            for r in recs:
                if r["p_student"] < 0.3:
                    counts[r["token"]] = counts.get(r["token"], 0) + 1
        assert low_prob_token_tally((t.records for t in traces), 0.3) == counts


class TestTally:
    def test_empty_when_nothing_below(self):
        assert low_prob_token_tally([make_trace([0.5, 0.6]).records], 0.01) == {}

    def test_single_token_counted_three_times(self):
        trace = make_trace([0.001, 0.001, 0.001], tokens=[7, 7, 7])
        assert low_prob_token_tally([trace.records], 0.01) == {7: 3}

    def test_descending_count_order(self):
        trace = make_trace([0.001] * 5, tokens=[3, 1, 3, 2, 3])
        tally = low_prob_token_tally([trace.records], 0.01)
        assert list(tally.items()) == [(3, 3), (1, 1), (2, 1)]


def record_from_trace(trace: Trace, problem_id: str, kind: str) -> DatasetRecord:
    return DatasetRecord(
        problem_id=problem_id,
        kind=kind,
        verdict="correct" if kind == "full-trace" else "incorrect",
        tokens=tuple(trace.tokens()),
        source_trace_ref=f"{problem_id}#attempt-0",
        regime=trace.config.regime,
        records=list(trace.records),
        stats={},
    )


class TestDatasetReport:
    def test_single_solved_trace_no_fallbacks(self):
        rec = record_from_trace(make_trace([0.5, 0.5]), "p0", "full-trace")
        report = dataset_report([rec], 0.01)
        assert report["problems_attempted"] == 1
        assert report["correctly_solved"] == 1
        assert report["fallback_rate_pct"] == 0.0
        assert report["sub_threshold_pct"] == 0.0

    def test_hand_computed_small_dataset(self):
        # 3 records, 2 solved; 8 tokens total, 2 below 1%, 3 fallbacks
        r1 = record_from_trace(make_trace([0.5, 0.004, 0.2]), "a", "full-trace")
        r2 = record_from_trace(
            make_trace([0.9, 0.008], fallbacks=[True, False]), "b", "full-trace"
        )
        r3 = record_from_trace(
            make_trace([0.6, 0.7, 0.8], fallbacks=[True, True, False]), "c", "upft-prefix"
        )
        report = dataset_report([r1, r2, r3], 0.01)
        assert report["problems_attempted"] == 3
        assert report["correctly_solved"] == 2
        assert report["fallback_rate_pct"] == pytest.approx(100 * 3 / 8)
        assert report["sub_threshold_pct"] == pytest.approx(100 * 2 / 8)
        assert report["avg_token_count"] == pytest.approx(8 / 3)
        ppls = [
            records_perplexity(r1.records),
            records_perplexity(r2.records),
            records_perplexity(r3.records),
        ]
        summary = report["perplexity_summary"]
        assert summary["min"] == pytest.approx(min(ppls))
        assert summary["max"] == pytest.approx(max(ppls))
        assert summary["mean"] == pytest.approx(sum(ppls) / 3)

    def test_solo_dataset_reports_no_fallback_rate(self):
        rec = record_from_trace(make_trace([0.5], regime="solo-student"), "p", "full-trace")
        assert dataset_report([rec], 0.01)["fallback_rate_pct"] is None

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            dataset_report([], 0.01)

    def test_report_json_round_trip(self):
        # plain JSON types only: what the CLI writes reads back equal
        rec = record_from_trace(make_trace([0.5, 0.25]), "p0", "full-trace")
        report = dataset_report([rec], 0.01)
        assert json.loads(json.dumps(report)) == report


class TestSummaryStats:
    def test_quartiles_match_numpy_percentile_bit_for_bit(self):
        # ties, signed zeros, inf and NaN included: the lerp's upper branch
        # and inf - inf must come out as numpy computes them
        rng = np.random.default_rng(41)
        for size in range(1, 51):
            for _ in range(20):
                pool = np.concatenate(
                    [rng.normal(size=4) * 10.0 ** rng.integers(-3, 4), [math.inf, -math.inf, 0.0, -0.0, 1.0]]
                )
                if rng.random() < 0.1:
                    pool = np.append(pool, math.nan)
                values = rng.choice(pool, size=size)
                with np.errstate(invalid="ignore"):  # inf - inf, in numpy and in the mean
                    expected = [repr(float(np.percentile(values, q))) for q in (25, 50, 75)]
                    stats = summary_stats(values.tolist())
                assert [repr(stats[k]) for k in ("q1", "median", "q3")] == expected

    def test_does_not_import_numpy_ma(self):
        code = (
            "import sys; from rsdkit.metrics import summary_stats; "
            "summary_stats([3.0, 1.0, float('inf'), 2.0, 2.0]); "
            "print('numpy.ma' in sys.modules)"
        )
        src = str(Path(metrics.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
        assert out.stdout.strip() == "False"


class TestCsvEmission:
    def test_surprisal_csv_one_row_per_token(self, tmp_path):
        trace = make_trace([0.5, 0.004, 1.0], fallbacks=[False, True, False])
        path = tmp_path / "s.csv"
        write_surprisal_csv(trace.records, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "step,surprisal,accepted,fallback"
        assert len(lines) == 4
        step, surprisal, accepted, fallback = lines[2].split(",")
        assert (step, accepted, fallback) == ("1", "0", "1")
        assert float(surprisal) == pytest.approx(-math.log(0.004))

    def test_tally_csv(self, tmp_path):
        path = tmp_path / "t.csv"
        write_token_tally_csv({3: 5, 1: 2}, path)
        assert path.read_text().strip().splitlines() == ["token,count", "3,5", "1,2"]
