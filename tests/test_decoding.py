"""Decoder regime contracts: acceptance rule, seed schedule, bookkeeping."""

from __future__ import annotations

import math
import sys
import threading
import time
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from rsdkit import decoding, models, vocab
from rsdkit.decoding import GenerationConfig, Trace, decode
from rsdkit.metrics import aggregate_records
from rsdkit.models import ContextOverflowError, Distribution, LanguageModel, TableModel
from rsdkit.vocab import build_vocab_map, replay_student_context


def cfg(**kwargs) -> GenerationConfig:
    base = dict(p_th=0.01, max_tokens=12, temperature=0.7, context_limit=64, seed=7, regime="rsd")
    base.update(kwargs)
    return GenerationConfig(**base)


def one_hot(vocab: int, token: int) -> list[float]:
    row = [0.0] * vocab
    row[token] = 1.0
    return row


class TestRsdAcceptance:
    def test_confident_student_accepts_everything(self):
        teacher = TableModel({}, one_hot(4, 1), eos_token=3)
        student = TableModel({}, [0.3, 0.5, 0.15, 0.05], eos_token=3)
        trace = decode(teacher, student, [0], cfg(p_th=0.01))
        assert len(trace) == 12
        assert all(r.accepted and not r.fallback for r in trace.records)
        assert aggregate_records([(trace.config.regime, trace.records)]).fallbacks == 0

    def test_unconfident_student_rejects_everything(self):
        teacher = TableModel({}, one_hot(4, 1), eos_token=3)
        student = TableModel({}, [0.745, 0.005, 0.2, 0.05], eos_token=3)
        trace = decode(teacher, student, [0], cfg(p_th=0.01))
        assert all(r.fallback and not r.accepted for r in trace.records)
        agg = aggregate_records([(trace.config.regime, trace.records)])
        assert agg.fallbacks == agg.tokens
        assert all(r.proposer == "student" for r in trace.records)

    def test_accepted_records_meet_threshold_exactly_as_recorded(self):
        rng = np.random.default_rng(101)
        for trial in range(40):
            vocab = int(rng.integers(3, 7))
            teacher = TableModel({}, rng.dirichlet(np.ones(vocab)), eos_token=vocab - 1)
            student = TableModel({}, rng.dirichlet(np.ones(vocab) * 0.4), eos_token=vocab - 1)
            p_th = float(rng.choice([0.003, 0.01, 0.03, 0.1]))
            trace = decode(teacher, student, [0], cfg(p_th=p_th, seed=trial, max_tokens=8))
            for rec in trace.records:
                if rec.accepted:
                    assert rec.p_student >= p_th

    def test_boundary_probability_is_accepted(self):
        # strict less-than rejects: a student probability equal to p_th passes
        teacher = TableModel({}, one_hot(4, 1), eos_token=3)
        student = TableModel({}, [0.69, 0.01, 0.2, 0.1], eos_token=3)
        trace = decode(teacher, student, [0], cfg(p_th=0.01))
        assert all(r.accepted for r in trace.records)

    def test_tempered_threshold_mode_changes_the_decision(self):
        # raw 0.0099 < 1% but flattening at T=2 lifts it above the threshold
        teacher = TableModel({}, one_hot(3, 1), eos_token=2)
        student = TableModel({}, [0.9801, 0.0099, 0.01], eos_token=2)
        raw = decode(teacher, student, [0], cfg(temperature=2.0, max_tokens=4))
        tempered = decode(
            teacher, student, [0], cfg(temperature=2.0, max_tokens=4, threshold_uses_raw=False)
        )
        assert all(r.fallback for r in raw.records)
        assert all(r.accepted for r in tempered.records)
        # recorded probabilities stay raw in both modes
        for r in tempered.records:
            assert r.p_student == pytest.approx(0.0099)


class TestDegeneracy:
    def test_zero_threshold_rsd_equals_solo_teacher(self):
        rng = np.random.default_rng(5)
        for trial in range(20):
            vocab = int(rng.integers(3, 7))
            teacher = TableModel(
                {(1,): rng.dirichlet(np.ones(vocab))}, rng.dirichlet(np.ones(vocab)),
                eos_token=vocab - 1,
            )
            student = TableModel({}, rng.dirichlet(np.ones(vocab)), eos_token=vocab - 1)
            shared = dict(p_th=0.0, max_tokens=10, seed=1000 + trial)
            rsd = decode(teacher, student, [0], cfg(**shared))
            solo = decode(teacher, None, [0], cfg(**shared, regime="solo-teacher"))
            assert rsd.tokens() == solo.tokens()
            assert rsd.terminated_by == solo.terminated_by

    def test_zero_threshold_skd_equals_solo_student(self):
        rng = np.random.default_rng(6)
        for trial in range(20):
            vocab = int(rng.integers(3, 7))
            teacher = TableModel({}, rng.dirichlet(np.ones(vocab)), eos_token=vocab - 1)
            student = TableModel(
                {(0, 0): rng.dirichlet(np.ones(vocab))}, rng.dirichlet(np.ones(vocab)),
                eos_token=vocab - 1,
            )
            shared = dict(p_th=0.0, max_tokens=10, seed=2000 + trial)
            skd = decode(teacher, student, [0], cfg(**shared, regime="skd"))
            solo = decode(None, student, [0], cfg(**shared, regime="solo-student"))
            assert skd.tokens() == solo.tokens()


class TestSkdMirror:
    def test_confident_teacher_approves_student_proposals(self):
        student = TableModel({}, one_hot(4, 1), eos_token=3)
        teacher = TableModel({}, [0.25, 0.35, 0.3, 0.1], eos_token=3)
        trace = decode(teacher, student, [0], cfg(regime="skd"))
        assert all(r.accepted and r.proposer == "student" for r in trace.records)

    def test_dismissive_teacher_forces_teacher_resamples(self):
        student = TableModel({}, one_hot(4, 1), eos_token=3)
        teacher = TableModel({}, [0.6, 0.005, 0.295, 0.1], eos_token=3)
        trace = decode(teacher, student, [0], cfg(regime="skd"))
        assert all(r.fallback and r.proposer == "teacher" for r in trace.records)
        agg = aggregate_records([(trace.config.regime, trace.records)])
        assert agg.fallbacks == agg.tokens

    def test_accepted_records_meet_threshold_on_teacher_side(self):
        rng = np.random.default_rng(77)
        for trial in range(25):
            vocab = int(rng.integers(3, 6))
            teacher = TableModel({}, rng.dirichlet(np.ones(vocab)), eos_token=vocab - 1)
            student = TableModel({}, rng.dirichlet(np.ones(vocab)), eos_token=vocab - 1)
            trace = decode(
                teacher, student, [0], cfg(regime="skd", p_th=0.05, seed=trial, max_tokens=6)
            )
            for rec in trace.records:
                if rec.accepted:
                    assert rec.p_teacher >= 0.05


class TestSolo:
    def test_one_hot_model_is_seed_independent(self):
        model = TableModel({(1,): one_hot(4, 2), (2,): one_hot(4, 1)}, one_hot(4, 1), eos_token=3)
        outs = {
            tuple(decode(model, None, [0], cfg(regime="solo-teacher", seed=s, max_tokens=6)).tokens())
            for s in range(25)
        }
        assert outs == {(1, 2, 1, 2, 1, 2)}

    def test_uniform_first_token_is_binomially_fair(self):
        model = TableModel({}, [0.5, 0.5])
        n = 10_000
        hits = sum(
            decode(None, model, [0], cfg(regime="solo-student", seed=s, max_tokens=1)).tokens()[0]
            for s in range(n)
        )
        assert abs(hits / n - 0.5) <= 3 * math.sqrt(0.25 / n)

    def test_scorer_fills_student_fields_recomputable_independently(self):
        teacher = TableModel({}, [0.1, 0.2, 0.3, 0.4], eos_token=3)
        student = TableModel({(1,): [0.7, 0.1, 0.1, 0.1]}, [0.25] * 4, eos_token=3)
        trace = decode(teacher, student, [2], cfg(regime="solo-teacher", seed=13))
        ctx = [2]
        for rec in trace.records:
            expected = student.next_distribution(ctx)[rec.token]
            assert rec.p_student == expected
            assert rec.surprisal_student == -math.log(expected)
            ctx.append(rec.token)

    def test_unscored_solo_trace_has_no_student_fields(self):
        teacher = TableModel({}, [0.25] * 4, eos_token=3)
        trace = decode(teacher, None, [0], cfg(regime="solo-teacher"))
        assert all(r.p_student is None and r.surprisal_student is None for r in trace.records)
        assert all(not r.accepted and not r.fallback for r in trace.records)

    def test_token_outside_scoring_student_scores_zero_then_stops_the_decode(self):
        teacher = TableModel({}, one_hot(6, 4), eos_token=5)
        student = TableModel({}, [0.25] * 4, eos_token=3)
        last_step = decode(teacher, student, [0], cfg(regime="solo-teacher", max_tokens=1))
        assert [(r.token, r.p_student) for r in last_step.records] == [(4, 0.0)]
        with pytest.raises(ValueError, match="context token 4 outside vocabulary of size 4"):
            decode(teacher, student, [0], cfg(regime="solo-teacher", max_tokens=2))
        with pytest.raises(ValueError, match="context token 5 outside vocabulary of size 4"):
            decode(teacher, student, [0, 5], cfg(regime="solo-teacher", max_tokens=1))


class TestDecodeChecks:
    @pytest.mark.parametrize(
        "regime, has_teacher, has_student",
        [
            ("rsd", False, True),
            ("rsd", True, False),
            ("skd", False, True),
            ("skd", True, False),
            ("solo-teacher", False, True),
            ("solo-student", True, False),
        ],
    )
    def test_missing_model_rejected(self, regime, has_teacher, has_student):
        model = TableModel({}, [0.25] * 4)
        teacher = model if has_teacher else None
        student = model if has_student else None
        with pytest.raises(ValueError, match=f"regime '{regime}' needs"):
            decode(teacher, student, [0], cfg(regime=regime))


class TestBookkeeping:
    def test_fallback_count_equals_rejected_count(self):
        rng = np.random.default_rng(3)
        for trial in range(20):
            teacher = TableModel({}, rng.dirichlet(np.ones(5)), eos_token=4)
            student = TableModel({}, rng.dirichlet(np.ones(5) * 0.3), eos_token=4)
            trace = decode(teacher, student, [0], cfg(p_th=0.05, seed=trial))
            fallbacks = sum(1 for r in trace.records if r.fallback)
            assert fallbacks == sum(1 for r in trace.records if not r.accepted)
            assert aggregate_records([(trace.config.regime, trace.records)]).fallbacks == fallbacks

    def test_monotone_fallback_in_threshold_on_common_proposal_stream(self):
        # context-free models: the proposal at step i is identical across
        # thresholds, so per-step fallback indicators must be monotone
        teacher = TableModel({}, [0.4, 0.3, 0.2, 0.1], eos_token=3)
        student = TableModel({}, [0.5, 0.05, 0.008, 0.442], eos_token=3)
        thresholds = [0.0, 0.003, 0.01, 0.03, 0.1, 0.3, 1.0]
        for seed in range(10):
            flags = []
            for th in thresholds:
                trace = decode(teacher, student, [0], cfg(p_th=th, seed=seed, max_tokens=6))
                flags.append([r.fallback for r in trace.records])
            for step in range(6):
                indicators = [f[step] if step < len(f) else None for f in flags]
                seen = [x for x in indicators if x is not None]
                assert seen == sorted(seen)  # False..False True..True

    def test_surprisal_matches_recorded_probability(self):
        teacher = TableModel({}, [0.4, 0.3, 0.2, 0.1], eos_token=3)
        student = TableModel({}, [0.25] * 4, eos_token=3)
        trace = decode(teacher, student, [0], cfg(seed=4))
        for rec in trace.records:
            assert rec.surprisal_student == pytest.approx(-math.log(rec.p_student), abs=1e-9)


class TestTermination:
    def test_eos_breaks_and_is_last_token(self):
        teacher = TableModel({}, one_hot(4, 3), eos_token=3)
        student = TableModel({}, [0.05, 0.05, 0.05, 0.85], eos_token=3)
        trace = decode(teacher, student, [0], cfg())
        assert trace.terminated_by == "eos"
        assert len(trace) == 1
        assert trace.records[-1].token == 3

    def test_teacher_eos_proposal_is_just_a_token(self):
        # teacher proposes its own EOS id, student EOS differs: no break
        teacher = TableModel({}, one_hot(4, 2), eos_token=2)
        student = TableModel({}, [0.3, 0.3, 0.3, 0.1], eos_token=3)
        trace = decode(teacher, student, [0], cfg(max_tokens=5))
        assert trace.terminated_by == "length-budget"
        assert len(trace) == 5

    def test_length_budget_respected(self):
        teacher = TableModel({}, one_hot(4, 1), eos_token=3)
        student = TableModel({}, [0.25] * 4, eos_token=3)
        trace = decode(teacher, student, [0], cfg(max_tokens=3))
        assert len(trace) == 3
        assert trace.terminated_by == "length-budget"

    def test_context_overflow_raises(self):
        teacher = TableModel({}, one_hot(4, 1), eos_token=3)
        student = TableModel({}, [0.25] * 4, eos_token=3)
        with pytest.raises(ContextOverflowError):
            decode(teacher, student, [0, 0, 0], cfg(max_tokens=4, context_limit=4))


class TestReproducibility:
    def test_identical_inputs_identical_serialized_bytes(self):
        teacher = TableModel({}, [0.4, 0.3, 0.2, 0.1], eos_token=3)
        student = TableModel({}, [0.1, 0.2, 0.3, 0.4], eos_token=3)
        a = decode(teacher, student, [0, 1], cfg(seed=99))
        b = decode(teacher, student, [0, 1], cfg(seed=99))
        assert a.to_json_line() == b.to_json_line()

    def test_config_is_recorded_in_trace(self):
        teacher = TableModel({}, [0.4, 0.3, 0.2, 0.1], eos_token=3)
        student = TableModel({}, [0.25] * 4, eos_token=3)
        c = cfg(seed=42, p_th=0.03)
        trace = decode(teacher, student, [0], c)
        assert trace.config == c

    def test_json_round_trip_preserves_everything(self):
        teacher = TableModel({}, [0.4, 0.3, 0.2, 0.1], eos_token=3)
        student = TableModel({}, [0.1, 0.2, 0.3, 0.4], eos_token=3)
        trace = decode(teacher, student, [2, 1], cfg(seed=17))
        import json

        back = Trace.from_json_dict(json.loads(trace.to_json_line()))
        assert back == trace
        assert back.to_json_line() == trace.to_json_line()


class TestStudentOnlyTokens:
    def test_fallback_can_emit_student_native_tokens(self):
        vmap = build_vocab_map(6, 6, {5: (1, 2)})
        teacher = TableModel({}, one_hot(6, 0), eos_token=3)
        student = TableModel({}, [0.001, 0.004, 0.005, 0.01, 0.08, 0.9], eos_token=3)
        trace = decode(teacher, student, [0], cfg(p_th=0.01, max_tokens=6, seed=3), vmap)
        natives = [r for r in trace.records if r.token == 5]
        assert natives, "construction should emit the student-native token"
        for rec in natives:
            assert rec.fallback
            assert rec.p_teacher is None
            assert rec.p_student == pytest.approx(0.9)

    def test_dual_context_replay_verifies_after_decode(self):
        vmap = build_vocab_map(6, 6, {5: (1, 2)})
        teacher = TableModel({}, one_hot(6, 0), eos_token=3)
        student = TableModel({}, [0.001, 0.004, 0.005, 0.01, 0.08, 0.9], eos_token=3)
        trace = decode(teacher, student, [4, 0], cfg(p_th=0.01, max_tokens=6, seed=3), vmap)
        student_stream = list(trace.prompt) + trace.tokens()
        teacher_stream = replay_student_context(student_stream, vmap)
        # replay must equal what the decode actually fed the teacher
        assert len(teacher_stream) >= len(student_stream)
        expected_growth = sum(len(vmap.expand(t)) - 1 for t in student_stream if vmap.is_student_only(t))
        assert len(teacher_stream) == len(student_stream) + expected_growth

    def test_suppression_keeps_teacher_proposals_scoreable(self):
        # teacher has 2 extra ids; its mass there must never be proposed
        vmap = build_vocab_map(6, 4)
        teacher = TableModel({}, [0.05, 0.05, 0.05, 0.05, 0.4, 0.4], eos_token=3)
        student = TableModel({}, [0.25] * 4, eos_token=3)
        trace = decode(teacher, student, [0], cfg(p_th=0.0, max_tokens=8, seed=11), vmap)
        assert all(r.token < 4 for r in trace.records)


class FreshRows(LanguageModel):
    """Builds a new row on every call, as an n-gram backend does, and counts
    how many of its rows are alive (a weakref to each row's vector, since
    ``Distribution`` takes none)."""

    backend = "fresh"

    def __init__(self, probs, eos_token: int) -> None:
        self._probs = np.asarray(probs, dtype=np.float64)
        self.vocab_size = len(probs)
        self.eos_token = eos_token
        self._rows: list[weakref.ref] = []
        self.most_alive = 0

    def next_distribution(self, context):
        row = Distribution(self._probs.copy())
        self._rows.append(weakref.ref(row.probs))
        self.most_alive = max(self.most_alive, sum(r() is not None for r in self._rows))
        return row


class TestTemperedMemo:
    def test_fresh_rows_die_as_the_decode_moves_on(self):
        vmap = build_vocab_map(5, 4)  # suppresses teacher id 4
        teacher = FreshRows([0.3, 0.3, 0.1, 0.0, 0.3], eos_token=3)
        student = FreshRows([0.2, 0.3, 0.5, 0.0], eos_token=3)
        run = cfg(p_th=0.3, max_tokens=64, context_limit=128, seed=5)
        trace = decode(teacher, student, [0], run, vmap)
        assert len(trace) == 64
        assert any(r.fallback for r in trace.records)
        assert teacher.most_alive <= 2
        assert student.most_alive <= 2

    def test_a_row_suppression_leaves_unchanged_is_suppressed_once(self, monkeypatch):
        # at T = 1 such a row's weights are its own probs, yet its memo must still hit
        calls = count_fills(monkeypatch)
        vmap = build_vocab_map(5, 4)  # suppresses teacher id 4, on which the teacher puts no mass
        teacher = TableModel({}, [0.3, 0.3, 0.2, 0.2, 0.0], eos_token=3)
        student = TableModel({}, [0.25] * 4, eos_token=3)
        for seed in range(20):
            decode(teacher, student, [0], cfg(p_th=0.2, temperature=1.0, seed=seed), vmap)
        row = teacher.next_distribution([0])
        assert [c for c in calls if c[0] is row] == [(row, 1.0, vmap.suppressed)]
        assert list(row._cdfs) == [(1.0, frozenset({4}))]
        np.testing.assert_array_equal(row._cdfs[1.0, frozenset({4})], np.cumsum(row.probs))

    @pytest.mark.parametrize(
        "regime, with_map",
        [
            ("rsd", True),
            ("rsd", False),
            ("skd", True),
            ("solo-teacher", True),
            ("solo-student", True),
        ],
    )
    def test_each_table_row_is_tempered_once_across_decodes(self, monkeypatch, regime, with_map):
        calls = count_fills(monkeypatch)
        rng = np.random.default_rng(17)
        teacher, student = (
            TableModel({(t,): rng.dirichlet(ones) for t in range(3)}, rng.dirichlet(ones))
            for ones in (np.ones(5), np.ones(5))
        )
        # suppresses the teacher's id 4, a student-only marker spelt 1 2 on the teacher side
        vmap = build_vocab_map(5, 5, {4: (1, 2)}) if with_map else None
        for seed in range(100):
            run = cfg(regime=regime, p_th=0.2, max_tokens=8, seed=seed)
            decode(teacher, student, [seed % 3], run, vmap)
        assert 0 < len(calls) <= 4 + 4  # at most once per row of either table
        assert len({(id(row), t, key) for row, t, key in calls}) == len(calls)

    def test_workers_racing_on_shared_rows_decode_as_serial(self, monkeypatch):
        # the memo lives on rows that worker threads share: a racing fill must
        # neither hand out a wrong vector nor fill a row twice
        def pair():
            rng = np.random.default_rng(23)
            return tuple(
                TableModel({(t,): rng.dirichlet(ones) for t in range(5)}, rng.dirichlet(ones))
                for ones in (np.ones(6), np.ones(6))
            )

        vmap = build_vocab_map(6, 6, {5: (1, 2)})
        runs = [cfg(p_th=0.2, max_tokens=8, seed=seed) for seed in range(400)]
        expected = [decode(*pair(), [0], run, vmap).to_json_line() for run in runs]

        calls = count_fills(monkeypatch, delay_s=0.001)  # widens the window a racing fill would need
        serial = pair()
        for run in runs:
            decode(*serial, [0], run, vmap)
        fills = len(calls)  # what one shared pair needs, filled by one thread
        calls.clear()
        teacher, student = pair()

        def shared(run):
            return decode(teacher, student, [0], run, vmap).to_json_line()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                got = list(pool.map(shared, runs))
        finally:
            sys.setswitchinterval(interval)
        assert got == expected
        assert len(calls) == fills

    def test_a_fill_held_on_one_row_does_not_block_another_rows_fill(self, monkeypatch):
        first, second = Distribution([0.5, 0.5]), Distribution([0.25, 0.75])
        held, release = threading.Event(), threading.Event()
        weights = models.tempered_weights

        def holding(dist, temperature=1.0, suppressed=None):
            if dist is first:
                held.set()
                release.wait(timeout=30)
            return weights(dist, temperature, suppressed)

        monkeypatch.setattr(models, "tempered_weights", holding)
        with ThreadPoolExecutor(max_workers=2) as pool:
            try:
                pending = pool.submit(first.cdf, 0.7)
                assert held.wait(timeout=30)
                other = pool.submit(second.cdf, 0.7)
                other.result(timeout=5)  # a lock shared by all rows waits here until the release
            finally:
                release.set()
            assert pending.result(timeout=30) is first.cdf(0.7)
        np.testing.assert_array_equal(other.result(), np.cumsum(weights(second, 0.7)))


def count_fills(monkeypatch, delay_s: float = 0.0) -> list:
    """Count every memo fill as ``(row, temperature, suppressed ids)``: each
    one is a call of the one weights function."""
    calls = []
    weights = models.tempered_weights

    def counting(dist, temperature=1.0, suppressed=None):
        calls.append((dist, temperature, frozenset() if suppressed is None else suppressed.suppressed))
        time.sleep(delay_s)
        return weights(dist, temperature, suppressed)

    monkeypatch.setattr(models, "tempered_weights", counting)
    return calls


class TestTracingPatchPoints:
    """Profilers wrap the decode path's layers where ``decode`` finds them."""

    def test_layers_stay_attributes_of_the_decoding_module(self):
        assert decoding.apply_temperature is models.apply_temperature
        assert decoding.sample is models.sample
        assert decoding.suppress is vocab.suppress

    @pytest.mark.parametrize("regime", ["rsd", "skd", "solo-teacher", "solo-student"])
    def test_decode_looks_sample_up_at_call_time(self, monkeypatch, regime):
        calls = []
        inner = decoding.sample

        def counting(*args, **kwargs):
            calls.append(args)
            return inner(*args, **kwargs)

        monkeypatch.setattr(decoding, "sample", counting)
        vmap = build_vocab_map(5, 5, {4: (1, 2)})
        teacher = TableModel({(1,): [0.1, 0.3, 0.3, 0.05, 0.25]}, [0.3, 0.15, 0.3, 0.05, 0.2], eos_token=3)
        student = TableModel({}, [0.4, 0.1, 0.4, 0.02, 0.08], eos_token=3)
        trace = decode(teacher, student, [0], cfg(regime=regime, p_th=0.3, max_tokens=40, seed=2), vmap)
        fallbacks = sum(r.fallback for r in trace.records)
        assert len(calls) == len(trace) + fallbacks
        if regime in ("rsd", "skd"):
            assert 0 < fallbacks < len(trace)
