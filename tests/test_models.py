"""Distribution arithmetic and toy backend contracts."""

from __future__ import annotations

import math

import numpy as np
import pytest

from rsdkit.models import (
    Distribution,
    NgramModel,
    TableModel,
    apply_temperature,
    sample,
)
from rsdkit.seeding import StepStream


def bigram_counts_oracle(corpus: list[int], context: int, smoothing: float, vocab: int) -> list[float]:
    """Independent hand-counting bigram estimate for order-2 checks."""
    pair_counts = [0] * vocab
    total = 0
    for a, b in zip(corpus, corpus[1:]):
        if a == context:
            pair_counts[b] += 1
            total += 1
    denom = total + smoothing * vocab
    return [(c + smoothing) / denom for c in pair_counts]


class TestDistribution:
    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError, match="non-negative"):
            Distribution([1.1, -0.1])

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="sums to"):
            Distribution([0.5, 0.6])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_entries(self, bad):
        with pytest.raises(ValueError):
            Distribution([bad, 0.5, 0.5])

    def test_rejects_vocab_below_two(self):
        with pytest.raises(ValueError):
            Distribution([1.0])

    def test_tolerates_tiny_normalization_error(self):
        Distribution([0.5, 0.5 + 5e-10])


class TestTemperature:
    def test_uniform_is_fixed_point(self):
        d = Distribution([0.25] * 4)
        for t in (0.1, 0.5, 0.7, 1.0, 2.0, 10.0):
            out = apply_temperature(d, t)
            np.testing.assert_allclose(out.probs, 0.25, atol=1e-12)

    def test_unit_temperature_is_identity_object(self):
        d = Distribution([0.8, 0.2])
        assert apply_temperature(d, 1.0) is d

    def test_half_temperature_squares_and_renormalizes(self):
        out = apply_temperature(Distribution([0.8, 0.2]), 0.5)
        expected = [0.64 / 0.68, 0.04 / 0.68]
        np.testing.assert_allclose(out.probs, expected, rtol=1e-12)

    def test_rejects_nonpositive_temperature(self):
        d = Distribution([0.8, 0.2])
        for t in (0.0, -1.0):
            with pytest.raises(ValueError, match="temperature"):
                apply_temperature(d, t)

    def test_preserves_argmax_and_normalization(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            size = int(rng.integers(2, 12))
            d = Distribution(rng.dirichlet(np.ones(size) * rng.uniform(0.2, 3.0)))
            t = float(rng.uniform(0.05, 5.0))
            out = apply_temperature(d, t)
            assert abs(out.probs.sum() - 1.0) < 1e-9
            assert (out.probs >= 0).all()
            assert np.argmax(out.probs) == np.argmax(d.probs)

    def test_zero_entries_stay_zero(self):
        out = apply_temperature(Distribution([0.5, 0.5, 0.0]), 0.7)
        assert out.probs[2] == 0.0


class TestSample:
    def test_one_hot_returns_hot_token_any_seed(self):
        d = Distribution([0.0, 0.0, 1.0, 0.0])
        for seed in range(50):
            assert sample(d, StepStream(seed, 0)) == 2

    def test_fair_coin_frequency_within_three_standard_errors(self):
        d = Distribution([0.5, 0.5])
        n = 10_000
        ones = sum(sample(d, StepStream(99, i)) for i in range(n))
        se = math.sqrt(0.25 / n)
        assert abs(ones / n - 0.5) <= 3 * se

    def test_same_seed_same_token(self):
        d = Distribution([0.3, 0.3, 0.4])
        assert sample(d, StepStream(5, 3)) == sample(d, StepStream(5, 3))

    def test_numpy_generator_also_works(self):
        d = Distribution([0.5, 0.5])
        rng = np.random.default_rng(0)
        assert sample(d, rng) in (0, 1)

    def test_never_selects_zero_probability_token(self):
        d = Distribution([0.5, 0.0, 0.5])
        draws = {sample(d, StepStream(1, i)) for i in range(2000)}
        assert 1 not in draws


class TestTableModel:
    def test_uniform_default_everywhere(self):
        m = TableModel({}, [0.25] * 4)
        for ctx in ([], [0], [1, 2, 3]):
            np.testing.assert_array_equal(m.next_distribution(ctx).probs, [0.25] * 4)

    def test_suffix_row_matches_exactly_on_tail(self):
        row = [0.7, 0.1, 0.1, 0.1]
        m = TableModel({(1,): row}, [0.25] * 4)
        np.testing.assert_array_equal(m.next_distribution([3, 1]).probs, row)
        np.testing.assert_array_equal(m.next_distribution([1, 3]).probs, [0.25] * 4)

    def test_longest_suffix_wins(self):
        short = [0.7, 0.1, 0.1, 0.1]
        long = [0.1, 0.7, 0.1, 0.1]
        m = TableModel({(1,): short, (0, 1): long}, [0.25] * 4)
        np.testing.assert_array_equal(m.next_distribution([0, 1]).probs, long)
        np.testing.assert_array_equal(m.next_distribution([2, 1]).probs, short)

    def test_identical_specs_agree_everywhere(self):
        spec = {(0,): [0.5, 0.25, 0.25], (1, 2): [0.2, 0.2, 0.6]}
        a = TableModel(spec, [1 / 3] * 3)
        b = TableModel(spec, [1 / 3] * 3)
        for ctx in ([], [0], [1, 2], [2, 0], [0, 1, 2]):
            np.testing.assert_array_equal(
                a.next_distribution(ctx).probs, b.next_distribution(ctx).probs
            )

    def test_one_hot_row(self):
        m = TableModel({(2,): [0.0, 0.0, 0.0, 1.0]}, [0.25] * 4)
        assert m.next_distribution([2])[3] == 1.0

    def test_inconsistent_vocab_sizes_rejected(self):
        with pytest.raises(ValueError, match="vocab size"):
            TableModel({(0,): [0.5, 0.5]}, [0.25] * 4)

    def test_eos_defaults_to_last_token(self):
        assert TableModel({}, [0.25] * 4).eos_token == 3
        assert TableModel({}, [0.25] * 4, eos_token=1).eos_token == 1


class TestNgramModel:
    def test_self_loop_corpus(self):
        # corpus "aaaa": every bigram is a->a
        m = NgramModel([0, 0, 0, 0], 2)
        assert m.next_distribution([0])[0] == 1.0

    def test_unigram_two_symbols(self):
        m = NgramModel([0, 1], 1)
        np.testing.assert_array_equal(m.next_distribution([]).probs, [0.5, 0.5])

    def test_alternating_corpus_concentrates_on_the_follower(self):
        # corpus "ababab": every occurrence of a is followed by b
        corpus = [0, 1, 0, 1, 0, 1]
        m = NgramModel(corpus, 2, smoothing=0.0)
        expected = bigram_counts_oracle(corpus, context=0, smoothing=0.0, vocab=2)
        assert expected == [0.0, 1.0]
        np.testing.assert_array_equal(m.next_distribution([0]).probs, expected)
        np.testing.assert_array_equal(m.next_distribution([1, 0]).probs, expected)

    def test_smoothed_bigram_matches_hand_count(self):
        # corpus "abab", vocab {a,b}: count(a->b)=2 over 2 contexts, add-1 smoothing
        corpus = [0, 1, 0, 1]
        m = NgramModel(corpus, 2, smoothing=1.0, vocab_size=2)
        expected = bigram_counts_oracle(corpus, context=0, smoothing=1.0, vocab=2)
        assert expected[1] == pytest.approx(0.75)
        np.testing.assert_allclose(m.next_distribution([0]).probs, expected, rtol=1e-15)

    def test_unseen_trigram_context_backs_off(self):
        # "abab" has no (b, b) context; order-3 zero-smoothing falls back
        m = NgramModel([0, 1, 0, 1], 3, smoothing=0.0, vocab_size=2)
        d = m.next_distribution([1, 1])
        assert abs(d.probs.sum() - 1.0) < 1e-12

    def test_rows_sum_to_one_with_and_without_smoothing(self):
        rng = np.random.default_rng(3)
        corpus = list(rng.integers(0, 4, size=60))
        for smoothing in (0.0, 0.25, 1.0):
            m = NgramModel(corpus, 3, smoothing, vocab_size=4)
            for _ in range(25):
                ctx = list(rng.integers(0, 4, size=int(rng.integers(0, 6))))
                assert abs(m.next_distribution(ctx).probs.sum() - 1.0) < 1e-9

    def test_order_longer_than_corpus_rejected(self):
        with pytest.raises(ValueError, match="order"):
            NgramModel([0, 1], 3)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            NgramModel([], 1)

    def test_purity(self):
        a = NgramModel([0, 1, 1, 0, 1], 2, 0.5, vocab_size=2)
        b = NgramModel([0, 1, 1, 0, 1], 2, 0.5, vocab_size=2)
        for ctx in ([], [0], [1], [0, 1]):
            np.testing.assert_array_equal(
                a.next_distribution(ctx).probs, b.next_distribution(ctx).probs
            )


class TestBackendNormalization:
    def test_all_backends_return_normalized_nonnegative(self):
        rng = np.random.default_rng(11)
        models = [
            TableModel({(0,): rng.dirichlet(np.ones(5))}, rng.dirichlet(np.ones(5))),
            NgramModel(list(rng.integers(0, 5, size=40)), 2, 0.1, vocab_size=5),
        ]
        for m in models:
            for _ in range(50):
                ctx = list(rng.integers(0, 5, size=int(rng.integers(0, 4))))
                d = m.next_distribution(ctx)
                assert abs(d.probs.sum() - 1.0) <= 1e-9
                assert (d.probs >= 0).all()
