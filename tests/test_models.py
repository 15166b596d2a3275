"""Distribution arithmetic and toy backend contracts."""

from __future__ import annotations

import gc
import itertools
import math
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rsdkit import models
from rsdkit.models import (
    Distribution,
    EmptySupportError,
    NgramModel,
    RunCdf,
    TableModel,
    apply_temperature,
    sample,
)
from rsdkit.seeding import StepStream
from rsdkit.vocab import VocabularyMap


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


class DictCountNgram:
    """The n-gram as first written: one dict of next-token counts per context,
    counted a token at a time. The reference for :class:`NgramModel`'s rows."""

    def __init__(self, corpus: list[int], order: int, smoothing: float, vocab_size: int) -> None:
        self.order, self.smoothing, self.vocab_size = order, smoothing, vocab_size
        # counts[k][ctx][next] for context lengths k = 0 .. order-1
        self.counts: list[dict[tuple[int, ...], dict[int, int]]] = [{} for _ in range(order)]
        for k in range(order):
            table = self.counts[k]
            for i in range(k, len(corpus)):
                ctx = tuple(corpus[i - k : i])
                nxt = corpus[i]
                table.setdefault(ctx, {})
                table[ctx][nxt] = table[ctx].get(nxt, 0) + 1

    def probs(self, context: list[int]) -> np.ndarray:
        k = min(self.order - 1, len(context))
        while True:
            ctx = tuple(context[len(context) - k :]) if k else ()
            hits = self.counts[k].get(ctx, {})
            total = sum(hits.values())
            if total > 0 or self.smoothing > 0.0:
                probs = np.full(self.vocab_size, self.smoothing, dtype=np.float64)
                for token, count in hits.items():
                    probs[token] += count
                return probs / (total + self.smoothing * self.vocab_size)
            k -= 1  # zero-mass context under zero smoothing: back off


@st.composite
def ngram_cases(draw):
    """A random corpus, order, smoothing and vocabulary, and contexts of every kind:
    empty, seen in the corpus, random (mostly unseen), longer than ``order - 1``,
    and holding ids the corpus never uses."""
    alphabet = draw(st.integers(1, 6))
    corpus = draw(st.lists(st.integers(0, alphabet - 1), min_size=1, max_size=80))
    order = draw(st.integers(1, min(4, len(corpus))))
    smoothing = draw(st.one_of(st.just(0.0), st.floats(1e-6, 10.0)))
    vocab_size = max(2, max(corpus) + 1) + draw(st.integers(0, 4))
    seen = [corpus[max(0, i - n) : i] for i, n in draw(st.lists(
        st.tuples(st.integers(0, len(corpus)), st.integers(0, order + 2)), max_size=6))]
    drawn = draw(st.lists(st.lists(st.integers(0, vocab_size - 1), max_size=order + 2), max_size=6))
    return corpus, order, smoothing, vocab_size, [[], *seen, *drawn]


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


def reference_cdf(dist: Distribution, temperature: float, vmap: VocabularyMap) -> np.ndarray:
    """The unfused path the fused pass replaced, kept as the oracle: suppress
    and renormalize, temper the positive entries and renormalize, then take
    cumulative sums of the normalized copy."""
    p = dist.probs
    ids = [t for t in vmap.suppressed if t < p.shape[0]]
    if ids and float(p[ids].sum()) != 0.0:
        p = p.copy()
        p[ids] = 0.0
        total = float(p.sum())
        if total <= 0.0:
            raise EmptySupportError("suppression removed all probability mass")
        p = p / total
    if temperature != 1.0:
        out = np.zeros_like(p)
        positive = p > 0.0
        logs = np.log(p[positive]) / temperature
        logs -= logs.max()
        w = np.exp(logs)
        out[positive] = w / w.sum()
        p = out
    return np.cumsum(p)


def suppressing(ids: set[int], vocab: int) -> VocabularyMap:
    """A map suppressing exactly ``ids``; ids below its shared range of 2 are
    carved out as markers spelt with an id that stays."""
    keep = next(t for t in itertools.count() if t not in ids)  # beyond the row when all of it goes
    return VocabularyMap(shared_size=2, suppressed=frozenset(ids), expansions={t: (keep,) for t in ids if t < 2})


class CountingStream:
    def __init__(self, seed: int, step: int) -> None:
        self._stream = StepStream(seed, step)
        self.draws = 0

    def random(self) -> float:
        self.draws += 1
        return self._stream.random()


class TestFusedSample:
    """``sample`` draws from memoized unnormalized weights; it must emit the
    very token the unfused suppress -> temper -> sample path emits."""

    @pytest.mark.parametrize("vocab", [2, 12, 4096, 32064])
    def test_matches_the_unfused_path(self, vocab):
        rng = np.random.default_rng(vocab)
        rows = [rng.dirichlet(np.full(vocab, 0.3)), rng.dirichlet(np.full(vocab, 2.0))]
        holed = rng.dirichlet(np.ones(vocab)) * (rng.random(vocab) < 0.6)
        holed[int(rng.integers(vocab))] += 0.5  # some mass survives the zeroing
        rows.append(holed / holed.sum())
        ids = rng.permutation(vocab)
        survivor = int(rng.integers(vocab))
        sets = [set(), {int(ids[0])}, set(ids[: vocab // 10].tolist()), set(ids[: vocab // 2].tolist())]
        sets.append(set(range(vocab)) - {survivor})
        sets.append({t for t in range(vocab) if holed[t] > 0.0} - {int(np.flatnonzero(holed)[0])})
        draws = 0
        for r, row in enumerate(rows):
            for s, suppressed in enumerate(sets):
                vmap = suppressing(suppressed, vocab)
                for temperature in (0.05, 0.7, 1.0, 3.0):
                    dist = Distribution(row, validate=False)
                    try:
                        cdf = reference_cdf(dist, temperature, vmap)
                    except EmptySupportError as exc:
                        with pytest.raises(EmptySupportError, match=f"^{exc}$"):
                            sample(dist, StepStream(0, 0), temperature, vmap)
                        continue
                    for step in range(100):
                        seed = 1000 * r + 100 * s + vocab
                        expected = int(
                            np.searchsorted(cdf, StepStream(seed, step).random() * float(cdf[-1]), side="right")
                        )
                        stream = CountingStream(seed, step)
                        assert sample(dist, stream, temperature, vmap) == expected
                        assert stream.draws == 1
                        draws += 1
        assert draws >= 5000

    def test_suppressing_all_mass_raises(self):
        d = Distribution([0.0, 0.5, 0.5, 0.0])
        vmap = suppressing({1, 2}, 4)
        for temperature in (0.7, 1.0):
            with pytest.raises(EmptySupportError, match="^suppression removed all probability mass$"):
                sample(d, StepStream(0, 0), temperature, vmap)

    def test_suppressed_ids_beyond_the_row_are_ignored(self):
        d = Distribution([0.5, 0.25, 0.25])
        vmap = suppressing({2, 7}, 8)
        assert {sample(d, StepStream(3, i), 0.7, vmap) for i in range(200)} == {0, 1}

    def test_untouched_row_samples_from_its_own_cumulative_probs(self):
        d = Distribution([0.25, 0.0, 0.75])
        sample(d, StepStream(0, 0), 1.0, suppressing({1}, 3))
        (cdf,) = d._cdfs.values()
        np.testing.assert_array_equal(cdf, np.cumsum(d.probs))


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

    @pytest.mark.parametrize("kwargs", [{"eos_token": 1.7}, {"eos_token": True}, {"rows": {(1.5,): [0.25] * 4}}],
                             ids=["eos_token=1.7", "eos_token=True", "suffix=(1.5,)"])
    def test_spec_ids_are_refused_not_rounded(self, kwargs):
        with pytest.raises(TypeError):
            TableModel(**{"rows": {}, "default": [0.25] * 4, **kwargs})

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

    @settings(max_examples=300, deadline=None)
    @given(ngram_cases())
    def test_rows_are_bit_identical_to_dict_counts(self, case):
        corpus, order, smoothing, vocab_size, contexts = case
        model = NgramModel(corpus, order, smoothing, vocab_size=vocab_size)
        oracle = DictCountNgram(corpus, order, smoothing, vocab_size)
        for context in contexts:
            assert np.array_equal(model.next_distribution(context).probs, oracle.probs(context)), context

    def test_tables_retain_no_per_context_objects(self):
        # a bigram over a 200k-token walk of 30k states with 10 successors each, as
        # long-v32k-aligned's corpora are: one dict per context retains about 12 MB
        rng = np.random.default_rng(0)
        successors, steps = rng.integers(0, 30_000, size=(30_000, 10)).tolist(), rng.integers(0, 10, size=200_000)
        corpus, state = [], 0
        for step in steps.tolist():
            state = successors[state][step]
            corpus.append(state)
        gc.collect()
        tracemalloc.start()
        try:
            model = NgramModel(corpus, 2, 1e-5, vocab_size=32_000)
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert model.next_distribution([corpus[-2]])[corpus[-1]] > 1e-5
        assert retained < 6e6, retained

    @pytest.mark.parametrize(
        "kwargs, error",
        [
            ({"corpus": [0, 1, 2], "vocab_size": 4.9}, TypeError),
            ({"corpus": [0, 1, 2], "vocab_size": "4"}, TypeError),
            ({"corpus": [0, 1, 2], "vocab_size": True}, TypeError),
            ({"corpus": [0, 1, 2], "eos_token": True}, TypeError),
            ({"corpus": [0, 1, 2], "eos_token": 1.7}, TypeError),
            ({"corpus": [0, 1, 2], "order": True}, TypeError),
            ({"corpus": [0, 1, 2], "order": 1.0}, TypeError),
            ({"corpus": [0, -1, 2]}, ValueError),
            ({"corpus": [0, 3.7, 2]}, TypeError),
            ({"corpus": [0, "2", 1]}, TypeError),
            ({"corpus": [0, True, 2]}, TypeError),
            ({"corpus": [True, False]}, TypeError),
            ({"corpus": [[0, 1], [1, 0]]}, ValueError),
            ({"corpus": [0, 1, 2], "smoothing": math.nan}, ValueError),
            ({"corpus": [0, 1, 2], "smoothing": math.inf}, ValueError),
            ({"corpus": [0, 1, 2], "smoothing": -math.inf}, ValueError),
            ({"corpus": [0, 1, 2], "smoothing": True}, ValueError),
            ({"corpus": [0, 1, 2], "smoothing": "0.1"}, ValueError),
        ],
        ids=lambda v: v.__name__ if isinstance(v, type) else ",".join(
            f"{k}={v[k]!r}" for k in v if k != "corpus" or len(v) == 1),
    )
    def test_spec_values_are_refused_not_rounded(self, kwargs, error):
        with pytest.raises(error):
            NgramModel(**{"order": 1, **kwargs})

    def test_numpy_integers_are_accepted(self):
        ids = np.array([0, 1, 2, 1], dtype=np.uint8)
        for corpus in (ids, list(ids), list(ids.astype(np.int64))):
            m = NgramModel(corpus, np.int64(2), np.float32(0.5), vocab_size=np.int32(4), eos_token=np.int64(3))
            assert (m.order, m.vocab_size, m.eos_token) == (2, 4, 3)
            np.testing.assert_array_equal(m.next_distribution([1]).probs, DictCountNgram([0, 1, 2, 1], 2, 0.5, 4).probs([1]))

    def test_purity(self):
        a = NgramModel([0, 1, 1, 0, 1], 2, 0.5, vocab_size=2)
        b = NgramModel([0, 1, 1, 0, 1], 2, 0.5, vocab_size=2)
        for ctx in ([], [0], [1], [0, 1]):
            np.testing.assert_array_equal(
                a.next_distribution(ctx).probs, b.next_distribution(ctx).probs
            )


def cumulative_or_error(cdf, *args):
    """``cdf(*args)``, or the type and message of the error it raised."""
    try:
        return cdf(*args)
    except Exception as exc:
        return type(exc), str(exc)


def forced_cdf(row: Distribution, temperature: float, vmap: VocabularyMap | None, runs: bool):
    """The cumulative of ``row`` (with :attr:`Distribution.sparse`) by :class:`RunCdf` when
    ``runs``, else spread dense, whatever its size and hits."""
    setup = 0 if runs else row.vocab_size + 1
    with mock.patch.multiple(models, RUN_SETUP_ENTRIES=setup, RUN_ENTRIES=0):
        return models._sparse_cdf(row.sparse, temperature, vmap)


def assert_sums_as_numpy(row: Distribution, temperature: float, vmap: VocabularyMap | None):
    """The cumulative of a row with :attr:`Distribution.sparse`, by either path, answers as
    ``np.cumsum`` of its dense twin's weights, bit for bit: the total, ``[i]`` at every index, and
    ``searchsorted`` at random x and at each run's end and one ulp either side; an error must be
    the twin's, message and all."""
    twin = Distribution(row.probs.copy(), validate=False)
    expected = cumulative_or_error(twin.cdf, temperature, vmap)
    spread = cumulative_or_error(forced_cdf, row, temperature, vmap, False)
    got = cumulative_or_error(forced_cdf, row, temperature, vmap, True)
    if isinstance(expected, tuple):
        assert got == expected and spread == expected
        return
    assert spread.tobytes() == expected.tobytes()
    assert isinstance(got, RunCdf)
    assert got[-1] == expected[-1]
    assert np.array([got[i] for i in range(row.vocab_size)]).tobytes() == expected.tobytes()
    with pytest.raises(IndexError):
        got[row.vocab_size]
    ends = np.asarray(got._ends)
    xs = np.concatenate([ends, np.nextafter(ends, -np.inf), np.nextafter(ends, np.inf),
                         np.random.default_rng(1).random(64) * expected[-1], [0.0, -1.0]])
    for x in xs:
        assert got.searchsorted(x, side="right") == expected.searchsorted(x, side="right"), x


@st.composite
def sparse_rows(draw):
    """A hand-built row with ``Distribution.sparse``: ties (power-of-two fill and hit values),
    zero, subnormal and random values, of up to 512 ids."""
    size = draw(st.integers(2, 512))
    value = st.one_of(
        st.sampled_from([0.0, 5e-324, 2.0 ** -1030, 2.0 ** -1022, 2.0 ** -60, 2.0 ** -12, 2.0 ** -3, 0.5, 1.0]),
        st.floats(1e-300, 1.0),
        st.floats(1e-12, 1e-3),
    )
    ids = np.array(sorted(draw(st.sets(st.integers(0, size - 1), max_size=min(size, 24)))), dtype=np.int64)
    values = np.array(draw(st.lists(value, min_size=ids.size, max_size=ids.size)), dtype=np.float64)
    return Distribution(None, sparse=(size, draw(value), ids, values))


class TestSparseTempering:
    """An n-gram row holds its fill and hit values only. Its reads, and the run-length cumulative
    it samples from, must be those of the same probabilities as a plain dense row, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(ngram_cases(), st.data())
    def test_weights_equal_the_dense_rows(self, case, data):
        corpus, order, _, vocab_size, contexts = case
        order = min(order, 3)
        smoothing = data.draw(st.one_of(st.just(0.0), st.floats(1e-300, 1e-9), st.floats(1.0, 1e6)), "smoothing")
        model = NgramModel(corpus, order, smoothing, vocab_size=vocab_size)
        for context in contexts:
            row = model.next_distribution(context)
            size, fill, hits, _ = row.sparse
            assert size == vocab_size and row.vocab_size == vocab_size
            for token in range(-vocab_size, vocab_size):
                assert row[token] == row.probs[token]  # the sparse read; probs is built on the first read
            for token in (vocab_size, -vocab_size - 1):
                with pytest.raises(IndexError):
                    row[token]
            fills = np.setdiff1d(np.arange(vocab_size), hits)
            assert (np.diff(hits) > 0).all() and (row.probs[hits] != fill).all()
            assert (row.probs[fills] == fill).all()
            pools = {
                "hit ids": hits.tolist(),
                "fill ids": fills.tolist(),
                "any ids": list(range(vocab_size)),
                "all the mass": np.flatnonzero(row.probs).tolist(),
            }
            kind = data.draw(st.sampled_from([None, *pools]), "map")
            if kind is None:
                vmap = None
            elif kind == "all the mass":
                vmap = suppressing(set(pools[kind]), vocab_size)
            else:
                vmap = suppressing(data.draw(st.sets(st.sampled_from(pools[kind]))) if pools[kind] else set(), vocab_size)
            temperature = data.draw(st.one_of(st.sampled_from([1.0, 0.05, 20.0]), st.floats(0.05, 20.0)), "temperature")
            assert_sums_as_numpy(row, temperature, vmap)

    @settings(max_examples=400, deadline=None)
    @given(sparse_rows(), st.data())
    def test_hand_built_rows_sum_run_by_run_as_numpy_does(self, row, data):
        size, _, hits, _ = row.sparse
        fills = sorted(set(range(size)) - set(hits.tolist()))
        kind = data.draw(st.sampled_from(["none", "some", "every fill id", "every id", "a block"]), "map")
        if kind == "none":
            vmap = None
        elif kind == "some":
            vmap = suppressing(data.draw(st.sets(st.integers(0, size - 1), max_size=40)), size)
        elif kind == "every fill id":
            vmap = suppressing(set(fills), size)
        elif kind == "every id":
            vmap = suppressing(set(range(size)), size)
        else:  # a long block beyond a shared range, as a wider teacher's
            start = data.draw(st.integers(0, size - 1))
            vmap = suppressing(set(range(start, size)), size)
        temperature = data.draw(st.one_of(st.sampled_from([1.0, 0.05, 20.0]), st.floats(0.05, 20.0)), "temperature")
        assert_sums_as_numpy(row, temperature, vmap)

    def test_long_fill_runs_are_arithmetic_pieces(self):
        # V=32,064 with three hits: the runs after the first hit stay in one binade each
        ids = np.array([5, 9_000, 20_000], dtype=np.int64)
        row = Distribution(None, sparse=(32_064, 1e-9, ids, np.array([0.3, 0.2, 0.5])))
        for temperature in (0.7, 1.0):
            cdf = row.cdf(temperature, suppressing(set(range(32_000, 32_064)), 32_064))
            assert sum(type(p) is tuple and p[1] > 0 for p in cdf._pieces) >= 2
            assert_sums_as_numpy(row, temperature, suppressing(set(range(32_000, 32_064)), 32_064))

    def test_rows_with_many_hits_are_summed_dense(self):
        # V=32,064 with markers and a suppressed block: the most hits RunCdf takes, and one more
        size = 32_064
        vmap = suppressing(set(range(1, 11)) | set(range(32_000, size)), size)
        edge = (size - models.RUN_SETUP_ENTRIES) // models.RUN_ENTRIES - len(vmap.suppressed_runs)
        rng = np.random.default_rng(5)
        for hits, kind in ((edge, RunCdf), (edge + 1, np.ndarray)):
            ids = np.sort(rng.choice(np.arange(11, 32_000), hits, replace=False))
            row = Distribution(None, sparse=(size, 1e-9, ids, rng.random(hits) / hits))
            for temperature in (0.7, 1.0):
                assert type(row.cdf(temperature, vmap)) is kind
            assert row._probs is None
            assert_sums_as_numpy(row, 0.7, vmap)
        unigram = NgramModel(rng.integers(11, 32_000, 20_000), 1, 1e-5, vocab_size=size).next_distribution([])
        assert unigram.sparse[2].size > 10 * edge and type(unigram.cdf(1.0, vmap)) is np.ndarray

    def test_a_run_far_above_its_start_falls_back_to_numpy(self):
        # c = 2**-1022 then a fill of 0.5: v is 2**1073 of c's ulps, beyond any binade step
        ids = np.array([0], dtype=np.int64)
        row = Distribution(None, sparse=(6, 0.5, ids, np.array([2.0 ** -1022])))
        assert_sums_as_numpy(row, 1.0, None)

    def test_the_dense_row_is_built_once_when_read(self):
        ids = np.array([1, 2], dtype=np.int64)
        row = Distribution(None, sparse=(5, 0.1, ids, np.array([0.4, 0.3])))
        sample(row, StepStream(0, 0), 0.7)
        assert row[2] == 0.3 and row[-1] == 0.1 and row._probs is None
        assert row.probs is row.probs
        np.testing.assert_array_equal(row.probs, [0.1, 0.4, 0.3, 0.1, 0.1])

    def test_racing_readers_share_one_dense_row(self):
        rows = [Distribution(None, sparse=(50_000, 1e-6, np.array([3, 7]), np.array([0.4, 0.5]))) for _ in range(20)]
        start = threading.Barrier(8)

        def read_all(_):
            seen = []
            for row in rows:
                start.wait(timeout=60)
                seen.append(row.probs)
            return seen

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                seen = list(pool.map(read_all, range(8), timeout=120))
        finally:
            sys.setswitchinterval(interval)
        for i, row in enumerate(rows):  # every reader got the one vector the row keeps
            assert all(reader[i] is row.probs for reader in seen)

    def test_every_ngram_row_carries_its_fill_and_ids(self):
        seen = NgramModel([0, 1, 0, 2, 0, 1], 2, 0.5, vocab_size=5).next_distribution([0])
        assert seen.sparse[0] == 5 and seen.sparse[1] == seen.probs[4] and seen.sparse[2].tolist() == [1, 2]
        assert seen.sparse[3].tolist() == seen.probs[[1, 2]].tolist()
        unseen = NgramModel([0, 1, 0, 2], 2, 0.5, vocab_size=5).next_distribution([4])
        assert unseen.sparse[1] == unseen.probs[0] and unseen.sparse[2].size == 0
        backed_off = NgramModel([0, 1, 0, 2], 2, 0.0, vocab_size=5).next_distribution([4])
        assert backed_off.sparse[1] == 0.0 and backed_off.sparse[2].tolist() == [0, 1, 2]
        with pytest.raises(ValueError):
            seen.sparse[2][0] = 3  # the ids are slices of the model's own read-only tables


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
