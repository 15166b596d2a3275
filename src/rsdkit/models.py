"""Next-token distributions, distribution arithmetic, and toy language models.

The engine treats a language model as a black box mapping a token-id context
to a dense, normalized next-token distribution at temperature 1. Temperature
and sampling are applied explicitly by callers, never inside a backend.
Contexts are plain token lists; their length budget is owned by the decode
loop's :class:`~rsdkit.vocab.DualContext`, which raises
:class:`ContextOverflowError`.

Two deterministic in-process backends are provided for desk-scale work:

* :class:`TableModel` — explicit rows keyed on context suffixes.
* :class:`NgramModel` — maximum-likelihood n-gram with add-constant
  smoothing, trained on a token corpus.

Both are pure functions of (model spec, context) and safe to query from
concurrent workers.
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

if TYPE_CHECKING:
    from .vocab import VocabularyMap

NORMALIZATION_ATOL = 1e-9


class EmptySupportError(ValueError):
    """An operation left a distribution with no probability mass."""


class ContextOverflowError(RuntimeError):
    """A generation context exceeded its token budget."""


class Distribution:
    """Dense normalized probability vector over a vocabulary.

    Entries are finite float64, non-negative, and sum to 1 within
    ``NORMALIZATION_ATOL``. Instances are immutable, so each memoizes the
    cumulative :func:`tempered_weights` :func:`sample` draws from, one vector
    per (temperature, suppressed ids); the memo dies with the row.
    """

    __slots__ = ("probs", "_cdfs")
    _fill = threading.Lock()  # one fill per (row, key) however workers race, so a run's work repeats

    def __init__(self, probs: Sequence[float] | np.ndarray, *, validate: bool = True) -> None:
        arr = np.asarray(probs, dtype=np.float64)
        if validate:
            if arr.ndim != 1 or arr.shape[0] < 2:
                raise ValueError(f"distribution needs a 1-d vector of length >= 2, got shape {arr.shape}")
            if np.any(arr < 0.0):
                raise ValueError("distribution entries must be non-negative")
            total = float(arr.sum())
            if not np.isfinite(total):  # a NaN entry would pass both other checks
                raise ValueError(f"distribution entries must be finite, they sum to {total!r}")
            if abs(total - 1.0) > NORMALIZATION_ATOL:
                raise ValueError(f"distribution sums to {total!r}, expected 1 within {NORMALIZATION_ATOL}")
        self.probs = arr
        self._cdfs: dict[tuple[float, frozenset[int]], np.ndarray] = {}

    @property
    def vocab_size(self) -> int:
        return int(self.probs.shape[0])

    def __getitem__(self, token: int) -> float:
        return float(self.probs[token])

    def cdf(self, temperature: float = 1.0, suppressed: VocabularyMap | None = None) -> np.ndarray:
        """Cumulative :func:`tempered_weights`, memoized per (temperature, suppressed ids)."""
        key = (temperature, frozenset() if suppressed is None else suppressed.suppressed)
        with self._fill:
            cdf = self._cdfs.get(key)
            if cdf is None:
                w = tempered_weights(self, temperature, suppressed)
                cdf = self._cdfs[key] = np.cumsum(w, out=None if w is self.probs else w)
        return cdf

    def __repr__(self) -> str:
        return f"Distribution({self.probs!r})"


def tempered_weights(dist: Distribution, temperature: float = 1.0, suppressed: VocabularyMap | None = None) -> np.ndarray:
    """The one tempering formula: unnormalized ``p_i^(1/T)`` without ``suppressed``'s ids, largest
    weight 1. ``dist.probs`` itself at T = 1 with no suppressed mass, else one pass over a fresh
    vector in log space, so extreme temperatures cannot underflow the whole vector."""
    if temperature <= 0.0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    p = dist.probs
    ids = [] if suppressed is None else suppressed.suppressed_ids[suppressed.suppressed_ids < p.shape[0]]
    cut = bool(p[ids].any())
    if temperature == 1.0:
        if not cut:
            return p
        w = p.copy()
        w[ids] = 0.0
        if not w.any():
            raise EmptySupportError("suppression removed all probability mass")
        return w
    with np.errstate(divide="ignore"):
        w = np.log(p)
    w[ids] = -np.inf
    w /= temperature
    top = w.max()
    if top == -np.inf:
        cause = "suppression removed all probability mass" if cut else "cannot temper a distribution with no mass"
        raise EmptySupportError(cause)
    w -= top
    return np.exp(w, out=w)


def apply_temperature(dist: Distribution, temperature: float) -> Distribution:
    """Rescale a distribution to ``p_i^(1/T) / Z``, as dividing logits by T
    does; T = 1 returns the input object unchanged (exact identity)."""
    if temperature == 1.0:
        return dist
    w = tempered_weights(dist, temperature)
    return Distribution(w / w.sum(), validate=False)


def sample(dist: Distribution, rng, temperature: float = 1.0, suppressed: VocabularyMap | None = None) -> int:
    """Draw one token at ``temperature`` without ``suppressed``'s ids by inverse CDF over the row's
    cumulative weights, the uniform scaled by their total; consumes exactly one ``rng.random()``
    draw (a :class:`~rsdkit.seeding.StepStream` or an ``np.random.Generator``)."""
    cdf = dist.cdf(temperature, suppressed)
    total = float(cdf[-1])
    if total <= 0.0:
        raise EmptySupportError("cannot sample from an all-zero distribution")
    return int(np.searchsorted(cdf, rng.random() * total, side="right"))


class LanguageModel(ABC):
    """Context -> next-token distribution at temperature 1.

    Handles must tolerate concurrent queries: the pipeline's worker threads
    share one handle per role. Table and n-gram models are pure functions of
    the context, and the remote model locks its own cache.
    """

    vocab_size: int
    eos_token: int
    #: Steps an approver judges per call: ``decode`` hands it blocks of up to
    #: this many proposals, through :meth:`next_distributions`, when it is > 1.
    lookahead = 1

    @abstractmethod
    def next_distribution(self, context: Sequence[int]) -> Distribution:
        """Raw (temperature-1) distribution after the given context, whose
        tokens the caller has checked against ``vocab_size``."""

    def next_distributions(self, context: Sequence[int], continuation: Sequence[int]) -> list[Distribution]:
        """The ``len(continuation) + 1`` distributions after ``context`` extended by each prefix
        of ``continuation``, shortest first; one :meth:`next_distribution` call each."""
        rows = [self.next_distribution(context)]
        if continuation:
            prefix = list(context)
            for token in continuation:
                prefix.append(token)
                rows.append(self.next_distribution(prefix))
        return rows


class TableModel(LanguageModel):
    """Explicit lookup model: context-suffix rows with a default row.

    The longest declared suffix matching the context tail wins; contexts
    matching no row get the default. All rows must share one vocab size.
    """

    def __init__(
        self,
        rows: Mapping[tuple[int, ...], Sequence[float] | np.ndarray | Distribution],
        default: Sequence[float] | np.ndarray | Distribution,
        *,
        eos_token: int | None = None,
    ) -> None:
        self._default = default if isinstance(default, Distribution) else Distribution(default)
        self.vocab_size = self._default.vocab_size
        self._rows: dict[tuple[int, ...], Distribution] = {}
        for key, row in rows.items():
            key = tuple(int(t) for t in key)
            d = row if isinstance(row, Distribution) else Distribution(row)
            if d.vocab_size != self.vocab_size:
                raise ValueError(
                    f"row {key} has vocab size {d.vocab_size}, expected {self.vocab_size}"
                )
            self._rows[key] = d
        # longest-first so the most specific suffix wins
        self._key_lengths = sorted({len(k) for k in self._rows}, reverse=True)
        self.eos_token = self.vocab_size - 1 if eos_token is None else int(eos_token)
        if not 0 <= self.eos_token < self.vocab_size:
            raise ValueError(f"eos token {self.eos_token} outside vocabulary")

    def next_distribution(self, context: Sequence[int]) -> Distribution:
        n = len(context)
        for length in self._key_lengths:
            if length > n:
                continue
            row = self._rows.get(tuple(context[n - length :]))
            if row is not None:
                return row
        return self._default


class NgramModel(LanguageModel):
    """Maximum-likelihood n-gram with add-constant smoothing.

    Order n conditions on the previous n-1 tokens. With smoothing 0, a
    context whose counts are all zero backs off to the next shorter order
    (order 0, the corpus unigram, always has mass).
    """

    def __init__(
        self,
        corpus: Sequence[int],
        order: int,
        smoothing: float = 0.0,
        *,
        vocab_size: int | None = None,
        eos_token: int | None = None,
    ) -> None:
        corpus = [int(t) for t in corpus]
        if not corpus:
            raise ValueError("corpus must be non-empty")
        if not isinstance(order, int) or order < 1:
            raise ValueError(f"order must be an integer >= 1, got {order!r}")
        if order > len(corpus):
            raise ValueError(f"order {order} exceeds corpus length {len(corpus)}")
        if smoothing < 0.0:
            raise ValueError(f"smoothing must be >= 0, got {smoothing}")
        inferred = max(corpus) + 1
        self.vocab_size = max(2, inferred) if vocab_size is None else int(vocab_size)
        if self.vocab_size < max(2, inferred):
            raise ValueError(f"vocab_size {vocab_size} too small for corpus with max id {inferred - 1}")
        self.order = order
        self.smoothing = float(smoothing)
        # counts[k][ctx][next] for context lengths k = 0 .. order-1
        self._counts: list[dict[tuple[int, ...], dict[int, int]]] = [{} for _ in range(order)]
        for k in range(order):
            table = self._counts[k]
            for i in range(k, len(corpus)):
                ctx = tuple(corpus[i - k : i])
                nxt = corpus[i]
                table.setdefault(ctx, {})
                table[ctx][nxt] = table[ctx].get(nxt, 0) + 1
        self.eos_token = self.vocab_size - 1 if eos_token is None else int(eos_token)
        if not 0 <= self.eos_token < self.vocab_size:
            raise ValueError(f"eos token {self.eos_token} outside vocabulary")

    def next_distribution(self, context: Sequence[int]) -> Distribution:
        k = min(self.order - 1, len(context))
        while True:
            ctx = tuple(context[len(context) - k :]) if k else ()
            hits = self._counts[k].get(ctx, {})
            total = sum(hits.values())
            if total > 0 or self.smoothing > 0.0:
                probs = np.full(self.vocab_size, self.smoothing, dtype=np.float64)
                for token, count in hits.items():
                    probs[token] += count
                denom = total + self.smoothing * self.vocab_size
                return Distribution(probs / denom, validate=False)
            k -= 1  # zero-mass context under zero smoothing: back off
