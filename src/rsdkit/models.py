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
  smoothing, trained on a token corpus. Its rows also carry their fill
  value and the ids whose value differs (:attr:`Distribution.sparse`), so
  :func:`tempered_weights` tempers only a row's distinct values.

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
_NO_IDS = np.zeros(0, dtype=np.int64)
_NO_IDS.flags.writeable = False


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

    ``sparse``, when a backend knows it, is ``(fill, ids)``: every entry is
    ``fill`` except at the sorted, read-only ``ids``. It is never checked
    against ``probs``, which stays the dense row every reader uses; only
    :func:`tempered_weights` reads it, to temper the distinct values alone.
    """

    __slots__ = ("probs", "sparse", "_cdfs")
    _fill = threading.Lock()  # one fill per (row, key) however workers race, so a run's work repeats

    def __init__(self, probs: Sequence[float] | np.ndarray, *, validate: bool = True, sparse: tuple | None = None) -> None:
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
        self.sparse = sparse
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
    vector in log space, so extreme temperatures cannot underflow the whole vector; a row with
    :attr:`Distribution.sparse` runs that pass over its distinct values only, then spreads them."""
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
    sparse = dist.sparse
    with np.errstate(divide="ignore"):
        w = np.log(p if sparse is None else np.append(p[sparse[1]], sparse[0]))
    if sparse is None:
        w[ids] = -np.inf
    else:  # w holds the hits' values, then the fill's; the same max over what survives suppression
        hits = sparse[1]
        gone = np.zeros(p.shape[0], dtype=bool)
        gone[ids] = True
        gone = gone[hits]
        w[:-1][gone] = -np.inf
        if p.shape[0] - hits.size == len(ids) - np.count_nonzero(gone):  # every fill id is suppressed
            w[-1] = -np.inf
    w /= temperature
    top = w.max()
    if top == -np.inf:
        cause = "suppression removed all probability mass" if cut else "cannot temper a distribution with no mass"
        raise EmptySupportError(cause)
    w -= top
    np.exp(w, out=w)
    if sparse is None:
        return w
    out = np.full(p.shape[0], w[-1])
    out[hits] = w[:-1]
    out[ids] = 0.0
    return out


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


def _integer(name: str, value) -> int:
    """``value`` as an int if it is an ``int`` or ``np.integer``; a bool, float or string is a TypeError."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    return int(value)


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

    def _set_eos(self, eos_token) -> None:
        self.eos_token = self.vocab_size - 1 if eos_token is None else _integer("eos_token", eos_token)
        if not 0 <= self.eos_token < self.vocab_size:
            raise ValueError(f"eos token {self.eos_token} outside vocabulary")

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
            key = tuple(_integer("table suffix token", t) for t in key)
            d = row if isinstance(row, Distribution) else Distribution(row)
            if d.vocab_size != self.vocab_size:
                raise ValueError(f"row {key} has vocab size {d.vocab_size}, expected {self.vocab_size}")
            self._rows[key] = d
        # longest-first so the most specific suffix wins
        self._key_lengths = sorted({len(k) for k in self._rows}, reverse=True)
        self._set_eos(eos_token)

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
        ids = np.asarray(corpus)  # a list's bools among ints become 1 and 0 here, so its types are read too
        if ids.ndim != 1 or not ids.size:
            raise ValueError("corpus must be a non-empty list of token ids")
        if ids.dtype.kind not in "iu" or (ids is not corpus and not {bool, np.bool_}.isdisjoint(map(type, corpus))):
            raise TypeError(f"corpus ids must be integers, got {ids.dtype} entries")
        ids = ids.astype(np.int64, copy=False)
        if ids.min() < 0:
            raise ValueError(f"corpus holds negative id {ids.min()}")
        self.order = _integer("order", order)
        if not 1 <= order <= ids.size:
            raise ValueError(f"order must lie in [1, corpus length {ids.size}], got {order}")
        if isinstance(smoothing, bool) or not isinstance(smoothing, (int, float, np.number)) or not 0 <= smoothing < np.inf:
            raise ValueError(f"smoothing must be a finite number >= 0, got {smoothing!r}")
        self.smoothing = float(smoothing)
        width = int(ids.max()) + 1
        self.vocab_size = max(2, width) if vocab_size is None else _integer("vocab_size", vocab_size)
        if self.vocab_size < max(2, width):
            raise ValueError(f"vocab_size {vocab_size} too small for corpus with max id {width - 1}")
        # per context length k, by np.unique: sorted keys (first token, then the suffix's row, so < max id x corpus
        # length at any order); row r's next ids and counts lie at offsets[r]:offsets[r + 1], summing to totals[r]
        self._keys, self._rows = [np.zeros(1, dtype=np.int64)], []
        rows = np.zeros(ids.size, dtype=np.int64)  # each position's context row
        for k in range(order):
            if k:
                keys, rows = np.unique(ids[: ids.size - k] * self._keys[-1].size + rows[1:], return_inverse=True)
                self._keys.append(keys)
            pairs, counts = np.unique(rows * width + ids[k:], return_counts=True)
            offsets = np.searchsorted(pairs // width, np.arange(self._keys[k].size + 1))
            next_ids = pairs % width
            next_ids.flags.writeable = False  # rows share slices of it as Distribution.sparse
            self._rows.append((offsets, next_ids, counts, np.bincount(rows)))
        self._set_eos(eos_token)

    def next_distribution(self, context: Sequence[int]) -> Distribution:
        n, s, size = len(context), self.smoothing, self.vocab_size
        k, row = 0, 0
        while k < min(self.order - 1, n):
            keys = self._keys[k + 1]
            key = context[n - k - 1] * self._keys[k].size + row
            i = keys.searchsorted(key)
            if i == keys.size or keys[i] != key:  # unseen, and so is every longer context
                if s > 0.0:
                    fill = s / (s * size)
                    return Distribution(np.full(size, fill), validate=False, sparse=(fill, _NO_IDS))
                break  # zero smoothing: back off to the longest seen suffix
            k, row = k + 1, i
        offsets, next_ids, counts, totals = self._rows[k]
        hit, denom = slice(offsets[row], offsets[row + 1]), totals[row] + s * size
        probs = np.full(size, s / denom)
        probs[next_ids[hit]] = (counts[hit] + s) / denom
        return Distribution(probs, validate=False, sparse=(s / denom, next_ids[hit]))
