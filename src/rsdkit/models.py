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
  smoothing, trained on a token corpus. Its rows hold only their fill value
  and the ids whose value differs (:attr:`Distribution.sparse`): sampling
  tempers their distinct values and sums the row run by run
  (:class:`RunCdf`), and the dense vector is built only when read.

Both are pure functions of (model spec, context) and safe to query from
concurrent workers.
"""

from __future__ import annotations

import bisect
import math
import threading
from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

if TYPE_CHECKING:
    from .vocab import VocabularyMap

NORMALIZATION_ATOL = 1e-9
_NO_IDS = np.zeros(0, dtype=np.int64)
_NO_IDS.flags.writeable = False
#: :class:`RunCdf`'s cost over the dense path, in entries of the dense path's numpy passes (about
#: 5 ns each): a setup, then one price per hit or suppressed run. Dearer rows are summed dense.
RUN_SETUP_ENTRIES, RUN_ENTRIES = 4096, 384


class EmptySupportError(ValueError):
    """An operation left a distribution with no probability mass."""


class ContextOverflowError(RuntimeError):
    """A generation context exceeded its token budget."""


class Distribution:
    """Normalized probability vector over a vocabulary.

    Entries are finite float64, non-negative, and sum to 1 within
    ``NORMALIZATION_ATOL``. Instances are immutable, so each memoizes the
    cumulative :func:`tempered_weights` :func:`sample` draws from, one vector
    per (temperature, suppressed ids); the memo dies with the row.

    ``sparse``, when a backend knows it, is ``(size, fill, ids, values)``: every entry is ``fill``
    except ``values`` at the sorted, read-only ``ids``. Such a row is built with ``probs`` None and
    is not validated; its dense ``probs`` is filled in once, when first read. ``row[token]`` reads
    the sparse form, and :meth:`cdf` sums it run by run (:class:`RunCdf`) unless it has many hits.
    """

    __slots__ = ("_probs", "sparse", "_cdfs")
    _fill = threading.Lock()  # one fill per (row, key) however workers race, so a run's work repeats

    def __init__(self, probs: Sequence[float] | np.ndarray | None, *, validate: bool = True,
                 sparse: tuple | None = None) -> None:
        self.sparse = sparse
        self._cdfs: dict[tuple[float, frozenset[int]], np.ndarray | RunCdf] = {}
        self._probs = None
        if probs is None and sparse is not None:
            return
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
        self._probs = arr

    @property
    def probs(self) -> np.ndarray:
        if self._probs is None:
            size, fill, ids, values = self.sparse
            with self._fill:
                if self._probs is None:
                    probs = np.full(size, fill)
                    probs[ids] = values
                    self._probs = probs
        return self._probs

    @property
    def vocab_size(self) -> int:
        return int(self._probs.shape[0]) if self.sparse is None else self.sparse[0]

    def __getitem__(self, token: int) -> float:
        if self.sparse is None:
            return float(self._probs[token])
        size, fill, ids, values = self.sparse
        if not -size <= token < size:
            raise IndexError(f"index {token} is out of bounds for axis 0 with size {size}")
        token %= size
        i = ids.searchsorted(token)
        return float(values[i] if i < ids.size and ids[i] == token else fill)

    def cdf(self, temperature: float = 1.0, suppressed: VocabularyMap | None = None) -> np.ndarray | RunCdf:
        """Cumulative :func:`tempered_weights`, memoized per (temperature, suppressed ids); a
        :class:`RunCdf` on a row with :attr:`sparse` and few runs."""
        key = (temperature, frozenset() if suppressed is None else suppressed.suppressed)
        with self._fill:
            cdf = self._cdfs.get(key)
            if cdf is None:
                if self.sparse is not None:
                    cdf = _sparse_cdf(self.sparse, temperature, suppressed)
                else:
                    w = tempered_weights(self, temperature, suppressed)
                    cdf = np.cumsum(w, out=None if w is self._probs else w)
                self._cdfs[key] = cdf
        return cdf

    def __repr__(self) -> str:
        return f"Distribution({self.probs!r})"


def tempered_weights(dist: Distribution, temperature: float = 1.0, suppressed: VocabularyMap | None = None) -> np.ndarray:
    """The one tempering formula: unnormalized ``p_i^(1/T)`` without ``suppressed``'s ids, largest
    weight 1. ``dist.probs`` itself at T = 1 with no suppressed mass, else one pass over a fresh
    vector in log space, so extreme temperatures cannot underflow the whole vector."""
    p = dist.probs
    ids = [] if suppressed is None else suppressed.suppressed_ids[suppressed.suppressed_ids < p.shape[0]]
    return _temper(p, temperature, ids, bool(p[ids].any()))


def _temper(values: np.ndarray, temperature: float, gone, cut: bool) -> np.ndarray:
    """The formula on ``values`` without the entries at ``gone``, ``cut`` telling whether
    suppression removes mass: ``values`` itself at T = 1 when it does not, else a fresh vector."""
    if temperature <= 0.0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    if temperature == 1.0:
        if not cut:
            return values
        w = values.copy()
        w[gone] = 0.0
        if not w.any():
            raise EmptySupportError("suppression removed all probability mass")
        return w
    with np.errstate(divide="ignore"):
        w = np.log(values)
    w[gone] = -np.inf
    w /= temperature
    top = w.max()
    if top == -np.inf:
        cause = "suppression removed all probability mass" if cut else "cannot temper a distribution with no mass"
        raise EmptySupportError(cause)
    w -= top
    np.exp(w, out=w)
    return w


def _sparse_cdf(sparse: tuple, temperature: float, suppressed: VocabularyMap | None) -> np.ndarray | RunCdf:
    """The cumulative :func:`tempered_weights` of a row with :attr:`Distribution.sparse`, from its tempered
    distinct values: a :class:`RunCdf` where :data:`RUN_ENTRIES` price it within the row's size, else dense."""
    size, fill, ids, values = sparse
    cut, cut_runs = (_NO_IDS, ()) if suppressed is None else (suppressed.suppressed_ids, suppressed.suppressed_runs)
    cut = cut[: cut.searchsorted(size)]
    gone = np.zeros(ids.size + 1, dtype=bool)  # the hits, then the fill
    if ids.size:  # each suppressed id looked up among the hits, so the work grows with the fewer
        at = np.minimum(ids.searchsorted(cut), ids.size - 1)
        gone[at[ids[at] == cut]] = True
    cut_fills = cut.size - np.count_nonzero(gone)
    gone[-1] = size - ids.size == cut_fills  # every fill id is suppressed
    w = _temper(np.concatenate((values, [fill])), temperature, gone,
                bool(values[gone[:-1]].any()) or (cut_fills > 0 and fill != 0.0))
    if RUN_SETUP_ENTRIES + RUN_ENTRIES * (ids.size + len(cut_runs)) <= size:
        return RunCdf(size, ids, w, gone, cut_runs)
    dense = np.full(size, w[-1])
    dense[ids] = w[:-1]
    dense[cut] = 0.0
    return np.cumsum(dense, out=dense)


class RunCdf:
    """The cumulative :func:`tempered_weights` of a row with :attr:`Distribution.sparse`, run by run:
    bit for bit ``np.cumsum`` of the dense weights, answering ``[i]`` and ``searchsorted(x,
    side="right")`` as that array does.

    A sequential float sum that adds the same weight ``v`` to ``c`` moves by one grid step ``d``
    while ``c`` is normal, ``c >= v``, ``v`` is no tie at ``c``'s ulp and the sums stay in ``c``'s
    binade, so such a run is the piece ``(c + d, d)``: ``c + (j + 1) * d`` at its ``j``-th entry,
    each exact. Any other run keeps numpy's own ``cumsum`` of ``[c, v, ..., v]``.
    """

    __slots__ = ("size", "_starts", "_ends", "_pieces")

    def __init__(self, size: int, ids: np.ndarray, w: np.ndarray, gone: np.ndarray, cut_runs) -> None:
        """Sum the row whose hit ``ids`` weigh ``w[:-1]`` and fill ids ``w[-1]``, less those ``gone``
        (hits, then the fill) and the ``(start, stop)`` runs ``cut_runs``, a run of equal weights at a time."""
        # in id order: each kept hit, each suppressed run (weight 0), and the fill runs between them
        marks = [(a, min(b, size), 0.0) for a, b in cut_runs if a < size]
        marks += [(h, h + 1, v) for h, v, g in zip(ids.tolist(), w[:-1].tolist(), gone.tolist()) if not g]
        runs, at, fw = [], 0, float(w[-1])
        for a, b, v in sorted(marks):
            if a > at:
                runs.append((at, a - at, fw))
            runs.append((a, b - a, v))
            at = b
        if at < size:
            runs.append((at, size - at, fw))
        c, ends, pieces = 0.0, [], []
        for _, n, v in runs:
            if n == 1 or v == 0.0:
                c += v
                pieces.append((c, 0.0))
            else:
                if c >= v and c >= 2.0 ** -1022:  # c normal, and v under 2**53 of its ulps
                    top = math.frexp(c)[1]  # c lies in [2**(top - 1), 2**top), with ulp 2**(top - 53)
                    d = (c + v) - c  # exact, as c <= c + v <= 2c
                    if math.ldexp(v, 53 - top) % 1.0 != 0.5 and c + n * d < math.ldexp(1.0, top):
                        pieces.append((c + d, d))
                        c += n * d
                        ends.append(c)
                        continue
                run = np.full(n + 1, v)
                run[0] = c
                np.cumsum(run, out=run)
                pieces.append(run[1:])
                c = float(run[-1])
            ends.append(c)
        self.size, self._starts, self._ends, self._pieces = size, [a for a, _, _ in runs], ends, pieces

    def __getitem__(self, i: int) -> float:
        if not -self.size <= i < self.size:
            raise IndexError(f"index {i} is out of bounds for axis 0 with size {self.size}")
        i %= self.size
        k = bisect.bisect_right(self._starts, i) - 1
        piece, j = self._pieces[k], i - self._starts[k]
        return piece[0] + j * piece[1] if type(piece) is tuple else float(piece[j])

    def searchsorted(self, x: float, side: str = "right", sorter=None) -> int:
        if side != "right" or sorter is not None:
            raise ValueError("a run-length cumulative answers side='right' only")
        k = bisect.bisect_right(self._ends, x)
        if k == len(self._ends):
            return self.size
        a, piece = self._starts[k], self._pieces[k]
        if type(piece) is not tuple:
            return a + int(piece.searchsorted(x, side="right"))
        first, d = piece
        if x < first:
            return a
        return a + 1 + int((x - first) // d)  # exact: x and first share a binade, and d > 0 as x < the end


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
    the context, and the remote model locks its own stats and connections.
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
                    return Distribution(None, sparse=(size, s / (s * size), _NO_IDS, np.zeros(0)))
                break  # zero smoothing: back off to the longest seen suffix
            k, row = k + 1, i
        offsets, next_ids, counts, totals = self._rows[k]
        hit, denom = slice(offsets[row], offsets[row + 1]), totals[row] + s * size
        return Distribution(None, sparse=(size, s / denom, next_ids[hit], (counts[hit] + s) / denom))
