"""Information-theoretic trace diagnostics and dataset-level reports.

All quantities are in nats (natural log). Metrics are computed from raw
temperature-1 student probabilities as recorded in the traces, regardless of
the generation temperature, and every aggregate equals a recomputation from
the serialized per-token records: there is no hidden state.

Definitions:

* surprisal of an emitted token: ``-ln(p_student)``
* step entropy of a distribution: ``-sum(p * ln p)`` with ``0 ln 0 = 0``
* trace perplexity: ``exp(mean surprisal)``, the geometric mean of inverse
  token probabilities
* sub-threshold ratio: fraction of tokens with ``p_student`` strictly below
  a diagnostic threshold (1% in the headline configuration)
* fallback rate: fraction of tokens emitted by the fallback path, defined
  only when every trace or record comes from a coordinated (rsd/skd) regime

Every records-level aggregate (reports, ratios, the low-probability token
tally) is one fold, :meth:`RecordsAggregate.add`, over ``(regime, records)``
items: :func:`aggregate_records` runs it over an iterable, and the CLI feeds
it each item as the item is read or generated, so no command holds more than
one item's token records. Every perplexity goes through
:func:`records_perplexity`.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .decoding import COORDINATED_REGIMES, TokenRecord
from .models import Distribution

if TYPE_CHECKING:
    from .pipeline import DatasetRecord

DEFAULT_SUB_THRESHOLD = 0.01


def step_entropy(dist: Distribution) -> float:
    """Shannon entropy in nats; lies in [0, ln(vocab_size)]."""
    p = dist.probs
    positive = p > 0.0
    if not np.any(positive):
        return 0.0
    q = p[positive]
    return float(-(q * np.log(q)).sum())


def records_perplexity(records: Sequence[TokenRecord]) -> float:
    """exp of mean recorded surprisal; ``inf`` when an unscoreable token is
    present and NaN for no records. The one perplexity formula."""
    if not records:
        return math.nan
    surprisals = [r.surprisal_student for r in records]
    if any(s is None for s in surprisals):
        raise ValueError("records carry no surprisal values")
    if any(math.isinf(s) for s in surprisals):
        return math.inf
    return float(math.exp(sum(surprisals) / len(surprisals)))


@dataclass
class RecordsAggregate:
    """Running totals over ``(regime, records)`` items, folded in one at a
    time by :meth:`add`. ``perplexities[i]`` is None when item i has an
    unscored record; ``coordinated`` means every item comes from a
    coordinated regime, the only case with a fallback rate; ``full_traces``
    counts the items that are a dataset's full (solved) traces;
    ``below_tokens`` counts each token id among the ``below`` records."""

    threshold: float = DEFAULT_SUB_THRESHOLD
    items: int = 0
    tokens: int = 0
    below: int = 0
    fallbacks: int = 0
    coordinated: bool = True
    full_traces: int = 0
    perplexities: list[float | None] = field(default_factory=list)
    below_tokens: dict[int, int] = field(default_factory=dict)

    def add(
        self, regime: str | None, records: Sequence[TokenRecord], full_trace: bool = False
    ) -> float | None:
        """Fold in one item; returns its perplexity (None when unscored)."""
        threshold, below_tokens = self.threshold, self.below_tokens
        below = fallbacks = 0
        scored = True
        for r in records:
            if r.p_student is not None and r.p_student < threshold:
                below += 1
                below_tokens[r.token] = below_tokens.get(r.token, 0) + 1
            if r.fallback:
                fallbacks += 1
            if r.surprisal_student is None:
                scored = False
        self.items += 1
        self.tokens += len(records)
        self.below += below
        self.fallbacks += fallbacks
        self.full_traces += full_trace
        self.coordinated = self.coordinated and regime in COORDINATED_REGIMES
        perplexity = records_perplexity(records) if scored else None
        self.perplexities.append(perplexity)
        return perplexity

    def report_fields(self) -> dict:
        """The fields that dataset and trace reports share."""
        if None in self.perplexities:
            raise ValueError("records carry no surprisal values")
        tokens = self.tokens
        return {
            "fallback_rate_pct": 100.0 * self.fallbacks / tokens if self.coordinated and tokens else None,
            "sub_threshold_pct": 100.0 * self.below / tokens if tokens else 0.0,
            "avg_token_count": tokens / self.items if self.items else 0.0,
            "perplexity_summary": summary_stats(self.perplexities),
        }

    def dataset_report(self) -> dict:
        """``report.json`` of a dataset whose items are its records:
        ``problems_attempted``, ``correctly_solved``, ``sub_threshold`` and
        the :meth:`report_fields`."""
        if not self.items:
            raise ValueError("cannot report on an empty dataset")
        return {
            "problems_attempted": self.items,
            "correctly_solved": self.full_traces,
            "sub_threshold": self.threshold,
            **self.report_fields(),
        }

    def token_tally(self) -> dict[int, int]:
        """``below_tokens``, highest count first; ties break on ascending
        token id so the emission order is deterministic."""
        return dict(sorted(self.below_tokens.items(), key=lambda kv: (-kv[1], kv[0])))


def aggregate_records(
    items: Iterable[tuple], threshold: float = DEFAULT_SUB_THRESHOLD
) -> RecordsAggregate:
    """One pass over ``(regime, records[, full_trace])`` items, the arguments of
    :meth:`RecordsAggregate.add`; every records-level statistic (reports, ratios,
    dataset stats) is read off its result. Items are taken one at a time, so a
    generator that reads each item when asked keeps one item in memory."""
    agg = RecordsAggregate(threshold)
    for item in items:
        agg.add(*item)
    return agg


def low_prob_token_tally(
    record_lists: Iterable[Sequence[TokenRecord]], threshold: float
) -> dict[int, int]:
    """Counts of tokens strictly below ``threshold``, highest count first
    (:meth:`RecordsAggregate.token_tally`)."""
    return aggregate_records(((None, records) for records in record_lists), threshold).token_tally()


def _quantile(values: np.ndarray, q: float) -> float:
    """``np.percentile(values, 100 * q)`` bit for bit, computed as numpy's ``linear`` method does
    (same partition, lerp from the upper value past t = 0.5, ``inf - inf`` is NaN), without the
    ``numpy.ma`` import (about 10 ms) that numpy's first call makes."""
    index = (values.shape[0] - 1) * q
    lo, hi = (-1, -1) if index >= values.shape[0] - 1 else (math.floor(index), math.floor(index) + 1)
    arr = np.partition(values, sorted({0, -1, lo, hi}))
    if math.isnan(arr[-1]):  # NaN sorts last and makes every quantile NaN
        return math.nan
    a, b, t = float(arr[lo]), float(arr[hi]), index - lo
    return b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t


def summary_stats(values: Sequence[float]) -> dict[str, float]:
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        return {k: math.nan for k in ("min", "q1", "median", "q3", "max", "mean")}
    q1, median, q3 = (_quantile(arr, q) for q in (0.25, 0.5, 0.75))
    return {
        "min": float(arr.min()),
        "q1": q1,
        "median": median,
        "q3": q3,
        "max": float(arr.max()),
        "mean": float(arr.mean()),
    }


def dataset_report(records: Iterable["DatasetRecord"], threshold: float = DEFAULT_SUB_THRESHOLD) -> dict:
    """One dataset's summary row, :meth:`RecordsAggregate.dataset_report`.

    Fallback rate is None (rendered "not applicable") unless every record
    was generated by a coordinated regime.
    """
    items = ((r.regime, r.records, r.kind == "full-trace") for r in records)
    return aggregate_records(items, threshold).dataset_report()


def _write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """``header``, then each of ``rows``, as one CSV file."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_surprisal_csv(records: Sequence[TokenRecord], path: str | Path) -> None:
    """Columns: step, surprisal (nats), accepted (0/1), fallback (0/1)."""
    rows = ((i, "" if r.surprisal_student is None else repr(r.surprisal_student), int(r.accepted), int(r.fallback))
            for i, r in enumerate(records))
    _write_csv(path, ["step", "surprisal", "accepted", "fallback"], rows)


def write_perplexity_csv(rows: Iterable[tuple[str, float, int]], path: str | Path) -> None:
    """Columns: id, perplexity, token_count; one row per trace or record."""
    _write_csv(path, ["id", "perplexity", "token_count"], ((name, repr(ppl), count) for name, ppl, count in rows))


def write_token_tally_csv(tally: dict[int, int], path: str | Path) -> None:
    """Columns: token, count; descending count order as tallied."""
    _write_csv(path, ["token", "count"], tally.items())
