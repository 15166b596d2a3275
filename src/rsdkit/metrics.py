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

Every records-level aggregate goes through :func:`aggregate_records`, and
every perplexity through :func:`records_perplexity`.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
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


@dataclass(frozen=True)
class RecordsAggregate:
    """Totals over ``(regime, records)`` items. ``perplexities[i]`` is None
    when item i has an unscored record; ``coordinated`` means every item
    comes from a coordinated regime, the only case with a fallback rate."""

    items: int
    tokens: int
    below: int
    fallbacks: int
    coordinated: bool
    perplexities: list[float | None]

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


def aggregate_records(
    items: Iterable[tuple[str, Sequence[TokenRecord]]], threshold: float = DEFAULT_SUB_THRESHOLD
) -> RecordsAggregate:
    """One pass over ``(regime, records)`` items; every records-level
    statistic (reports, ratios, dataset stats) is read off its result."""
    n = tokens = below = fallbacks = 0
    coordinated = True
    perplexities: list[float | None] = []
    for regime, records in items:
        n += 1
        tokens += len(records)
        coordinated = coordinated and regime in COORDINATED_REGIMES
        scored = True
        for r in records:
            if r.p_student is not None and r.p_student < threshold:
                below += 1
            if r.fallback:
                fallbacks += 1
            if r.surprisal_student is None:
                scored = False
        perplexities.append(records_perplexity(records) if scored else None)
    return RecordsAggregate(n, tokens, below, fallbacks, coordinated, perplexities)


def low_prob_token_tally(
    record_lists: Iterable[Sequence[TokenRecord]], threshold: float
) -> dict[int, int]:
    """Counts of tokens strictly below ``threshold``, highest count first.

    Ties break on ascending token id so the emission order is deterministic.
    """
    counts: dict[int, int] = {}
    for records in record_lists:
        for rec in records:
            if rec.p_student is not None and rec.p_student < threshold:
                counts[rec.token] = counts.get(rec.token, 0) + 1
    return dict(sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])))


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


def dataset_report(records: Sequence["DatasetRecord"], threshold: float = DEFAULT_SUB_THRESHOLD) -> dict:
    """One dataset's summary row: ``problems_attempted``, ``correctly_solved``,
    ``sub_threshold`` and the fields of :meth:`RecordsAggregate.report_fields`.

    Fallback rate is None (rendered "not applicable") unless every record
    was generated by a coordinated regime.
    """
    if not records:
        raise ValueError("cannot report on an empty dataset")
    agg = aggregate_records(((r.regime, r.records) for r in records), threshold)
    return {
        "problems_attempted": len(records),
        "correctly_solved": sum(1 for r in records if r.kind == "full-trace"),
        "sub_threshold": threshold,
        **agg.report_fields(),
    }


def write_surprisal_csv(records: Sequence[TokenRecord], path: str | Path) -> None:
    """Columns: step, surprisal (nats), accepted (0/1), fallback (0/1)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "surprisal", "accepted", "fallback"])
        for i, rec in enumerate(records):
            s = rec.surprisal_student
            writer.writerow([i, "" if s is None else repr(s), int(rec.accepted), int(rec.fallback)])


def write_perplexity_csv(rows: Iterable[tuple[str, float, int]], path: str | Path) -> None:
    """Columns: id, perplexity, token_count; one row per trace or record."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "perplexity", "token_count"])
        for name, ppl, count in rows:
            writer.writerow([name, repr(ppl), count])


def write_token_tally_csv(tally: dict[int, int], path: str | Path) -> None:
    """Columns: token, count; descending count order as tallied."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["token", "count"])
        for token, count in tally.items():
            writer.writerow([token, count])
