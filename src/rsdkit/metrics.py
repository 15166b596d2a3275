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
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .decoding import COORDINATED_REGIMES, TokenRecord, Trace
from .models import Distribution

if TYPE_CHECKING:
    from .pipeline import DatasetRecord

DEFAULT_SUB_THRESHOLD = 0.01


def token_surprisal(trace: Trace) -> np.ndarray:
    """Per-token ``-ln(p_student)``; length equals trace length.

    A token recorded with probability 0 yields ``inf``, the sentinel for an
    unscoreable or impossible token. Raises if any record lacks a student
    probability (unscored solo traces).
    """
    probs = []
    for i, rec in enumerate(trace.records):
        if rec.p_student is None:
            raise ValueError(f"record {i} carries no student probability; score the trace first")
        probs.append(rec.p_student)
    arr = np.asarray(probs, dtype=np.float64)
    with np.errstate(divide="ignore"):
        return np.where(arr > 0.0, -np.log(np.where(arr > 0.0, arr, 1.0)), np.inf)


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


def trace_perplexity(trace: Trace) -> float:
    """:func:`records_perplexity` of a trace, which must not be empty."""
    if not trace.records:
        raise ValueError("perplexity of an empty trace is undefined")
    return records_perplexity(trace.records)


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


def sub_threshold_ratio(traces: Iterable[Trace], threshold: float) -> float:
    """Fraction of tokens with ``p_student`` strictly below ``threshold``."""
    agg = aggregate_records(((t.config.regime, t.records) for t in traces), threshold)
    if None in agg.perplexities:
        raise ValueError("trace carries unscored records")
    if agg.tokens == 0:
        raise ValueError("no tokens in the given traces")
    return agg.below / agg.tokens


def fallback_rate(traces: Iterable[Trace]) -> float:
    """Fallback records over total records; coordinated regimes only."""
    agg = aggregate_records((t.config.regime, t.records) for t in traces)
    if not agg.coordinated:
        raise ValueError("fallback rate is undefined for regimes other than rsd and skd")
    if agg.tokens == 0:
        raise ValueError("no tokens in the given traces")
    return agg.fallbacks / agg.tokens


def low_prob_token_tally(traces: Iterable[Trace], threshold: float) -> dict[int, int]:
    """Counts of tokens strictly below ``threshold``, highest count first.

    Ties break on ascending token id so the emission order is deterministic.
    """
    counts: dict[int, int] = {}
    for trace in traces:
        for rec in trace.records:
            if rec.p_student is not None and rec.p_student < threshold:
                counts[rec.token] = counts.get(rec.token, 0) + 1
    return dict(sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])))


@dataclass(frozen=True)
class DatasetReport:
    """Aggregate statistics of one generated dataset (one table row)."""

    problems_attempted: int
    correctly_solved: int
    fallback_rate_pct: float | None
    sub_threshold_pct: float
    sub_threshold: float
    avg_token_count: float
    perplexity_summary: dict[str, float]

    def __post_init__(self) -> None:
        if not 0 <= self.correctly_solved <= self.problems_attempted:
            raise ValueError("correctly_solved must lie in [0, problems_attempted]")

    def to_json_dict(self) -> dict:
        return {
            "problems_attempted": self.problems_attempted,
            "correctly_solved": self.correctly_solved,
            "fallback_rate_pct": self.fallback_rate_pct,
            "sub_threshold_pct": self.sub_threshold_pct,
            "sub_threshold": self.sub_threshold,
            "avg_token_count": self.avg_token_count,
            "perplexity_summary": dict(self.perplexity_summary),
        }

    def save(self, path: str | Path) -> None:
        Path(path).write_text(
            json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"
        )

    @classmethod
    def from_json_dict(cls, payload: dict) -> "DatasetReport":
        return cls(
            problems_attempted=int(payload["problems_attempted"]),
            correctly_solved=int(payload["correctly_solved"]),
            fallback_rate_pct=payload["fallback_rate_pct"],
            sub_threshold_pct=float(payload["sub_threshold_pct"]),
            sub_threshold=float(payload["sub_threshold"]),
            avg_token_count=float(payload["avg_token_count"]),
            perplexity_summary=dict(payload["perplexity_summary"]),
        )


def summary_stats(values: Sequence[float]) -> dict[str, float]:
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        return {k: math.nan for k in ("min", "q1", "median", "q3", "max", "mean")}
    q1, median, q3 = (float(np.percentile(arr, q)) for q in (25, 50, 75))
    return {
        "min": float(arr.min()),
        "q1": q1,
        "median": median,
        "q3": q3,
        "max": float(arr.max()),
        "mean": float(arr.mean()),
    }


def dataset_report(
    records: Sequence["DatasetRecord"], threshold: float = DEFAULT_SUB_THRESHOLD
) -> DatasetReport:
    """Aggregate one dataset into its summary row.

    Fallback rate is None (rendered "not applicable") unless every record
    was generated by a coordinated regime.
    """
    if not records:
        raise ValueError("cannot report on an empty dataset")
    agg = aggregate_records(((r.regime, r.records) for r in records), threshold)
    return DatasetReport(
        problems_attempted=len(records),
        correctly_solved=sum(1 for r in records if r.kind == "full-trace"),
        sub_threshold=threshold,
        **agg.report_fields(),
    )


def write_surprisal_csv(item: "Trace | DatasetRecord", path: str | Path) -> None:
    """Columns: step, surprisal (nats), accepted (0/1), fallback (0/1)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "surprisal", "accepted", "fallback"])
        for i, rec in enumerate(item.records):
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
