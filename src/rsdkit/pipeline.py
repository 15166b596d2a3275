"""End-to-end distillation dataset generation.

Per problem: decode up to ``attempts`` candidate traces with seeds derived
from ``(base_seed, problem id, attempt index)``, verify each against the
reference answer, and keep the first correct one. :func:`problem_record`
then reduces the problem to its one dataset record: a solved problem
contributes its full trace; an unsolved one is salvaged as a short prefix
(first 128 generated tokens by default) so no training instance is wasted.

Problems are independent work items; a thread pool may run them
concurrently, which the CLI does only for remote models, whose threads wait
on sockets. Each problem is reduced to its record as soon as its attempts
end, so no attempt trace outlives its problem, and records are yielded in
problem order, so parallel runs produce byte-identical datasets to serial ones.
"""

from __future__ import annotations

import json
import math
import re
import subprocess
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from .decoding import REGIMES, TokenRecord, Trace, _surprisal
from .metrics import aggregate_records
from .models import LanguageModel, _integer
from .remote import BackendError
from .seeding import derive_seed

VERDICTS = ("correct", "incorrect", "unverifiable")
NORMALIZATIONS = ("strip", "casefold", "collapse-whitespace")
RECORD_KINDS = ("full-trace", "upft-prefix")
PREFIX_SOURCES = ("first", "longest", "lowest-perplexity")
DATASET_SCHEMA = "rsdkit-dataset-v1"
DEFAULT_PREFIX_LENGTH = 128
DEFAULT_ATTEMPTS = 16
DEFAULT_PREFIX_SOURCE = "first"

Detokenizer = Callable[[Sequence[int]], str]
Generator = Callable[[Sequence[int], int], Trace]


class DataError(ValueError):
    """An input data file is missing, malformed, truncated, or inconsistent."""


def parse_located(where: str, parse: Callable[[Any], Any], row) -> Any:
    """``parse(row)``; a KeyError, TypeError or ValueError it raises is a DataError naming ``where``."""
    try:
        return parse(row)
    except KeyError as exc:
        raise DataError(f"{where}: missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise DataError(f"{where}: {exc}") from exc


def read_jsonl(path: str | Path, parse: Callable[[dict], Any]) -> Iterator[tuple[int, Any]]:
    """``(line number, parse(object))`` for each non-blank line of a UTF-8 JSONL file.
    An unopenable file, a line that is not UTF-8, JSON or a JSON object, or a
    line ``parse`` refuses raises :class:`DataError` naming the path and the line."""
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from exc
    with fh:
        for i, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise DataError(f"{path}: line {i}: not UTF-8: {exc}") from exc
            if not line.strip():
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataError(f"{path}: line {i}: invalid JSON: {exc}") from exc
            if not isinstance(row, dict):
                raise DataError(f"{path}: line {i}: not a JSON object")
            yield i, parse_located(f"{path}: line {i}", parse, row)


@dataclass(frozen=True)
class Problem:
    """One question-answer pair; the prompt is already tokenized."""

    id: str
    prompt_tokens: tuple[int, ...]
    answer: str

    def __post_init__(self) -> None:
        if not isinstance(self.prompt_tokens, (list, tuple)):  # before the emptiness test: 0 is no empty prompt
            raise TypeError(f"prompt_tokens must be a list of token ids, got {self.prompt_tokens!r}")
        if not self.prompt_tokens:
            raise ValueError(f"problem {self.id!r} has an empty prompt")
        object.__setattr__(self, "prompt_tokens", tuple(_integer("prompt token", t) for t in self.prompt_tokens))


@dataclass
class AttemptOutcome:
    """One rejection-sampling attempt: its trace (if any) and the verdict."""

    problem_id: str
    attempt_index: int
    trace: Trace | None
    verdict: str
    error: str | None = None


@dataclass
class RejectionResult:
    """All attempts for one problem; ``solved`` is the first correct one."""

    problem_id: str
    solved: AttemptOutcome | None
    attempts: list[AttemptOutcome]


@dataclass
class DatasetRecord:
    """One training example: a full verified trace or a salvage prefix."""

    problem_id: str
    kind: str
    verdict: str
    tokens: tuple[int, ...]
    source_trace_ref: str
    regime: str
    records: list[TokenRecord]
    stats: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "problem_id": self.problem_id,
            "kind": self.kind,
            "verdict": self.verdict,
            "tokens": list(self.tokens),
            "source_trace_ref": self.source_trace_ref,
            "regime": self.regime,
            "records": [r.to_json_dict() for r in self.records],
            "stats": dict(self.stats),
        }

    @classmethod
    def from_json_dict(cls, payload: Mapping) -> "DatasetRecord":
        """The record :meth:`to_json_dict` wrote; a field it could not have written is a
        TypeError or ValueError, never converted."""
        for key in ("problem_id", "source_trace_ref"):
            if type(payload[key]) is not str:
                raise TypeError(f"{key} must be a string, got {payload[key]!r}")
        stats = payload.get("stats", {})
        if type(stats) is not dict:
            raise TypeError(f"stats must be an object, got {stats!r}")
        for key, allowed in (("kind", RECORD_KINDS), ("verdict", VERDICTS), ("regime", REGIMES)):
            if payload[key] not in allowed:
                raise DataError(f"unknown record {key} {payload[key]!r}")
        if not payload["records"]:
            raise DataError("record has no token records")
        records = [TokenRecord.from_json_dict(r) for r in payload["records"]]
        tokens = [r.token for r in records]
        if payload["tokens"] != tokens:
            raise DataError("tokens disagree with the token records")
        return cls(
            problem_id=payload["problem_id"],
            kind=payload["kind"],
            verdict=payload["verdict"],
            tokens=tuple(tokens),
            source_trace_ref=payload["source_trace_ref"],
            regime=payload["regime"],
            records=records,
            stats=dict(stats),
        )


_BOXED_MARKER = "\\boxed{"


def extract_boxed(text: str) -> str | None:
    """Contents of the last ``\\boxed{...}`` span, brace-balanced."""
    start = text.rfind(_BOXED_MARKER)
    if start < 0:
        return None
    begin = start + len(_BOXED_MARKER)
    depth = 1
    for i in range(begin, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return text[begin:i]
    return None  # unbalanced


@dataclass(frozen=True)
class Verifier:
    """Deterministic answer checker: same trace text, same verdict.

    Modes: ``exact-match`` compares normalized trace text against the
    reference; ``boxed-answer`` compares the last boxed span; and
    ``external-command`` delegates to a user script fed
    ``{"text": ..., "reference": ...}`` on stdin (exit 0 correct, 1
    incorrect, anything else unverifiable).
    """

    mode: str = "boxed-answer"
    normalization: tuple[str, ...] = NORMALIZATIONS
    command: tuple[str, ...] | None = None
    timeout_s: float = 30.0

    def __post_init__(self) -> None:  # a list becomes a tuple; any other shape is refused, never converted
        command, timeout_s, normalization = self.command, self.timeout_s, self.normalization
        if self.mode not in ("exact-match", "boxed-answer", "external-command"):
            raise ValueError(f"unknown verifier mode {self.mode!r}")
        if command is not None and not (type(command) in (list, tuple) and command and all(type(a) is str for a in command)):
            raise TypeError(f"command must be null or a non-empty list of strings, got {command!r}")
        if self.mode == "external-command" and command is None:
            raise ValueError("external-command verifier needs a command")
        if type(timeout_s) not in (int, float) or not 0.0 < timeout_s < math.inf:
            raise ValueError(f"timeout_s must be a finite number > 0, got {timeout_s!r}")
        if type(normalization) not in (list, tuple) or any(name not in NORMALIZATIONS for name in normalization):
            raise ValueError(f"normalization must be a list of names from {NORMALIZATIONS}, got {normalization!r}")
        object.__setattr__(self, "normalization", tuple(normalization))
        object.__setattr__(self, "command", None if command is None else tuple(command))
        object.__setattr__(self, "timeout_s", float(timeout_s))

    def normalize(self, text: str) -> str:
        if "strip" in self.normalization:
            text = text.strip()
        if "casefold" in self.normalization:
            text = text.casefold()
        if "collapse-whitespace" in self.normalization:
            text = re.sub(r"\s+", " ", text)
        return text

    def judge(self, text: str, reference: str) -> str:
        if self.mode != "external-command":  # the answer is the whole text, or its last boxed span
            answer = text if self.mode == "exact-match" else extract_boxed(text)
            same = answer is not None and self.normalize(answer) == self.normalize(reference)
            return "correct" if same else "incorrect"
        assert self.command is not None
        payload = json.dumps({"text": text, "reference": reference})
        try:
            proc = subprocess.run(
                list(self.command),
                input=payload.encode("utf-8"),
                capture_output=True,
                timeout=self.timeout_s,
            )
        except (OSError, subprocess.TimeoutExpired):
            return "unverifiable"
        if proc.returncode == 0:
            return "correct"
        if proc.returncode == 1:
            return "incorrect"
        return "unverifiable"


def rejection_sample(
    problem: Problem,
    generator: Generator,
    verifier: Verifier,
    attempts: int,
    base_seed: int,
    detokenize: Detokenizer,
) -> RejectionResult:
    """Decode and verify up to ``attempts`` candidates, stopping at the
    first correct one. Attempt k uses the seed derived from
    ``(base_seed, problem.id, k)``, so any attempt can be replayed in
    isolation. A generator failure records an unverifiable outcome and the
    run continues, except a :class:`~rsdkit.remote.BackendError`: a backend
    outage fails every later attempt too, so it ends the run.
    """
    if attempts < 1:
        raise ValueError(f"attempts must be >= 1, got {attempts}")
    outcomes: list[AttemptOutcome] = []
    for k in range(attempts):
        seed = derive_seed(base_seed, problem.id, k)
        try:
            trace = generator(problem.prompt_tokens, seed)
            text = detokenize(trace.tokens())
        except BackendError:
            raise
        except Exception as exc:  # recorded, not fatal
            outcomes.append(
                AttemptOutcome(
                    problem_id=problem.id,
                    attempt_index=k,
                    trace=None,
                    verdict="unverifiable",
                    error=f"{type(exc).__name__}: {exc}",
                )
            )
            continue
        verdict = verifier.judge(text, problem.answer)
        outcome = AttemptOutcome(problem.id, k, trace, verdict)
        outcomes.append(outcome)
        if verdict == "correct":
            return RejectionResult(problem.id, solved=outcome, attempts=outcomes)
    return RejectionResult(problem.id, solved=None, attempts=outcomes)


def _pick_prefix_source(result: RejectionResult, policy: str) -> AttemptOutcome:
    candidates = [a for a in result.attempts if a.trace is not None and a.trace.records]
    if not candidates:
        first_error = result.attempts[0].error if result.attempts else None
        raise ValueError(
            f"problem {result.problem_id!r}: no attempt produced a trace to salvage"
            f" (first attempt: {first_error})"
        )
    if policy == "first":
        return candidates[0]
    if policy == "longest":
        return max(candidates, key=lambda a: len(a.trace.records))
    if policy == "lowest-perplexity":
        agg = aggregate_records((a.trace.config.regime, a.trace.records) for a in candidates)
        ppls = [math.inf if p is None else p for p in agg.perplexities]
        return candidates[ppls.index(min(ppls))]
    raise ValueError(f"unknown prefix source policy {policy!r}")


def problem_record(
    result: RejectionResult,
    prefix_length: int = DEFAULT_PREFIX_LENGTH,
    prefix_source: str = DEFAULT_PREFIX_SOURCE,
) -> DatasetRecord:
    """A problem's one training record: its first correct trace in full, or else
    the first ``prefix_length`` generated tokens (the prompt excluded; a shorter
    trace keeps everything) of the attempt named by ``prefix_source``."""
    if prefix_length < 1:
        raise ValueError(f"prefix_length must be >= 1, got {prefix_length}")
    if result.solved is not None:
        source, kind = result.solved, "full-trace"
        records = list(source.trace.records)
    else:
        source, kind = _pick_prefix_source(result, prefix_source), "upft-prefix"
        records = list(source.trace.records[:prefix_length])
    regime = source.trace.config.regime
    agg = aggregate_records([(regime, records)])
    return DatasetRecord(
        problem_id=result.problem_id,
        kind=kind,
        verdict=source.verdict,
        tokens=tuple(r.token for r in records),
        source_trace_ref=f"{result.problem_id}#attempt-{source.attempt_index}",
        regime=regime,
        records=records,
        stats={
            "token_count": agg.tokens,
            "fallback_count": agg.fallbacks,
            "perplexity": agg.perplexities[0] if records else None,
        },
    )


def assemble_dataset(
    results: Sequence[RejectionResult],
    prefix_length: int = DEFAULT_PREFIX_LENGTH,
    prefix_source: str = DEFAULT_PREFIX_SOURCE,
) -> list[DatasetRecord]:
    """The :func:`problem_record` of each result, in input order."""
    return [problem_record(r, prefix_length, prefix_source) for r in results]


def export_dataset(records: Iterable[DatasetRecord], path: str | Path) -> None:
    """Newline-delimited JSON, one record per line as ``records`` yields it,
    closed by a manifest line carrying the record count (the partial-write
    detector). Only the record being written is held."""
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec.to_json_dict(), sort_keys=True, separators=(",", ":")) + "\n")
            count += 1
        manifest = {"kind": "manifest", "schema": DATASET_SCHEMA, "record_count": count}
        fh.write(json.dumps(manifest, sort_keys=True, separators=(",", ":")) + "\n")


def read_dataset(path: str | Path) -> Iterator[DatasetRecord]:
    """The records of an :func:`export_dataset` file, one at a time. Malformed
    lines are reported by number when they are reached; a missing or
    inconsistent manifest, meaning a partial write, after the last record."""
    count = 0
    manifest: dict | None = None
    for i, payload in read_jsonl(path, lambda row: row):  # records are parsed below, the manifest is not
        if manifest is not None:
            raise DataError(f"{path}: line {i}: content after manifest line")
        if payload.get("kind") == "manifest":
            manifest = payload
            continue
        count += 1
        yield parse_located(f"{path}: line {i}", DatasetRecord.from_json_dict, payload)
    if manifest is None:
        raise DataError(f"{path}: no manifest line; file is truncated or partial")
    if manifest.get("record_count") != count:
        raise DataError(
            f"{path}: manifest declares {manifest.get('record_count')} records, found {count}"
        )


def import_dataset(path: str | Path) -> list[DatasetRecord]:
    """Inverse of :func:`export_dataset`, all of :func:`read_dataset` at once;
    re-exporting the result reproduces the file byte for byte."""
    return list(read_dataset(path))


def read_traces_jsonl(path: str | Path) -> Iterator[Trace]:
    """The traces of a file of ``Trace.to_json_line()`` lines, one at a time."""
    return (trace for _, trace in read_jsonl(path, Trace.from_json_dict))


def score_external_traces(
    source: str | Path | Iterable[Mapping], student: LanguageModel
) -> Iterator[list[TokenRecord]]:
    """Force-score externally generated token sequences under the student.

    ``source`` is an external-traces JSONL file, whose faults name the path
    and the line, or the entries themselves, whose faults name the 0-based
    entry index. Each entry carries ``prompt_tokens`` and ``tokens`` (both
    in the student vocabulary; out-of-vocabulary ids raise). Entries are
    read and scored one at a time: each yields one list of token records
    with the student probabilities filled, ready for the records-level
    metrics, and a fault raises when its entry is reached. The rows come from
    :meth:`~rsdkit.models.LanguageModel.next_distributions` in blocks of the
    student's ``lookahead`` tokens, so a remote student answers a block in
    one request.
    """
    def parse(entry: Mapping) -> tuple[list[int], list[int]]:
        prompt = [_integer("prompt token", t) for t in entry["prompt_tokens"]]
        tokens = [_integer("token", t) for t in entry["tokens"]]
        for t in prompt + tokens:
            if not 0 <= t < student.vocab_size:
                raise ValueError(f"token {t} out of vocabulary")
        if not tokens:
            raise ValueError("empty token sequence")
        return prompt, tokens

    if isinstance(source, (str, Path)):
        entries = (entry for _, entry in read_jsonl(source, parse))
    else:
        entries = (parse_located(f"external trace {n}", parse, entry) for n, entry in enumerate(source))
    for prompt, tokens in entries:
        ctx = list(prompt)
        records = []
        for start in range(0, len(tokens), student.lookahead):
            chunk = tokens[start : start + student.lookahead]
            for token, row in zip(chunk, student.next_distributions(ctx, chunk[:-1])):
                p = row[token]
                records.append(
                    TokenRecord(
                        token=token,
                        proposer="teacher",
                        accepted=False,
                        fallback=False,
                        p_teacher=None,
                        p_student=p,
                        surprisal_student=_surprisal(p),
                    )
                )
            ctx.extend(chunk)
        yield records


def run_generation(
    problems: Sequence[Problem],
    generator: Generator,
    verifier: Verifier,
    attempts: int,
    base_seed: int,
    detokenize: Detokenizer,
    *,
    prefix_length: int = DEFAULT_PREFIX_LENGTH,
    prefix_source: str = DEFAULT_PREFIX_SOURCE,
    workers: int = 1,
) -> Iterator[DatasetRecord]:
    """Rejection-sample every problem and yield its :func:`problem_record`,
    in problem order.

    Each worker reduces its problem's result to the record before returning
    it, so no attempt trace outlives its problem. ``workers=1`` runs serially
    on the calling thread and stops at the first problem that raises; higher
    values fan problems out to a thread pool. Either way the records, and so
    the dataset bytes, are identical.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")

    def one(problem: Problem) -> DatasetRecord:
        result = rejection_sample(problem, generator, verifier, attempts, base_seed, detokenize)
        return problem_record(result, prefix_length, prefix_source)

    with ThreadPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        # pool.map yields in submission order, and cancels what has not started
        # when a problem raises
        yield from (map if pool is None else pool.map)(one, problems)
