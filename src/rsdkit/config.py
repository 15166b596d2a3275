"""Run configuration: one JSON document validated before any work starts.

Top-level keys (defaults mirror the headline generation setup):

``generation``
    ``regime`` (rsd), ``p_th`` (0.01), ``temperature`` (0.7),
    ``max_tokens`` (required), ``context_limit`` (8192), ``seed`` (0),
    ``threshold_uses_raw`` (true).
``teacher`` / ``student``
    Model specs (see :func:`build_model`): ``{"backend": "table", ...}``,
    ``{"backend": "ngram", ...}`` or ``{"backend": "remote", ...}``.
``vocab_map``
    null for identity, ``{"path": ...}``, an inline map document, or
    ``{"teacher_vocab_size": ..., "student_vocab_size": ...,
    "expansions": {...}}`` to derive one.
``token_text``
    Optional list mapping token id -> text fragment, used to render traces
    for the verifier and to encode ``prompt_text`` problems (single-char
    fragments only; there is no tokenizer here).
``verifier``
    ``mode``, ``normalization``, ``command``, ``timeout_s``.
``attempts`` (16), ``prefix_length`` (128), ``prefix_source`` ("first"),
``diagnostic_threshold`` (0.01, the sub-threshold metric cutoff in reports),
``problems`` (path), ``output.dataset`` / ``output.report`` (paths),
``workers`` (null = available parallelism).

Each default above is declared once, by the object that uses it; only
``p_th`` is set here. Every JSON object refuses a key it does not read.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, Sequence

from .decoding import ROLES, GenerationConfig
from .metrics import DEFAULT_SUB_THRESHOLD
from .models import LanguageModel, NgramModel, TableModel
from .pipeline import (
    DEFAULT_ATTEMPTS,
    DEFAULT_PREFIX_LENGTH,
    DEFAULT_PREFIX_SOURCE,
    PREFIX_SOURCES,
    DataError,
    Problem,
    Verifier,
    read_jsonl,
)
from .remote import BackendEndpoint, RemoteModel
from .vocab import VocabularyAlignmentError, VocabularyMap, build_vocab_map, expansions_from_json


class ConfigError(ValueError):
    """The run configuration is missing, malformed, or inconsistent."""


@dataclass
class RunConfig:
    generation: GenerationConfig
    teacher_spec: dict | None
    student_spec: dict | None
    vocab_map_spec: dict | None
    token_text: list[str] | None
    verifier: Verifier
    attempts: int
    prefix_length: int
    prefix_source: str
    diagnostic_threshold: float
    problems_path: str | None
    dataset_path: str
    report_path: str
    workers: int | None
    base_dir: Path

    def resolve_path(self, path: str) -> Path:
        p = Path(path)
        return p if p.is_absolute() else self.base_dir / p


def load_run_config(path: str | Path) -> RunConfig:
    path = Path(path)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    return parse_run_config(payload, base_dir=path.parent)


_TOP_LEVEL_KEYS = (
    "generation", "teacher", "student", "vocab_map", "token_text", "verifier", "attempts",
    "prefix_length", "prefix_source", "diagnostic_threshold", "problems", "output", "workers",
)


def _object(value, keys, what: str) -> Mapping:
    """``value`` if it is a JSON object holding only ``keys``, else ConfigError."""
    if not isinstance(value, Mapping):
        raise ConfigError(f"{what} must be an object, got {type(value).__name__}")
    unknown = set(value) - set(keys)
    if unknown:
        raise ConfigError(f"unknown {what} keys: {sorted(unknown)}")
    return value


def at_least_one(name: str, value) -> int:
    """``value`` if it is an integer of at least 1, else ConfigError (counts and pool sizes).
    A float, a bool or a string is refused, not converted."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ConfigError(f"{name} must be >= 1, got {value}")
    return value


def in_unit_interval(name: str, value) -> float:
    """``value`` as a float if it is a number in [0, 1], else ConfigError (thresholds).
    A bool or a string is refused, not converted."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    if not 0.0 <= value <= 1.0:
        raise ConfigError(f"{name} must lie in [0, 1], got {value}")
    return float(value)


def parse_run_config(payload: Mapping, base_dir: str | Path = ".") -> RunConfig:
    _object(payload, _TOP_LEVEL_KEYS, "config")
    gen_payload = _object(payload.get("generation"), GenerationConfig.__dataclass_fields__, "generation")
    try:
        # p_th is the one generation default GenerationConfig leaves to the run config
        generation = GenerationConfig.from_json_dict({"p_th": 0.01, **gen_payload})
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad generation settings: {exc}") from exc

    specs = {role: payload.get(role) for role in ("teacher", "student")}
    needed = [role for role in ROLES[generation.regime] if role]
    if any(specs[role] is None for role in needed):
        raise ConfigError(f"regime {generation.regime!r} needs {' and '.join(needed)} model specs")
    for role, spec in specs.items():
        if spec is not None:
            validate_model_spec(spec, role)
    teacher_spec, student_spec = specs["teacher"], specs["student"]

    token_text = payload.get("token_text")
    if token_text is not None:
        if not isinstance(token_text, list) or not all(isinstance(s, str) for s in token_text):
            raise ConfigError("token_text must be a list of strings")

    verifier_payload = _object(payload.get("verifier", {}), Verifier.__dataclass_fields__, "verifier")
    try:
        verifier = Verifier(**verifier_payload)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad verifier settings: {exc}") from exc

    attempts = at_least_one("attempts", payload.get("attempts", DEFAULT_ATTEMPTS))
    prefix_length = at_least_one("prefix_length", payload.get("prefix_length", DEFAULT_PREFIX_LENGTH))
    prefix_source = payload.get("prefix_source", DEFAULT_PREFIX_SOURCE)
    if prefix_source not in PREFIX_SOURCES:
        raise ConfigError(f"prefix_source must be one of {PREFIX_SOURCES}, got {prefix_source!r}")
    diagnostic_threshold = in_unit_interval(
        "diagnostic_threshold", payload.get("diagnostic_threshold", DEFAULT_SUB_THRESHOLD)
    )

    workers = payload.get("workers")
    if workers is not None:
        workers = at_least_one("workers", workers)

    output = _object(payload.get("output", {}), ("dataset", "report"), "output")
    vocab_map_spec = payload.get("vocab_map")
    if vocab_map_spec is not None and not isinstance(vocab_map_spec, Mapping):
        raise ConfigError("vocab_map must be null or an object")

    return RunConfig(
        generation=generation,
        teacher_spec=dict(teacher_spec) if teacher_spec else None,
        student_spec=dict(student_spec) if student_spec else None,
        vocab_map_spec=dict(vocab_map_spec) if vocab_map_spec else None,
        token_text=list(token_text) if token_text else None,
        verifier=verifier,
        attempts=attempts,
        prefix_length=prefix_length,
        prefix_source=prefix_source,
        diagnostic_threshold=diagnostic_threshold,
        problems_path=payload.get("problems"),
        dataset_path=output.get("dataset", "dataset.jsonl"),
        report_path=output.get("report", "report.json"),
        workers=workers,
        base_dir=Path(base_dir),
    )


def validate_model_spec(spec: Mapping, role: str) -> None:
    if not isinstance(spec, Mapping):
        raise ConfigError(f"{role} model spec must be an object")
    backend = spec.get("backend")
    if backend not in ("table", "ngram", "remote"):
        raise ConfigError(f"{role}: unknown backend {backend!r}")
    # the only list of each backend's keys: build_model passes exactly these
    # to the constructor, whose own argument check refuses a key it lacks
    required, optional = {  # optional besides eos_token
        "table": (("default",), ("rows",)),
        "ngram": (("corpus", "order"), ("smoothing", "vocab_size")),
        "remote": (("base_url", "model_name"), ("timeout_s", "max_retries", "backoff_s", "vocab_size")),
    }[backend]
    for key in required:
        if key not in spec:
            raise ConfigError(f"{role}: backend {backend!r} needs {key!r}")
    unknown = set(spec) - {"backend", "eos_token", *required, *optional}
    if unknown:
        raise ConfigError(f"{role}: backend {backend!r} does not read keys {sorted(unknown)}")


def build_model(spec: Mapping, role: str = "model") -> LanguageModel:
    """Instantiate a model from its spec; remote backends handshake here."""
    validate_model_spec(spec, role)
    fields = {key: spec[key] for key in spec if key != "backend"}
    try:
        if spec["backend"] == "table":
            rows = [_object(row, ("suffix", "probs"), "table row") for row in fields.pop("rows", [])]
            return TableModel({tuple(row["suffix"]): row["probs"] for row in rows}, **fields)
        if spec["backend"] == "ngram":
            return NgramModel(**fields)
        return RemoteModel(BackendEndpoint(**fields))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{role}: bad model spec: {exc}") from exc


_VOCAB_MAP_FORMS = {  # the key that names the form -> every key the form reads
    "path": ("path",),
    "shared_size": ("shared_size", "suppressed", "expansions"),
    "teacher_vocab_size": ("teacher_vocab_size", "student_vocab_size", "expansions"),
}


def build_vocab_map_from_spec(spec: Mapping | None, student_vocab_size: int,
                              teacher_vocab_size: int | None = None, base_dir=".") -> VocabularyMap:
    """The map a ``vocab_map`` spec describes, a ``path`` read from ``base_dir``. Given
    ``teacher_vocab_size`` (a coordinated pair), the sizes and ids it names are checked
    against the pair, so a map that cannot serve the pair fails before any decode."""
    form = None
    if spec is not None:
        form = next((key for key in _VOCAB_MAP_FORMS if key in spec), None)
        if form is None:
            raise ConfigError("vocab_map needs 'path', 'shared_size', or 'teacher_vocab_size'")
        _object(spec, _VOCAB_MAP_FORMS[form], "vocab_map")
    try:
        if form is None:
            vmap = VocabularyMap.identity(student_vocab_size)
        elif form == "path":
            vmap = VocabularyMap.load(Path(base_dir, spec["path"]))
        elif form == "shared_size":
            vmap = VocabularyMap.from_json_dict(spec)
        else:
            sizes = (spec["teacher_vocab_size"], spec.get("student_vocab_size", student_vocab_size))
            vmap = build_vocab_map(*sizes, expansions_from_json(spec.get("expansions", {})))
        if teacher_vocab_size is not None:
            pair = (teacher_vocab_size, student_vocab_size)
            if form == "teacher_vocab_size" and sizes != pair:
                raise VocabularyAlignmentError(f"sizes {sizes} differ from the model pair's {pair}")
            vmap.check_fits(*pair)
    except (OSError, VocabularyAlignmentError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad vocab_map: {exc}") from exc
    return vmap


def build_detokenizer(token_text: Sequence[str] | None) -> Callable[[Sequence[int]], str]:
    """Token ids -> text for the verifier.

    With a ``token_text`` table, fragments are concatenated; without one,
    ids render as space-separated decimals (exact-match verification still
    works against references written the same way).
    """
    if token_text is None:
        return lambda tokens: " ".join(str(t) for t in tokens)
    table = list(token_text)

    def detokenize(tokens: Sequence[int]) -> str:
        try:
            return "".join(table[t] for t in tokens)
        except IndexError as exc:
            raise DataError(f"token outside token_text table of size {len(table)}") from exc

    return detokenize


def encode_text(text: str, token_text: Sequence[str]) -> tuple[int, ...]:
    """Character-wise inverse of the token_text table, for prompt_text.

    Only single-character entries participate (empty or multi-character
    fragments, such as an EOS rendered as "", cannot be the target of a
    character lookup); the lowest id wins when fragments repeat.
    """
    lookup: dict[str, int] = {}
    for i, frag in enumerate(token_text):
        if len(frag) == 1:
            lookup.setdefault(frag, i)
    if not lookup:
        raise ConfigError("prompt_text needs at least one single-character token_text entry")
    try:
        return tuple(lookup[c] for c in text)
    except KeyError as exc:
        raise DataError(f"prompt_text character {exc} not in token_text") from exc


def load_problems(path: str | Path, token_text: Sequence[str] | None) -> list[Problem]:
    """Problems from newline-delimited JSON: id, prompt_tokens|prompt_text, answer."""
    problems: list[Problem] = []
    seen: set[str] = set()
    for i, row in read_jsonl(path):
        try:
            pid = str(row["id"])
            answer = str(row["answer"])
        except KeyError as exc:
            raise DataError(f"{path}: line {i}: missing key {exc}") from exc
        if pid in seen:
            raise DataError(f"{path}: line {i}: duplicate problem id {pid!r}")
        seen.add(pid)
        text = row.get("prompt_text")
        if "prompt_tokens" in row:
            tokens = row["prompt_tokens"]  # Problem checks the ids
        elif text is not None:
            if token_text is None:
                raise DataError(
                    f"{path}: line {i}: prompt_text requires a token_text table in the config"
                )
            tokens = encode_text(text, token_text)
        else:
            raise DataError(f"{path}: line {i}: need prompt_tokens or prompt_text")
        try:
            problems.append(Problem(id=pid, prompt_tokens=tokens, answer=answer))
        except (TypeError, ValueError) as exc:
            raise DataError(f"{path}: line {i}: {exc}") from exc
    if not problems:
        raise DataError(f"{path}: no problems found")
    return problems
