"""Vocabulary alignment between a teacher and a near-identical student.

Two mechanisms keep every teacher proposal scoreable by the student:

* **Suppression** — teacher-only vocabulary entries are zeroed out of the
  teacher's proposal distribution (and the survivors renormalized), so the
  teacher can never propose a token the student cannot score.
* **Expansion** — tokens that exist only in the student vocabulary (special
  markers such as thinking delimiters) are declared as a mapping to an
  equivalent sequence of teacher tokens. Generation keeps two contexts in
  lockstep: the student context holds the native token, the teacher context
  holds its expansion, and both always detokenize to the same text. The
  pair lives in a :class:`DualContext`, which also owns the context budget.

Expansion tables are configuration data supplied per model pair; nothing
here inspects tokenizer internals.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .models import ContextOverflowError, Distribution, _integer, tempered_weights


class VocabularyAlignmentError(ValueError):
    """A vocabulary map is internally inconsistent or misused."""


@dataclass(frozen=True)
class VocabularyMap:
    """Alignment table between a teacher and a student vocabulary.

    ``shared_size`` is the boundary of the numerically shared id range;
    expansion keys inside that range are carved out as student-only (their
    teacher-side homonyms are suppressed). Immutable and freely shareable
    across workers.
    """

    shared_size: int
    suppressed: frozenset[int] = field(default_factory=frozenset)
    expansions: Mapping[int, tuple[int, ...]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "shared_size", _integer("shared_size", self.shared_size))
        if self.shared_size < 2:
            raise VocabularyAlignmentError(f"shared_size must be >= 2, got {self.shared_size}")
        object.__setattr__(self, "suppressed", frozenset(_integer("suppressed", t) for t in self.suppressed))
        expansions = {_integer("expansions key", k): tuple(_integer(f"expansions[{k}]", t) for t in v)
                      for k, v in self.expansions.items()}
        object.__setattr__(self, "expansions", expansions)
        value_ids = {t for seq in expansions.values() for t in seq}
        for key, seq in expansions.items():
            if key < 0:
                raise VocabularyAlignmentError(f"expansion key {key} is not a token id")
            if not seq:
                raise VocabularyAlignmentError(f"expansion for {key} must be non-empty")
            if key in value_ids:
                raise VocabularyAlignmentError(
                    f"id {key} is both an expansion key and an expansion value; key spaces overlap"
                )
            for t in seq:
                if t < 0:
                    raise VocabularyAlignmentError(f"expansion value {t} is not a token id")
                if t in self.suppressed:
                    raise VocabularyAlignmentError(
                        f"expansion for {key} references suppressed teacher id {t}"
                    )
        for t in self.suppressed:
            if t < self.shared_size and t not in expansions:
                raise VocabularyAlignmentError(
                    f"suppressed id {t} lies in the shared range and is not an expansion key"
                )

    @cached_property
    def suppressed_ids(self) -> np.ndarray:
        """The suppressed ids as one sorted index array, built once per map."""
        return np.array(sorted(self.suppressed), dtype=np.intp)

    @cached_property
    def suppressed_runs(self) -> tuple[tuple[int, int], ...]:
        """The suppressed ids as sorted ``(start, stop)`` runs of consecutive ids, built once per map."""
        starts = [t for t in sorted(self.suppressed) if t - 1 not in self.suppressed]
        return tuple((a, next(t for t in itertools.count(a) if t not in self.suppressed)) for a in starts)

    @classmethod
    def identity(cls, vocab_size: int) -> "VocabularyMap":
        """Map for a teacher/student pair sharing one vocabulary."""
        return cls(shared_size=vocab_size)

    def is_student_only(self, token: int) -> bool:
        """True for tokens outside the shared range or carved out of it."""
        return token >= self.shared_size or token in self.expansions

    def expand(self, token: int) -> tuple[int, ...]:
        """Teacher-token sequence for a student-only token."""
        try:
            return self.expansions[token]
        except KeyError:
            raise VocabularyAlignmentError(f"token {token} has no declared expansion") from None

    def check_fits(self, teacher_vocab_size: int, student_vocab_size: int) -> None:
        """Raise unless the shared range and every expansion id lie inside the pair's vocabularies."""
        smaller = min(teacher_vocab_size, student_vocab_size)
        if self.shared_size > smaller:
            raise VocabularyAlignmentError(f"shared_size {self.shared_size} exceeds vocabulary size {smaller}")
        for key, seq in self.expansions.items():
            if key >= student_vocab_size:
                raise VocabularyAlignmentError(f"expansion key {key} outside student vocabulary")
            for t in seq:
                if t >= teacher_vocab_size:
                    raise VocabularyAlignmentError(f"expansion value {t} outside teacher vocabulary")

    def to_json_dict(self) -> dict:
        return {
            "shared_size": self.shared_size,
            "suppressed": sorted(self.suppressed),
            "expansions": {str(k): list(v) for k, v in sorted(self.expansions.items())},
        }

    @classmethod
    def from_json_dict(cls, payload: Mapping) -> "VocabularyMap":
        try:
            expansions = expansions_from_json(payload.get("expansions", {}))
            return cls(payload["shared_size"], payload.get("suppressed", ()), expansions)  # __post_init__ reads every id
        except (KeyError, TypeError) as exc:
            raise VocabularyAlignmentError(f"malformed vocabulary map document: {exc}") from exc

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "VocabularyMap":
        return cls.from_json_dict(json.loads(Path(path).read_text(encoding="utf-8")))


def expansions_from_json(payload: Mapping) -> dict[int, Sequence[int]]:
    """A JSON ``expansions`` object -> ``{student id: teacher ids}``. Keys are canonical decimal ids
    (``"7"``, never ``" 7"``, ``"+7"``, ``"7_0"`` or ``"07"``), so no two keys name one id; the value
    ids are read, refused rather than rounded, by the map built from them."""
    if not isinstance(payload, Mapping):
        raise TypeError(f"expansions must be an object, got {payload!r}")
    for k in payload:
        if not (isinstance(k, str) and k.isascii() and k.isdigit() and k == str(int(k))):
            raise VocabularyAlignmentError(f"expansions key {k!r} is not a canonical decimal id")
    return {int(k): v for k, v in payload.items()}


def build_vocab_map(
    teacher_vocab_size: int,
    student_vocab_size: int,
    expansions: Mapping[int, Sequence[int]] | None = None,
) -> VocabularyMap:
    """Derive the alignment map from the two vocabulary sizes.

    Teacher ids beyond the shared range are suppressed, as are teacher-side
    homonyms of declared student-only ids; teacher ids referenced by an
    expansion are exempted from suppression since teacher contexts need them.
    """
    teacher_vocab_size = _integer("teacher_vocab_size", teacher_vocab_size)
    student_vocab_size = _integer("student_vocab_size", student_vocab_size)
    if teacher_vocab_size < 2 or student_vocab_size < 2:
        raise VocabularyAlignmentError("both vocabularies must have size >= 2")
    expansions = {_integer("expansions key", k): tuple(_integer(f"expansions[{k}]", t) for t in v)
                  for k, v in (expansions or {}).items()}
    shared = min(teacher_vocab_size, student_vocab_size)
    value_ids = {t for seq in expansions.values() for t in seq}
    suppressed = set(range(shared, teacher_vocab_size))
    suppressed |= {k for k in expansions if k < teacher_vocab_size}
    suppressed -= value_ids
    vmap = VocabularyMap(shared_size=shared, suppressed=frozenset(suppressed), expansions=expansions)
    vmap.check_fits(teacher_vocab_size, student_vocab_size)
    return vmap


def suppress(dist: Distribution, vmap: VocabularyMap) -> Distribution:
    """Zero suppressed entries and renormalize the survivors: normalized
    :func:`~rsdkit.models.tempered_weights` at T = 1.

    Returns the input object unchanged when no suppressed entry carries
    mass, which also makes the operation exactly idempotent.
    """
    w = tempered_weights(dist, 1.0, vmap)
    return dist if w is dist.probs else Distribution(w / w.sum(), validate=False)


@dataclass
class DualContext:
    """Teacher and student token contexts kept semantically in lockstep.

    Single-owner: one decode loop mutates it, nothing else. It owns the
    context budget: neither list may grow past ``max_length`` tokens. The
    teacher context is always at least as long as the student context
    because expansions only lengthen.
    """

    max_length: int
    student: list[int] = field(default_factory=list)
    teacher: list[int] = field(default_factory=list)

    @classmethod
    def from_prompt(
        cls, prompt: Sequence[int], vmap: VocabularyMap, max_length: int
    ) -> "DualContext":
        ctx = cls(max_length)
        for token in prompt:
            ctx.append(token, vmap)
        return ctx

    def append(self, token: int, vmap: VocabularyMap) -> None:
        """Append one student-vocabulary token to both contexts.

        Shared tokens go to both contexts verbatim; student-only tokens go to
        the student context as-is and to the teacher context as their
        expansion. Raises :class:`ContextOverflowError` when either side
        would exceed the budget.
        """
        budget = self.max_length
        if len(self.student) < budget:
            teacher_part = vmap.expand(token) if vmap.is_student_only(token) else (token,)
            if len(self.teacher) + len(teacher_part) <= budget:
                self.student.append(token)
                self.teacher.extend(teacher_part)
                return
        raise ContextOverflowError(f"context budget {budget} exhausted")


def replay_student_context(student_tokens: Sequence[int], vmap: VocabularyMap) -> list[int]:
    """Recompute the teacher context implied by a student token sequence.

    Exists as the independent check for dual-context bookkeeping: after any
    append sequence, this replay must reproduce the teacher context exactly.
    """
    out: list[int] = []
    for token in student_tokens:
        if vmap.is_student_only(token):
            out.extend(vmap.expand(token))
        else:
            out.append(token)
    return out
