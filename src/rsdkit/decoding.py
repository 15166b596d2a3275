"""Generation regimes: one propose-and-approve loop behind every regime.

Each step one side *proposes* a token by sampling it; in the coordinated
regimes the other side *approves* it when its own probability of the
proposal is at least ``p_th``, and otherwise samples the token itself (a
*fallback*, not re-checked). ``cfg.regime`` assigns the roles:

* ``rsd``: the teacher proposes and the student approves.
* ``skd``: the mirror; the student proposes and the teacher approves.
  Student-native proposals are unscoreable by the teacher and score 0.
* ``solo-teacher`` / ``solo-student``: the named model proposes and nothing
  approves. A solo-teacher decode may carry the student as a scorer that
  fills the student-side fields.

Teacher-side samples come from the suppression-filtered, tempered teacher
distribution, so every one is student-scoreable; student-side samples come
from the tempered student distribution. Both are one fused pass,
:func:`~rsdkit.models.sample`, over weights each row memoizes once per
(temperature, suppressed ids). Solo decodes use the identity map of the
decoding model, under which suppression changes nothing. Generation
stops at the student's EOS token (the decoding model's own in solo regimes)
or after ``max_tokens`` emitted tokens; every step is recorded in full.

Randomness schedule: each step owns a :class:`~rsdkit.seeding.StepStream`
keyed on ``(seed, step index)``; the proposal consumes draw 0 and a fallback
resample consumes draw 1. Acceptance or rejection therefore never shifts the
randomness of later steps. At ``p_th = 0`` nothing is rejected, so by
construction the coordinated regimes emit bit-exactly the tokens of the
corresponding solo decodes (for ``rsd``, when suppression removes no mass).

Block verification: when either model's ``lookahead`` is above 1 (a
remote model, whose server draws and judges blocks), ``decode`` runs blocks
of up to the larger. The proposer draws a block in one
:meth:`~rsdkit.models.LanguageModel.draws` call on a trial copy of the
contexts, step ``i`` with draw 0 of ``StepStream(seed, i)`` exactly as the
one-step loop draws it, and the approver judges the block in one
:meth:`~rsdkit.models.LanguageModel.next_distributions` call. The loop then
emits the block's steps in order, each from the stream, proposal and
approver row the one-step loop would have used, and the first fallback
discards the rest of the block. A block step carries its proposal's raw
probability, not the proposer's row, so after a fallback the loop fetches
that row to record the fallback token's probability. A fallback changes
the emitted token, so every later proposal was drawn on a context that
never comes to be: those steps are wasted work, never emitted, and their
step indices are drawn again, from the same streams, on the real context.
A block stops at EOS, at ``max_tokens``, before a step whose context would
overflow (the loop's own append then raises, at that step), and before a
step the proposer did not draw (its row or draw raised) or the student
cannot score. Such a step, when it opens a block, is taken on the one-step
path, which raises any error at its own step, with its own type and text;
an approver error on a block is answered by judging its first step alone.
The loop checks the approver's context before each step's proposal, so an
id the approver lacks fails first. So the trace, and any error, is the
one-step loop's, bit for bit.

Thresholding uses the *raw* (temperature-1) probability by default so the
acceptance rule measures the same quantity as the sub-threshold diagnostics;
``threshold_uses_raw=False`` switches the check to the tempered value, read
off the approver row's memoized weights (the recorded probabilities stay raw
either way).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import Sequence

# apply_temperature and suppress stay attributes here, beside sample, for profilers to patch
from .models import ContextOverflowError, Distribution, LanguageModel, _integer, apply_temperature, sample  # noqa: F401
from .remote import BackendError
from .seeding import StepStream
from .vocab import DualContext, VocabularyAlignmentError, VocabularyMap, suppress  # noqa: F401

# regime -> (proposer role, approver role or None): the one place a regime's roles are named
ROLES = {
    "rsd": ("teacher", "student"),
    "skd": ("student", "teacher"),
    "solo-teacher": ("teacher", None),
    "solo-student": ("student", None),
}
REGIMES = tuple(ROLES)
PROPOSERS = frozenset(proposer for proposer, _ in ROLES.values())
COORDINATED_REGIMES = tuple(regime for regime, (_, approver) in ROLES.items() if approver)
TERMINATIONS = ("eos", "length-budget")
_SCORE_TYPES = {int, float, type(None)}  # of a token record's probabilities and surprisal


@dataclass(frozen=True)
class GenerationConfig:
    """Knobs for one decode: threshold, temperature, budgets, seed, regime."""

    p_th: float
    max_tokens: int
    temperature: float = 0.7
    context_limit: int = 8192
    seed: int = 0
    regime: str = "rsd"
    threshold_uses_raw: bool = True

    def __post_init__(self) -> None:
        for name in ("p_th", "temperature"):
            if isinstance(getattr(self, name), bool):
                raise TypeError(f"{name} must be a number, got {getattr(self, name)!r}")
        for name in ("max_tokens", "context_limit", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise TypeError(f"{name} must be an integer, got {value!r}")
        if not isinstance(self.threshold_uses_raw, bool):
            raise TypeError(f"threshold_uses_raw must be true or false, got {self.threshold_uses_raw!r}")
        if not 0.0 <= self.p_th <= 1.0:
            raise ValueError(f"p_th must lie in [0, 1], got {self.p_th}")
        if not 0.0 < self.temperature < math.inf:
            raise ValueError(f"temperature must be positive and finite, got {self.temperature}")
        if self.max_tokens <= 0:
            raise ValueError(f"max_tokens must be positive, got {self.max_tokens}")
        if self.context_limit <= 0:
            raise ValueError(f"context_limit must be positive, got {self.context_limit}")
        if self.max_tokens > self.context_limit:
            raise ValueError(
                f"max_tokens {self.max_tokens} exceeds context_limit {self.context_limit}"
            )
        if self.regime not in REGIMES:
            raise ValueError(f"unknown regime {self.regime!r}, expected one of {REGIMES}")

    def with_seed(self, seed: int) -> "GenerationConfig":
        return replace(self, seed=seed)

    def to_json_dict(self) -> dict:
        return {
            "p_th": self.p_th,
            "max_tokens": self.max_tokens,
            "temperature": self.temperature,
            "context_limit": self.context_limit,
            "seed": self.seed,
            "regime": self.regime,
            "threshold_uses_raw": self.threshold_uses_raw,
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> "GenerationConfig":
        return cls(**{k: payload[k] for k in cls.__dataclass_fields__ if k in payload})


@dataclass(slots=True)
class TokenRecord:
    """One emitted token with its full decision context.

    ``proposer`` names the side whose sample was emitted; ``accepted`` means
    the proposing side's candidate survived the threshold check (always
    False in solo regimes, where no approval happens). ``p_teacher`` and
    ``p_student`` are raw temperature-1 probabilities of the emitted token;
    ``p_teacher`` is None when the token is not teacher-scoreable (student
    native) and ``p_student`` is None on unscored solo traces.
    ``surprisal_student`` is ``-ln(p_student)`` in nats.
    """

    token: int
    proposer: str
    accepted: bool
    fallback: bool
    p_teacher: float | None
    p_student: float | None
    surprisal_student: float | None

    def to_json_dict(self) -> dict:
        return {
            "token": self.token,
            "proposer": self.proposer,
            "accepted": self.accepted,
            "fallback": self.fallback,
            "p_teacher": self.p_teacher,
            "p_student": self.p_student,
            "surprisal_student": self.surprisal_student,
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> "TokenRecord":
        """The record :meth:`to_json_dict` wrote; a field it could not have written is a
        TypeError or ValueError, never converted."""
        token, proposer = payload["token"], payload["proposer"]
        accepted, fallback = payload["accepted"], payload["fallback"]
        p_teacher, p_student = payload.get("p_teacher"), payload.get("p_student")
        surprisal = payload.get("surprisal_student")
        if type(token) is not int:
            token = _integer("token", token)
        if proposer not in PROPOSERS:
            raise ValueError(f"unknown proposer {proposer!r}")
        if type(accepted) is not bool or type(fallback) is not bool:
            name, value = ("accepted", accepted) if type(accepted) is not bool else ("fallback", fallback)
            raise TypeError(f"{name} must be true or false, got {value!r}")
        if type(p_teacher) not in _SCORE_TYPES or type(p_student) not in _SCORE_TYPES or type(surprisal) not in _SCORE_TYPES:
            name = next(n for n in ("p_teacher", "p_student", "surprisal_student") if type(payload.get(n)) not in _SCORE_TYPES)
            raise TypeError(f"{name} must be a number or null, got {payload[name]!r}")
        return cls(token, proposer, accepted, fallback, p_teacher, p_student, surprisal)


@dataclass
class Trace:
    """Prompt, per-token records, config, and how generation ended."""

    prompt: tuple[int, ...]
    records: list[TokenRecord]
    config: GenerationConfig
    terminated_by: str

    def tokens(self) -> list[int]:
        """Emitted token ids, prompt excluded."""
        return [r.token for r in self.records]

    def __len__(self) -> int:
        return len(self.records)

    def to_json_dict(self) -> dict:
        return {
            "prompt": list(self.prompt),
            "records": [r.to_json_dict() for r in self.records],
            "config": self.config.to_json_dict(),
            "terminated_by": self.terminated_by,
        }

    def to_json_line(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json_dict(cls, payload: dict) -> "Trace":
        terminated_by = str(payload["terminated_by"])
        if terminated_by not in TERMINATIONS:
            raise ValueError(f"unknown termination {terminated_by!r}")
        return cls(
            prompt=tuple(_integer("prompt token", t) for t in payload["prompt"]),
            records=[TokenRecord.from_json_dict(r) for r in payload["records"]],
            config=GenerationConfig.from_json_dict(payload["config"]),
            terminated_by=terminated_by,
        )


def _surprisal(p: float) -> float:
    return math.inf if p <= 0.0 else -math.log(p)


def prompt_context(
    teacher: LanguageModel | None,
    student: LanguageModel | None,
    prompt: Sequence[int],
    cfg: GenerationConfig,
    vmap: VocabularyMap | None = None,
) -> tuple[LanguageModel, VocabularyMap, DualContext]:
    """The model keying prompts and maps, the map and the starting context of a
    decode of ``prompt``: ValueError for a token outside that model's
    vocabulary, ContextOverflowError if it overflows ``cfg.context_limit``."""
    roles = ROLES[cfg.regime]
    home = student if "student" in roles else teacher
    if vmap is None or roles[1] is None:
        vmap = VocabularyMap.identity(home.vocab_size)
    for t in prompt:
        if not 0 <= t < home.vocab_size:
            raise ValueError(f"prompt token {t} outside vocabulary of size {home.vocab_size}")
    return home, vmap, DualContext.from_prompt(prompt, vmap, cfg.context_limit)


def decode(
    teacher: LanguageModel | None,
    student: LanguageModel | None,
    prompt: Sequence[int],
    cfg: GenerationConfig,
    vmap: VocabularyMap | None = None,
) -> Trace:
    """Decode one trace in the regime named by ``cfg.regime``.

    ``rsd`` and ``skd`` need both models. ``solo-teacher`` needs the teacher
    and scores with the student when one is given (a token outside the
    student's vocabulary scores 0, and the next step raises ValueError, as
    the student cannot read it); ``solo-student`` needs the student and
    ignores the teacher. Solo regimes ignore ``vmap``.
    """
    proposer_role, approver_role = ROLES[cfg.regime]
    models = {"teacher": teacher, "student": student}
    needed = [role for role in (proposer_role, approver_role) if role]
    if any(models[role] is None for role in needed):
        raise ValueError(f"regime {cfg.regime!r} needs {' and '.join(needed)}")
    if "teacher" not in needed:  # solo-student ignores the teacher; solo-teacher keeps the student to score
        teacher = None
    approving = approver_role is not None
    teacher_proposes = proposer_role == "teacher"
    proposer, other = (teacher, student) if teacher_proposes else (student, teacher)
    home, vmap, ctx = prompt_context(teacher, student, prompt, cfg, vmap)
    own_ctx, other_ctx = (ctx.teacher, ctx.student) if teacher_proposes else (ctx.student, ctx.teacher)
    eos = home.eos_token

    def draw(teacher_side: bool, dist: Distribution, stream: StepStream) -> int:
        token = sample(dist, stream, cfg.temperature, vmap if teacher_side else None)
        if teacher_side and approving and (token >= student.vocab_size or vmap.is_student_only(token)):
            raise VocabularyAlignmentError(f"suppression failed to filter token {token}, unscoreable by the student")
        return token

    ahead = max(proposer.lookahead, other.lookahead) if approving else 1

    records: list[TokenRecord] = []
    terminated = "length-budget"
    checked = 0  # other_ctx[:checked] lies in other's vocabulary; own_ctx always does
    block: list = []  # speculated steps not yet emitted, next last; empty unless ahead > 1
    for step in range(cfg.max_tokens):
        if other is not None:  # the approver's (or a solo teacher's scorer's) context, before the proposal
            for t in other_ctx[checked:]:
                if not 0 <= t < other.vocab_size:
                    raise ValueError(f"context token {t} outside vocabulary of size {other.vocab_size}")
            checked = len(other_ctx)
        if ahead > 1 and not block:
            block = _speculate(step, ahead, cfg, vmap, ctx, teacher_proposes, proposer, other, eos)
        if block:
            stream, own, token, judge = block.pop()
        else:  # every step when ahead is 1, else a step no block holds
            stream = StepStream(cfg.seed, step)
            own = proposer.next_distribution(own_ctx)
            token = draw(teacher_proposes, own, stream)
            judge = None if other is None else other.next_distribution(other_ctx)
        fallback = False
        if approving:
            if vmap.is_student_only(token):  # unscoreable by a teacher approver
                decision_p = 0.0
            else:
                decision_p = _prob(judge, token, 0.0, 1.0 if cfg.threshold_uses_raw else cfg.temperature)
            fallback = decision_p < cfg.p_th
            if fallback:
                token = draw(not teacher_proposes, judge, stream)
                if type(own) is dict and token not in own:  # a block step holds its proposal's probability only
                    own = proposer.next_distribution(own_ctx)
                block.clear()  # speculated past a rejection: never emitted

        p_t, p_s = (own, judge) if teacher_proposes else (judge, own)
        p_student = None if p_s is None else _prob(p_s, token, 0.0)
        p_teacher = None if p_t is None or vmap.is_student_only(token) else _prob(p_t, token, None)
        records.append(
            TokenRecord(
                token=token,
                proposer="teacher" if teacher_proposes != fallback else "student",
                accepted=approving and not fallback,
                fallback=fallback,
                p_teacher=p_teacher,
                p_student=p_student,
                surprisal_student=None if p_student is None else _surprisal(p_student),
            )
        )
        ctx.append(token, vmap)
        if token == eos:
            terminated = "eos"
            break

    return Trace(prompt=tuple(prompt), records=records, config=cfg, terminated_by=terminated)


def _speculate(step: int, ahead: int, cfg: GenerationConfig, vmap: VocabularyMap, ctx: DualContext,
               teacher_proposes: bool, proposer: LanguageModel, approver: LanguageModel, eos: int) -> list:
    """Up to ``ahead`` steps of :func:`decode` from ``step`` on, drawn by one proposer :meth:`draws` call on a
    trial copy of ``ctx`` and judged by one approver call, on an approver context :func:`decode` has already
    checked. The steps are ``(stream, {proposal: its raw probability}, proposal, approver row)``, last first,
    each stream past its draw 0. The block ends before a step the proposer did not draw or the student cannot
    score, and is empty when that is the first step: :func:`decode` then takes the step on its one-step path,
    which raises any error at its own step. A block the approver refuses is judged again, its first step alone."""
    other_ctx = ctx.student if teacher_proposes else ctx.teacher
    trial = DualContext(ctx.max_length, list(ctx.student), list(ctx.teacher))
    t_own, t_other = (trial.teacher, trial.student) if teacher_proposes else (trial.student, trial.teacher)
    base = len(t_other)
    streams = [StepStream(cfg.seed, s) for s in range(step, min(step + ahead, cfg.max_tokens))]
    uniforms = [stream.random() for stream in streams]  # each stream keeps draw 1 for a fallback
    drawn = proposer.draws(t_own, uniforms, cfg.temperature, vmap if teacher_proposes else None, eos)
    steps = []
    for stream, (token, p) in zip(streams, drawn):
        if teacher_proposes and (token >= approver.vocab_size or vmap.is_student_only(token)):
            break  # decode's draw raises it, at this step
        steps.append((stream, {token: p}, token, len(t_other) - base))  # last: its row in the approver's reply
        if token == eos:
            break
        try:
            trial.append(token, vmap)
        except (ContextOverflowError, VocabularyAlignmentError):
            break  # decode's own append raises it, at this step
        if len(t_other) - base >= ahead:  # a reply holds at most ``ahead`` rows
            break
    if not steps:
        return []
    rows = None
    if len(steps) > 1:
        try:
            rows = approver.next_distributions(other_ctx, t_other[base : base + steps[-1][3]])
        except BackendError:  # judged alone below, so an error surfaces where decode meets it
            del steps[1:]
    if rows is None:
        rows = [approver.next_distribution(other_ctx)]
    return [(stream, own, token, rows[at]) for stream, own, token, at in reversed(steps)]


def _prob(dist: Distribution, token: int, outside: float | None, temperature: float = 1.0) -> float | None:
    """Probability of ``token`` (a sampled, so non-negative, id) at ``temperature``, read off the
    row's memoized cumulative weights unless T = 1; ``outside`` beyond the vocabulary."""
    try:
        if temperature == 1.0:
            return dist[token]
        cdf = dist.cdf(temperature)
        return float(cdf[token] - cdf[token - 1] if token else cdf[0]) / float(cdf[-1])
    except IndexError:
        return outside
