"""Block verification: an approver with ``lookahead > 1`` judges several
proposals in one call, and the decode is the one-step decode, bit for bit."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from rsdkit.decoding import COORDINATED_REGIMES, REGIMES, GenerationConfig, decode
from rsdkit.models import LanguageModel, TableModel
from rsdkit.remote import BackendEndpoint, BackendError, RemoteModel
from rsdkit.stub_server import StubServer
from rsdkit.vocab import build_vocab_map


class Ahead(LanguageModel):
    """An in-process model that judges ``lookahead`` steps per call, as a remote
    one does over the block endpoint, and refuses with a :class:`BackendError`,
    as a remote one may, a context holding an id outside its vocabulary and
    the contexts ``refuses`` picks."""

    def __init__(self, inner: LanguageModel, lookahead: int, refuses=lambda context: False) -> None:
        self.inner = inner
        self.lookahead = lookahead
        self.refuses = refuses
        self.vocab_size = inner.vocab_size
        self.eos_token = inner.eos_token
        self.rows = []  # how many rows each answered call returned, in order

    def next_distribution(self, context):
        return self.next_distributions(context, [])[0]

    def next_distributions(self, context, continuation):
        assert len(continuation) < self.lookahead, "a block longer than the lookahead"
        prefixes = [[*context, *continuation[:i]] for i in range(len(continuation) + 1)]
        for prefix in prefixes:
            if self.refuses(prefix) or not all(0 <= t < self.vocab_size for t in prefix):
                raise BackendError(f"refused a context of {len(prefix)} tokens")
        self.rows.append(len(prefixes))
        return [self.inner.next_distribution(prefix) for prefix in prefixes]


def outcome(run) -> str:
    """The trace's JSON line, or the error's type and message."""
    try:
        return run().to_json_line()
    except (ValueError, RuntimeError) as exc:  # every error a decode raises on purpose
        return f"{type(exc).__name__}: {exc}"


def one_hot(vocab: int, token: int) -> list[float]:
    row = [0.0] * vocab
    row[token] = 1.0
    return row


def random_row(rng: np.random.Generator, vocab: int) -> np.ndarray:
    w = rng.random(vocab) ** 2
    w[rng.random(vocab) < 0.3] = 0.0
    if not w.any():
        w[rng.integers(vocab)] = 1.0
    return w / w.sum()


#: A V=8 teacher row whose mass lies on ids ``build_vocab_map(8, 6, {4: (1, 2)})`` suppresses.
DEAD = [0.0, 0.0, 0.0, 0.0, 0.5, 0.0, 0.25, 0.25]


def refusal(m: int, r: int):
    return lambda context: (7 * sum(context) + 3 * len(context)) % m == r


@st.composite
def block_cases(draw):
    """A model pair, map, prompt and config, and the pieces that make errors: rows whose
    mass suppression removes, a map that does not suppress, contexts a backend refuses, and
    context budgets a decode overflows."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vs = draw(st.integers(3, 6))
    vt = max(2, vs + draw(st.integers(-2, 2)))  # a smaller teacher cannot read every student id
    eos = vs - 1

    def table(vocab: int, eos_token: int, dead_share: float) -> TableModel:
        rows = {}
        for t in range(max(vs, vt)):
            row = random_row(rng, vocab)
            if vocab > vs and rng.random() < dead_share:  # all mass on an id the student lacks
                row = np.array(one_hot(vocab, vocab - 1))
            rows[(t,)] = row
        return TableModel(rows, random_row(rng, vocab), eos_token=eos_token)

    teacher = table(vt, min(vs, vt) - 1, draw(st.sampled_from([0.0, 0.1])))
    student = table(vs, eos, 0.0)
    kind = draw(st.sampled_from(["identity", "derived", "expansion"]))
    if kind == "identity":
        vmap = None
    else:
        key = vs - 2
        values = tuple(draw(st.lists(st.integers(0, max(0, key - 1)), min_size=1, max_size=3)))
        vmap = build_vocab_map(vt, vs, {key: values} if kind == "expansion" else None)
    prompt = draw(st.lists(st.integers(0, min(vs, vt) - 1), min_size=1, max_size=3))
    max_tokens = draw(st.integers(1, 16))
    cfg = GenerationConfig(
        p_th=draw(st.sampled_from([0.0, 0.01, 0.1, 0.3, 0.6])),
        max_tokens=max_tokens,
        temperature=draw(st.sampled_from([0.5, 0.7, 1.0, 1.6])),
        context_limit=max(max_tokens, len(prompt) + draw(st.integers(0, 16))),
        seed=draw(st.integers(0, 2**31)),
        regime=draw(st.sampled_from(COORDINATED_REGIMES * 3 + REGIMES)),  # solo ones judge no block
        threshold_uses_raw=draw(st.booleans()),
    )
    refuses = {
        role: refusal(draw(st.integers(5, 13)), draw(st.integers(0, 4))) if draw(st.integers(0, 3)) == 0
        else (lambda context: False)
        for role in ("teacher", "student")
    }
    return teacher, student, vmap, prompt, cfg, refuses, draw(st.integers(2, 9))


@settings(max_examples=400, deadline=None)
@given(block_cases())
def test_block_decode_equals_sequential_decode(case):
    teacher, student, vmap, prompt, cfg, refuses, lookahead = case

    def run(k: int):
        pair = Ahead(teacher, k, refuses["teacher"]), Ahead(student, k, refuses["student"])
        return outcome(lambda: decode(*pair, prompt, cfg, vmap)), pair

    (sequential, _), (block, pair) = run(1), run(lookahead)
    assert block == sequential
    event(sequential.split(":")[0] if not sequential.startswith("{") else "trace")
    event("judged a block" if any(n > 1 for model in pair for n in model.rows) else "no block")


class TestBlockDecoding:
    def test_eos_inside_a_block_ends_it(self):
        # the teacher says 1, 1, 1, EOS; the student accepts all of it
        teacher = TableModel({(1, 1, 1): one_hot(4, 3)}, one_hot(4, 1), eos_token=3)
        student = Ahead(TableModel({}, [0.25] * 4, eos_token=3), 8)
        cfg = GenerationConfig(p_th=0.01, max_tokens=12, seed=3)
        trace = decode(teacher, student, [0], cfg)
        assert trace.tokens() == [1, 1, 1, 3]
        assert trace.terminated_by == "eos"
        assert student.rows == [4]  # one call judged all four steps, none past EOS
        assert trace.to_json_line() == decode(teacher, student.inner, [0], cfg).to_json_line()

    def test_overflow_is_raised_at_the_step_that_overflows(self):
        # skd: each student 2 enters the teacher context as three ids, so the teacher side overflows
        vmap = build_vocab_map(5, 5, {2: (0, 1, 1)})
        teacher = Ahead(TableModel({}, [0.25, 0.25, 0.0, 0.25, 0.25], eos_token=4), 8)
        student = TableModel({}, one_hot(5, 2), eos_token=4)
        cfg = GenerationConfig(p_th=0.0, max_tokens=6, context_limit=8, seed=1, regime="skd")
        with pytest.raises(RuntimeError) as sequential:
            decode(teacher.inner, student, [0], cfg, vmap)
        with pytest.raises(RuntimeError) as block:
            decode(teacher, student, [0], cfg, vmap)
        assert (type(block.value), str(block.value)) == (type(sequential.value), str(sequential.value))
        assert str(block.value) == "context budget 8 exhausted"
        assert teacher.rows == [7]  # steps 0-2 in one call, at rows 0, 3 and 6; step 2's append overflows

    def test_a_later_steps_error_is_raised_at_its_own_step(self):
        # the teacher's backend refuses the context after three tokens
        teacher = Ahead(TableModel({}, one_hot(4, 1), eos_token=3), 1, lambda context: len(context) == 4)
        student = Ahead(TableModel({}, [0.25] * 4, eos_token=3), 8)
        cfg = GenerationConfig(p_th=0.01, max_tokens=12, seed=5)
        with pytest.raises(BackendError, match="refused a context of 4 tokens"):
            decode(teacher, student, [0], cfg)
        assert teacher.rows == [1, 1, 1]  # the refused step was tried once, not again
        assert student.rows == [3]

    def test_an_error_past_a_rejection_is_never_raised(self):
        # the student rejects the teacher's second 1 and says 2, so the refused context never comes to be
        teacher = Ahead(TableModel({}, one_hot(4, 1), eos_token=3), 1, lambda context: context == [0, 1, 1])
        student_table = TableModel({(1,): [0.0, 0.0, 1.0, 0.0]}, [0.25] * 4, eos_token=3)
        student = Ahead(student_table, 8)
        cfg = GenerationConfig(p_th=0.01, max_tokens=4, seed=5)
        trace = decode(teacher, student, [0], cfg)
        assert trace.tokens()[:2] == [1, 2]
        assert trace.to_json_line() == decode(teacher.inner, student_table, [0], cfg).to_json_line()

    def test_an_approver_error_past_a_rejection_is_never_raised(self):
        # the student refuses the context after the teacher's first two 1s, but rejects the first 1
        teacher = TableModel({}, one_hot(4, 1), eos_token=3)
        student_table = TableModel({(0,): [0.0, 0.0, 1.0, 0.0]}, [0.25] * 4, eos_token=3)
        student = Ahead(student_table, 8, lambda context: context == [0, 1, 1])
        cfg = GenerationConfig(p_th=0.01, max_tokens=4, seed=5)
        trace = decode(teacher, student, [0], cfg)
        assert trace.tokens()[0] == 2
        assert student.rows == [1, 3]  # the refused block judged again, its first step alone
        assert trace.to_json_line() == decode(teacher, student_table, [0], cfg).to_json_line()

    def test_an_id_the_approver_lacks_fails_as_in_the_one_step_loop(self):
        # skd at p_th 0 without a map: the student's 3 enters the context of a teacher with 3 ids
        teacher = Ahead(TableModel({}, [0.5, 0.5, 0.0], eos_token=2), 8)
        student = TableModel({}, one_hot(5, 3), eos_token=4)
        cfg = GenerationConfig(p_th=0.0, max_tokens=8, seed=2, regime="skd")
        for approver in (teacher.inner, teacher):
            with pytest.raises(ValueError, match="context token 3 outside vocabulary of size 3"):
                decode(approver, student, [0], cfg)
        assert teacher.rows == [1]  # the block reading the 3 was refused, then its first step judged alone

    def test_an_id_the_approver_lacks_fails_before_the_proposal(self):
        # as above, but the student's backend also refuses step 1's context: the approver's context fails first
        teacher = TableModel({}, [0.5, 0.5, 0.0], eos_token=2)
        student = Ahead(TableModel({}, one_hot(5, 3), eos_token=4), 1, lambda context: len(context) == 2)
        cfg = GenerationConfig(p_th=0.0, max_tokens=8, seed=2, regime="skd")
        for approver in (teacher, Ahead(teacher, 8)):
            with pytest.raises(ValueError, match="context token 3 outside vocabulary of size 3"):
                decode(approver, student, [0], cfg)
        assert student.rows == [1, 1]  # step 0 on each path; the refusal of step 1 is never answered


@pytest.fixture()
def connect():
    """Connect ``RemoteModel``s to a stub server's roles, closed when the test ends."""
    opened = []

    def connect(server: StubServer, role: str) -> RemoteModel:
        opened.append(RemoteModel(BackendEndpoint(base_url=server.base_url, model_name=role)))
        return opened[-1]

    yield connect
    for model in opened:
        model.close()


def long_row(rng: np.random.Generator) -> np.ndarray:
    """A V=6 row with little EOS mass, so traces run long."""
    w = random_row(rng, 6) * [1, 1, 1, 1, 1, 0.05]
    return w / w.sum()


@pytest.fixture()
def served_pair(connect):
    rng = np.random.default_rng(11)
    teacher = TableModel({(t,): long_row(rng) for t in range(6)}, long_row(rng), eos_token=5)
    student = TableModel({(t,): long_row(rng) for t in range(6)}, long_row(rng), eos_token=5)
    return teacher, student, connect


@pytest.fixture()
def agreeing_pair(connect):
    """A student whose rows lean on the teacher's, so that it accepts most proposals, as the
    remote-stub-v4k benchmark's student does."""
    rng = np.random.default_rng(11)
    teacher_rows = [long_row(rng) for _ in range(7)]  # one after each id, then the default
    student_rows = [0.8 * row + 0.2 * long_row(rng) for row in teacher_rows]
    teacher = TableModel({(t,): teacher_rows[t] for t in range(6)}, teacher_rows[6], eos_token=5)
    student = TableModel({(t,): student_rows[t] for t in range(6)}, student_rows[6], eos_token=5)
    return teacher, student, connect


class TestOverTheWire:
    @pytest.mark.parametrize("regime", ["rsd", "skd"])
    def test_block_decode_over_a_live_stub_matches_in_process(self, served_pair, regime):
        teacher, student, connect = served_pair
        approver = "student" if regime == "rsd" else "teacher"
        requests = {}
        for lookahead in (1, 8):
            with StubServer({"teacher": teacher, "student": student}) as server:
                remote = {role: connect(server, role) for role in ("teacher", "student")}
                for model in remote.values():
                    assert model.lookahead == 8
                    model.lookahead = lookahead
                for seed in range(6):
                    cfg = GenerationConfig(p_th=0.05, max_tokens=24, seed=seed, regime=regime)
                    trace = decode(remote["teacher"], remote["student"], [0, 1], cfg)
                    assert trace.to_json_line() == decode(teacher, student, [0, 1], cfg).to_json_line()
            requests[lookahead] = remote[approver].stats["requests"]
        assert requests[8] * 4 < requests[1] * 3  # a quarter fewer at least

    @pytest.mark.parametrize("regime", ["rsd", "skd"])
    def test_the_proposer_draws_a_block_per_request(self, agreeing_pair, regime):
        # a return to one proposer row per step fails here
        teacher, student, connect = agreeing_pair
        proposer = "teacher" if regime == "rsd" else "student"
        requests, draws = {}, {}
        for lookahead in (1, 8):
            with StubServer({"teacher": teacher, "student": student}) as server:
                remote = {role: connect(server, role) for role in ("teacher", "student")}
                for model in remote.values():
                    model.lookahead = lookahead
                for seed in range(6):
                    cfg = GenerationConfig(p_th=0.05, max_tokens=24, seed=seed, regime=regime)
                    trace = decode(remote["teacher"], remote["student"], [0, 1], cfg)
                    assert trace.to_json_line() == decode(teacher, student, [0, 1], cfg).to_json_line()
            requests[lookahead] = remote[proposer].stats["requests"]
            draws[lookahead] = remote[proposer].stats["draws"]
        assert draws[1] == 0  # one step at a time: rows only
        assert draws[8] > 0
        assert requests[8] * 3 <= requests[1]  # a third at most

    def test_a_remote_teacher_drafts_blocks_for_an_in_process_student(self, agreeing_pair):
        # the in-process student judges one step per call; the remote teacher's lookahead sets the blocks
        teacher, student, connect = agreeing_pair
        requests = {}
        for lookahead in (1, 8):
            with StubServer({"teacher": teacher}) as server:
                remote = connect(server, "teacher")
                remote.lookahead = lookahead
                for seed in range(6):
                    cfg = GenerationConfig(p_th=0.05, max_tokens=24, seed=seed)
                    trace = decode(remote, student, [0, 1], cfg)
                    assert trace.to_json_line() == decode(teacher, student, [0, 1], cfg).to_json_line()
            requests[lookahead] = remote.stats["requests"]
        assert requests[8] * 4 <= requests[1]  # a quarter of the one-step requests at most

    @pytest.mark.parametrize("regime", ["rsd", "skd"])
    def test_an_aligned_pair_over_a_live_stub_matches_in_process(self, connect, regime):
        # a suppressing map with an expansion, and a teacher row whose mass suppression removes, met
        # only after a 3, so never at the first step
        rng = np.random.default_rng(0)
        vmap = build_vocab_map(8, 6, {4: (1, 2)})  # suppresses teacher ids 4, 6 and 7
        teacher_rows = {(t,): random_row(rng, 8) for t in range(8)}
        teacher = TableModel({**teacher_rows, (3,): DEAD}, random_row(rng, 8), eos_token=5)
        student = TableModel({(t,): long_row(rng) for t in range(6)}, long_row(rng), eos_token=5)
        outcomes = []
        with StubServer({"teacher": teacher, "student": student}) as server:
            remote = {role: connect(server, role) for role in ("teacher", "student")}
            for temperature in (0.7, 1.0):
                for raw in (True, False):
                    for seed in range(8):
                        cfg = GenerationConfig(p_th=0.05, max_tokens=24, temperature=temperature, seed=seed,
                                               regime=regime, threshold_uses_raw=raw)
                        local = outcome(lambda: decode(teacher, student, [0, 1], cfg, vmap))
                        assert outcome(lambda: decode(remote["teacher"], remote["student"], [0, 1], cfg, vmap)) == local
                        outcomes.append(local)
        kinds = Counter(o if not o.startswith("{") else "trace" for o in outcomes)
        assert kinds["EmptySupportError: suppression removed all probability mass"] > 0
        assert kinds["trace"] > 0
        assert remote["teacher"].stats["draws" if regime == "rsd" else "rows"] > 0

    def test_a_later_block_steps_empty_support_fails_as_in_process(self, connect):
        # the teacher says 1 until its context ends 1, 1, 1; suppression then leaves that row no mass
        vmap = build_vocab_map(8, 6, {4: (1, 2)})
        teacher = TableModel({(1, 1, 1): DEAD}, one_hot(8, 1), eos_token=5)
        student = TableModel({}, [0.2] * 5 + [0.0], eos_token=5)
        cfg = GenerationConfig(p_th=0.05, max_tokens=12, seed=3)
        with pytest.raises(ValueError) as local:
            decode(teacher, student, [0], cfg, vmap)
        with StubServer({"teacher": teacher}) as server:
            remote = connect(server, "teacher")
            with pytest.raises(ValueError) as wire:
                decode(remote, student, [0], cfg, vmap)
        assert f"{type(wire.value).__name__}: {wire.value}" == f"{type(local.value).__name__}: {local.value}"
        assert str(wire.value) == "suppression removed all probability mass"
        # three drawn in one reply that then ends short, none at step 3 alone, then step 3's row
        assert (remote.stats["draws"], remote.stats["rows"], remote.stats["requests"]) == (3, 1, 3)

    def test_server_max_context_error_surfaces_at_the_sequential_step(self, served_pair):
        teacher, student, connect = served_pair
        cfg = GenerationConfig(p_th=0.05, max_tokens=24, seed=2)
        errors = []
        for lookahead in (1, 8):
            with StubServer({"student": student}, max_context=7) as server:
                remote = connect(server, "student")
                remote.lookahead = lookahead
                with pytest.raises(BackendError) as caught:
                    decode(teacher, remote, [0, 1], cfg)
                errors.append(str(caught.value))
        # a block from the prompt reaches 9 tokens; the one-step loop stops at the first past 7
        assert errors == ["context length 8 exceeds server max 7"] * 2
