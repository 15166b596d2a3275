"""Rejection sampling, dataset assembly, persistence, external scoring."""

from __future__ import annotations

import json
import math
import re
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rsdkit.decoding import PROPOSERS, REGIMES, GenerationConfig, TokenRecord, Trace, decode
from rsdkit.metrics import aggregate_records
from rsdkit.models import TableModel
from rsdkit.pipeline import (
    RECORD_KINDS,
    VERDICTS,
    AttemptOutcome,
    DataError,
    DatasetRecord,
    Problem,
    RejectionResult,
    Verifier,
    assemble_dataset,
    export_dataset,
    extract_boxed,
    import_dataset,
    problem_record,
    read_dataset,
    read_jsonl,
    rejection_sample,
    run_generation,
    score_external_traces,
)
from rsdkit.remote import BackendEndpoint, BackendUnavailableError, RemoteModel
from rsdkit.seeding import derive_seed
from rsdkit.stub_server import StubServer

TOKEN_TEXT = ["a", "b", ""]


def detok(tokens) -> str:
    return "".join(TOKEN_TEXT[t] for t in tokens)


def uniform_student() -> TableModel:
    return TableModel({}, [0.45, 0.45, 0.1], eos_token=2)


def solo_cfg(**kwargs) -> GenerationConfig:
    base = dict(p_th=0.0, max_tokens=3, temperature=1.0, context_limit=32, regime="solo-student")
    base.update(kwargs)
    return GenerationConfig(**base)


def student_generator(model=None, cfg=None):
    model = model or uniform_student()
    cfg = cfg or solo_cfg()

    def generate(prompt, seed):
        return decode(None, model, prompt, cfg.with_seed(seed))

    return generate


class TestExtractBoxed:
    def test_simple_span(self):
        assert extract_boxed(r"the answer is \boxed{42}") == "42"

    def test_nested_braces_balanced(self):
        assert extract_boxed(r"\boxed{\frac{1}{2}}") == r"\frac{1}{2}"

    def test_last_box_wins(self):
        assert extract_boxed(r"\boxed{first} then \boxed{second}") == "second"

    def test_missing_box(self):
        assert extract_boxed("no boxes here") is None

    def test_unbalanced_box(self):
        assert extract_boxed(r"\boxed{oops") is None


class TestVerifier:
    def test_exact_match_with_normalization(self):
        v = Verifier(mode="exact-match")
        assert v.judge("  The Answer ", "the answer") == "correct"
        assert v.judge("something else", "the answer") == "incorrect"

    def test_normalization_rules_configurable(self):
        v = Verifier(mode="exact-match", normalization=("strip",))
        assert v.judge(" ABC ", "ABC") == "correct"
        assert v.judge("abc", "ABC") == "incorrect"

    def test_boxed_answer_mode(self):
        v = Verifier(mode="boxed-answer")
        assert v.judge(r"reasoning... \boxed{ 7 }", "7") == "correct"
        assert v.judge(r"reasoning... \boxed{8}", "7") == "incorrect"
        assert v.judge("never concluded", "7") == "incorrect"

    def test_collapse_whitespace(self):
        v = Verifier(mode="boxed-answer")
        assert v.judge("\\boxed{1  +\n1}", "1 + 1") == "correct"

    def test_determinism(self):
        v = Verifier(mode="boxed-answer")
        text = r"\boxed{x^2}"
        assert len({v.judge(text, "x^2") for _ in range(10)}) == 1

    def test_external_command(self, tmp_path):
        script = tmp_path / "check.py"
        script.write_text(
            textwrap.dedent(
                """
                import json, sys
                payload = json.load(sys.stdin)
                sys.exit(0 if payload["reference"] in payload["text"] else 1)
                """
            )
        )
        v = Verifier(mode="external-command", command=(sys.executable, str(script)))
        assert v.judge("contains needle here", "needle") == "correct"
        assert v.judge("nothing to see", "needle") == "incorrect"

    def test_external_command_failure_is_unverifiable(self):
        v = Verifier(mode="external-command", command=("/nonexistent/interpreter",))
        assert v.judge("text", "ref") == "unverifiable"

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            Verifier(mode="vibes")

    @pytest.mark.parametrize("normalization", [("strp",), ("strip", "lowercase"), "strip"])
    def test_unknown_normalization_rejected(self, normalization):
        # a misspelt name would otherwise normalize nothing and change which traces pass; a string
        # used to be read as its characters
        with pytest.raises(ValueError, match=f"normalization must be a list of names from .*, got {re.escape(repr(normalization))}"):
            Verifier(mode="exact-match", normalization=normalization)

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"command": "python3 check.py"}, "command must be null or a non-empty list of strings"),
            ({"command": [1, 2]}, "command must be null or a non-empty list of strings, got \\[1, 2\\]"),
            ({"command": []}, "command must be null or a non-empty list of strings, got \\[\\]"),
            # each of these used to be kept or converted, and made every external judge unverifiable
            ({"timeout_s": True}, "timeout_s must be a finite number > 0, got True"),
            ({"timeout_s": "30"}, "timeout_s must be a finite number > 0, got '30'"),
            ({"timeout_s": 0}, "timeout_s must be a finite number > 0, got 0"),
            ({"timeout_s": -5}, "timeout_s must be a finite number > 0, got -5"),
            ({"timeout_s": math.nan}, "timeout_s must be a finite number > 0, got nan"),
            ({"timeout_s": math.inf}, "timeout_s must be a finite number > 0, got inf"),
        ],
        ids=["command-string", "command-ints", "command-empty", "timeout-bool",
             "timeout-string", "timeout-zero", "timeout-negative", "timeout-nan", "timeout-inf"],
    )
    def test_settings_of_the_wrong_shape_are_refused(self, fields, message):
        with pytest.raises((TypeError, ValueError), match=message):
            Verifier(**{"mode": "external-command", "command": ("true",), **fields})

    def test_json_shaped_settings_are_converted(self):
        v = Verifier(mode="external-command", command=["python3", "check.py"], timeout_s=5)
        assert v.command == ("python3", "check.py")
        assert v.timeout_s == 5.0 and isinstance(v.timeout_s, float)


class TestRejectionSample:
    def problem(self) -> Problem:
        return Problem(id="prob-7", prompt_tokens=(0,), answer="bba")

    def test_always_correct_solves_at_attempt_zero(self):
        always = Verifier(mode="exact-match", normalization=())

        def generator(prompt, seed):
            return decode(
                None, TableModel({}, [0.0, 0.9, 0.1], eos_token=2), prompt, solo_cfg(seed=seed)
            )

        problem = Problem(id="p", prompt_tokens=(0,), answer=detok([1, 1, 1]))
        result = rejection_sample(problem, generator, always, 16, 0, detok)
        assert result.solved is not None
        assert result.solved.attempt_index == 0
        assert len(result.attempts) == 1

    def test_never_correct_retains_all_sixteen_outcomes(self):
        v = Verifier(mode="exact-match")
        problem = Problem(id="p", prompt_tokens=(0,), answer="unreachable")
        result = rejection_sample(problem, student_generator(), v, 16, 0, detok)
        assert result.solved is None
        assert len(result.attempts) == 16
        assert all(a.verdict == "incorrect" for a in result.attempts)

    def test_first_correct_attempt_matches_independent_replay(self):
        # frozen from the replay oracle below: base seed 24 first solves
        # "bba" at attempt index 3
        base_seed = 24
        v = Verifier(mode="exact-match", normalization=())
        result = rejection_sample(self.problem(), student_generator(), v, 16, base_seed, detok)

        replays = []
        for k in range(16):
            seed = derive_seed(base_seed, "prob-7", k)
            trace = decode(None, uniform_student(), [0], solo_cfg(seed=seed))
            replays.append(detok(trace.tokens()))
        oracle_first = next(k for k, text in enumerate(replays) if text == "bba")

        assert oracle_first == 3
        assert result.solved is not None
        assert result.solved.attempt_index == oracle_first == 3
        assert len(result.attempts) == 4

    def test_generator_failure_recorded_not_fatal(self):
        v = Verifier(mode="exact-match", normalization=())
        calls = []

        def flaky(prompt, seed):
            calls.append(seed)
            if len(calls) == 1:
                raise RuntimeError("backend blew up")
            return decode(None, uniform_student(), prompt, solo_cfg(seed=seed))

        problem = Problem(id="p", prompt_tokens=(0,), answer="zzz")
        result = rejection_sample(problem, flaky, v, 3, 0, detok)
        assert result.solved is None
        assert result.attempts[0].verdict == "unverifiable"
        assert result.attempts[0].trace is None
        assert "backend blew up" in result.attempts[0].error
        assert len(result.attempts) == 3

    def test_backend_error_ends_the_run(self):
        def outage(prompt, seed):
            raise BackendUnavailableError("server went away")

        problem = Problem(id="p", prompt_tokens=(0,), answer="zzz")
        with pytest.raises(BackendUnavailableError, match="went away"):
            rejection_sample(problem, outage, Verifier(), 3, 0, detok)

    def test_unsalvageable_problem_names_the_first_error(self):
        # a prompt longer than context_limit fails every attempt before any token
        problem = Problem(id="long", prompt_tokens=(0,) * 40, answer="zzz")
        result = rejection_sample(problem, student_generator(), Verifier(), 2, 0, detok)
        with pytest.raises(ValueError, match="ContextOverflowError: context budget 32 exhausted"):
            problem_record(result)

    def test_attempt_budget_validated(self):
        with pytest.raises(ValueError, match="attempts"):
            rejection_sample(self.problem(), student_generator(), Verifier(), 0, 0, detok)


def long_trace(n: int):
    model = TableModel({}, [1.0, 0.0], eos_token=1)
    return decode(
        None,
        model,
        [0],
        GenerationConfig(
            p_th=0.0, max_tokens=n, temperature=1.0, context_limit=n + 8, regime="solo-student"
        ),
    )


def unsolved(trace, problem_id="p") -> RejectionResult:
    return RejectionResult(problem_id, None, [AttemptOutcome(problem_id, 0, trace, "incorrect")])


class TestUpftPrefix:
    def test_long_trace_clips_to_128(self):
        record = problem_record(unsolved(long_trace(300)))
        assert record.kind == "upft-prefix"
        assert record.source_trace_ref == "p#attempt-0"
        assert len(record.tokens) == 128
        assert len(record.records) == 128

    def test_short_trace_keeps_everything(self):
        record = problem_record(unsolved(long_trace(50)))
        assert len(record.tokens) == 50

    def test_zero_prefix_length_rejected(self):
        with pytest.raises(ValueError, match="prefix_length"):
            problem_record(unsolved(long_trace(10)), 0)

    def test_empty_trace_rejected(self):
        trace = long_trace(10)
        trace.records = []
        with pytest.raises(ValueError, match="no attempt produced a trace to salvage"):
            problem_record(unsolved(trace))

    def test_prompt_tokens_excluded(self):
        trace = long_trace(10)
        record = problem_record(unsolved(trace), 4)
        assert list(record.tokens) == trace.tokens()[:4]


class TestAssemble:
    def run_problems(self, answers: dict[str, str], attempts=4, base_seed=24):
        v = Verifier(mode="exact-match", normalization=())
        problems = [Problem(id=pid, prompt_tokens=(0,), answer=ans) for pid, ans in answers.items()]
        return [
            rejection_sample(p, student_generator(), v, attempts, base_seed, detok)
            for p in problems
        ]

    def test_two_solved_one_unsolved(self):
        results = self.run_problems({"q1": "bba", "q2": "never", "q3": "aba"})
        records = assemble_dataset(results, prefix_length=2)
        kinds = [r.kind for r in records]
        assert kinds == ["full-trace", "upft-prefix", "full-trace"]
        assert [r.problem_id for r in records] == ["q1", "q2", "q3"]

    def test_all_solved_means_no_prefixes(self):
        # answers replayed from each problem's attempt 0, so both must solve
        answers = {}
        for pid in ("q1", "q2"):
            seed = derive_seed(24, pid, 0)
            answers[pid] = detok(decode(None, uniform_student(), [0], solo_cfg(seed=seed)).tokens())
        results = self.run_problems(answers)
        records = assemble_dataset(results)
        assert all(r.kind == "full-trace" for r in records)
        assert all(r.verdict == "correct" for r in records)

    def test_coverage_exactly_one_record_per_problem(self):
        results = self.run_problems({f"q{i}": ("bba" if i % 2 else "never") for i in range(8)})
        records = assemble_dataset(results, prefix_length=2)
        assert [r.problem_id for r in records] == [f"q{i}" for i in range(8)]

    def test_solved_uses_minimal_attempt_index(self):
        results = self.run_problems({"prob-7": "bba"})
        (record,) = assemble_dataset(results)
        assert record.source_trace_ref == "prob-7#attempt-3"

    def test_prefix_lengths_bounded(self):
        results = self.run_problems({"q": "never"})
        (record,) = assemble_dataset(results, prefix_length=2)
        assert len(record.tokens) <= 2

    def test_prefix_source_first_uses_first_attempt_with_trace(self):
        results = self.run_problems({"q": "never"})
        (record,) = assemble_dataset(results, prefix_length=2, prefix_source="first")
        assert record.source_trace_ref == "q#attempt-0"

    def test_prefix_source_longest(self):
        results = self.run_problems({"q": "never"})
        lengths = [len(a.trace.records) for a in results[0].attempts]
        (record,) = assemble_dataset(results, prefix_length=99, prefix_source="longest")
        picked = int(record.source_trace_ref.split("-")[-1])
        assert lengths[picked] == max(lengths)

    def test_stats_embedded(self):
        results = self.run_problems({"q1": "bba"})
        (record,) = assemble_dataset(results)
        assert record.stats["token_count"] == len(record.tokens)
        assert "perplexity" in record.stats
        assert record.stats["fallback_count"] == 0


PROBABILITIES = st.one_of(
    st.none(), st.sampled_from([0, 1, 0.0, 1.0, 5e-324, 2.0 ** -1030, 2.2250738585072014e-308]), st.floats(0.0, 1.0)
)


@st.composite
def dataset_records(draw):
    """Any record ``export_dataset`` can write: subnormal probabilities, infinite surprisal,
    any text and any JSON stats."""
    records = draw(st.lists(st.builds(
        TokenRecord,
        token=st.integers(0, 2 ** 40),
        proposer=st.sampled_from(sorted(PROPOSERS)),
        accepted=st.booleans(),
        fallback=st.booleans(),
        p_teacher=PROBABILITIES,
        p_student=PROBABILITIES,
        surprisal_student=st.one_of(st.none(), st.just(float("inf")), st.floats(0.0, allow_infinity=True)),
    ), min_size=1, max_size=6))
    scalars = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=8))
    return DatasetRecord(
        problem_id=draw(st.text(max_size=12)),
        kind=draw(st.sampled_from(RECORD_KINDS)),
        verdict=draw(st.sampled_from(VERDICTS)),
        tokens=tuple(r.token for r in records),
        source_trace_ref=draw(st.text(max_size=12)),
        regime=draw(st.sampled_from(REGIMES)),
        records=records,
        stats=draw(st.dictionaries(st.text(max_size=8), scalars, max_size=4)),
    )


class TestExportImport:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(dataset_records(), max_size=4))
    def test_any_records_round_trip_byte_for_byte(self, tmp_path_factory, records):
        where = tmp_path_factory.mktemp("round-trip")
        export_dataset(records, where / "a.jsonl")
        export_dataset(read_dataset(where / "a.jsonl"), where / "b.jsonl")
        assert (where / "a.jsonl").read_bytes() == (where / "b.jsonl").read_bytes()

    def make_records(self):
        results = TestAssemble().run_problems({"q1": "bba", "q2": "never"})
        return assemble_dataset(results, prefix_length=2)

    def test_empty_dataset_is_manifest_only(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        export_dataset([], path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1
        manifest = json.loads(lines[0])
        assert manifest["kind"] == "manifest"
        assert manifest["record_count"] == 0
        assert import_dataset(path) == []

    def test_round_trip_is_byte_identical(self, tmp_path):
        records = self.make_records()
        first = tmp_path / "a.jsonl"
        second = tmp_path / "b.jsonl"
        export_dataset(records, first)
        export_dataset(import_dataset(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_corrupted_line_reported_with_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        export_dataset(self.make_records(), path)
        lines = path.read_text().splitlines()
        lines[1] = lines[1][:-10] + "}garbage"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match="line 2"):
            import_dataset(path)

    def test_truncated_file_detected_as_partial(self, tmp_path):
        path = tmp_path / "trunc.jsonl"
        export_dataset(self.make_records(), path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")  # drop the manifest
        with pytest.raises(DataError, match="manifest"):
            import_dataset(path)

    def test_manifest_count_mismatch_detected(self, tmp_path):
        path = tmp_path / "mismatch.jsonl"
        export_dataset(self.make_records(), path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join([lines[0], lines[-1]]) + "\n")  # drop record 2
        with pytest.raises(DataError, match="declares"):
            import_dataset(path)


class TestReadJsonl:
    def test_yields_numbered_objects_and_skips_blank_lines(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        path.write_text('{"a": 1}\n\n  \n{"b": 2}\n')
        assert list(read_jsonl(path)) == [(1, {"a": 1}), (4, {"b": 2})]

    @pytest.mark.parametrize(
        "content, message",
        [
            (None, "cannot open"),
            (b'{"a": 1}\n\xff\xfe\n', "line 2: not UTF-8"),
            (b'{"a": 1}\n\n{"a": \n', "line 3: invalid JSON"),
            (b"[1, 2]\n", "line 1: not a JSON object"),
        ],
        ids=["unopenable", "not-utf8", "not-json", "not-an-object"],
    )
    def test_faults_name_the_path_and_line(self, tmp_path, content, message):
        path = tmp_path / "rows.jsonl"
        if content is not None:
            path.write_bytes(content)
        with pytest.raises(DataError, match=message) as exc:
            list(read_jsonl(path))
        assert str(path) in str(exc.value)


class TestScoreExternal:
    def test_greedy_trace_scores_argmax_at_every_step(self):
        student = TableModel(
            {(0,): [0.7, 0.2, 0.1], (1,): [0.1, 0.2, 0.7]}, [0.5, 0.3, 0.2], eos_token=2
        )
        # greedy self-trace: argmax chain from prompt [0]
        ctx = [0]
        tokens = []
        for _ in range(4):
            d = student.next_distribution(ctx)
            t = int(np.argmax(d.probs))
            tokens.append(t)
            ctx.append(t)
        (records,) = score_external_traces(
            [{"prompt_tokens": [0], "tokens": tokens}], student
        )
        replay_ctx = [0]
        for rec in records:
            d = student.next_distribution(replay_ctx)
            assert rec.token == int(np.argmax(d.probs))
            assert rec.p_student == d[rec.token]
            replay_ctx.append(rec.token)

    def test_one_hot_student_gives_zero_surprisal(self):
        student = TableModel({}, [1.0, 0.0], eos_token=1)
        (records,) = score_external_traces(
            [{"prompt_tokens": [0], "tokens": [0, 0, 0]}], student
        )
        assert all(r.surprisal_student == 0.0 for r in records)

    def test_sub_threshold_matches_hand_count(self):
        student = TableModel({}, [0.9, 0.02, 0.005, 0.075], eos_token=3)
        tokens = [0, 1, 2, 0, 2, 1, 0, 0, 1, 2, 0, 1, 0, 0, 2, 0, 1, 0, 0, 2]
        scored = score_external_traces([{"prompt_tokens": [0], "tokens": tokens}], student)
        agg = aggregate_records(((None, records) for records in scored), 0.01)
        # hand count: context-free student, p(2)=0.005 < 1%; token 2 occurs 5 times in 20
        assert agg.below / agg.tokens == pytest.approx(5 / 20)

    def test_out_of_vocabulary_token_rejected(self):
        student = TableModel({}, [0.5, 0.5], eos_token=1)
        with pytest.raises(ValueError, match="out of vocabulary"):
            list(score_external_traces([{"prompt_tokens": [0], "tokens": [0, 7]}], student))

    def test_blocks_hold_at_most_the_students_lookahead(self):
        rows_per_call = []

        class Blocks(TableModel):
            lookahead = 3

            def next_distributions(self, context, continuation):
                rows_per_call.append(len(continuation) + 1)
                return super().next_distributions(context, continuation)

        table = ({(0,): [0.7, 0.2, 0.1], (1,): [0.1, 0.2, 0.7]}, [0.5, 0.3, 0.2])
        entries = [{"prompt_tokens": [0], "tokens": [0, 1, 1, 2, 0, 1, 0]}]
        scored = list(score_external_traces(entries, Blocks(*table, eos_token=2)))
        assert rows_per_call == [3, 3, 1]
        assert scored == list(score_external_traces(entries, TableModel(*table, eos_token=2)))

    def test_a_remote_student_scores_a_block_per_request(self):
        student = TableModel({(0,): [0.7, 0.2, 0.1], (1,): [0.1, 0.2, 0.7]}, [0.5, 0.3, 0.2], eos_token=2)
        tokens = [0, 1, 1, 2, 0, 0, 1, 2, 1, 0, 0, 1, 2, 2, 0, 1, 0, 0, 1, 2]
        entries = [{"prompt_tokens": [0], "tokens": tokens}]
        with StubServer({"s": student}) as server:
            remote = RemoteModel(BackendEndpoint(base_url=server.base_url, model_name="s"))
            try:
                over_wire = list(score_external_traces(entries, remote))
            finally:
                remote.close()
        assert over_wire == list(score_external_traces(entries, student))
        assert (remote.stats["requests"], remote.stats["rows"]) == (3, 20)  # blocks of 8, 8 and 4

    def test_traces_are_solo_shaped_for_metrics(self):
        # scored, never proposed or approved: no regime, so no fallback rate
        student = TableModel({}, [0.5, 0.5], eos_token=1)
        (records,) = score_external_traces([{"prompt_tokens": [0], "tokens": [0, 1]}], student)
        assert not any(r.accepted or r.fallback for r in records)
        assert aggregate_records([(None, records)]).report_fields()["fallback_rate_pct"] is None


class TestRunGeneration:
    def problems(self, n=6):
        answers = ["bba", "never", "aba", "bb", "never", "a"]
        return [
            Problem(id=f"q{i}", prompt_tokens=(0,), answer=answers[i % len(answers)])
            for i in range(n)
        ]

    def test_parallel_matches_serial_byte_for_byte(self, tmp_path):
        v = Verifier(mode="exact-match", normalization=())
        runs = {}
        for workers in (1, 4):
            records = list(
                run_generation(
                    self.problems(), student_generator(), v, 4, 24, detok, prefix_length=2, workers=workers
                )
            )
            path = tmp_path / f"w{workers}.jsonl"
            export_dataset(records, path)
            runs[workers] = path.read_bytes()
        assert runs[1] == runs[4]

    def test_records_arrive_in_problem_order_when_lengths_are_uneven(self):
        # the early problems decode the longest traces, so a pool finishes them last
        lengths = [40, 30, 20, 10, 1, 1, 1, 1]
        problems = [Problem(id=f"q{i}", prompt_tokens=(0,), answer="never") for i in range(8)]
        by_prompt_and_seed = {
            (0, derive_seed(0, p.id, k)): n for p, n in zip(problems, lengths) for k in range(2)
        }

        endless = TableModel({}, [0.5, 0.5, 0.0], eos_token=2)

        def generator(prompt, seed):
            n = by_prompt_and_seed[(prompt[0], seed)]
            return decode(None, endless, prompt, solo_cfg(seed=seed, max_tokens=n, context_limit=64))

        records = list(
            run_generation(problems, generator, Verifier(), 2, 0, detok, prefix_length=64, workers=4)
        )
        assert [r.problem_id for r in records] == [p.id for p in problems]

    def test_serial_run_stops_at_the_first_unsalvageable_problem(self):
        # q1's prompt overflows the context, so every attempt fails before any token
        problems = [
            Problem(id="q0", prompt_tokens=(0,), answer="never"),
            Problem(id="q1", prompt_tokens=(0,) * 40, answer="never"),
            Problem(id="q2", prompt_tokens=(0,), answer="never"),
        ]
        decoded = []
        generate = student_generator()

        def generator(prompt, seed):
            decoded.append(len(prompt))
            return generate(prompt, seed)

        records = run_generation(problems, generator, Verifier(), 2, 0, detok, workers=1)
        assert next(records).problem_id == "q0"
        with pytest.raises(ValueError, match="'q1': no attempt produced a trace to salvage"):
            next(records)
        assert decoded == [1, 1, 40, 40]  # q2 never started


def synthetic_generator(n_tokens: int):
    """Never-correct traces of ``n_tokens`` records, built without a model."""
    cfg = solo_cfg(max_tokens=n_tokens, context_limit=n_tokens + 8)

    def generate(prompt, seed):
        records = [TokenRecord(0, "student", False, False, None, 0.5, 0.69) for _ in range(n_tokens)]
        return Trace(tuple(prompt), records, cfg, "length-budget")

    return generate


def generation_peak_bytes(n_problems: int) -> int:
    problems = [Problem(id=f"q{i}", prompt_tokens=(0,), answer="never") for i in range(n_problems)]
    tracemalloc.start()
    try:
        records = run_generation(
            problems, synthetic_generator(300), Verifier(), 16, 0, detok, prefix_length=8
        )
        count = sum(1 for _ in records)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert count == n_problems
    return peak


class TestGenerationMemory:
    def test_peak_does_not_grow_with_unsolved_problems(self):
        # each unsolved problem holds 16 x 300 token records until it is reduced
        generation_peak_bytes(2)  # warm caches and imports outside the measurement
        small, large = generation_peak_bytes(10), generation_peak_bytes(20)
        assert large < 1.25 * small, (small, large)


class TestPrefixSourcePolicies:
    def test_lowest_perplexity_picks_the_calmest_attempt(self):
        results = TestAssemble().run_problems({"q": "never"})
        attempts = [a for a in results[0].attempts if a.trace is not None and a.trace.records]
        from rsdkit.metrics import records_perplexity

        ppls = [records_perplexity(a.trace.records) for a in attempts]
        (record,) = assemble_dataset(results, prefix_length=99, prefix_source="lowest-perplexity")
        picked = int(record.source_trace_ref.split("-")[-1])
        assert ppls[picked] == min(ppls)

    def test_unknown_policy_rejected(self):
        results = TestAssemble().run_problems({"q": "never"})
        with pytest.raises(ValueError, match="prefix source"):
            assemble_dataset(results, prefix_source="vibes")
