"""Vocabulary alignment: suppression, expansions, dual contexts."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rsdkit.models import ContextOverflowError, Distribution, EmptySupportError
from rsdkit.vocab import (
    DualContext,
    VocabularyAlignmentError,
    VocabularyMap,
    build_vocab_map,
    replay_student_context,
    suppress,
)

# the real-model expansion this engine was built around: student-only id
# 151668 (</think>) renders in the teacher vocabulary as (522, 26865, 29)
THINK_CLOSE = 151668
THINK_CLOSE_EXPANSION = (522, 26865, 29)


@st.composite
def vocab_pairs(draw):
    """``(teacher size, student size, expansions)`` that :func:`build_vocab_map` accepts:
    student-only keys, each expanding to teacher ids that are no key."""
    teacher, student = draw(st.integers(2, 24)), draw(st.integers(2, 24))
    keys = draw(st.sets(st.integers(0, student - 1), max_size=4))
    values = [t for t in range(teacher) if t not in keys]
    if not values:
        return teacher, student, {}
    seqs = st.lists(st.sampled_from(values), min_size=1, max_size=3).map(tuple)
    return teacher, student, {k: draw(seqs) for k in keys}


class TestBuildVocabMap:
    def test_identical_vocabularies_need_nothing(self):
        m = build_vocab_map(8, 8)
        assert m.suppressed == frozenset()
        assert m.expansions == {}
        assert m.shared_size == 8

    @pytest.mark.parametrize("sizes", [(1, 4), (4, 1)])
    def test_a_vocabulary_below_two_ids_is_refused_by_the_sizes_given(self, sizes):
        with pytest.raises(VocabularyAlignmentError, match="^both vocabularies must have size >= 2$"):
            build_vocab_map(*sizes)

    def test_teacher_surplus_of_128_is_suppressed(self):
        m = build_vocab_map(151936 + 128, 151936)
        assert len(m.suppressed) == 128
        assert m.suppressed == frozenset(range(151936, 152064))

    def test_declared_expansion_returns_exact_sequence(self):
        m = build_vocab_map(152064, 151936, {THINK_CLOSE: THINK_CLOSE_EXPANSION})
        assert m.expand(THINK_CLOSE) == THINK_CLOSE_EXPANSION

    def test_expansion_key_suppressed_on_teacher_side(self):
        m = build_vocab_map(152064, 151936, {THINK_CLOSE: THINK_CLOSE_EXPANSION})
        assert THINK_CLOSE in m.suppressed
        for t in THINK_CLOSE_EXPANSION:
            assert t not in m.suppressed

    def test_expansion_value_exempt_from_suppression(self):
        # value id 9 sits in the teacher-only range but is needed for contexts
        m = build_vocab_map(10, 8, {6: (9, 1)})
        assert 9 not in m.suppressed
        assert 6 in m.suppressed

    def test_overlapping_key_spaces_rejected(self):
        with pytest.raises(VocabularyAlignmentError, match="overlap"):
            build_vocab_map(10, 10, {5: (5, 1)})
        with pytest.raises(VocabularyAlignmentError, match="overlap"):
            build_vocab_map(10, 10, {5: (6,), 6: (1,)})

    def test_out_of_range_ids_rejected(self):
        with pytest.raises(VocabularyAlignmentError, match="student vocabulary"):
            build_vocab_map(8, 8, {9: (1,)})
        with pytest.raises(VocabularyAlignmentError, match="teacher vocabulary"):
            build_vocab_map(8, 8, {5: (9,)})

    @pytest.mark.parametrize(
        "vmap, message",
        [
            (VocabularyMap(shared_size=8), "shared_size 8"),
            (VocabularyMap(shared_size=4, suppressed={1}, expansions={1: (6,)}), "expansion value 6"),
            (VocabularyMap(shared_size=4, expansions={7: (1,)}), "expansion key 7"),
        ],
    )
    def test_map_that_does_not_fit_a_pair_rejected(self, vmap, message):
        with pytest.raises(VocabularyAlignmentError, match=message):
            vmap.check_fits(6, 6)

    def test_map_that_fits_a_pair_passes(self):
        build_vocab_map(10, 8, {6: (9, 1)}).check_fits(10, 8)

    def test_declared_map_expansion_into_suppressed_rejected(self):
        with pytest.raises(VocabularyAlignmentError, match="suppressed"):
            VocabularyMap(shared_size=8, suppressed={9}, expansions={8: (9,)})

    @settings(max_examples=300, deadline=None)
    @given(vocab_pairs())
    def test_suppresses_exactly_the_teacher_ids_the_student_cannot_score(self, pair):
        teacher, student, expansions = pair
        m = build_vocab_map(teacher, student, expansions)
        value_ids = {t for seq in m.expansions.values() for t in seq}
        unscoreable = {t for t in range(teacher) if t >= student or t in m.expansions}
        assert m.suppressed == unscoreable - value_ids
        assert all(0 <= t < teacher and m.is_student_only(t) for t in m.suppressed)
        assert not value_ids & m.suppressed
        m.check_fits(teacher, student)
        assert VocabularyMap.from_json_dict(json.loads(json.dumps(m.to_json_dict()))) == m

    # int() used to read each of these as an id or a size: 12.7 suppressed id 12, and 1.9 or "1" keyed 1
    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: VocabularyMap(shared_size=12, suppressed={12.7}), "suppressed must be an integer, got 12.7"),
            (lambda: VocabularyMap(shared_size=12.5), "shared_size must be an integer, got 12.5"),
            (lambda: VocabularyMap(shared_size=True), "shared_size must be an integer, got True"),
            (lambda: VocabularyMap(shared_size=12, expansions={"1": (5,)}), "expansions key must be an integer, got '1'"),
            (lambda: VocabularyMap(shared_size=12, expansions={1: (5.0,)}), r"expansions\[1\] must be an integer, got 5.0"),
            (lambda: build_vocab_map(14, 12, {1.9: (5.2, 6)}), "expansions key must be an integer, got 1.9"),
            (lambda: build_vocab_map(14, 12, {"1": (5, 6)}), "expansions key must be an integer, got '1'"),
            (lambda: build_vocab_map(14, 12, {1: (5, True)}), r"expansions\[1\] must be an integer, got True"),
            (lambda: build_vocab_map(14.0, 12), "teacher_vocab_size must be an integer, got 14.0"),
            (lambda: build_vocab_map(14, "12"), "student_vocab_size must be an integer, got '12'"),
        ],
        ids=["float-suppressed", "float-shared-size", "bool-shared-size", "string-key", "float-value",
             "built-float-key", "built-string-key", "built-bool-value", "float-teacher-size", "string-student-size"],
    )
    def test_ids_and_sizes_that_would_be_rounded_are_refused(self, build, message):
        with pytest.raises(TypeError, match=message):
            build()

    def test_numpy_ids_and_sizes_are_read_as_ints(self):
        m = build_vocab_map(np.int64(10), np.int32(8), {np.int64(6): (np.int64(9), 1)})
        assert m == build_vocab_map(10, 8, {6: (9, 1)})
        assert type(m.shared_size) is int and all(type(t) is int for t in m.suppressed | {*m.expansions[6]})
        assert json.dumps(m.to_json_dict())  # plain ints, so the document serializes

    def test_student_only_covers_undeclared_high_ids(self):
        m = build_vocab_map(8, 10)
        assert m.is_student_only(8)
        assert m.is_student_only(9)
        assert not m.is_student_only(7)


class TestSuppress:
    def test_uniform_with_one_suppressed_id(self):
        m = VocabularyMap(shared_size=3, suppressed={3})
        out = suppress(Distribution([0.25] * 4), m)
        np.testing.assert_allclose(out.probs, [1 / 3, 1 / 3, 1 / 3, 0.0], rtol=1e-12)

    def test_no_suppression_returns_same_object(self):
        m = VocabularyMap.identity(4)
        d = Distribution([0.1, 0.2, 0.3, 0.4])
        assert suppress(d, m) is d

    def test_mass_rescales_by_removed_fraction(self):
        m = VocabularyMap(shared_size=3, suppressed={3})
        out = suppress(Distribution([0.04, 0.05, 0.01, 0.9]), m)
        np.testing.assert_allclose(out.probs, [0.4, 0.5, 0.1, 0.0], rtol=1e-12)

    def test_all_mass_suppressed_signals_empty_support(self):
        m = VocabularyMap(shared_size=2, suppressed={2, 3})
        with pytest.raises(EmptySupportError):
            suppress(Distribution([0.0, 0.0, 0.5, 0.5]), m)

    def test_idempotent_exactly(self):
        m = VocabularyMap(shared_size=3, suppressed={3})
        once = suppress(Distribution([0.2, 0.2, 0.2, 0.4]), m)
        twice = suppress(once, m)
        assert twice is once

    def test_rank_order_of_survivors_preserved(self):
        rng = np.random.default_rng(23)
        m = VocabularyMap(shared_size=6, suppressed={6, 7})
        for _ in range(100):
            d = Distribution(rng.dirichlet(np.ones(8)))
            out = suppress(d, m)
            survivors = list(range(6))
            before = np.argsort([d.probs[t] for t in survivors], kind="stable")
            after = np.argsort([out.probs[t] for t in survivors], kind="stable")
            np.testing.assert_array_equal(before, after)


class TestDualContext:
    def map(self) -> VocabularyMap:
        return build_vocab_map(152064, 151936, {THINK_CLOSE: THINK_CLOSE_EXPANSION})

    def test_shared_token_goes_to_both(self):
        ctx = DualContext(16)
        ctx.append(42, self.map())
        assert ctx.student == [42]
        assert ctx.teacher == [42]

    def test_student_native_token_expands_on_teacher_side(self):
        ctx = DualContext(16)
        ctx.append(THINK_CLOSE, self.map())
        assert ctx.student == [THINK_CLOSE]
        assert ctx.teacher == list(THINK_CLOSE_EXPANSION)

    def test_shared_only_streams_stay_identical(self):
        ctx = DualContext(16)
        for t in (5, 1, 3, 2, 5, 0):
            ctx.append(t, self.map())
            assert ctx.student == ctx.teacher

    def test_undeclared_student_only_token_rejected(self):
        m = build_vocab_map(8, 10)  # ids 8, 9 student-only, no expansions declared
        ctx = DualContext(16)
        with pytest.raises(VocabularyAlignmentError, match="no declared expansion"):
            ctx.append(9, m)

    def test_replay_reproduces_teacher_context(self):
        m = self.map()
        ctx = DualContext(64)
        stream = [7, THINK_CLOSE, 3, 3, THINK_CLOSE, 11]
        for t in stream:
            ctx.append(t, m)
        assert replay_student_context(ctx.student, m) == ctx.teacher
        assert len(ctx.teacher) >= len(ctx.student)

    def test_from_prompt_routes_prompt_tokens(self):
        m = self.map()
        ctx = DualContext.from_prompt([1, THINK_CLOSE, 2], m, 64)
        assert ctx.student == [1, THINK_CLOSE, 2]
        assert ctx.teacher == [1, *THINK_CLOSE_EXPANSION, 2]

    def test_append_fills_the_budget_exactly(self):
        ctx = DualContext(3)
        for t in (1, 2, 3):
            ctx.append(t, self.map())
        assert ctx.student == ctx.teacher == [1, 2, 3]

    def test_student_side_overflow_raises(self):
        ctx = DualContext.from_prompt([1, 2], self.map(), 2)
        with pytest.raises(ContextOverflowError, match="context budget 2 exhausted"):
            ctx.append(3, self.map())

    def test_teacher_side_overflow_through_expansion_raises(self):
        # the student side has room for </think>, its 3-token expansion does not
        ctx = DualContext.from_prompt([1], self.map(), 3)
        with pytest.raises(ContextOverflowError, match="context budget 3 exhausted"):
            ctx.append(THINK_CLOSE, self.map())

    @settings(max_examples=300, deadline=None)
    @given(vocab_pairs(), st.integers(0, 12), st.data())
    def test_teacher_context_is_always_the_replayed_student_context(self, pair, budget, data):
        # some appends are refused (overflow, or a student-only id with no expansion); they change nothing
        teacher, student, expansions = pair
        m = build_vocab_map(teacher, student, expansions)
        ctx = DualContext(budget)
        for token in data.draw(st.lists(st.integers(0, student - 1), max_size=16)):
            before = (list(ctx.student), list(ctx.teacher))
            try:
                ctx.append(token, m)
            except (ContextOverflowError, VocabularyAlignmentError):
                assert (ctx.student, ctx.teacher) == before
            assert ctx.teacher == replay_student_context(ctx.student, m)
            assert len(ctx.student) <= len(ctx.teacher) <= budget

    def test_oversized_prompt_rejected(self):
        with pytest.raises(ContextOverflowError, match="context budget 2 exhausted"):
            DualContext.from_prompt([1, 2, 3], self.map(), 2)


class TestMapDocument:
    def test_round_trip_through_file(self, tmp_path):
        m = build_vocab_map(152064, 151936, {THINK_CLOSE: THINK_CLOSE_EXPANSION})
        path = tmp_path / "map.json"
        m.save(path)
        loaded = VocabularyMap.load(path)
        assert loaded == m

    def test_document_fields(self, tmp_path):
        m = VocabularyMap(shared_size=8, suppressed={9, 10}, expansions={8: (1, 2)})
        path = tmp_path / "map.json"
        m.save(path)
        doc = json.loads(path.read_text())
        assert doc["shared_size"] == 8
        assert doc["suppressed"] == [9, 10]
        assert doc["expansions"] == {"8": [1, 2]}

    @pytest.mark.parametrize(
        "document, message",
        [
            ({"suppressed": []}, "'shared_size'"),
            # numbers that are not JSON integers are refused, not rounded
            ({"shared_size": 12.9}, "shared_size must be an integer"),
            ({"shared_size": 14, "suppressed": [13.2]}, "suppressed must be an integer"),
            ({"shared_size": 14, "suppressed": [True]}, "suppressed must be an integer"),
            ({"shared_size": 14, "expansions": {"1": [5.7, 6]}}, r"expansions\[1\] must be an integer"),
            ({"shared_size": 14, "expansions": {"1": "56"}}, r"expansions\[1\] must be an integer"),
            ({"shared_size": 14, "expansions": [[1, 5]]}, "expansions must be an object"),
        ],
    )
    def test_malformed_document_rejected(self, document, message):
        with pytest.raises(VocabularyAlignmentError, match=f"malformed vocabulary map document: {message}"):
            VocabularyMap.from_json_dict(document)
