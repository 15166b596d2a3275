"""Run-config parsing, model specs, problems loading."""

from __future__ import annotations

import json
import re

import pytest

from rsdkit.cli import main
from rsdkit.config import (
    ConfigError,
    DataError,
    build_detokenizer,
    build_model,
    build_vocab_map_from_spec,
    encode_text,
    load_problems,
    load_run_config,
    parse_run_config,
)

MINIMAL = {
    "generation": {"regime": "solo-student", "max_tokens": 4},
    "student": {"backend": "table", "default": [0.5, 0.5]},
}


class TestParseRunConfig:
    def test_minimal_config_fills_headline_defaults(self):
        cfg = parse_run_config(MINIMAL)
        assert cfg.generation.p_th == 0.01
        assert cfg.generation.temperature == 0.7
        assert cfg.generation.context_limit == 8192
        assert cfg.attempts == 16
        assert cfg.prefix_length == 128
        assert cfg.diagnostic_threshold == 0.01
        assert cfg.verifier.mode == "boxed-answer"

    def test_missing_generation_section(self):
        with pytest.raises(ConfigError, match="generation"):
            parse_run_config({"student": MINIMAL["student"]})

    def test_rsd_needs_both_models(self):
        payload = {"generation": {"regime": "rsd", "max_tokens": 4}, "student": MINIMAL["student"]}
        with pytest.raises(ConfigError, match="teacher and student"):
            parse_run_config(payload)

    def test_invalid_nested_invariants_fail_before_work(self):
        bad = {
            "generation": {"regime": "solo-student", "max_tokens": 100, "context_limit": 10},
            "student": MINIMAL["student"],
        }
        with pytest.raises(ConfigError, match="max_tokens"):
            parse_run_config(bad)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("attempts", "two"),
            ("attempts", None),
            ("prefix_length", "long"),
            ("workers", [2]),
            ("diagnostic_threshold", "1%"),
            ("diagnostic_threshold", {"p": 0.01}),
        ],
    )
    def test_non_numeric_count_or_threshold_is_config_error(self, key, value):
        with pytest.raises(ConfigError, match=key):
            parse_run_config(dict(MINIMAL, **{key: value}))

    @pytest.mark.parametrize(
        "key, value",
        [
            ("attempts", 4.5),
            ("attempts", True),
            ("attempts", "12"),
            ("attempts", 3.0),
            ("prefix_length", "12"),
            ("prefix_length", 0),
            ("workers", 2.9),
            ("workers", False),
            ("diagnostic_threshold", True),
            ("diagnostic_threshold", "0.01"),
            ("diagnostic_threshold", 1.5),
        ],
    )
    def test_count_or_threshold_is_refused_not_coerced(self, tmp_path, key, value):
        with pytest.raises(ConfigError, match=key):
            parse_run_config(dict(MINIMAL, **{key: value}))
        path = tmp_path / "run.json"
        path.write_text(json.dumps(dict(MINIMAL, **{key: value})))
        assert main(["generate", str(path)]) == 2

    @pytest.mark.parametrize("key, value", [("attempts", 3), ("workers", 2), ("diagnostic_threshold", 0),
                                            ("diagnostic_threshold", 0.5)])
    def test_count_or_threshold_keeps_its_value(self, key, value):
        parsed = getattr(parse_run_config(dict(MINIMAL, **{key: value})), key)
        assert parsed == value and type(parsed) is type(value if key != "diagnostic_threshold" else 0.5)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("temperature", float("nan")),
            ("temperature", float("inf")),
            ("temperature", True),
            ("p_th", True),
            ("max_tokens", 4.5),
            ("context_limit", 8.5),
            ("seed", 1.5),
            ("seed", False),
            ("threshold_uses_raw", "no"),
            ("threshold_uses_raw", 1),
        ],
    )
    def test_bad_generation_value_is_config_error(self, tmp_path, key, value):
        path = tmp_path / "run.json"
        # json writes NaN and Infinity as the bare literals that Python's parser reads back
        path.write_text(json.dumps(dict(MINIMAL, generation={**MINIMAL["generation"], key: value})))
        with pytest.raises(ConfigError, match=key):
            load_run_config(path)
        assert main(["generate", str(path)]) == 2

    def test_unknown_backend_rejected(self):
        payload = dict(MINIMAL, student={"backend": "gguf", "default": []})
        with pytest.raises(ConfigError, match="backend"):
            parse_run_config(payload)

    @pytest.mark.parametrize(
        "spec, key",
        [
            ({"backend": "table", "default": [0.5, 0.5]}, "smoothing"),
            ({"backend": "ngram", "corpus": [0, 1], "order": 1}, "smoothin"),
            ({"backend": "remote", "base_url": "http://h", "model_name": "m"}, "max_inflight"),
        ],
    )
    def test_model_spec_key_its_backend_does_not_read_rejected(self, spec, key):
        message = f"student: backend '{spec['backend']}' does not read keys ['{key}']"
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_run_config(dict(MINIMAL, student={**spec, key: 1}))

    def test_bad_prefix_source_rejected(self):
        with pytest.raises(ConfigError, match="prefix_source"):
            parse_run_config(dict(MINIMAL, prefix_source="best"))

    def test_config_file_not_found(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_run_config(tmp_path / "missing.json")

    def test_non_object_root_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError, match="object"):
            load_run_config(path)


class TestBuildModel:
    def test_table_model_from_spec(self):
        model = build_model(
            {
                "backend": "table",
                "eos_token": 1,
                "rows": [{"suffix": [0], "probs": [0.9, 0.1]}],
                "default": [0.5, 0.5],
            }
        )
        assert model.vocab_size == 2
        assert model.next_distribution([0])[0] == 0.9

    def test_ngram_model_from_spec(self):
        model = build_model({"backend": "ngram", "corpus": [0, 1, 0, 1], "order": 2})
        assert model.next_distribution([0])[1] == 1.0

    @pytest.mark.parametrize(
        "backend, spec",
        [
            ("table", {"rows": [{"suffix": [0], "probs": [0.9, 0.1]}], "default": [0.5, 0.5]}),
            ("ngram", {"corpus": [0, 1, 0, 1], "order": 2, "smoothing": 0.1, "vocab_size": 2}),
            ("remote", {"model_name": "m", "timeout_s": 5, "max_retries": 0, "backoff_s": 0.0, "vocab_size": 4}),
        ],
    )
    def test_every_key_a_backend_accepts_is_read(self, html_server, backend, spec):
        # validate_model_spec and build_model list a backend's keys apart: a
        # spec with every accepted key must build and have each key read
        read = set()

        class Recording(dict):
            def __getitem__(self, key):
                read.add(key)
                return super().__getitem__(key)

            def get(self, key, default=None):
                read.add(key)
                return super().get(key, default)

        spec = {"backend": backend, "eos_token": 1, **spec}
        if backend == "remote":
            spec.update(base_url=html_server(capabilities=True), eos_token=3)
        build_model(Recording(spec))
        assert read == set(spec)

    def test_bad_row_shape_is_config_error(self):
        with pytest.raises(ConfigError, match="bad model spec"):
            build_model({"backend": "table", "rows": [{"suffix": [0]}], "default": [0.5, 0.5]})


class TestVocabMapSpec:
    def test_null_means_identity(self):
        vmap = build_vocab_map_from_spec(None, 8)
        assert vmap.shared_size == 8
        assert not vmap.suppressed

    def test_inline_document(self):
        vmap = build_vocab_map_from_spec(
            {"shared_size": 4, "suppressed": [5], "expansions": {"4": [1, 2]}}, 4
        )
        assert vmap.expand(4) == (1, 2)

    def test_derived_from_sizes(self):
        vmap = build_vocab_map_from_spec(
            {"teacher_vocab_size": 10, "student_vocab_size": 8}, 8
        )
        assert vmap.suppressed == frozenset({8, 9})

    def test_from_file(self, tmp_path):
        path = tmp_path / "map.json"
        path.write_text(json.dumps({"shared_size": 4, "suppressed": [], "expansions": {}}))
        vmap = build_vocab_map_from_spec({"path": str(path)}, 4)
        assert vmap.shared_size == 4

    def test_unrecognized_shape_rejected(self):
        with pytest.raises(ConfigError, match="vocab_map"):
            build_vocab_map_from_spec({"wat": 1}, 4)


class TestDetokenizer:
    def test_token_text_concatenates_fragments(self):
        detok = build_detokenizer(["he", "llo", "!"])
        assert detok([0, 1, 2]) == "hello!"

    def test_default_renders_decimal_ids(self):
        detok = build_detokenizer(None)
        assert detok([3, 11]) == "3 11"

    def test_out_of_table_token_is_data_error(self):
        detok = build_detokenizer(["a"])
        with pytest.raises(DataError, match="token_text"):
            detok([4])


class TestEncodeText:
    def test_round_trips_single_char_table(self):
        table = ["a", "b", "c"]
        tokens = encode_text("cab", table)
        assert tokens == (2, 0, 1)
        assert build_detokenizer(table)(tokens) == "cab"

    def test_non_single_char_fragments_are_skipped_not_fatal(self):
        # an eos rendered as "" must not break prompt_text encoding
        assert encode_text("ab", ["a", "b", ""]) == (0, 1)
        assert encode_text("b", ["ab", "b"]) == (1,)

    def test_table_without_single_chars_rejected(self):
        with pytest.raises(ConfigError, match="single-character"):
            encode_text("ab", ["ab", ""])

    def test_unknown_character_rejected(self):
        with pytest.raises(DataError, match="not in token_text"):
            encode_text("xyz", ["a", "b"])


class TestLoadProblems:
    def write(self, tmp_path, rows):
        path = tmp_path / "problems.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in rows))
        return path

    def test_prompt_tokens_form(self, tmp_path):
        path = self.write(tmp_path, [{"id": "p", "prompt_tokens": [1, 2], "answer": "x"}])
        (problem,) = load_problems(path, None)
        assert problem.prompt_tokens == (1, 2)

    def test_prompt_text_form_needs_token_text(self, tmp_path):
        path = self.write(tmp_path, [{"id": "p", "prompt_text": "ab", "answer": "x"}])
        with pytest.raises(DataError, match="token_text"):
            load_problems(path, None)
        (problem,) = load_problems(path, ["a", "b"])
        assert problem.prompt_tokens == (0, 1)

    @pytest.mark.parametrize("tokens", [[1.5], [True, 1], ["2"], [0, 1.0]], ids=["float", "bool", "string", "integral-float"])
    def test_prompt_token_that_is_not_an_integer_is_refused(self, tmp_path, tokens):
        rows = [{"id": "a", "prompt_tokens": [0], "answer": "x"}, {"id": "b", "prompt_tokens": tokens, "answer": "x"}]
        path = self.write(tmp_path, rows)
        with pytest.raises(DataError, match=re.escape(f"{path}: line 2: prompt token must be an integer")):
            load_problems(path, None)

    def test_duplicate_ids_rejected(self, tmp_path):
        rows = [{"id": "p", "prompt_tokens": [0], "answer": "x"}] * 2
        with pytest.raises(DataError, match="duplicate"):
            load_problems(self.write(tmp_path, rows), None)

    def test_malformed_line_reported_with_number(self, tmp_path):
        path = tmp_path / "problems.jsonl"
        path.write_text('{"id": "a", "prompt_tokens": [0], "answer": "x"}\nnot-json\n')
        with pytest.raises(DataError, match="line 2"):
            load_problems(path, None)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "problems.jsonl"
        path.write_text("\n")
        with pytest.raises(DataError, match="no problems"):
            load_problems(path, None)


class TestUnknownKeys:
    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            parse_run_config(dict(MINIMAL, attempts_budget=5))

    def test_unknown_generation_key_rejected(self):
        payload = {
            "generation": {"regime": "solo-student", "max_tokens": 4, "pth": 0.5},
            "student": MINIMAL["student"],
        }
        with pytest.raises(ConfigError, match="unknown generation keys"):
            parse_run_config(payload)

    @pytest.mark.parametrize("key", ["generation", "verifier", "output"])
    def test_non_object_section_rejected(self, key):
        payload = dict(MINIMAL, **{key: ["not", "an", "object"]})
        with pytest.raises(ConfigError, match=f"{key} must be an object"):
            parse_run_config(payload)


class TestSpecsGoStraightToConstructors:
    def test_non_numeric_smoothing_rejected(self):
        with pytest.raises(ConfigError, match="bad model spec"):
            build_model({"backend": "ngram", "corpus": [0, 1], "order": 1, "smoothing": "0.1"})

    def test_string_backoff_fails_when_the_model_is_built(self, monkeypatch):
        def no_handshake(*args, **kwargs):
            raise AssertionError("contacted the backend before the spec was converted")

        monkeypatch.setattr("rsdkit.remote.handshake", no_handshake)
        spec = {"backend": "remote", "base_url": "http://127.0.0.1:9", "model_name": "m", "backoff_s": "fast"}
        with pytest.raises(ConfigError, match="teacher: bad model spec"):
            build_model(spec, "teacher")

    def test_unknown_normalization_is_config_error(self):
        payload = dict(MINIMAL, verifier={"mode": "exact-match", "normalization": ["strp"]})
        with pytest.raises(ConfigError, match=r"normalization must be a list of names from .*, got \['strp'\]"):
            parse_run_config(payload)

    def test_defaults_come_from_the_objects(self):
        from rsdkit.decoding import GenerationConfig
        from rsdkit.pipeline import Verifier

        cfg = parse_run_config(MINIMAL)
        assert cfg.generation == GenerationConfig(p_th=0.01, max_tokens=4, regime="solo-student")
        assert cfg.verifier == Verifier()

