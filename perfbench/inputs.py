"""Seeded input generators for the four benchmark workloads.

Everything rsdkit reads during a run is written here from one seed: Markov
chain corpora, the vocabulary map, table rows, problems files and the
dataset that ``analyze`` reads. The same seed gives byte-identical files.

Each ``make_*`` function writes its files into ``work`` and returns a dict
with the paths and the facts the output checks need.
"""

from __future__ import annotations

import bisect
import json
import math
from pathlib import Path

import numpy as np

RSD = {"regime": "rsd", "p_th": 0.01, "temperature": 0.7}
# exact-match against text that no trace renders to: every attempt runs
UNREACHABLE = "unreachable"


def _write_json(path: Path, payload) -> Path:
    path.write_text(json.dumps(payload, separators=(",", ":")) + "\n")
    return path


def _write_problems(path: Path, prompts, answers) -> Path:
    with open(path, "w", encoding="utf-8") as fh:
        for i, (prompt, answer) in enumerate(zip(prompts, answers)):
            row = {"id": f"p{i:05d}", "prompt_tokens": [int(t) for t in prompt], "answer": answer}
            fh.write(json.dumps(row, separators=(",", ":")) + "\n")
    return path


class MarkovChain:
    """Sparse first-order chain: each state has ``out_degree`` successors
    with Dirichlet weights, so a bigram model trained on its walks has a
    peaked, mostly-seen row for every state the walk visits."""

    def __init__(self, rng: np.random.Generator, states: np.ndarray, out_degree: int, alpha: float):
        self.states = np.asarray(states, dtype=np.int64)
        n = len(self.states)
        self.succ = rng.integers(0, n, size=(n, out_degree))
        weights = rng.dirichlet(np.full(out_degree, alpha), size=n)
        self.cum = [list(np.cumsum(w)) for w in weights]

    def walk(self, rng: np.random.Generator, length: int) -> list[int]:
        """Token ids of a walk from a random state."""
        s = int(rng.integers(0, len(self.states)))
        u = rng.random(length)
        ids = self.states
        out = []
        for x in u:
            out.append(int(ids[s]))
            row = self.cum[s]
            j = min(bisect.bisect_right(row, x * row[-1]), len(row) - 1)
            s = int(self.succ[s, j])
        return out


# --- long-v32k-aligned -------------------------------------------------------

LONG = {
    "student_vocab": 32000,
    "teacher_vocab": 32064,
    "markers": 10,
    "corpus_tokens": 200_000,
    "chain_states": 31000,
    "out_degree": 10,
    "prompt_tokens": 64,
    "max_tokens": 512,
    "attempts": 2,
    "problems": 1,
    "marker_rate": 0.01,
    "smoothing": 1e-5,
}


def make_long(work: Path, seed: int) -> dict:
    """Bigram teacher/student at V=32064/32000 with suppression and markers.

    Ids: 0 is EOS (never in a corpus), 1..10 are student-only markers whose
    expansions are the teacher pairs (11, 12) .. (29, 30), and chain states
    are drawn from 31..31999. Teacher ids 32000..32063 carry smoothing mass
    only and are suppressed. Teacher and student walk the same chain with
    independent draws, so they disagree where one corpus missed a
    successor; that disagreement is what the threshold acts on.
    """
    p = LONG
    rng = np.random.default_rng([seed, 1])
    first_state = 1 + 3 * p["markers"]
    states = rng.choice(np.arange(first_state, p["student_vocab"]), p["chain_states"], replace=False)
    chain = MarkovChain(rng, states, p["out_degree"], alpha=0.7)
    markers = list(range(1, 1 + p["markers"]))
    expansions = {m: (p["markers"] + 2 * i + 1, p["markers"] + 2 * i + 2) for i, m in enumerate(markers)}

    def corpus(walk_rng: np.random.Generator, teacher: bool) -> list[int]:
        walk = chain.walk(walk_rng, p["corpus_tokens"])
        hits = walk_rng.random(len(walk)) < p["marker_rate"]
        picks = walk_rng.integers(0, len(markers), size=len(walk))
        out: list[int] = []
        for tok, hit, pick in zip(walk, hits, picks):
            out.append(tok)
            if hit:
                m = markers[pick]
                out.extend(expansions[m] if teacher else (m,))
        return out

    student_corpus = corpus(np.random.default_rng([seed, 2]), teacher=False)
    teacher_corpus = corpus(np.random.default_rng([seed, 3]), teacher=True)
    # guard against the uniform-row trap: every prompt must end in a context
    # both models have seen, or step 0 falls back with probability 1
    seen_s, seen_t = set(student_corpus), set(teacher_corpus)
    prompt_rng = np.random.default_rng([seed, 4])
    prompts = []
    while len(prompts) < p["problems"]:
        prompt = chain.walk(prompt_rng, p["prompt_tokens"])
        if prompt[-1] in seen_s and prompt[-1] in seen_t:
            prompts.append(prompt)
    coverage = len(seen_s & set(int(s) for s in states)) / len(states)
    assert coverage > 0.9, f"student corpus covers only {coverage:.1%} of chain states"

    config = {
        "generation": {**RSD, "max_tokens": p["max_tokens"], "seed": seed},
        "teacher": {
            "backend": "ngram",
            "order": 2,
            "smoothing": p["smoothing"],
            "vocab_size": p["teacher_vocab"],
            "eos_token": 0,
            "corpus": teacher_corpus,
        },
        "student": {
            "backend": "ngram",
            "order": 2,
            "smoothing": p["smoothing"],
            "vocab_size": p["student_vocab"],
            "eos_token": 0,
            "corpus": student_corpus,
        },
        "vocab_map": {
            "teacher_vocab_size": p["teacher_vocab"],
            "student_vocab_size": p["student_vocab"],
            "expansions": {str(m): list(v) for m, v in expansions.items()},
        },
        "verifier": {"mode": "exact-match"},
        "attempts": p["attempts"],
        "problems": "problems.jsonl",
        "workers": 1,
        "output": {"dataset": "out/dataset.jsonl", "report": "out/report.json"},
    }
    _write_problems(work / "problems.jsonl", prompts, [UNREACHABLE] * len(prompts))
    return {
        "kind": "generate",
        "config": _write_json(work / "config.json", config),
        "problems": len(prompts),
        "answers": [UNREACHABLE] * len(prompts),
        "token_text": None,
        "verifier": config["verifier"],
    }


# --- short-table-v4k ---------------------------------------------------------

SHORT = {
    "vocab": 4096,
    "letters": 26,
    "problems": 150,
    "attempts": 16,
    "max_tokens": 8,
    "rows": 5,
}


# Every row spreads its letter mass by this one template, in an order the
# seed shuffles. Trace lengths and solve rates then vary little from seed
# to seed: with random weights, tempering a peaked row starves EOS, and the
# work per problem moved by 10% between seeds.
LETTER_MASS = np.array([0.34, 0.22, 0.16, 0.12, 0.09, 0.07])


def _table_row(rng: np.random.Generator, vocab: int, eos: int, eos_p: float) -> list[float]:
    """Dense row: ``eos_p`` on EOS, most of the rest on the letters a..f,
    and a thin floor on every id so tempering works over the whole vector."""
    row = np.full(vocab, 0.02 / vocab)
    mass = 1.0 - eos_p - row.sum()
    row[: len(LETTER_MASS)] += mass * LETTER_MASS[rng.permutation(len(LETTER_MASS))]
    row[eos] += eos_p
    row /= row.sum()
    return [float(x) for x in row]


# Target solve probability (within 16 attempts) of problem i is
# SOLVE_LADDER[i % 10]; the mean, 0.2, is the workload's solve rate. Fixing
# the ladder fixes the expected work per problem for every seed.
SOLVE_LADDER = (0.01, 0.02, 0.03, 0.05, 0.08, 0.12, 0.2, 0.3, 0.5, 0.69)
ALPHABET = "abcdef"


def _text_probability(tempered: dict, default: np.ndarray, prompt: int, text: str, eos: int) -> float:
    """Probability that a decode from ``prompt`` renders exactly ``text``.

    Only the letters and EOS render to at most one character, so one token
    path renders ``text``; proposals are always accepted on these rows (the
    student's letters and EOS all clear p_th), so the teacher's tempered
    rows give the path's probability.
    """
    q, last = 1.0, prompt
    for ch in text:
        tok = ALPHABET.index(ch)
        q *= tempered.get(last, default)[tok]
        last = tok
    return q * tempered.get(last, default)[eos]


def make_short(work: Path, seed: int) -> dict:
    """Table teacher/student at V=4096: 1-token prompts, at most 8 tokens.

    Ids 0..25 render as the letters a..z and the EOS id (4095) renders as
    the empty string; every other id renders as a multi-character fragment,
    so only letter-and-EOS traces can match a 1-3 letter answer.
    """
    p = SHORT
    v = p["vocab"]
    eos = v - 1
    rng = np.random.default_rng([seed, 11])
    keys = [int(k) for k in rng.choice(len(LETTER_MASS), p["rows"] - 1, replace=False)]

    def model(eos_p: float) -> dict:
        rows = [{"suffix": [k], "probs": _table_row(rng, v, eos, eos_p)} for k in keys]
        return {"backend": "table", "eos_token": eos, "rows": rows, "default": _table_row(rng, v, eos, eos_p)}

    teacher, student = model(0.30), model(0.30)

    def temper(row):
        w = np.asarray(row) ** (1.0 / RSD["temperature"])
        return w / w.sum()

    tempered = {r["suffix"][0]: temper(r["probs"]) for r in teacher["rows"]}
    default = temper(teacher["default"])
    candidates = [
        "".join(ALPHABET[int(d)] for d in np.unravel_index(i, (6,) * n))
        for n in (1, 2, 3)
        for i in range(6**n)
    ]
    solve = {
        prompt: np.array(
            [1.0 - (1.0 - _text_probability(tempered, default, prompt, c, eos)) ** p["attempts"] for c in candidates]
        )
        for prompt in range(len(ALPHABET))
    }
    prompts = [int(t) for t in rng.integers(0, len(ALPHABET), size=p["problems"])]
    answers = []
    for i, prompt in enumerate(prompts):
        gap = np.abs(solve[prompt] - SOLVE_LADDER[i % len(SOLVE_LADDER)])
        near = np.flatnonzero(gap <= max(gap.min(), 0.005))
        answers.append(candidates[int(rng.choice(near))])

    token_text = [chr(ord("a") + i) if i < p["letters"] else f"<{i}>" for i in range(v)]
    token_text[eos] = ""
    config = {
        "generation": {**RSD, "max_tokens": p["max_tokens"], "seed": seed},
        "teacher": teacher,
        "student": student,
        "vocab_map": None,
        "token_text": token_text,
        "verifier": {"mode": "exact-match"},
        "attempts": p["attempts"],
        "problems": "problems.jsonl",
        "workers": 2,
        "output": {"dataset": "out/dataset.jsonl", "report": "out/report.json"},
    }
    _write_problems(work / "problems.jsonl", [[t] for t in prompts], answers)
    return {
        "kind": "generate",
        "config": _write_json(work / "config.json", config),
        "problems": len(prompts),
        "answers": answers,
        "token_text": token_text,
        "verifier": config["verifier"],
    }


# --- remote-stub-v4k ---------------------------------------------------------

REMOTE = {
    "vocab": 4096,
    "corpus_tokens": 40_000,
    "chain_states": 2000,
    "out_degree": 6,
    "prompt_tokens": 128,
    "max_tokens": 16,
    "attempts": 2,
    "problems": 2,
    "smoothing": 1e-5,
}


def make_remote(work: Path, seed: int) -> dict:
    """Bigram models at V=4096, served by the stub in a separate process.

    ``serve.json`` holds the in-process models; the stub serves it and the
    equivalence check decodes it directly. ``config.json``, the remote
    client config, is written by :func:`write_remote_client` once the
    server's URL is known.
    """
    p = REMOTE
    rng = np.random.default_rng([seed, 21])
    states = rng.choice(np.arange(1, p["vocab"]), p["chain_states"], replace=False)
    chain = MarkovChain(rng, states, p["out_degree"], alpha=0.7)
    teacher_corpus = chain.walk(np.random.default_rng([seed, 22]), p["corpus_tokens"])
    student_corpus = chain.walk(np.random.default_rng([seed, 23]), p["corpus_tokens"])
    prompt_rng = np.random.default_rng([seed, 24])
    prompts: list[list[int]] = []
    while len(prompts) < p["problems"]:
        prompt = chain.walk(prompt_rng, p["prompt_tokens"])
        if prompt not in prompts:  # distinct prompts: no cache sharing across problems
            prompts.append(prompt)

    def ngram(corpus):
        return {
            "backend": "ngram",
            "order": 2,
            "smoothing": p["smoothing"],
            "vocab_size": p["vocab"],
            "eos_token": 0,
            "corpus": corpus,
        }

    base = {
        "generation": {**RSD, "max_tokens": p["max_tokens"], "seed": seed},
        "verifier": {"mode": "exact-match"},
        "attempts": p["attempts"],
        "problems": "problems.jsonl",
        "workers": 2,
    }
    serve = {
        **base,
        "teacher": ngram(teacher_corpus),
        "student": ngram(student_corpus),
        "output": {"dataset": "inproc/dataset.jsonl", "report": "inproc/report.json"},
    }
    _write_problems(work / "problems.jsonl", prompts, [UNREACHABLE] * len(prompts))
    return {
        "kind": "generate",
        "serve": _write_json(work / "serve.json", serve),
        "client_base": base,
        "config": work / "config.json",
        "problems": len(prompts),
        "answers": [UNREACHABLE] * len(prompts),
        "token_text": None,
        "verifier": base["verifier"],
    }


def write_remote_client(inputs: dict, base_url: str) -> Path:
    def remote(role):
        return {
            "backend": "remote",
            "base_url": base_url,
            "model_name": role,
            "vocab_size": REMOTE["vocab"],
            "eos_token": 0,
            "timeout_s": 30.0,
        }

    config = {
        **inputs["client_base"],
        "teacher": remote("teacher"),
        "student": remote("student"),
        "output": {"dataset": "out/dataset.jsonl", "report": "out/report.json"},
    }
    return _write_json(inputs["config"], config)


# --- analyze-dataset ---------------------------------------------------------

ANALYZE = {"records": 400, "tokens": 256, "vocab": 32000, "solved_share": 0.3}


def make_analyze(work: Path, seed: int) -> dict:
    """An rsdkit-dataset-v1 file, written in the exporter's canonical form
    (sorted keys, compact separators, float repr), so it re-exports
    byte-identically."""
    p = ANALYZE
    rng = np.random.default_rng([seed, 31])
    n, k = p["records"], p["tokens"]
    tokens = rng.integers(0, p["vocab"], size=(n, k))
    # log-uniform student probabilities put about a tenth below 0.01
    p_student = np.exp(rng.uniform(np.log(1e-4), 0.0, size=(n, k)))
    p_teacher = np.exp(rng.uniform(np.log(1e-3), 0.0, size=(n, k)))
    fallback = rng.random((n, k)) < 0.2
    solved = rng.random(n) < p["solved_share"]
    path = work / "dataset.jsonl"
    total_tokens = 0
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(n):
            recs = []
            surprisals = []
            for j in range(k):
                ps = float(p_student[i, j])
                s = -math.log(ps)
                surprisals.append(s)
                fb = bool(fallback[i, j])
                recs.append(
                    '{"accepted":%s,"fallback":%s,"p_student":%r,"p_teacher":%r,'
                    '"proposer":"%s","surprisal_student":%r,"token":%d}'
                    % (
                        "false" if fb else "true",
                        "true" if fb else "false",
                        ps,
                        float(p_teacher[i, j]),
                        "student" if fb else "teacher",
                        s,
                        int(tokens[i, j]),
                    )
                )
            ppl = math.exp(sum(surprisals) / len(surprisals))
            kind, verdict = ("full-trace", "correct") if solved[i] else ("upft-prefix", "incorrect")
            stats = '{"fallback_count":%d,"perplexity":%r,"token_count":%d}' % (
                int(fallback[i].sum()),
                ppl,
                k,
            )
            fh.write(
                '{"kind":"%s","problem_id":"p%05d","records":[%s],"regime":"rsd",'
                '"source_trace_ref":"p%05d#attempt-0","stats":%s,"tokens":[%s],"verdict":"%s"}\n'
                % (kind, i, ",".join(recs), i, stats, ",".join(str(int(t)) for t in tokens[i]), verdict)
            )
            total_tokens += k
        fh.write('{"kind":"manifest","record_count":%d,"schema":"rsdkit-dataset-v1"}\n' % n)
    return {"kind": "analyze", "dataset": path, "records": n, "tokens": total_tokens}


MAKERS = {
    "long-v32k-aligned": make_long,
    "short-table-v4k": make_short,
    "remote-stub-v4k": make_remote,
    "analyze-dataset": make_analyze,
}
