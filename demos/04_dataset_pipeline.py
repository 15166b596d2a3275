"""End-to-end distillation dataset generation at desk scale.

Each problem gets up to `attempts` decodes (seeds derived from the base seed,
problem id, and attempt index), each verified against the reference answer.
The first correct trace becomes a full training record; problems that never
verify contribute a short prefix instead, so nothing is wasted.

Here each problem's attempts are kept to show them; `run_generation` does the
same work but reduces each problem to its record as soon as it is decided.
"""

import json

from rsdkit import (
    GenerationConfig,
    Problem,
    TableModel,
    Verifier,
    assemble_dataset,
    dataset_report,
    decode,
    export_dataset,
    rejection_sample,
)

TOKEN_TEXT = ["a", "b", "c", ""]

teacher = TableModel({}, [0.1, 0.6, 0.2, 0.1], eos_token=3)
student = TableModel({}, [0.25, 0.4, 0.25, 0.1], eos_token=3)
cfg = GenerationConfig(p_th=0.01, max_tokens=6, temperature=0.7, context_limit=64, seed=11)


def generator(prompt, seed):
    return decode(teacher, student, prompt, cfg.with_seed(seed))


def detokenize(tokens):
    return "".join(TOKEN_TEXT[t] for t in tokens)


problems = [
    Problem(id="easy-1", prompt_tokens=(0,), answer="bbbbbb"),   # reachable string
    Problem(id="easy-2", prompt_tokens=(0,), answer="bb"),       # short reachable string
    Problem(id="hard-1", prompt_tokens=(0,), answer="zzz"),      # never produced
    Problem(id="hard-2", prompt_tokens=(0,), answer="abcabc"),   # extremely unlikely
]

verifier = Verifier(mode="exact-match", normalization=())
results = [
    rejection_sample(p, generator, verifier, attempts=16, base_seed=cfg.seed, detokenize=detokenize)
    for p in problems
]
for r in results:
    status = f"solved at attempt {r.solved.attempt_index}" if r.solved else "unsolved"
    print(f"{r.problem_id}: {status} ({len(r.attempts)} attempts)")

records = assemble_dataset(results, prefix_length=4)
export_dataset(records, "demo_dataset.jsonl")
report = dataset_report(records, threshold=0.01)

print("\ndataset records:")
for rec in records:
    print(f"  {rec.problem_id}: {rec.kind}, {len(rec.tokens)} tokens, verdict={rec.verdict}")

print("\nreport:")
print(json.dumps(report, indent=2, sort_keys=True))
print("\nwrote demo_dataset.jsonl (one record per line + trailing manifest)")
