"""Walk through the three decoding regimes on a desk-scale model pair.

The teacher proposes each token; the student accepts it only when its own
probability for that token clears the threshold, otherwise the student
samples the token itself (a "fallback"). We build two small table models
with different preferences so both outcomes show up.
"""

import numpy as np

from rsdkit import GenerationConfig, TableModel, decode
from rsdkit.metrics import aggregate_records

VOCAB = ["the", "cat", "sat", "<eos>"]

# teacher strongly prefers "cat" after "the"; student is lukewarm about it
teacher = TableModel(
    rows={(0,): [0.05, 0.8, 0.1, 0.05]},
    default=[0.4, 0.2, 0.3, 0.1],
    eos_token=3,
)
student = TableModel(
    rows={(0,): [0.1, 0.008, 0.842, 0.05]},  # "cat" sits below 1% here
    default=[0.3, 0.3, 0.3, 0.1],
    eos_token=3,
)

cfg = GenerationConfig(p_th=0.01, max_tokens=8, temperature=0.7, context_limit=64, seed=3)

print("=== teacher-proposed, student-approved (rsd) ===")
trace = decode(teacher, student, prompt=[0], cfg=cfg)
for i, rec in enumerate(trace.records):
    outcome = "accepted " if rec.accepted else "FALLBACK "
    print(
        f"step {i}: {outcome} token={VOCAB[rec.token]!r:8} "
        f"p_student={rec.p_student:.4f} surprisal={rec.surprisal_student:.3f} nats"
    )
agg = aggregate_records([(cfg.regime, trace.records)])
print(f"terminated by {trace.terminated_by}, fallback rate {agg.fallbacks / agg.tokens:.2f}\n")

print("=== mirror regime: student proposes, teacher approves (skd) ===")
mirror = decode(teacher, student, [0], GenerationConfig(
    p_th=0.01, max_tokens=8, temperature=0.7, context_limit=64, seed=3, regime="skd"
))
print("tokens:", [VOCAB[t] for t in mirror.tokens()])
agg = aggregate_records([(mirror.config.regime, mirror.records)])
print("fallback rate:", agg.fallbacks / agg.tokens, "\n")

print("=== solo decoding, with the student scoring the teacher's output ===")
solo = decode(
    teacher,
    student,  # in solo-teacher the student only scores
    [0],
    GenerationConfig(p_th=0.0, max_tokens=8, temperature=0.7, context_limit=64,
                     seed=3, regime="solo-teacher"),
)
surprisals = np.array([r.surprisal_student for r in solo.records])
print("tokens:", [VOCAB[t] for t in solo.tokens()])
print(f"student surprisal along the teacher's trace: mean {surprisals.mean():.3f} nats")

print("\nSame seed, same models, same trace, every time:")
again = decode(teacher, student, [0], cfg)
print("reproducible:", again.to_json_line() == trace.to_json_line())
