"""Information-theoretic diagnostics over generated traces.

Surprisal (-ln p) measures how unlikely each emitted token was under the
student; entropy measures the student's per-step uncertainty; perplexity is
the exponential of mean surprisal; the sub-threshold ratio counts tokens the
student found nearly impossible. All in nats, all recomputable from the
serialized records.
"""

import math

import numpy as np

from rsdkit import (
    GenerationConfig,
    TableModel,
    decode,
    low_prob_token_tally,
    records_perplexity,
    step_entropy,
)
from rsdkit.metrics import aggregate_records, write_surprisal_csv

rng = np.random.default_rng(0)
teacher = TableModel({}, rng.dirichlet(np.ones(6) * 2.0), eos_token=5)
student = TableModel({}, rng.dirichlet(np.ones(6) * 0.15), eos_token=5)

traces = [
    decode(
        teacher, student, [0],
        GenerationConfig(p_th=0.01, max_tokens=20, temperature=0.7, context_limit=64, seed=s),
    )
    for s in range(40)
]

one = traces[0]
series = np.array([r.surprisal_student for r in one.records])  # -ln p_student, as recorded
print("surprisal series (nats):", np.round(series, 3))
print("trace perplexity:       ", round(records_perplexity(one.records), 4))
print("exp(mean surprisal):    ", round(math.exp(series.mean()), 4), "(identical by definition)")

print("\nstep entropy of the student's opening distribution:")
d = student.next_distribution([0])
print(f"  H = {step_entropy(d):.4f} nats (max possible ln {d.vocab_size} = {math.log(d.vocab_size):.4f})")

agg = aggregate_records(((t.config.regime, t.records) for t in traces), 0.01)
ratio = agg.below / agg.tokens
print(f"\nsub-1% token ratio across {len(traces)} coordinated traces: {100 * ratio:.3f}%")

# contrast: the same teacher decoding alone, scored under the student,
# shows the low-probability tokens the threshold was filtering out
solo = [
    decode(
        teacher, student, [0],
        GenerationConfig(p_th=0.0, max_tokens=20, temperature=0.7, context_limit=64,
                         seed=s, regime="solo-teacher"),
    )
    for s in range(40)
]
agg = aggregate_records(((t.config.regime, t.records) for t in solo), 0.01)
solo_ratio = agg.below / agg.tokens
print(f"sub-1% ratio of unfiltered teacher traces:       {100 * solo_ratio:.3f}%")
print("most frequent sub-1% tokens there:", low_prob_token_tally((t.records for t in solo), 0.01))

write_surprisal_csv(one.records, "surprisal_demo.csv")
print("\nwrote per-token series to surprisal_demo.csv (step,surprisal,accepted,fallback)")
