"""How the acceptance threshold shapes the generated data.

Raising the threshold makes the student stricter: more teacher proposals are
rejected (higher fallback rate), and the surviving traces hug the student's
own distribution more closely (fewer sub-threshold tokens, lower perplexity).
The headline configuration uses 1%; the canonical comparison set is
{10%, 3%, 1%, 0.3%}.
"""

import numpy as np

from rsdkit import GenerationConfig, TableModel, decode
from rsdkit.metrics import aggregate_records, records_perplexity

# flat teacher vs peaky student: many proposals land where the student
# assigns almost no mass, so the threshold has something to filter
rng = np.random.default_rng(42)
teacher = TableModel(
    {(1,): rng.dirichlet(np.ones(6) * 3.0)}, rng.dirichlet(np.ones(6) * 3.0), eos_token=5
)
student = TableModel(
    {(1,): rng.dirichlet(np.ones(6) * 0.15)}, rng.dirichlet(np.ones(6) * 0.15), eos_token=5
)

print(f"{'p_th':>6}  {'fallback %':>10}  {'sub-1% %':>9}  {'mean ppl':>9}")
for p_th in (0.10, 0.03, 0.01, 0.003, 0.0):
    traces = [
        decode(
            teacher, student, [0],
            GenerationConfig(p_th=p_th, max_tokens=24, temperature=0.7,
                             context_limit=64, seed=s),
        )
        for s in range(200)
    ]
    traces = [t for t in traces if len(t.records)]
    agg = aggregate_records(((t.config.regime, t.records) for t in traces), 0.01)
    fb = 100 * agg.fallbacks / agg.tokens
    sub = 100 * agg.below / agg.tokens
    ppl = np.mean([records_perplexity(t.records) for t in traces])
    print(f"{p_th:>6g}  {fb:>10.2f}  {sub:>9.2f}  {ppl:>9.2f}")

print(
    "\nStricter thresholds intervene more often; p_th=0 never intervenes and"
    "\nreduces to plain teacher sampling (the degenerate case)."
)
