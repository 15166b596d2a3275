"""Aligning two near-identical vocabularies.

A real pairing this engine targets: the teacher's tokenizer carries 128
entries the student lacks, and the student owns a few special markers
(thinking delimiters) the teacher renders as multi-token sequences. Token id
151668 is the student's </think>; the teacher writes it as (522, 26865, 29),
i.e. ("</", "think", ">").

Two mechanisms keep every step scoreable: teacher-only ids are suppressed
out of proposal distributions, and student-native tokens are appended to the
teacher's context as their declared expansion while the student keeps the
native id.
"""

import numpy as np

from rsdkit import DualContext, build_vocab_map, replay_student_context, suppress
from rsdkit.models import Distribution

TEACHER_VOCAB = 152064
STUDENT_VOCAB = 151936  # teacher has 128 extra entries

vmap = build_vocab_map(
    TEACHER_VOCAB,
    STUDENT_VOCAB,
    expansions={
        151665: (27, 26865, 29),
        151668: (522, 26865, 29),
    },
)
print(f"suppressed teacher ids: {len(vmap.suppressed)} "
      f"(128 surplus + {len(vmap.expansions)} marker homonyms)")
print("expansion for 151668:", vmap.expand(151668))

# suppression zeroes the teacher-only ids and renormalizes the rest
row = np.zeros(TEACHER_VOCAB)
row[10] = 0.6
row[20] = 0.2
row[STUDENT_VOCAB:] = 0.2 / 128  # probability stranded on teacher-only ids
filtered = suppress(Distribution(row), vmap)
print(f"\nafter suppression: sum={filtered.probs.sum():.12f}, "
      f"p(10)={filtered.probs[10]:.4f} (was 0.6, rescaled by 1/0.8)")

# dual contexts: one semantic stream, two token renderings
ctx = DualContext(64)
for token in [100, 151668, 7, 151665]:
    ctx.append(token, vmap)
print("\nstudent context:", ctx.student)
print("teacher context:", ctx.teacher)

# the replay check: re-deriving the teacher stream from the student stream
# must reproduce it exactly
assert replay_student_context(ctx.student, vmap) == ctx.teacher
print("replay verification: OK")
