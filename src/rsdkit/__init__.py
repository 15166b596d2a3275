"""Coordinated teacher/student decoding and distillation dataset tooling.

The teacher proposes each token; the student accepts it only when its own
probability for that token clears a threshold, otherwise the student samples
the token itself. Verified traces (plus salvage prefixes for unsolved
problems) become training datasets, with full per-token information-theoretic
annotations along the way.
"""

from .decoding import (
    GenerationConfig,
    TokenRecord,
    Trace,
    decode,
)
from .metrics import (
    dataset_report,
    low_prob_token_tally,
    records_perplexity,
    step_entropy,
)
from .models import (
    ContextOverflowError,
    Distribution,
    EmptySupportError,
    LanguageModel,
    NgramModel,
    TableModel,
    apply_temperature,
    sample,
)
from .pipeline import (
    AttemptOutcome,
    DataError,
    DatasetRecord,
    Problem,
    RejectionResult,
    Verifier,
    assemble_dataset,
    export_dataset,
    import_dataset,
    problem_record,
    read_traces_jsonl,
    rejection_sample,
    run_generation,
    score_external_traces,
)
from .remote import (
    BackendEndpoint,
    BackendError,
    BackendUnavailableError,
    CapabilityMismatchError,
    RemoteModel,
    handshake,
)
from .seeding import StepStream, derive_seed
from .stub_server import StubServer
from .vocab import (
    DualContext,
    VocabularyAlignmentError,
    VocabularyMap,
    build_vocab_map,
    replay_student_context,
    suppress,
)

__version__ = "0.1.0"
