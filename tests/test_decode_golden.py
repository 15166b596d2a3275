"""Golden digests of decoded traces over a grid of regimes and settings.

Each case decodes one 32-token trace with small table/n-gram models, or, in
the scale grid, one 256-token trace (one case: 2,048 tokens) with n-gram
models at V=32,064/32,000 under a suppressing map, and compares the sha256 of
``Trace.to_json_line()`` (or of the error the decode raised) with a digest
recorded from the reference implementation. Any change to a decoded byte, an
error type or an error message fails the case.
"""

from __future__ import annotations

import functools
import hashlib
import itertools

import numpy as np
import pytest

from rsdkit.decoding import REGIMES, GenerationConfig, decode
from rsdkit.models import NgramModel, TableModel
from rsdkit.vocab import build_vocab_map

SEED = 2024
PROMPT = (0, 3)


def _row(weights) -> np.ndarray:
    w = np.asarray(weights, dtype=np.float64)
    return w / w.sum()


def _student() -> NgramModel:
    corpus = [(7 * i + i // 5) % 11 for i in range(400)] + [1, 4, 1, 9, 11]
    return NgramModel(corpus, order=2, smoothing=0.05, vocab_size=12, eos_token=11)


def _teacher(vocab: int) -> TableModel:
    rng = np.random.default_rng(vocab)
    rare = np.ones(vocab)
    rare[11:] = 0.02  # EOS and the teacher-only ids
    rows = {
        (3,): _row(rng.dirichlet(np.ones(vocab) * 0.5) * rare),
        (5, 6): _row(rng.dirichlet(np.ones(vocab) * 0.3) * rare),
        (2,): _row(rng.dirichlet(np.ones(vocab) * 2.0) * rare),
        (4, 1): _row(rng.dirichlet(np.ones(vocab)) * rare),
    }
    return TableModel(rows, _row(rng.dirichlet(np.ones(vocab)) * rare), eos_token=11)


def _pair(aligned: bool):
    """Identity pair (both V=12), or a wider teacher (V=14) with its two
    teacher-only ids suppressed and student id 1 expanding to (5, 6)."""
    if not aligned:
        return _teacher(12), _student(), None
    return _teacher(14), _student(), build_vocab_map(14, 12, {1: (5, 6)})


GRID = list(
    itertools.product(REGIMES, (0.7, 1.0), (True, False), (False, True), (0.0, 0.05, 0.3))
)


def _case_id(case) -> str:
    regime, temperature, raw, aligned, p_th = case
    return (
        f"{regime}-T{temperature:g}-{'raw' if raw else 'tempered'}"
        f"-{'aligned' if aligned else 'identity'}-p{p_th:g}"
    )


def _digest(case) -> str:
    regime, temperature, raw, aligned, p_th = case
    teacher, student, vmap = _pair(aligned)
    cfg = GenerationConfig(
        p_th=p_th,
        max_tokens=32,
        temperature=temperature,
        context_limit=128,
        seed=SEED,
        regime=regime,
        threshold_uses_raw=raw,
    )
    try:
        line = decode(teacher, student, PROMPT, cfg, vmap).to_json_line()
    except Exception as exc:  # the error is part of the contract too
        line = f"error: {type(exc).__name__}: {exc}"
    return hashlib.sha256(line.encode("utf-8")).hexdigest()


GOLDEN: dict[str, str] = {
    "rsd-T0.7-raw-identity-p0": "f15fd72748275fadf04666e3438fff229b7191b27dd098ef08057783af16bfd4",
    "rsd-T0.7-raw-identity-p0.05": "3699c2b64e8949bb80a98e6c7c9d19bc4ba946e5876b31b8f8bd3a34bb54e290",
    "rsd-T0.7-raw-identity-p0.3": "b5768c69fe2c55cf83de4fd86f0225d49ac8c4d3f3d7aa4e06ec3b14205d32de",
    "rsd-T0.7-raw-aligned-p0": "56b7d33955aa6deef42fe3b3035a425caa0eca992ce3c411ade675c8c207ec82",
    "rsd-T0.7-raw-aligned-p0.05": "97a349947bd4c1b8485f0c5fd5df4318d82aef2fbc211005b7f00d2fe2d8b895",
    "rsd-T0.7-raw-aligned-p0.3": "4066d998f455caf1b41bb14b533d73a0d8ad40d5aece9173edb57fbba82ee6a7",
    "rsd-T0.7-tempered-identity-p0": "e71bb50d0e24c10810af408baa4343a0c46afd94e3fcca39b323eff45f5fc49a",
    "rsd-T0.7-tempered-identity-p0.05": "5d6e3bf69fa337e8f854f7fed3907696733f6d02da91bb91cdc08a57a369e02f",
    "rsd-T0.7-tempered-identity-p0.3": "c1f692333169fa11dba51a3c9c0e1282a8f4605be32628994bdadb8ba09d5ac1",
    "rsd-T0.7-tempered-aligned-p0": "d2a88f0d378816b48a727c2a8a1d8a1aef52fa3646e1f77acf5e81bf3026aced",
    "rsd-T0.7-tempered-aligned-p0.05": "b1e700b387f97a01c61aa8470d163d0a7db7ca8570890afee6f98efd2bd95c12",
    "rsd-T0.7-tempered-aligned-p0.3": "a61a50a5469e9e2c2df190151a60f89170ef9fd9268a361b70c7ea5183082498",
    "rsd-T1-raw-identity-p0": "9a4f5b565a6f540d2d5c7ac4b6226ce8a4a2eee9a5cabc0bcc4f9a00ca5f1ccf",
    "rsd-T1-raw-identity-p0.05": "91663d62097deca8a265615622dfacc6d14490ac0ba2775462cd8ed285faca75",
    "rsd-T1-raw-identity-p0.3": "0b0e9e249ac07acf00e3171d44f8d10c3e8b10351767ac800ead5a9163ac8c6d",
    "rsd-T1-raw-aligned-p0": "cea7e0a640e682df5d3f35e2a3f5270497c91087af22beacadff5faec28b1a86",
    "rsd-T1-raw-aligned-p0.05": "2c9221f4bee4b63d2ef39060af0bfd0565defdddd552f834d91a15c39be0e5cb",
    "rsd-T1-raw-aligned-p0.3": "baf894fc11805cb6e9c586c5f7f39a15b8b74a708d25abc65f2915caf7262f54",
    "rsd-T1-tempered-identity-p0": "945a57fe393cddfc39c3b15fae21c26493a281a536dc1099a954234fc45992d7",
    "rsd-T1-tempered-identity-p0.05": "475aa70d9e235212126667477d8af75908f85c5e651c029ff1f98b92fa7265f8",
    "rsd-T1-tempered-identity-p0.3": "9f66c1d3bbabbe2e357447426dd7bf893d4d2f2bf3207ba5aeab2e023b721839",
    "rsd-T1-tempered-aligned-p0": "60f7b1de8cd7c06040e6ffe9875dd979698f1a574a83908c2c754d4af0c24906",
    "rsd-T1-tempered-aligned-p0.05": "c0c8677a11a419c0f0bba82c62893c2e06cfd4897167c7f81535b96654a091cb",
    "rsd-T1-tempered-aligned-p0.3": "26a54b04519e1a2360b893e890ff1b1a858170da5f783bb9ccb314174fddd6a5",
    "skd-T0.7-raw-identity-p0": "a6fc2b84f96a894bdc1adc079e9453e2769c1349434562439c05de9ded355e06",
    "skd-T0.7-raw-identity-p0.05": "15f9369c850d2b3267bec7e024096a2957cea6be2d0e7411bda7f9158997ecd9",
    "skd-T0.7-raw-identity-p0.3": "150c0199e518f3f2ec40d33b4374786fca15bf867237cc472e84557945a76864",
    "skd-T0.7-raw-aligned-p0": "6a973f858e392e6eee177b41cd5260babfc21d27caa716c883fc449320e848df",
    "skd-T0.7-raw-aligned-p0.05": "2ba2a51c1192b567b1388ce7ffdc83d8543b6f080fee2aa4fde01a786f97da2e",
    "skd-T0.7-raw-aligned-p0.3": "00392d02584a4e87cee910520f83bfa7f69558a2d8d2a3e54170f3babdc948d0",
    "skd-T0.7-tempered-identity-p0": "f32492412220e9422b408d8d6d6046c5a0430f6a8bb11f3f9d49bc6098949e81",
    "skd-T0.7-tempered-identity-p0.05": "a080b03941e57dd4c5e3b877cf875d00a164ecee7b8c085d6cb424c799158c96",
    "skd-T0.7-tempered-identity-p0.3": "2f0dd99e2d2c7516a2b0c4ea95bccd91ddecf961fab2d6e0cbc1c9b455d5f4a8",
    "skd-T0.7-tempered-aligned-p0": "04a4a5b2dfeb8283f609b7e6edb4dca668f69938995c15b913348645ec6060c1",
    "skd-T0.7-tempered-aligned-p0.05": "566114dd49a46d393acd63e69beb58972bf35388091d011ce502b6a20a5898db",
    "skd-T0.7-tempered-aligned-p0.3": "c7b8cd0c3112aece2db080f9b5c5b82a7c0c3c2d1a1d9786dc32eb8fef07cec3",
    "skd-T1-raw-identity-p0": "70a5f7b756e7bec5a2c3edc72f5d2c944c86a8fa76d7a79b32f8ee287399fb8f",
    "skd-T1-raw-identity-p0.05": "39459f1c3e8b7e14f2e4752e8d95be9007cafd89cf00fe9fd959aa0ba1253102",
    "skd-T1-raw-identity-p0.3": "5893deeb97e3938cabee9424ff8e01e57a381f38035ef683f0a48f295c897298",
    "skd-T1-raw-aligned-p0": "a071fcb3526928f7c559bb8ce2b8b14d2b4906d536c4841c6e3cc8d0b1542364",
    "skd-T1-raw-aligned-p0.05": "a343892291500c61799b1302cd9ffd013d63aaea5c2f85c3cfeb66c448112777",
    "skd-T1-raw-aligned-p0.3": "544acf04b2360ae358b04920c7ba75ebd5808bf27df26d6fbf651a0b15afa37c",
    "skd-T1-tempered-identity-p0": "181a41fdcd80f69893a7051e1d4f27e166cc163a51b9e79fb9bbc8182c8b0d71",
    "skd-T1-tempered-identity-p0.05": "b86716efaf1586787a6bd011f690b7bc2be2b30a11975563f4ba35aebb1a8df0",
    "skd-T1-tempered-identity-p0.3": "48d1850f123844f304b2c1463e60b0164041116c54dad88a6ec172ad4444bbf5",
    "skd-T1-tempered-aligned-p0": "7f0e82829163f02fb326ede57aee6790214d7aabc563318b1314e2bc5cc13413",
    "skd-T1-tempered-aligned-p0.05": "6b337150ea3ece57e173c408a443e73871364aa3484c668b9cec5011b2fa645e",
    "skd-T1-tempered-aligned-p0.3": "f01791b578cfc1cc00dc4fed7c61d5a43e41fc653f636dc6dc9c9c0070dc238a",
    "solo-teacher-T0.7-raw-identity-p0": "68e12051e673793ae5836ebbb108e39b73d19b6e90387323ac02c15f37e3d3e5",
    "solo-teacher-T0.7-raw-identity-p0.05": "d6741f6447eb31bb93583fcb782d24e46681c58c938e09360e4c3902e2c96f31",
    "solo-teacher-T0.7-raw-identity-p0.3": "7f9cf681586f9da430be2ca254fc1b97fc4fedf7c2794e1034b7ed6f41b9e957",
    "solo-teacher-T0.7-raw-aligned-p0": "cccb69e7efd039fa85b6eb2b3c1881b8b452336bc04fd06b049a51316d1dac1a",
    "solo-teacher-T0.7-raw-aligned-p0.05": "cccb69e7efd039fa85b6eb2b3c1881b8b452336bc04fd06b049a51316d1dac1a",
    "solo-teacher-T0.7-raw-aligned-p0.3": "cccb69e7efd039fa85b6eb2b3c1881b8b452336bc04fd06b049a51316d1dac1a",
    "solo-teacher-T0.7-tempered-identity-p0": "c55b1ee861e50a25a7b5a1438e79569f63a17ce823c02b44a54c549880504b6d",
    "solo-teacher-T0.7-tempered-identity-p0.05": "197e5809e4a326f0e0a8df22c0c6d9dcf1c8c208c6ccecb8500fae80fbf10e87",
    "solo-teacher-T0.7-tempered-identity-p0.3": "f4e967c75404cecc27241f66ea11d131efdb4e716a909a5ded4fdc0f1a138340",
    "solo-teacher-T0.7-tempered-aligned-p0": "cccb69e7efd039fa85b6eb2b3c1881b8b452336bc04fd06b049a51316d1dac1a",
    "solo-teacher-T0.7-tempered-aligned-p0.05": "cccb69e7efd039fa85b6eb2b3c1881b8b452336bc04fd06b049a51316d1dac1a",
    "solo-teacher-T0.7-tempered-aligned-p0.3": "cccb69e7efd039fa85b6eb2b3c1881b8b452336bc04fd06b049a51316d1dac1a",
    "solo-teacher-T1-raw-identity-p0": "746e03af87b221cfe6d848b69381bf17a23a7ba08a9576ac38eeda99b8acb15f",
    "solo-teacher-T1-raw-identity-p0.05": "82c5a8a77d98eea8c4af10a55fda2cac69735b68f1be82c6e9e5586252e3ff30",
    "solo-teacher-T1-raw-identity-p0.3": "7be05136d2b5adca52aeb45a152fb6afeec118c3382d5cef884a07de7abee2e0",
    "solo-teacher-T1-raw-aligned-p0": "cccb69e7efd039fa85b6eb2b3c1881b8b452336bc04fd06b049a51316d1dac1a",
    "solo-teacher-T1-raw-aligned-p0.05": "cccb69e7efd039fa85b6eb2b3c1881b8b452336bc04fd06b049a51316d1dac1a",
    "solo-teacher-T1-raw-aligned-p0.3": "cccb69e7efd039fa85b6eb2b3c1881b8b452336bc04fd06b049a51316d1dac1a",
    "solo-teacher-T1-tempered-identity-p0": "fe5165834ee25a517090982384b174c0342393fb3940d0b6cf887bf7d8ffa5f2",
    "solo-teacher-T1-tempered-identity-p0.05": "a4aeec9dd0fc1decd8cd5c5c76dc9a963b2b248dcd881fe3a1c573d338962d25",
    "solo-teacher-T1-tempered-identity-p0.3": "9e249b89f2ed1e7d13be250e0391d06d4ef3c4c538b0bb99376615f4bb9346eb",
    "solo-teacher-T1-tempered-aligned-p0": "cccb69e7efd039fa85b6eb2b3c1881b8b452336bc04fd06b049a51316d1dac1a",
    "solo-teacher-T1-tempered-aligned-p0.05": "cccb69e7efd039fa85b6eb2b3c1881b8b452336bc04fd06b049a51316d1dac1a",
    "solo-teacher-T1-tempered-aligned-p0.3": "cccb69e7efd039fa85b6eb2b3c1881b8b452336bc04fd06b049a51316d1dac1a",
    "solo-student-T0.7-raw-identity-p0": "2de12eabecb7946e492699ac203cc0b4fc32f56c5a82c2a1fcf42267450d0a5d",
    "solo-student-T0.7-raw-identity-p0.05": "62aa3e193360ddb94643765a8782fca9062ff6d321fdcdbf09ba472a56d0b4df",
    "solo-student-T0.7-raw-identity-p0.3": "dc0d3253768c4109d219c7c143e696a21ef0de5a212e7215786874a3acea9988",
    "solo-student-T0.7-raw-aligned-p0": "2de12eabecb7946e492699ac203cc0b4fc32f56c5a82c2a1fcf42267450d0a5d",
    "solo-student-T0.7-raw-aligned-p0.05": "62aa3e193360ddb94643765a8782fca9062ff6d321fdcdbf09ba472a56d0b4df",
    "solo-student-T0.7-raw-aligned-p0.3": "dc0d3253768c4109d219c7c143e696a21ef0de5a212e7215786874a3acea9988",
    "solo-student-T0.7-tempered-identity-p0": "1c399197e7b67bc0329a259a2dd9efa29b5cc6a0aa5b1aa6434258e4e4c2af3b",
    "solo-student-T0.7-tempered-identity-p0.05": "5268744eb0ef6885bae6d52e8b74205acc5983d14f2201dcb1cb1fd0dd90946f",
    "solo-student-T0.7-tempered-identity-p0.3": "2f6d28cc526fedd8862fca496e9587ac00c95976fad1530e783e65f5738ca7d7",
    "solo-student-T0.7-tempered-aligned-p0": "1c399197e7b67bc0329a259a2dd9efa29b5cc6a0aa5b1aa6434258e4e4c2af3b",
    "solo-student-T0.7-tempered-aligned-p0.05": "5268744eb0ef6885bae6d52e8b74205acc5983d14f2201dcb1cb1fd0dd90946f",
    "solo-student-T0.7-tempered-aligned-p0.3": "2f6d28cc526fedd8862fca496e9587ac00c95976fad1530e783e65f5738ca7d7",
    "solo-student-T1-raw-identity-p0": "6b9df6ed266fc69849990ffcaca75432ff79fa7a9b23ab448badd3ceb34b3a87",
    "solo-student-T1-raw-identity-p0.05": "39a61fccb60817b4a139daf66bdfc4e93907e6fc98c0d416c3799156f93a0825",
    "solo-student-T1-raw-identity-p0.3": "fb8d487a743fd0dfcc9710904b54a7eec1a9540b9b41558a60f81042239f05c4",
    "solo-student-T1-raw-aligned-p0": "6b9df6ed266fc69849990ffcaca75432ff79fa7a9b23ab448badd3ceb34b3a87",
    "solo-student-T1-raw-aligned-p0.05": "39a61fccb60817b4a139daf66bdfc4e93907e6fc98c0d416c3799156f93a0825",
    "solo-student-T1-raw-aligned-p0.3": "fb8d487a743fd0dfcc9710904b54a7eec1a9540b9b41558a60f81042239f05c4",
    "solo-student-T1-tempered-identity-p0": "2efaa378b5a620dd0bb9b0df522da64b7d59bd4a5029385250f24c9f49f4d487",
    "solo-student-T1-tempered-identity-p0.05": "406c56dbb1eca07d596c93116e7a015a5a998f2895bdefa799a183b7c6c35788",
    "solo-student-T1-tempered-identity-p0.3": "b51ccec7082cdd1e206243cf0d75d1753efde96b661a0e50dfa9725d77dc89c0",
    "solo-student-T1-tempered-aligned-p0": "2efaa378b5a620dd0bb9b0df522da64b7d59bd4a5029385250f24c9f49f4d487",
    "solo-student-T1-tempered-aligned-p0.05": "406c56dbb1eca07d596c93116e7a015a5a998f2895bdefa799a183b7c6c35788",
    "solo-student-T1-tempered-aligned-p0.3": "b51ccec7082cdd1e206243cf0d75d1753efde96b661a0e50dfa9725d77dc89c0",
}


@pytest.mark.parametrize("case", GRID, ids=_case_id)
def test_decode_matches_golden_digest(case):
    assert _digest(case) == GOLDEN[_case_id(case)]


# --- at scale: n-gram rows at V=32,064 under suppression --------------------------------

SCALE_MARKERS = {1: (11, 12), 2: (13, 14)}  # student-only markers spelt as teacher pairs


def _scale_corpus(states: np.ndarray, successors: np.ndarray, seed: int, teacher: bool) -> list[int]:
    """A 40k-token walk of the chain, with a marker (student) or its pair (teacher) after 2% of tokens."""
    rng = np.random.default_rng([SEED, seed])
    steps = rng.integers(0, successors.shape[1], 40_000)
    marks, picks = rng.random(40_000) < 0.02, rng.integers(1, 3, 40_000)
    out, state = [], 0
    for step, mark, pick in zip(steps.tolist(), marks.tolist(), picks.tolist()):
        out.append(int(states[state]))
        if mark:
            out.extend(SCALE_MARKERS[pick] if teacher else (pick,))
        state = int(successors[state, step])
    return out


@functools.cache
def _scale_pair():
    """A bigram teacher at V=32,064 with tiny smoothing (its unseen contexts give the uniform row)
    and a trigram student at V=32,000 with none (its unseen contexts back off), both walking one
    sparse chain whose 2,000 states include id 1, so the teacher also holds mass at the
    suppressed homonym of marker 1; the map suppresses teacher ids 1, 2 and 32,000-32,063."""
    rng = np.random.default_rng(SEED)
    states = np.concatenate([[1], rng.choice(np.arange(15, 32_000), 1_999, replace=False)])
    successors = rng.integers(0, states.size, size=(states.size, 4))
    student_corpus = _scale_corpus(states, successors, 1, teacher=False)
    teacher = NgramModel(_scale_corpus(states, successors, 2, teacher=True), 2, 1e-5, vocab_size=32_064, eos_token=0)
    student = NgramModel(student_corpus, 3, 0.0, vocab_size=32_000, eos_token=0)
    return teacher, student, build_vocab_map(32_064, 32_000, SCALE_MARKERS), tuple(student_corpus[:16])


# (regime, temperature, raw threshold, tokens): T = 1 samples the raw values, cut at suppressed id 1
SCALE_GRID = [(regime, temperature, True, 256) for regime in REGIMES for temperature in (0.7, 1.3)]
SCALE_GRID += [("rsd", temperature, False, 256) for temperature in (0.7, 1.3)]
SCALE_GRID += [(regime, 1.0, True, 256) for regime in ("rsd", "skd", "solo-teacher")]
SCALE_GRID += [("rsd", 0.7, True, 2048)]


def _scale_id(case) -> str:
    regime, temperature, raw, tokens = case
    return f"{regime}-T{temperature:g}-{'raw' if raw else 'tempered'}-v32k" + ("" if tokens == 256 else f"-{tokens}")


def _scale_line(case) -> str:
    regime, temperature, raw, tokens = case
    teacher, student, vmap, prompt = _scale_pair()
    cfg = GenerationConfig(p_th=0.05, max_tokens=tokens, temperature=temperature, context_limit=2 * tokens,
                           seed=SEED, regime=regime, threshold_uses_raw=raw)
    return decode(teacher, student, prompt, cfg, vmap).to_json_line()


def _scale_digest(case) -> str:
    try:
        line = _scale_line(case)
    except Exception as exc:
        line = f"error: {type(exc).__name__}: {exc}"
    return hashlib.sha256(line.encode("utf-8")).hexdigest()


SCALE_GOLDEN: dict[str, str] = {
    "rsd-T0.7-raw-v32k": "4ad61ff7ba1d5c9ce16d619f0aa06c08fac248037781ee35b78711aee7115fc0",
    "rsd-T1.3-raw-v32k": "7a323bd945d013cf2470530d97639cad2390f96aa857038ca823d9fa9caa506a",
    "skd-T0.7-raw-v32k": "1376ccd60c91682e49f1241aa8694a6f72c334eb527f1ebb9ff791b98fba52d9",
    "skd-T1.3-raw-v32k": "014ab39f7b6a64d37d6b41a43c9833074895d25960f57b9482349589d1c9c17f",
    "solo-teacher-T0.7-raw-v32k": "d7ebed6dbd0dddbd7d04438d6262afcaa0cd05b4eb9b40c2661fad93ecb384cd",
    "solo-teacher-T1.3-raw-v32k": "d920b8b775b99561d968205f62cca2beccf4e80cf0e2bbe3cdcc2093fbfd05f3",
    "solo-student-T0.7-raw-v32k": "2d468a80f2c83d95babfdcabf9eec749ec93e4431a6400bab49e4f11417126d0",
    "solo-student-T1.3-raw-v32k": "0740ad94ac1c45851393eed08194b009cdeefb57de58cec28562dc2ee31837a4",
    "rsd-T0.7-tempered-v32k": "5a32539f8c78b48f9dd9aa61271aaef34d509d663f22848558faf901260894f2",
    "rsd-T1.3-tempered-v32k": "5b29c3a87431f531030bde1061dd869b8f3a86b24212d070b6cfca57d6e17577",
    "rsd-T1-raw-v32k": "f32fac0d478a5682c41da27acb2eeb372d7beb59780fec357a27014046b2d4ea",
    "skd-T1-raw-v32k": "63ee9f53806c1e3da31c9e8af0156d1683947ddb9e56b2f46a622af682121908",
    "solo-teacher-T1-raw-v32k": "ca76030e8a64168c3adb05f17deacdc805abf51774b4e4015a5a80ae7d9e6cef",
    "rsd-T0.7-raw-v32k-2048": "37ba1b3bab0c9daf59ea465e122a640de32b220399f253a1fb8f2e75c4e77b4e",
}


@pytest.mark.parametrize("case", SCALE_GRID, ids=_scale_id)
def test_decode_at_scale_matches_golden_digest(case):
    assert _scale_digest(case) == SCALE_GOLDEN[_scale_id(case)]


def test_scale_decode_builds_no_dense_row(monkeypatch):
    """The at-scale decode samples and scores n-gram rows from their sparse form alone; a row's
    dense vector, built when read afterwards, is the fill with the hit values scattered in."""
    teacher, student, _, _ = _scale_pair()
    rows = []
    for model in (teacher, student):
        def recording(context, inner=model.next_distribution):
            rows.append(inner(context))
            return rows[-1]

        monkeypatch.setattr(model, "next_distribution", recording)
    case = ("rsd", 0.7, True, 256)
    assert hashlib.sha256(_scale_line(case).encode("utf-8")).hexdigest() == SCALE_GOLDEN[_scale_id(case)]
    assert len(rows) >= 2 * 256
    assert all(row._probs is None for row in rows)
    for row in rows:
        size, fill, ids, values = row.sparse
        dense = np.full(size, fill)
        dense[ids] = values
        assert row.probs.tobytes() == dense.tobytes()
