"""Structural outputs pinned as one SHA-256 digest per length pair.

For every valid cyclic spec at (alpha, beta), in enumeration order, the
digest covers the group basis rows and pivots, the standard form blocks
with their column orders, ``code_type()``, the basis masks of
``project_x()`` in descending order (none at alpha = 0), the Howell
rows, the ``contains`` verdicts on fixed probe words and, for codes of
at most ``COUNTING_LIMIT`` words, ``type_by_counting``.
One more digest covers the same outputs for the five-row non-cyclic
code, the ``random`` digest for a fixed, seeded list of ``RANDOM_CODES``
non-cyclic codes with 1 <= alpha, beta <= 6, and the ``pure`` digest for
``PURE_CODES`` seeded codes that are purely quaternary (alpha = 0) or
purely binary (beta = 0).  All of these are canonical forms, so any
change to the elimination code that moves a single row, pivot or type
parameter shows up here.  Regenerate the expected digests with

    PYTHONPATH=src python tests/test_structure_golden.py > tests/golden/structure.json
"""

import hashlib
import json
import random
from pathlib import Path

import pytest

from z2z4.code import AdditiveCode, Word, howell_rows, standard_form, type_by_counting
from z2z4.cyclic import enumerate_cyclic_specs, materialize

GOLDEN = Path(__file__).resolve().parent / "golden" / "structure.json"
ALPHAS = range(1, 7)
BETAS = (1, 3, 5, 7, 9)
COUNTING_LIMIT = 1 << 14
NON_CYCLIC_ROWS = ("100|000", "010|000", "001|200", "000|110", "000|101")
RANDOM_SEED = 2010
RANDOM_CODES = 2000
PURE_SEED = 2017
PURE_CODES = 1000


def _probes(code: AdditiveCode) -> list[Word]:
    """Words whose membership is not decided by the basis alone.

    The fixed probes put a 1 only in the blocks that exist, so a purely
    binary or purely quaternary code can be probed too.
    """
    a, b = code.alpha, code.beta
    return [w.shift() + w for w in code.basis_words()] + [
        Word(a, b, int(a > 0), int(b > 0), 0),
        Word(a, b, 0, 0, int(b > 0)),
    ]


def _x_basis(code: AdditiveCode) -> tuple[int, ...]:
    if code.alpha == 0:
        return ()
    return tuple(sorted((w.u for w in code.project_x().basis_words()), reverse=True))


def _structure(code: AdditiveCode) -> tuple:
    gb = code.basis
    sf = standard_form(code)
    counted = type_by_counting(code) if gb.size <= COUNTING_LIMIT else None
    return (
        gb.rows4, gb.pivots4, gb.rows2, gb.pivots2,
        sf.kappa1_rows, sf.kappa2_rows, sf.even_rows, sf.quaternary_rows,
        sf.x_order, sf.y_order,
        repr(code.code_type()), _x_basis(code), repr(counted),
        howell_rows(code.alpha, code.beta, code.generators), tuple(code.contains(w) for w in _probes(code)),
    )


def _digest(codes) -> str:
    h = hashlib.sha256()
    for code in codes:
        h.update(repr(_structure(code)).encode())
        h.update(b"\n")
    return h.hexdigest()


def _cyclic_digest(alpha: int, beta: int) -> str:
    return _digest(materialize(s) for s in enumerate_cyclic_specs(alpha, beta))


def _non_cyclic_digest() -> str:
    return _digest([AdditiveCode(3, 3, [Word.parse(r) for r in NON_CYCLIC_ROWS])])


def _random_code(rng: random.Random, a: int, b: int) -> AdditiveCode:
    """A code from one to six seeded generators.

    Each generator is, with equal odds, a general word, an order-2 word or
    a binary-only word, so that every block of the standard form occurs.
    """
    gens = []
    for _ in range(rng.randint(1, 6)):
        kind = rng.randrange(3)
        lo = rng.getrandbits(b) if kind == 0 else 0
        hi = rng.getrandbits(b) if kind < 2 else 0
        gens.append(Word(a, b, rng.getrandbits(a), lo, hi))
    return AdditiveCode(a, b, gens)


def _random_codes() -> list[AdditiveCode]:
    """``RANDOM_CODES`` seeded non-cyclic codes with 1 <= alpha, beta <= 6."""
    rng = random.Random(RANDOM_SEED)
    codes: list[AdditiveCode] = []
    while len(codes) < RANDOM_CODES:
        code = _random_code(rng, rng.randint(1, 6), rng.randint(1, 6))
        if not code.is_cyclic():
            codes.append(code)
    return codes


def _pure_codes() -> list[AdditiveCode]:
    """``PURE_CODES`` seeded codes, each with alpha = 0 or beta = 0.

    With equal odds, alpha = 0 and 1 <= beta <= 6, or 1 <= alpha <= 6 and
    beta = 0; cyclic codes are kept too.
    """
    rng = random.Random(PURE_SEED)
    codes: list[AdditiveCode] = []
    for _ in range(PURE_CODES):
        n = rng.randint(1, 6)
        a, b = (0, n) if rng.randrange(2) else (n, 0)
        codes.append(_random_code(rng, a, b))
    return codes


def digests() -> dict[str, str]:
    out = {f"{a},{b}": _cyclic_digest(a, b) for a in ALPHAS for b in BETAS}
    out["non-cyclic"] = _non_cyclic_digest()
    out["random"] = _digest(_random_codes())
    out["pure"] = _digest(_pure_codes())
    return out


@pytest.fixture(scope="module")
def expected() -> dict[str, str]:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("beta", BETAS)
def test_cyclic_structure_matches_golden(alpha, beta, expected):
    assert _cyclic_digest(alpha, beta) == expected[f"{alpha},{beta}"]


def test_non_cyclic_structure_matches_golden(expected):
    assert _non_cyclic_digest() == expected["non-cyclic"]


def test_random_structure_matches_golden(expected):
    assert _digest(_random_codes()) == expected["random"]


def test_pure_structure_matches_golden(expected):
    assert _digest(_pure_codes()) == expected["pure"]


if __name__ == "__main__":
    print(json.dumps(digests(), indent=1))
