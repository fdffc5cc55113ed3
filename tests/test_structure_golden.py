"""Structural outputs pinned as one SHA-256 digest per length pair.

For every valid cyclic spec at (alpha, beta), in enumeration order, the
digest covers the group basis rows and pivots, the standard form blocks
with their column orders, ``code_type()``, the basis of ``project_x()``,
the Howell rows, the ``contains`` verdicts on fixed probe words and,
for codes of at most ``COUNTING_LIMIT`` words, ``type_by_counting``.
One more digest covers the same outputs for the five-row non-cyclic
code, and the ``random`` digest for a fixed, seeded list of
``RANDOM_CODES`` non-cyclic codes with 1 <= alpha, beta <= 6.  All of
these are canonical forms, so any change to the elimination code that
moves a single row, pivot or type parameter shows up here.  Regenerate
the expected digests with

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


def _probes(code: AdditiveCode) -> list[Word]:
    """Words whose membership is not decided by the basis alone."""
    a, b = code.alpha, code.beta
    return [w.shift() + w for w in code.basis_words()] + [
        Word(a, b, 1, 1, 0),
        Word(a, b, 0, 0, 1),
    ]


def _structure(code: AdditiveCode) -> tuple:
    gb = code.basis
    sf = standard_form(code)
    counted = type_by_counting(code) if gb.size <= COUNTING_LIMIT else None
    return (
        gb.rows4, gb.pivots4, gb.rows2, gb.pivots2,
        sf.kappa1_rows, sf.kappa2_rows, sf.even_rows, sf.quaternary_rows,
        sf.x_order, sf.y_order,
        repr(code.code_type()), code.project_x().basis, repr(counted),
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


def _random_codes() -> list[AdditiveCode]:
    """``RANDOM_CODES`` seeded non-cyclic codes from one to six generators.

    Each generator is, with equal odds, a general word, an order-2 word or
    a binary-only word, so that every block of the standard form occurs.
    """
    rng = random.Random(RANDOM_SEED)
    codes: list[AdditiveCode] = []
    while len(codes) < RANDOM_CODES:
        a, b = rng.randint(1, 6), rng.randint(1, 6)
        gens = []
        for _ in range(rng.randint(1, 6)):
            kind = rng.randrange(3)
            lo = rng.getrandbits(b) if kind == 0 else 0
            hi = rng.getrandbits(b) if kind < 2 else 0
            gens.append(Word(a, b, rng.getrandbits(a), lo, hi))
        code = AdditiveCode(a, b, gens)
        if not code.is_cyclic():
            codes.append(code)
    return codes


def digests() -> dict[str, str]:
    out = {f"{a},{b}": _cyclic_digest(a, b) for a in ALPHAS for b in BETAS}
    out["non-cyclic"] = _non_cyclic_digest()
    out["random"] = _digest(_random_codes())
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


if __name__ == "__main__":
    print(json.dumps(digests(), indent=1))
