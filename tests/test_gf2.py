"""Binary polynomial arithmetic, factorization, and the two product maps."""

import random

import pytest
from hypothesis import given, strategies as st

from z2z4.cyclic import _deg
from z2z4.errors import SizeGuardError
from z2z4.gf2 import (
    BIN_ONE,
    BIN_ZERO,
    BinPoly,
    binary_factors,
    cyclotomic_cosets,
    divisor_mask,
    divisors_of_xn1,
    ext_gcd2,
    factor_xn1_gf2,
    gcd2,
    invert_mod2,
    pairwise_product_span,
    root_exponents,
    rotate_mask,
    tensor_square,
    xn_minus_1,
)
from z2z4.z4 import Q_ONE, Q_ZERO, QuatPoly

polys = st.integers(min_value=0, max_value=(1 << 24) - 1).map(BinPoly)
nonzero_polys = st.integers(min_value=1, max_value=(1 << 24) - 1).map(BinPoly)

ODD_LENGTHS = (1, 3, 5, 7, 9, 15, 21, 31, 33, 63)


def test_parse_and_str():
    assert BinPoly.parse("x^3 + x + 1") == BinPoly(0b1011)
    assert BinPoly.parse("1+x") == BinPoly(0b11)
    assert BinPoly.parse("0") == BIN_ZERO
    assert str(BinPoly(0b1011)) == "1 + x + x^3"
    assert str(BIN_ZERO) == "0"
    assert BinPoly.parse(str(BinPoly(0b110101))) == BinPoly(0b110101)


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        BinPoly.parse("x^")
    with pytest.raises(ValueError):
        BinPoly.parse("x + + 1")
    with pytest.raises(ValueError):
        BinPoly.parse("")


def test_degree_conventions():
    assert BIN_ZERO.degree == Q_ZERO.degree == -1
    assert BIN_ONE.degree == Q_ONE.degree == 0
    assert BinPoly(1 << 5).degree == QuatPoly((0, 0, 0, 0, 0, 1)).degree == 5
    # the closed forms read only nonzero degrees
    with pytest.raises(ValueError, match="zero polynomial"):
        _deg(BIN_ZERO)
    assert _deg(BinPoly(1 << 5)) == 5


def test_divmod_exact():
    a = BinPoly.parse("x^5 + x^2 + 1")
    b = BinPoly.parse("x^2 + x + 1")
    q, r = divmod(a, b)
    assert q * b + r == a
    assert r.degree < b.degree
    with pytest.raises(ZeroDivisionError):
        divmod(a, BIN_ZERO)


@given(polys, polys)
def test_mul_commutes(a, b):
    assert a * b == b * a


@given(polys, polys, polys)
def test_mul_distributes(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(polys, nonzero_polys)
def test_divmod_identity(a, b):
    q, r = divmod(a, b)
    assert q * b + r == a
    assert r.is_zero or r.degree < b.degree


@given(polys, polys)
def test_ext_gcd_identity(a, b):
    g, s, t = ext_gcd2(a, b)
    assert s * a + t * b == g
    assert g == gcd2(a, b)
    if not a.is_zero:
        assert g.divides(a)
    if not b.is_zero:
        assert g.divides(b)


def test_invert_mod2():
    m = BinPoly.parse("x^3 + x + 1")
    a = BinPoly.parse("x + 1")
    inv = invert_mod2(a, m)
    assert (a * inv) % m == BIN_ONE
    with pytest.raises(ValueError):
        invert_mod2(xn_minus_1(3), xn_minus_1(6))


def test_rotate_mask():
    assert rotate_mask(0b001, 1, 3) == 0b010
    assert rotate_mask(0b100, 1, 3) == 0b001
    assert rotate_mask(0b101, 2, 5) == 0b10100
    assert rotate_mask(0b1, 0, 1) == 0b1


@pytest.mark.parametrize("n", ODD_LENGTHS)
def test_factorization_multiplies_back(n):
    prod = BIN_ONE
    for p in binary_factors(n):
        prod = prod * p
    assert prod == xn_minus_1(n)


@pytest.mark.parametrize("n", ODD_LENGTHS)
def test_cosets_partition(n):
    seen = []
    for coset in cyclotomic_cosets(n):
        assert coset[0] == min(coset) and coset == tuple(sorted(coset))
        for e in coset:
            assert (2 * e) % n in coset
        seen.extend(coset)
    assert sorted(seen) == list(range(n))


def test_factor_degrees_match_cosets():
    for coset, p in factor_xn1_gf2(21):
        assert p.degree == len(coset)
        assert root_exponents(p, 21) == frozenset(coset)


def test_field_guard():
    # ord_2(37) = 36, far beyond the extension-degree budget
    with pytest.raises(SizeGuardError):
        factor_xn1_gf2(37)
    with pytest.raises(ValueError):
        factor_xn1_gf2(6)


def test_divisors_of_xn1():
    # x^4 + 1 = (x + 1)^4 over GF(2): one divisor per multiplicity
    divs = divisors_of_xn1(4)
    assert len(divs) == 5
    assert BIN_ONE in divs
    assert xn_minus_1(4) in divs
    for d in divs:
        assert d.divides(xn_minus_1(4))
    # 3 irreducible factors at n=7 give 2^3 divisors
    assert len(divisors_of_xn1(7)) == 8


def test_tensor_square_small():
    p3 = BinPoly.parse("x^3 + x + 1")
    q3 = BinPoly.parse("x^3 + x^2 + 1")
    # {1,2,4} + {1,2,4} mod 7 covers every nonzero exponent
    assert tensor_square(p3, 7) == p3 * q3
    assert tensor_square(q3, 7) == p3 * q3
    assert tensor_square(BinPoly.parse("x + 1"), 7) == BinPoly.parse("x + 1")
    assert tensor_square(BIN_ONE, 7) == BIN_ONE


@pytest.mark.parametrize("n", (1, 3, 5, 7, 9, 15))
def test_tensor_square_roots(n):
    for p in divisors_of_xn1(n):
        if p.is_one or p == xn_minus_1(n):
            continue
        s = root_exponents(p, n)
        expected = frozenset((a + b) % n for a in s for b in s)
        assert root_exponents(tensor_square(p, n), n) == expected


@pytest.mark.parametrize("n", range(1, 22, 2))
def test_memoised_products_equal_their_originals(n):
    for p in divisors_of_xn1(n):
        for _ in range(2):  # the second call always reads the cache
            assert tensor_square(p, n) == tensor_square.__wrapped__(p, n)
            assert pairwise_product_span(p, n) == pairwise_product_span.__wrapped__(p, n)


@pytest.mark.parametrize("p, n", ((BinPoly.parse("x^2 + 1"), 7), (BIN_ZERO, 7),
                                  (BinPoly.parse("x^3 + x + 1"), 5)))
def test_non_divisors_are_rejected(p, n):
    for f in (divisor_mask, root_exponents, tensor_square):
        with pytest.raises(ValueError):
            f(p, n)


def test_pairwise_product_span_erodes():
    # rotations of x + 1 overlap in single monomials, so the span of
    # their coefficientwise products is the whole ambient space
    assert pairwise_product_span(BinPoly.parse("x + 1"), 7) == BIN_ONE
    assert pairwise_product_span(BIN_ZERO, 7) == xn_minus_1(7)


def _rotation_product_gcd(p: BinPoly, n: int) -> BinPoly:
    """The product span's generator: gcd of x^n + 1 and the pairwise ANDs
    of the n rotations of p mod x^n + 1, which span the code of p."""
    full = xn_minus_1(n)
    mask = (p % full).bits
    rots = [rotate_mask(mask, i, n) for i in range(n)]
    g = full
    for i in range(n):
        for j in range(i, n):
            g = gcd2(g, BinPoly(rots[i] & rots[j]))
            if g.is_one:
                return g
    return g


def test_pairwise_product_span_is_oracle_exact():
    """The closed form must match the literal span of rotation products."""
    for n in (1, 3, 5, 7, 9):
        for p in divisors_of_xn1(n):
            if p == xn_minus_1(n):
                continue
            rots = [rotate_mask(p.bits, k, n) for k in range(n)]
            rows = []
            for i, a in enumerate(rots):
                for b in rots[i:]:
                    rows.append(a & b)
            basis: list[int] = []
            for m in rows:
                for bb in basis:
                    m = min(m, m ^ bb)
                if m:
                    basis.append(m)
                    basis.sort(reverse=True)
            gen = pairwise_product_span(p, n)
            assert len(basis) == n - gen.degree
            for m in basis:
                assert gen.divides(BinPoly(m))
    # past n = 9, and on p = 0 and non-divisors, against the gcd over
    # the coefficientwise products of p's rotations
    rng = random.Random(45)
    for n in (*range(1, 24, 2), 31, 45):
        divs = divisors_of_xn1(n)
        # a divisor times a random polynomial keeps a large gcd with x^n + 1
        extra = [rng.choice(divs) * BinPoly(rng.getrandbits(n)) for _ in range(8)]
        for p in (*divs, BIN_ZERO, *extra):
            assert pairwise_product_span(p, n) == _rotation_product_gcd(p, n)
