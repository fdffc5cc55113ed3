"""Quaternary polynomial ring, Hensel lifting, and Bezout cofactors."""

import pytest
from hypothesis import given, strategies as st

from z2z4.errors import SpecError
from z2z4.gf2 import BIN_ONE, BinPoly, divisors_of_xn1, xn_minus_1
from z2z4.z4 import (
    Q_ONE,
    Q_ZERO,
    QuatPoly,
    _factor_subset,
    bezout_lift,
    factor_xn1_z4,
    hensel_lift,
    lcm_divisors,
    lift_binary,
    monic_divisors,
    quat_factors,
    reduce_mod2,
    xn_minus_1_z4,
)

quat_polys = st.lists(
    st.integers(min_value=0, max_value=3), min_size=0, max_size=12
).map(QuatPoly)

P3 = QuatPoly((3, 1, 2, 1))
Q3 = QuatPoly((3, 2, 3, 1))


def test_parse_and_str():
    assert QuatPoly.parse("3 + x + 2x^2 + x^3") == P3
    assert QuatPoly.parse("x^7 - 1") == xn_minus_1_z4(7)
    assert str(Q3) == "3 + 2x + 3x^2 + x^3"
    assert str(Q_ZERO) == "0"
    assert QuatPoly((1, 0, 0)) == Q_ONE  # trailing zeros stripped


def test_monic():
    assert P3.is_monic
    assert not (P3 * 2).is_monic
    assert (P3 * 3).monic() == P3
    with pytest.raises(ValueError):
        (P3 * 2).monic()


@given(quat_polys, quat_polys)
def test_mul_commutes(a, b):
    assert a * b == b * a


@given(quat_polys, quat_polys, quat_polys)
def test_mul_distributes(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(quat_polys, quat_polys)
def test_reduce_mod2_is_a_ring_map(a, b):
    assert reduce_mod2(a * b) == reduce_mod2(a) * reduce_mod2(b)
    assert reduce_mod2(a + b) == reduce_mod2(a) + reduce_mod2(b)


@given(quat_polys)
def test_lift_binary_round_trip(a):
    assert reduce_mod2(lift_binary(reduce_mod2(a))) == reduce_mod2(a)


def test_divmod_needs_unit_leading_coefficient():
    q, r = divmod(P3 * Q3 + Q_ONE, P3)
    assert q * P3 + r == P3 * Q3 + Q_ONE
    assert r.degree < P3.degree
    with pytest.raises(ValueError):
        divmod(P3, QuatPoly((1, 2)))  # leading coefficient 2 is a zero divisor
    with pytest.raises(ZeroDivisionError):
        divmod(P3, Q_ZERO)


def test_hensel_lift_known_values():
    assert hensel_lift(BinPoly.parse("x + 1"), 1) == QuatPoly((3, 1))
    assert hensel_lift(BinPoly.parse("x^3 + x + 1"), 7) == P3
    assert hensel_lift(BinPoly.parse("x^3 + x^2 + 1"), 7) == Q3
    assert hensel_lift(BinPoly.parse("x^4 + x + 1"), 15) == QuatPoly((1, 3, 2, 0, 1))


@pytest.mark.parametrize("n", (1, 3, 5, 7, 9, 15, 21))
def test_hensel_lift_section_properties(n):
    """The lift reduces back, is monic, and divides x^n - 1 over Z4."""
    whole = xn_minus_1_z4(n)
    for p in divisors_of_xn1(n):
        q = hensel_lift(p, n)
        assert reduce_mod2(q) == p
        assert q.is_monic
        assert q.divides(whole)
        assert q.degree == p.degree


def test_hensel_lift_rejects_nondivisors():
    with pytest.raises(ValueError):
        hensel_lift(BinPoly.parse("x^2 + 1"), 7)


@pytest.mark.parametrize("n", (1, 3, 5, 7, 9, 15))
def test_factorization_multiplies_back(n):
    binary = set(divisors_of_xn1(n))
    prod = Q_ONE
    for q in quat_factors(n):
        prod = prod * q
        assert reduce_mod2(q) in binary  # basic irreducible
    assert prod == xn_minus_1_z4(n)


def test_factor_cosets_match_binary_side():
    pairs = factor_xn1_z4(7)
    assert len(pairs) == 3
    leaders = sorted(coset.leader for coset, _ in pairs)
    assert leaders == [0, 1, 3]
    lifted = {q for _, q in pairs}
    assert lifted == {QuatPoly((3, 1)), P3, Q3}


def test_monic_divisors():
    g = P3 * Q3
    divs = monic_divisors(g, 7)
    assert set(divs) == {Q_ONE, P3, Q3, g}
    assert monic_divisors(Q_ONE, 7) == (Q_ONE,)
    with pytest.raises(ValueError):
        monic_divisors(QuatPoly((1, 1)), 7)  # x + 1 is not a divisor of x^7 - 1


@pytest.mark.parametrize("n", range(1, 22, 2))
def test_memoised_divisor_tables_equal_their_originals(n):
    for g in monic_divisors(xn_minus_1_z4(n), n):
        for _ in range(2):  # the second call always reads the cache
            assert monic_divisors(g, n) == monic_divisors.__wrapped__(g, n)
            assert _factor_subset(g, n) == _factor_subset.__wrapped__(g, n)


@pytest.mark.parametrize("n", (7, 9, 15, 21))
def test_quotient_of_divisors_reduces_to_the_binary_quotient(n):
    for g in monic_divisors(xn_minus_1_z4(n), n):
        for k in monic_divisors(g, n):
            assert reduce_mod2(g // k) == reduce_mod2(g) // reduce_mod2(k)


def test_lcm_divisors():
    assert lcm_divisors((P3, Q3), 7) == P3 * Q3
    assert lcm_divisors((P3, P3), 7) == P3
    assert lcm_divisors((), 7) == Q_ONE
    assert lcm_divisors((P3, P3 * Q3), 7) == P3 * Q3


def test_bezout_lift_identity():
    for h, g in ((QuatPoly((3, 1)), P3), (P3, Q3), (Q_ONE, P3 * Q3)):
        pair = bezout_lift(h, g)
        assert pair.lam * h + pair.mu * g == Q_ONE


def test_bezout_lift_needs_coprime_reductions():
    with pytest.raises(SpecError):
        bezout_lift(P3, P3)
