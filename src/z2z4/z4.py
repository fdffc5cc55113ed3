"""Polynomials over Z4 and the lifting machinery above GF(2).

``QuatPoly`` is a frozen slotted dataclass whose own ``__init__``
reduces the coefficients mod 4 once and stores them as a tuple with no
trailing zeros, so equal polynomials have equal fields.  Division
requires a unit leading coefficient in the divisor, which every monic
polynomial has.  For odd n, x^n - 1 factors over Z4 into the Hensel
lifts of the binary coset factors; those lifts are computed exactly by
the Graeffe root-squaring step, never by floating point or iteration to
convergence.

A monic divisor of x^n - 1 is handled as a bitmask over the basic
factors, in the order of ``factor_xn1_z4(n)``: bit i stands for the
i-th factor.  Products of coprime divisors, quotients of nested ones and
lcms are then unions and differences of masks.  Each basic factor
reduces to the binary factor of the same coset, so the mask of a binary
divisor p of x^n + 1 (``gf2.divisor_mask``) also names the one monic
divisor of x^n - 1 that reduces to p, and ``mask_poly`` of that mask
equals ``hensel_lift(p, n)``.

Memoised per process: ``factor_xn1_z4(n)``; ``mask_poly(mask, n)`` on a
mask, at most 2^t keys per length for t basic factors; and, for a monic
divisor g of x^n - 1, ``monic_divisors(g, n)`` and ``reduce_mod2(g)``,
again at most 2^t keys.  ``cyclic`` keys its own memos on masks and
reads these once per mask or per (f, h, g) triple, not once per spec.
Factoring calls no memo below its own table (neither ``hensel_lift``
nor ``reduce_mod2``), so clearing that cache, as ``bench/run.py`` does
to time cold factoring, makes factoring cold again.
"""

from dataclasses import dataclass
from functools import lru_cache

from .errors import SpecError
from .gf2 import BinPoly, divisor_mask, ext_gcd2, factor_xn1_gf2, xn_minus_1
from .polytext import format_terms, parse_terms


@dataclass(frozen=True, slots=True, init=False)
class QuatPoly:
    """Immutable polynomial over Z4."""

    coeffs: tuple[int, ...]

    def __init__(self, coeffs=()):
        cs = [c % 4 for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @classmethod
    def parse(cls, text: str) -> "QuatPoly":
        terms = parse_terms(text, 4)
        if not terms:
            return cls(())
        out = [0] * (max(terms) + 1)
        for e, c in terms.items():
            out[e] = c
        return cls(out)

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_one(self) -> bool:
        return self.coeffs == (1,)

    @property
    def leading_coeff(self) -> int:
        return self.coeffs[-1] if self.coeffs else 0

    @property
    def is_monic(self) -> bool:
        return self.leading_coeff == 1

    def monic(self) -> "QuatPoly":
        lc = self.leading_coeff
        if lc == 1:
            return self
        if lc == 3:
            return self * 3
        raise ValueError("leading coefficient is not a unit")

    def __add__(self, other: "QuatPoly") -> "QuatPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return QuatPoly(tuple((x + (b[i] if i < len(b) else 0)) % 4 for i, x in enumerate(a)))

    def __neg__(self) -> "QuatPoly":
        return QuatPoly(tuple((-c) % 4 for c in self.coeffs))

    def __sub__(self, other: "QuatPoly") -> "QuatPoly":
        return self + (-other)

    def __mul__(self, other) -> "QuatPoly":
        if isinstance(other, int):
            return QuatPoly(tuple((c * other) % 4 for c in self.coeffs))
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Q_ZERO
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] = (out[i + j] + ca * cb) % 4
        return QuatPoly(out)

    __rmul__ = __mul__

    def __divmod__(self, other: "QuatPoly") -> tuple["QuatPoly", "QuatPoly"]:
        lc = other.leading_coeff
        if lc == 0:
            raise ZeroDivisionError("division by zero polynomial")
        if lc not in (1, 3):
            raise ValueError("divisor needs a unit leading coefficient")
        inv = lc  # 1 and 3 are self-inverse mod 4
        db = len(other.coeffs) - 1
        rem = list(self.coeffs)
        q = [0] * max(len(rem) - db, 0)
        for top in range(len(rem) - 1, db - 1, -1):
            c = rem[top]
            if c == 0:
                continue
            factor = (c * inv) % 4
            q[top - db] = factor
            for j, oc in enumerate(other.coeffs):
                rem[top - db + j] = (rem[top - db + j] - factor * oc) % 4
        return QuatPoly(q), QuatPoly(rem)

    def __floordiv__(self, other: "QuatPoly") -> "QuatPoly":
        return divmod(self, other)[0]

    def __mod__(self, other: "QuatPoly") -> "QuatPoly":
        return divmod(self, other)[1]

    def divides(self, other: "QuatPoly") -> bool:
        if self.is_zero:
            return other.is_zero
        return (other % self).is_zero

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __str__(self) -> str:
        return format_terms({e: c for e, c in enumerate(self.coeffs) if c})

    def __repr__(self) -> str:
        return f"QuatPoly({self})"


Q_ZERO = QuatPoly(())
Q_ONE = QuatPoly((1,))


@lru_cache(maxsize=None)
def reduce_mod2(p: QuatPoly) -> BinPoly:
    bits = 0
    for i, c in enumerate(p.coeffs):
        if c % 2:
            bits |= 1 << i
    return BinPoly(bits)


def lift_binary(p: BinPoly) -> QuatPoly:
    return QuatPoly(p.coeffs())


def xn_minus_1_z4(n: int) -> QuatPoly:
    if n < 1:
        raise ValueError("length must be positive")
    return QuatPoly((3,) + (0,) * (n - 1) + (1,))


def hensel_lift(p: BinPoly, n: int) -> QuatPoly:
    """Lift of a binary divisor of x^n + 1 to a divisor of x^n - 1 over Z4.

    Graeffe step: with P the 0/1 lift of p, the product P(x)P(-x) is even
    in x, and scaling by (-1)^deg p makes its even part the monic lift H
    with H(x^2) = (-1)^deg P(x)P(-x) and H = p mod 2.
    """
    if n < 1 or n % 2 == 0:
        raise ValueError("lifting needs odd positive n")
    if p.is_zero:
        raise ValueError("cannot lift the zero polynomial")
    if not p.divides(xn_minus_1(n)):
        raise ValueError(f"{p} does not divide x^{n} + 1 over GF(2)")
    P = lift_binary(p)
    Pneg = QuatPoly(tuple(c if i % 2 == 0 else (-c) % 4 for i, c in enumerate(P.coeffs)))
    A = P * Pneg
    if p.degree % 2 == 1:
        A = -A
    acoeffs = A.coeffs
    if any(acoeffs[1::2]):
        raise AssertionError("odd terms survived Graeffe")
    H = QuatPoly(acoeffs[::2])
    if not H.is_monic:
        raise AssertionError("lift is not monic")
    if any(c % 2 for c in (H - P).coeffs):
        raise AssertionError("lift does not reduce back mod 2")
    if not H.divides(xn_minus_1_z4(n)):
        raise AssertionError("lift does not divide x^n - 1")
    return H


@lru_cache(maxsize=None)
def factor_xn1_z4(n: int) -> tuple[tuple[tuple[int, ...], QuatPoly], ...]:
    """Basic irreducible factors of x^n - 1 over Z4, keyed by coset."""
    out = tuple((coset, hensel_lift(p, n)) for coset, p in factor_xn1_gf2(n))
    prod = Q_ONE
    for _, q in out:
        prod = prod * q
    if prod != xn_minus_1_z4(n):
        raise AssertionError("lifted factors do not multiply back to x^n - 1")
    return out


def quat_factors(n: int) -> tuple[QuatPoly, ...]:
    return tuple(q for _, q in factor_xn1_z4(n))


@lru_cache(maxsize=None)
def mask_poly(mask: int, n: int) -> QuatPoly:
    """The product of the basic factors of x^n - 1 that mask selects."""
    if not mask:
        return Q_ONE
    low = mask & -mask
    return mask_poly(mask ^ low, n) * quat_factors(n)[low.bit_length() - 1]


def quat_mask(p: QuatPoly, n: int) -> int:
    """The mask of a monic divisor p of x^n - 1 over Z4."""
    mask = divisor_mask(reduce_mod2(p), n)
    if mask_poly(mask, n) != p:
        raise ValueError(f"{p} is not a monic divisor of x^{n} - 1")
    return mask


@lru_cache(maxsize=None)
def monic_divisors(g: QuatPoly, n: int) -> tuple[QuatPoly, ...]:
    """All monic divisors of g inside x^n - 1, sorted by (degree, coeffs)."""
    gm = quat_mask(g, n)
    divs = []
    m = gm
    while True:  # every submask of gm, from gm down to 0
        divs.append(mask_poly(m, n))
        if not m:
            break
        m = (m - 1) & gm
    divs.sort(key=lambda d: (len(d.coeffs), d.coeffs))
    return tuple(divs)


@dataclass(frozen=True)
class BezoutPair:
    """Exact cofactors with lam*h + mu*g = 1 over Z4."""

    lam: QuatPoly
    mu: QuatPoly


def bezout_lift(h: QuatPoly, g: QuatPoly) -> BezoutPair:
    """Lift a binary Bezout identity for (h mod 2, g mod 2) to Z4.

    One Newton step kills the even error: if e = lam0*h + mu0*g - 1 has
    even coefficients then e*e = 0, so scaling both cofactors by (1 - e)
    gives an exact identity.  Degrees are not minimized.
    """
    gg, s, t = ext_gcd2(reduce_mod2(h), reduce_mod2(g))
    if not gg.is_one:
        raise SpecError("coprime-pair", f"{h} and {g} are not coprime mod 2")
    lam0 = lift_binary(s)
    mu0 = lift_binary(t)
    e = lam0 * h + mu0 * g - Q_ONE
    lam = lam0 - lam0 * e
    mu = mu0 - mu0 * e
    if lam * h + mu * g != Q_ONE:
        raise AssertionError("Bezout lift failed to close")
    return BezoutPair(lam, mu)
