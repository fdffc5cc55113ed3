"""Binary polynomial arithmetic on int bitmasks, plus the cyclotomic toolkit.

``BinPoly`` is a frozen slotted dataclass over one int bitmask ``bits``,
checked in ``__post_init__``: bit ``i`` is the coefficient of ``x^i``.
All arithmetic is exact; nothing here is probabilistic.  The module also
owns the splitting field machinery used to factor ``x^n - 1`` for odd
``n``: cyclotomic cosets, a primitive element of GF(2^m) with
``m = ord_2(n)``, and the per-coset irreducible factors; everything downstream
reduces to this factorization.  ``divisor_mask`` alone decides which
coset factors divide a divisor of x^n + 1, and ``root_exponents`` and
``z4`` read that mask.  ``tensor_square`` takes the sumset of root
exponents, and ``pairwise_product_span`` reads the span of
coefficientwise products of a cyclic code off the tensor square of its
check polynomial.

Per-length facts are computed once per process: the factor tables
(``cyclotomic_cosets``, ``build_field``, ``factor_xn1_gf2``) and, for a
divisor p of x^n + 1, ``divisor_mask(p, n)``, ``tensor_square(p, n)``
and ``pairwise_product_span(p, n)``.  The closed forms only ever pass
divisors of x^n + 1, so each length has at most 2^(number of
cyclotomic cosets of n) keys: 32 at n = 15, 64 at n = 21.  Factoring
calls nothing memoised beyond the three tables, so clearing their
caches (as ``bench/run.py`` does before it times factoring) makes
factoring cold again.
"""

from dataclasses import dataclass
from functools import lru_cache

from .errors import SizeGuardError
from .polytext import format_terms, parse_terms

DEGREE_GUARD_BITS = 1 << 16
FIELD_EXTENSION_LIMIT = 20
DIVISOR_COUNT_LIMIT = 1 << 20


def _deg(bits: int) -> int:
    # valid only for bits != 0
    return bits.bit_length() - 1


def _mul2(a: int, b: int) -> int:
    r = 0
    while a:
        low = a & -a
        r ^= b << (low.bit_length() - 1)
        a ^= low
    return r


def _divmod2(a: int, b: int) -> tuple[int, int]:
    if b == 0:
        raise ZeroDivisionError("binary polynomial division by zero")
    db = b.bit_length()
    q = 0
    shift = a.bit_length() - db
    while shift >= 0:
        q |= 1 << shift
        a ^= b << shift
        shift = a.bit_length() - db
    return q, a


def _mod2(a: int, b: int) -> int:
    return _divmod2(a, b)[1]


def _gcd2(a: int, b: int) -> int:
    while b:
        a, b = b, _mod2(a, b)
    return a


@dataclass(frozen=True, slots=True)
class BinPoly:
    """Immutable polynomial over GF(2)."""

    bits: int

    def __post_init__(self) -> None:
        bits = self.bits
        if bits < 0:
            raise ValueError("coefficient mask must be nonnegative")
        if bits.bit_length() > DEGREE_GUARD_BITS:
            raise SizeGuardError(
                f"binary polynomial degree {bits.bit_length() - 1} exceeds guard",
                predicted=bits.bit_length(),
            )

    @classmethod
    def parse(cls, text: str) -> "BinPoly":
        terms = parse_terms(text, 2)
        bits = 0
        for e in terms:
            bits |= 1 << e
        return cls(bits)

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return self.bits.bit_length() - 1

    @property
    def is_zero(self) -> bool:
        return self.bits == 0

    @property
    def is_one(self) -> bool:
        return self.bits == 1

    def coeffs(self) -> tuple[int, ...]:
        if self.bits == 0:
            return ()
        return tuple((self.bits >> i) & 1 for i in range(_deg(self.bits) + 1))

    def __add__(self, other: "BinPoly") -> "BinPoly":
        return BinPoly(self.bits ^ other.bits)

    __sub__ = __add__

    def __mul__(self, other: "BinPoly") -> "BinPoly":
        return BinPoly(_mul2(self.bits, other.bits))

    def __divmod__(self, other: "BinPoly") -> tuple["BinPoly", "BinPoly"]:
        q, r = _divmod2(self.bits, other.bits)
        return BinPoly(q), BinPoly(r)

    def __floordiv__(self, other: "BinPoly") -> "BinPoly":
        return BinPoly(_divmod2(self.bits, other.bits)[0])

    def __mod__(self, other: "BinPoly") -> "BinPoly":
        return BinPoly(_mod2(self.bits, other.bits))

    def divides(self, other: "BinPoly") -> bool:
        if self.bits == 0:
            return other.bits == 0
        return _mod2(other.bits, self.bits) == 0

    def __bool__(self) -> bool:
        return self.bits != 0

    def __str__(self) -> str:
        return format_terms({e: 1 for e in range(self.bits.bit_length()) if (self.bits >> e) & 1})

    def __repr__(self) -> str:
        return f"BinPoly({self})"


BIN_ZERO = BinPoly(0)
BIN_ONE = BinPoly(1)


def gcd2(a: BinPoly, b: BinPoly) -> BinPoly:
    """Over GF(2) the gcd is automatically monic; gcd(p, 0) = p."""
    return BinPoly(_gcd2(a.bits, b.bits))


def ext_gcd2(a: BinPoly, b: BinPoly) -> tuple[BinPoly, BinPoly, BinPoly]:
    """Return (g, s, t) with s*a + t*b = g = gcd(a, b)."""
    r0, r1 = a.bits, b.bits
    s0, s1 = 1, 0
    t0, t1 = 0, 1
    while r1:
        q, r = _divmod2(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 ^ _mul2(q, s1)
        t0, t1 = t1, t0 ^ _mul2(q, t1)
    return BinPoly(r0), BinPoly(s0), BinPoly(t0)


def invert_mod2(a: BinPoly, modulus: BinPoly) -> BinPoly:
    g, s, _ = ext_gcd2(a, modulus)
    if not g.is_one:
        raise ValueError(f"{a} is not invertible modulo {modulus}")
    return s % modulus


def xn_minus_1(n: int) -> BinPoly:
    if n < 1:
        raise ValueError("length must be positive")
    return BinPoly((1 << n) | 1)


def rotate_mask(mask: int, k: int, n: int) -> int:
    """Cyclic left shift of an n-bit mask: bit i moves to bit (i+k) mod n."""
    k %= n
    full = (1 << n) - 1
    return ((mask << k) | (mask >> (n - k))) & full if k else mask & full


@dataclass(frozen=True)
class Coset:
    """A cyclotomic coset mod n: the orbit of an exponent under doubling."""

    exps: tuple[int, ...]

    @property
    def leader(self) -> int:
        return self.exps[0]

    def __len__(self) -> int:
        return len(self.exps)


@lru_cache(maxsize=None)
def cyclotomic_cosets(n: int) -> tuple[Coset, ...]:
    if n < 1 or n % 2 == 0:
        raise ValueError("cyclotomic cosets need odd positive n")
    seen: set[int] = set()
    out = []
    for a in range(n):
        if a in seen:
            continue
        orbit = []
        x = a
        while x not in seen:
            seen.add(x)
            orbit.append(x)
            x = (2 * x) % n
        out.append(Coset(tuple(sorted(orbit))))
    return tuple(out)


@dataclass(frozen=True)
class FieldContext:
    """GF(2^m) with a fixed primitive modulus and an order-n subgroup.

    ``xi_pow`` holds the n distinct powers of an element xi of order n.
    Only the order-n subgroup is tabulated, never the full field.
    """

    m: int
    modulus: int
    xi_pow: tuple[int, ...]

    def mul(self, a: int, b: int) -> int:
        r = _mul2(a, b)
        while r.bit_length() > self.m:
            r ^= self.modulus << (r.bit_length() - 1 - self.m)
        return r

    def pow(self, a: int, e: int) -> int:
        r = 1
        base = a
        while e:
            if e & 1:
                r = self.mul(r, base)
            base = self.mul(base, base)
            e >>= 1
        return r


def _prime_factors(v: int) -> tuple[int, ...]:
    out = []
    d = 2
    while d * d <= v:
        if v % d == 0:
            out.append(d)
            while v % d == 0:
                v //= d
        d += 1
    if v > 1:
        out.append(v)
    return tuple(out)


def _multiplicative_order_of_two(n: int) -> int:
    m = 1
    r = 2 % n
    while r != 1:
        r = (2 * r) % n
        m += 1
    return m


@lru_cache(maxsize=None)
def build_field(n: int) -> FieldContext:
    """Splitting field of x^n - 1 over GF(2), for odd n."""
    if n < 1 or n % 2 == 0:
        raise ValueError("splitting field construction needs odd positive n")
    m = 1 if n == 1 else _multiplicative_order_of_two(n)
    if m > FIELD_EXTENSION_LIMIT:
        raise SizeGuardError(
            f"splitting field GF(2^{m}) for n={n} exceeds the 2^{FIELD_EXTENSION_LIMIT} guard",
            predicted=1 << m,
        )
    group = (1 << m) - 1
    primes = _prime_factors(group)
    modulus = None
    for cand in range((1 << m) | 1, 1 << (m + 1), 2):
        # x has order 2^m - 1 only if cand is irreducible with x primitive
        ctx = FieldContext(m, cand, ())
        if ctx.pow(2, group) != 1:
            continue
        if any(ctx.pow(2, group // q) == 1 for q in primes):
            continue
        modulus = cand
        break
    if modulus is None:
        raise AssertionError(f"no primitive modulus of degree {m}")
    ctx = FieldContext(m, modulus, ())
    xi = ctx.pow(2, group // n)
    pows = [1]
    for _ in range(n - 1):
        pows.append(ctx.mul(pows[-1], xi))
    if ctx.mul(pows[-1], xi) != 1:
        raise AssertionError("xi does not have exact order n")
    if len(set(pows)) != n:
        raise AssertionError("xi powers collide")
    return FieldContext(m, modulus, tuple(pows))


@lru_cache(maxsize=None)
def factor_xn1_gf2(n: int) -> tuple[tuple[Coset, BinPoly], ...]:
    """Irreducible factors of x^n + 1 over GF(2), keyed by cyclotomic coset.

    Each factor is the product of (x + xi^k) over its coset, computed in
    the splitting field and checked to land back in GF(2).
    """
    ctx = build_field(n)
    out = []
    for coset in cyclotomic_cosets(n):
        poly = [1]
        for k in coset.exps:
            root = ctx.xi_pow[k]
            nxt = [0] * (len(poly) + 1)
            for i, c in enumerate(poly):
                nxt[i + 1] ^= c
                nxt[i] ^= ctx.mul(c, root)
            poly = nxt
        bits = 0
        for i, c in enumerate(poly):
            if c not in (0, 1):
                raise AssertionError("coset factor has a coefficient outside GF(2)")
            bits |= c << i
        out.append((coset, BinPoly(bits)))
    prod = BIN_ONE
    for _, p in out:
        prod = prod * p
    if prod != xn_minus_1(n):
        raise AssertionError("coset factors do not multiply back to x^n + 1")
    return tuple(out)


def binary_factors(n: int) -> tuple[BinPoly, ...]:
    return tuple(p for _, p in factor_xn1_gf2(n))


@lru_cache(maxsize=None)
def divisor_mask(p: BinPoly, n: int) -> int:
    """The coset factors of x^n + 1 that divide p, as a mask.

    Bit i stands for the i-th factor of ``factor_xn1_gf2(n)``.  p must
    divide x^n + 1.
    """
    mask = 0
    prod = BIN_ONE
    for i, (_, q) in enumerate(factor_xn1_gf2(n)):
        if q.divides(p):
            mask |= 1 << i
            prod = prod * q
    if prod != p:
        raise ValueError(f"{p} is not a divisor of x^{n} + 1")
    return mask


def root_exponents(p: BinPoly, n: int) -> frozenset[int]:
    """Exponent set {k : p(xi^k) = 0} for a divisor p of x^n + 1."""
    mask = divisor_mask(p, n)
    return frozenset(e for i, (coset, _) in enumerate(factor_xn1_gf2(n))
                     if mask >> i & 1 for e in coset.exps)


@lru_cache(maxsize=None)
def tensor_square(p: BinPoly, n: int) -> BinPoly:
    """Divisor of x^n + 1 whose roots are all products of two roots of p.

    Root exponents of the result form the sumset S + S mod n, where S is
    the root exponent set of p (i = j allowed).
    """
    s = root_exponents(p, n)
    t = {(i + j) % n for i in s for j in s}
    out = BIN_ONE
    for coset, q in factor_xn1_gf2(n):
        if set(coset.exps) <= t:
            out = out * q
    return out


@lru_cache(maxsize=None)
def pairwise_product_span(p: BinPoly, n: int) -> BinPoly:
    """Generator of the span of coefficientwise products from the code of p.

    The length-n cyclic binary code generated by p, for odd n, has the
    generator gcd(p, x^n + 1); its nonzeros N are the root exponents of
    the check polynomial (x^n + 1) / gcd(p, x^n + 1).  The span of the
    coefficientwise products of two of its words is the cyclic code with
    nonzeros N + N (MacWilliams and Sloane, ch. 7; Cascudo, "On squares
    of cyclic codes", 2019), so its generator is x^n + 1 over the tensor
    square of the check polynomial, with x^n + 1 standing for the zero
    code.
    """
    full = xn_minus_1(n)
    return full // tensor_square(full // gcd2(p % full, full), n)


def divisors_of_xn1(alpha: int) -> tuple[BinPoly, ...]:
    """All monic divisors of x^alpha + 1 over GF(2), any positive alpha.

    With alpha = odd * 2^v, x^alpha + 1 = (x^odd + 1)^(2^v), so divisors
    are products of coset factors of x^odd + 1 with multiplicities up to
    2^v.  Sorted by (degree, mask).
    """
    if alpha < 1:
        raise ValueError("length must be positive")
    v = 0
    odd = alpha
    while odd % 2 == 0:
        odd //= 2
        v += 1
    factors = binary_factors(odd)
    mult = 1 << v
    count = (mult + 1) ** len(factors)
    if count > DIVISOR_COUNT_LIMIT:
        raise SizeGuardError(
            f"x^{alpha} + 1 has {count} divisors, above the {DIVISOR_COUNT_LIMIT} guard",
            predicted=count,
        )
    divs = [BIN_ONE]
    for q in factors:
        grown = []
        for d in divs:
            acc = d
            grown.append(acc)
            for _ in range(mult):
                acc = acc * q
                grown.append(acc)
        divs = grown
    divs.sort(key=lambda d: (d.bits.bit_length(), d.bits))
    return tuple(divs)
