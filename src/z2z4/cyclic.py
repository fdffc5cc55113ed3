"""Cyclic codes from generator polynomial data, with closed-form invariants.

A cyclic pair over (alpha, beta) is the generator set
``(b | 0), (ell | f h + 2 f)`` with ``b`` dividing ``x^alpha - 1`` over
GF(2), ``f h g = x^beta - 1`` over Z4 for odd beta, and
``deg ell < deg b``.  Everything this module computes about the code
(cardinality, type, Gray linearity, kernel, rank) comes from polynomial
arithmetic alone; ``materialize`` turns the pair into an explicit word
code so each closed form can be cross-checked against the enumeration
oracles.

The rank closed form here differs from a published account that takes
``gcd(b, mu ell g)`` for the binary divisor: that version contradicts
both the attainable rank bound and exhaustive enumeration (it predicts
12 where the true rank is 11 on a two-block length-(2,7) code).  The
correct divisor needs the span of coefficientwise products of the
high-order binary code, computed exactly by ``pairwise_product_span``.

The closed forms lean on the per-length facts that ``gf2`` and ``z4``
memoise (tensor squares, product spans, divisor lattices).  Here only
the factorization test f h g = x^beta - 1 in ``validate`` is memoised,
keyed by (f, h, g, beta): enumerated specs draw f, h and g from the
3^t ways to share t basic factors, so the key space is bounded per
length, not per spec.  Whole results (``kernel_spec``, ``rank_spec``,
``validate``) are not cached; their key space grows with the specs.
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

from .code import DEFAULT_MAX_WORDS, AdditiveCode, CodeType, Word, _coords_to_word
from .errors import SpecError
from .gf2 import (
    BIN_ONE,
    BIN_ZERO,
    BinPoly,
    divisors_of_xn1,
    ext_gcd2,
    gcd2,
    invert_mod2,
    pairwise_product_span,
    tensor_square,
    xn_minus_1,
)
from .z4 import (
    Q_ONE,
    Q_ZERO,
    QuatPoly,
    hensel_lift,
    lcm_divisors,
    monic_divisors,
    quat_factors,
    reduce_mod2,
    xn_minus_1_z4,
)


@dataclass(frozen=True)
class CyclicSpec:
    """Generator polynomial data for one cyclic code."""

    alpha: int
    beta: int
    b: BinPoly
    ell: BinPoly
    f: QuatPoly
    h: QuatPoly
    g: QuatPoly

    def __str__(self) -> str:
        return (
            f"alpha={self.alpha} beta={self.beta} b=({self.b}) ell=({self.ell}) "
            f"f=({self.f}) h=({self.h}) g=({self.g})"
        )


def _deg(p) -> int:
    d = p.degree
    if d < 0:
        raise ValueError("zero polynomial has no finite degree here")
    return d


@lru_cache(maxsize=None)
def _factors_xn1(f: QuatPoly, h: QuatPoly, g: QuatPoly, beta: int) -> bool:
    """Whether f h g = x^beta - 1 over Z4 exactly."""
    return f * h * g == xn_minus_1_z4(beta)


def validate(spec: CyclicSpec) -> None:
    """Check every structural requirement, raising SpecError on the first failure.

    The two divisibility conditions at the end are what make the given
    pair the canonical one for the code it generates; without them the
    closed forms below do not apply to the pair as written.
    """
    if spec.alpha < 1:
        raise SpecError("alpha-positive", f"alpha must be at least 1, got {spec.alpha}")
    if spec.beta < 1 or spec.beta % 2 == 0:
        raise SpecError("beta-odd", f"beta must be odd and positive, got {spec.beta}")
    if spec.b.is_zero:
        raise SpecError("b-nonzero", "b must be a nonzero divisor of x^alpha - 1")
    for name, p in (("f", spec.f), ("h", spec.h), ("g", spec.g)):
        if not p.is_monic:
            raise SpecError("monic-factors", f"{name} must be monic, got {p}")
    if not _factors_xn1(spec.f, spec.h, spec.g, spec.beta):
        raise SpecError(
            "factorization", f"f h g must equal x^{spec.beta} - 1 over Z4 exactly"
        )
    if not spec.b.divides(xn_minus_1(spec.alpha)):
        raise SpecError("b-divides", f"b = {spec.b} does not divide x^{spec.alpha} - 1")
    if not (spec.ell.degree < spec.b.degree):
        raise SpecError(
            "ell-degree", f"need deg ell < deg b, got ell = {spec.ell}, b = {spec.b}"
        )
    ht = reduce_mod2(spec.h)
    gt = reduce_mod2(spec.g)
    if not ((ht * gt * gcd2(spec.b, spec.ell)) % spec.b).is_zero:
        raise SpecError(
            "pair-closure-1",
            "b must divide (x^beta - 1)/f * gcd(b, ell) for a canonical pair",
        )
    if not ((ht * gcd2(spec.b, spec.ell * gt)) % spec.b).is_zero:
        raise SpecError(
            "pair-closure-2",
            "b must divide h * gcd(b, ell * g) for a canonical pair",
        )


def cyclic_spec(alpha, beta, b, ell, f, h, g) -> CyclicSpec:
    """Build and validate a spec, normalizing unit leading coefficients."""
    spec = CyclicSpec(alpha, beta, b, ell, f.monic(), h.monic(), g.monic())
    validate(spec)
    return spec


def cardinality(spec: CyclicSpec) -> int:
    return 1 << (
        (spec.alpha - _deg(spec.b)) + 2 * _deg(spec.g) + _deg(spec.h)
    )


def type_from_degrees(spec: CyclicSpec) -> CodeType:
    """Type parameters straight from the generator degrees."""
    gt = reduce_mod2(spec.g)
    db = _deg(spec.b)
    d_lg = _deg(gcd2(spec.b, spec.ell * gt))
    d_l = _deg(gcd2(spec.b, spec.ell))
    gamma = spec.alpha - db + _deg(spec.h)
    delta = _deg(spec.g)
    kappa = spec.alpha - d_lg
    kappa1 = spec.alpha - db
    delta1 = d_lg - d_l
    return CodeType(
        spec.alpha,
        spec.beta,
        gamma,
        delta,
        kappa,
        kappa1=kappa1,
        kappa2=kappa - kappa1,
        delta1=delta1,
        delta2=delta - delta1,
    )


def poly_word(alpha: int, beta: int, x: BinPoly, y: QuatPoly) -> Word:
    """The word (x | y), with x read mod x^alpha - 1 and y mod x^beta - 1."""
    xbits = (x % xn_minus_1(alpha)).bits if alpha else 0
    ys = (y % xn_minus_1_z4(beta)).coeffs
    return _coords_to_word(
        alpha, beta,
        [(xbits >> i) & 1 for i in range(alpha)] + [*ys, *(0,) * (beta - len(ys))],
    )


def shift_orbit(w: Word, n: int) -> list[Word]:
    """w followed by its next n - 1 simultaneous cyclic shifts."""
    out = [w]
    for _ in range(n - 1):
        out.append(out[-1].shift())
    return out


def materialize(spec: CyclicSpec, max_words: int = DEFAULT_MAX_WORDS) -> AdditiveCode:
    """The code itself: shifts of (b | 0) and of (ell | f h + 2 f)."""
    a, be = spec.alpha, spec.beta
    gens = (shift_orbit(poly_word(a, be, spec.b, Q_ZERO), a)
            + shift_orbit(poly_word(a, be, spec.ell, spec.f * spec.h + spec.f * 2), be))
    return AdditiveCode(a, be, gens, max_words=max_words)


# ---------------------------------------------------------------------------
# Gray linearity


def quaternary_linear(f: QuatPoly, g: QuatPoly, beta: int) -> bool:
    """Whether a quaternary cyclic code with factors (f, h, g) has linear image."""
    return gcd2(reduce_mod2(f), tensor_square(reduce_mod2(g), beta)).is_one


def gray_linear(spec: CyclicSpec) -> bool:
    """Closed-form linearity test for the full two-block code."""
    return _divisor_qualifies(spec, Q_ONE)


# ---------------------------------------------------------------------------
# order-two subcode and alternative generator forms


def _mu_bar(spec: CyclicSpec) -> BinPoly:
    """The binary cofactor mu of g in lam h + mu g = 1 over GF(2).

    Every closed form reads the Bezout identity for (h, g) only mod 2,
    so its lift to Z4 is never needed here.
    """
    return ext_gcd2(reduce_mod2(spec.h), reduce_mod2(spec.g))[2]


def order_two_spec(spec: CyclicSpec) -> CyclicSpec:
    """Generator data for the subcode of words of order at most two."""
    return linear_subcode_spec(spec, spec.g)


def three_generator_words(spec: CyclicSpec) -> tuple[Word, Word, Word]:
    """Equivalent three-row generating set separating the doubled part.

    Rows are (b | 0), (ell' | f h), (ell_b | 2 f) with ell' chosen so
    the middle row carries no doubled contribution from ell.
    """
    a, be = spec.alpha, spec.beta
    ell_b = _ell_for_divisor(spec, spec.g, _mu_bar(spec))
    return (
        poly_word(a, be, spec.b, Q_ZERO),
        poly_word(a, be, spec.ell + ell_b, spec.f * spec.h),
        poly_word(a, be, ell_b, spec.f * 2),
    )


# ---------------------------------------------------------------------------
# kernel


def _ell_for_divisor(spec: CyclicSpec, k: QuatPoly, mu_t: BinPoly) -> BinPoly:
    kt = reduce_mod2(k)
    gt = reduce_mod2(spec.g)
    return ((kt * spec.ell) + (BIN_ONE + kt) * mu_t * spec.ell * gt) % spec.b


def linear_subcode_spec(spec: CyclicSpec, k: QuatPoly) -> CyclicSpec:
    """The largest subcode with linear image whose quaternary loss is k.

    k must divide g; the subcode keeps b and f, moves k from g to h, and
    adjusts the binary mixing polynomial accordingly.
    """
    ell_k = _ell_for_divisor(spec, k, _mu_bar(spec))
    return cyclic_spec(
        spec.alpha, spec.beta, spec.b, ell_k, spec.f, spec.h * k, spec.g // k
    )


def _divisor_qualifies(spec: CyclicSpec, k: QuatPoly) -> bool:
    """Whether moving k out of g leaves a subcode with linear image."""
    ft = reduce_mod2(spec.f)
    # reduction mod 2 is a ring map and k divides g, so this is (g / k) mod 2
    q = reduce_mod2(spec.g) // reduce_mod2(k)
    shrunk = (ft * spec.b) // gcd2(spec.b, spec.ell * q)
    return gcd2(shrunk, tensor_square(q, spec.beta)).is_one


@dataclass(frozen=True)
class KernelResult:
    """Kernel of the Gray map as a cyclic code.

    ``minimal_divisors`` are the smallest-degree divisors k of g whose
    subcode has linear image; ``k_prime`` is their least common multiple
    and the kernel is the subcode for k_prime.
    """

    spec: CyclicSpec
    k_prime: QuatPoly
    minimal_divisors: tuple[QuatPoly, ...]
    dimension: int


def kernel_spec(spec: CyclicSpec) -> KernelResult:
    qualifying = [
        k for k in monic_divisors(spec.g, spec.beta) if _divisor_qualifies(spec, k)
    ]
    if not qualifying:
        raise AssertionError("k = g must always qualify")
    min_deg = min(_deg(k) for k in qualifying)
    minimal = tuple(k for k in qualifying if _deg(k) == min_deg)
    k_prime = lcm_divisors(minimal, spec.beta)
    kspec = linear_subcode_spec(spec, k_prime)
    t = type_from_degrees(spec)
    dim = t.gamma + 2 * t.delta - _deg(k_prime)
    return KernelResult(kspec, k_prime, minimal, dim)


def maximal_linear_subcodes(spec: CyclicSpec) -> tuple[CyclicSpec, ...]:
    """Subcodes with linear image that are maximal among the cyclic ones."""
    res = kernel_spec(spec)
    return tuple(linear_subcode_spec(spec, k) for k in res.minimal_divisors)


def kernel_dim_candidates(t: CodeType) -> tuple[int, ...]:
    """All kernel dimensions achievable for codes of this type."""
    slack = t.beta - (t.gamma - t.kappa) - t.delta
    if slack < 0:
        raise ValueError("inconsistent type parameters")
    if slack == 0:
        drops = [0]
    elif slack == 1:
        drops = [0] + [d for d in range(2, t.delta + 1) if d % 2 == 0]
    else:
        drops = [0] + list(range(2, t.delta + 1))
    dim = t.gamma + 2 * t.delta
    return tuple(sorted(dim - d for d in drops))


# ---------------------------------------------------------------------------
# rank


@dataclass(frozen=True)
class RankResult:
    """Span of the Gray image as a cyclic code.

    ``r`` is the factor moved from f to h.
    """

    spec: CyclicSpec
    r: QuatPoly
    rank: int


def rank_spec(spec: CyclicSpec) -> RankResult:
    beta = spec.beta
    ft = reduce_mod2(spec.f)
    ht = reduce_mod2(spec.h)
    gt = reduce_mod2(spec.g)
    full = xn_minus_1(beta)

    # the span of coefficientwise products of the high-order binary code;
    # its part coprime to f is what can erode the binary divisor b
    span_gen = pairwise_product_span((ft * ht) % full, beta)
    rt = gcd2(ft, tensor_square(gt, beta))
    r = hensel_lift(rt, beta)
    if not r.divides(spec.f):
        raise AssertionError("lifted factor does not divide f")
    shared = gcd2(span_gen, ft)
    if shared != ft // rt:
        raise AssertionError("product span disagrees with the tensor square prediction")
    cofactor = span_gen // shared

    mu_t = _mu_bar(spec)
    b_r = gcd2(spec.b, mu_t * spec.ell * gt * cofactor)
    if cofactor.is_one:
        st = BIN_ZERO
    else:
        st = invert_mod2(rt % cofactor, cofactor)
    ell_r = (spec.ell + (BIN_ONE + st) * mu_t * spec.ell * gt) % b_r

    rspec = cyclic_spec(
        spec.alpha, beta, b_r, ell_r, spec.f // r, spec.h * r, spec.g
    )
    rank = (spec.alpha - _deg(b_r)) + (_deg(spec.h) + _deg(r)) + 2 * _deg(spec.g)
    return RankResult(rspec, r, rank)


def rank_candidates(t: CodeType) -> tuple[int, ...]:
    """All ranks achievable for codes of this type."""
    lo = t.gamma + 2 * t.delta
    hi = min(t.beta + t.delta + t.kappa, lo + t.delta * (t.delta - 1) // 2)
    return tuple(range(lo, hi + 1))


# ---------------------------------------------------------------------------
# enumeration over all cyclic pairs


def raw_pair_count(alpha: int, beta: int) -> int:
    """Number of candidate tuples before the validity filter."""
    t = len(quat_factors(beta))
    total = 0
    for b in divisors_of_xn1(alpha):
        total += (1 << _deg(b)) * 3**t
    return total


def enumerate_cyclic_specs(alpha: int, beta: int, type_filter=None):
    """Yield every valid cyclic pair over (alpha, beta), deterministically.

    ``type_filter`` restricts to matching (gamma, delta) or (gamma,
    delta, kappa).  Candidates violating the canonical-pair conditions
    are skipped, not errors.
    """
    factors = quat_factors(beta)
    one = QuatPoly((1,))
    for b in divisors_of_xn1(alpha):
        db = _deg(b)
        ells = [BinPoly(m) for m in range(1 << db)]
        for assign in product((0, 1, 2), repeat=len(factors)):
            f = h = g = one
            for q, slot in zip(factors, assign):
                if slot == 0:
                    f = f * q
                elif slot == 1:
                    h = h * q
                else:
                    g = g * q
            for ell in ells:
                spec = CyclicSpec(alpha, beta, b, ell, f, h, g)
                try:
                    validate(spec)
                except SpecError:
                    continue
                if type_filter is not None:
                    t = type_from_degrees(spec)
                    if (t.gamma, t.delta) != tuple(type_filter[:2]):
                        continue
                    if len(type_filter) > 2 and t.kappa != type_filter[2]:
                        continue
                yield spec


def spec_to_dict(spec: CyclicSpec) -> dict:
    return {
        "alpha": spec.alpha,
        "beta": spec.beta,
        "b": str(spec.b),
        "ell": str(spec.ell),
        "f": str(spec.f),
        "h": str(spec.h),
        "g": str(spec.g),
    }
