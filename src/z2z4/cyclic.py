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
high-order binary code; ``pairwise_product_span`` reads it off the
tensor square of that code's check polynomial.

A ``CyclicSpec`` exists only once its checks pass.  A divisor of
x^beta - 1 over Z4 (beta odd) is the product of the basic factors that
one bit mask over the cyclotomic cosets selects (MacWilliams-Sloane,
ch. 7), so a spec carries the masks of h and g; f's is the rest.  The
checks and the closed forms run on those masks and on int bitmasks
(``gf2._mul2``, ``_mod2``, ``_gcd2``, ``_divmod2``), and build
``BinPoly`` and ``QuatPoly`` objects only for result fields.
``pair-closure-1``, b | hg gcd(b, ell) with hg = h g mod 2, is tested
as d | ell for d = b / gcd(b, hg): with e = gcd(b, hg), b/e and hg/e are
coprime, so b/e divides (hg/e) gcd(b, ell) iff it divides gcd(b, ell),
that is, iff it divides ell.

Each closed form comes in two parts.  The part that reads only (f, h, g)
is memoised in ``_triple_forms``: the divisor walk over g with its
tensor squares, the binary Bezout cofactor of (h, g), the factor r that
the rank moves from f to h, and the polynomials the rank spec reads off
the product span.  The rest reads b and ell and works modulo b.  The
memos, per length with t basic factors: ``_residue`` (a mask's divisor
mod 2) has at most 2^t keys; ``_triple_forms``, ``_factor_text`` (the
text of f, h and g) and ``_factors_xn1`` (the exact test that f h g is
x^beta - 1, which also yields the masks) are keyed per triple, with at
most 3^t valid ones.  Whole results (``kernel_spec``, ``rank_spec``)
are not cached, and every derived spec is built, and checked, as a new
``CyclicSpec``.
"""

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import groupby, product

from .code import DEFAULT_MAX_WORDS, AdditiveCode, CodeType, Word
from .errors import SizeGuardError, SpecError
from .gf2 import (
    BIN_ONE,
    BIN_ZERO,
    BinPoly,
    _divmod2,
    _gcd2,
    _mod2,
    _mul2,
    divisor_mask,
    divisors_of_xn1,
    ext_gcd2,
    gcd2,
    invert_mod2,
    pairwise_product_span,
    tensor_square,
    xn_minus_1,
)
from .z4 import (
    Q_ZERO,
    QuatPoly,
    mask_poly,
    monic_divisors,
    quat_factors,
    quat_mask,
    reduce_mod2,
    xn_minus_1_z4,
)


ENUMERATION_LIMIT = 1 << 24


@lru_cache(maxsize=None)
def _factors_xn1(f: QuatPoly, h: QuatPoly, g: QuatPoly, beta: int) -> tuple[int, int] | None:
    """The masks of h and g if f h g = x^beta - 1 over Z4 exactly, else None."""
    if f * h * g != xn_minus_1_z4(beta):
        return None
    return quat_mask(h, beta), quat_mask(g, beta)


@lru_cache(maxsize=None)
def _residue(mask: int, beta: int) -> int:
    """The bits of the divisor of x^beta - 1 that ``mask`` selects, mod 2."""
    return reduce_mod2(mask_poly(mask, beta)).bits


def _f_mask(h_mask: int, g_mask: int, beta: int) -> int:
    return ((1 << len(quat_factors(beta))) - 1) & ~(h_mask | g_mask)


def _pair_text(b, ell, f, h, g, **_) -> str:
    """The generator part of ``_spec_text``; kernel and span pairs print it alone."""
    return f"b=({b}) ell=({ell}) f=({f}) h=({h}) g=({g})"


def _spec_text(alpha, beta, b, ell, f, h, g, **_) -> str:
    """The one text form of a spec, from its fields or a record holding them."""
    return f"alpha={alpha} beta={beta} " + _pair_text(b, ell, f, h, g)


@lru_cache(maxsize=None)
def _factor_text(h_mask: int, g_mask: int, beta: int) -> tuple[str, str, str]:
    """The texts of f, h and g, from the masks of h and g."""
    return tuple(str(mask_poly(m, beta)) for m in (_f_mask(h_mask, g_mask, beta), h_mask, g_mask))


@dataclass(frozen=True, slots=True)
class CyclicSpec:
    """Generator polynomial data for one cyclic code, checked on construction.

    SpecError names the first requirement that fails.  The last two make
    the pair the canonical one for its code, which the closed forms
    assume.  ``h_mask`` and ``g_mask`` are the basic-factor masks of h
    and g; f's is the rest.  A pickle carries the seven declared fields
    alone, so unpickling builds, and checks, the spec anew.
    """

    alpha: int
    beta: int
    b: BinPoly
    ell: BinPoly
    f: QuatPoly
    h: QuatPoly
    g: QuatPoly
    h_mask: int = field(init=False, repr=False, compare=False)
    g_mask: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.alpha < 1:
            raise SpecError("alpha-positive", f"alpha must be at least 1, got {self.alpha}")
        if self.beta < 1 or self.beta % 2 == 0:
            raise SpecError("beta-odd", f"beta must be odd and positive, got {self.beta}")
        if self.b.is_zero:
            raise SpecError("b-nonzero", "b must be a nonzero divisor of x^alpha - 1")
        for name, p in (("f", self.f), ("h", self.h), ("g", self.g)):
            if not p.is_monic:
                raise SpecError("monic-factors", f"{name} must be monic, got {p}")
        masks = _factors_xn1(self.f, self.h, self.g, self.beta)
        if masks is None:
            raise SpecError(
                "factorization", f"f h g must equal x^{self.beta} - 1 over Z4 exactly"
            )
        b, ell = self.b.bits, self.ell.bits
        if _mod2((1 << self.alpha) | 1, b):
            raise SpecError("b-divides", f"b = {self.b} does not divide x^{self.alpha} - 1")
        if ell.bit_length() >= b.bit_length():
            raise SpecError(
                "ell-degree", f"need deg ell < deg b, got ell = {self.ell}, b = {self.b}"
            )
        object.__setattr__(self, "h_mask", masks[0])
        object.__setattr__(self, "g_mask", masks[1])
        # b | hg gcd(b, ell) iff d = b / gcd(b, hg) divides ell
        hg = _residue(masks[0] | masks[1], self.beta)
        if _mod2(ell, _divmod2(b, _gcd2(hg, b))[0]):
            raise SpecError(
                "pair-closure-1",
                "b must divide (x^beta - 1)/f * gcd(b, ell) for a canonical pair",
            )

    def __reduce__(self):
        return CyclicSpec, (self.alpha, self.beta, self.b, self.ell, self.f, self.h, self.g)

    def __str__(self) -> str:
        return _spec_text(self.alpha, self.beta, self.b, self.ell,
                          *_factor_text(self.h_mask, self.g_mask, self.beta))


def _deg(p) -> int:
    d = p.degree
    if d < 0:
        raise ValueError("zero polynomial has no finite degree here")
    return d


def cyclic_spec(alpha, beta, b, ell, f, h, g) -> CyclicSpec:
    """Build a spec, normalizing unit leading coefficients."""
    return CyclicSpec(alpha, beta, b, ell, f.monic(), h.monic(), g.monic())


def cardinality(spec: CyclicSpec) -> int:
    return 1 << (
        (spec.alpha - _deg(spec.b)) + 2 * _deg(spec.g) + _deg(spec.h)
    )


def type_from_degrees(spec: CyclicSpec) -> CodeType:
    """Type parameters straight from the generator degrees."""
    b, ell = spec.b.bits, spec.ell.bits
    db = b.bit_length() - 1
    d_lg = _gcd2(_mul2(ell, _mod2(_residue(spec.g_mask, spec.beta), b)), b).bit_length() - 1
    d_l = _gcd2(ell, b).bit_length() - 1
    gamma = spec.alpha - db + spec.h.degree
    delta = spec.g.degree
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
    """The word (x | y), with x read mod x^alpha - 1 and y mod x^beta - 1;
    a block of length 0 is empty, whatever its polynomial."""
    xbits = (x % xn_minus_1(alpha)).bits if alpha else 0
    ys = (y % xn_minus_1_z4(beta)).coeffs if beta else ()
    lo = sum(1 << i for i, c in enumerate(ys) if c & 1)
    hi = sum(1 << i for i, c in enumerate(ys) if c & 2)
    return Word(alpha, beta, xbits, lo, hi)


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
# the part of the closed forms that reads only (f, h, g)


@dataclass(frozen=True, slots=True)
class _TripleForms:
    """What the closed forms of every spec with one (f, h, g) share.

    ``walk`` holds the divisors k of g that can qualify for the kernel,
    grouped by ascending degree, as (k mask, q, T(q)) with q = (g / k)
    mod 2.  The rank moves ``r`` from f to h; its binary divisor
    is gcd(b, ell ``p``), and its mixing polynomial is ell ``q`` modulo
    that divisor.  Binary fields are int bitmasks.
    """

    mu_g: int  # mu g mod 2, with lam h + mu g = 1 over GF(2)
    walk: tuple[tuple[tuple[int, int, int], ...], ...]
    r: QuatPoly
    f_over_r: QuatPoly
    h_times_r: QuatPoly
    p: int
    q: int


@lru_cache(maxsize=None)
def _triple_forms(h_mask: int, g_mask: int, beta: int) -> _TripleForms:
    """The (f, h, g) part of every closed form, from the masks of h and g."""
    f_mask = _f_mask(h_mask, g_mask, beta)
    ft, ht, gt = (BinPoly(_residue(m, beta)) for m in (f_mask, h_mask, g_mask))
    walk = []
    for _, ks in groupby(monic_divisors(mask_poly(g_mask, beta), beta),
                         key=lambda k: k.degree):
        group = []
        for k in ks:
            # reduction mod 2 is a ring map and k divides g
            qt = gt // reduce_mod2(k)
            tsq = tensor_square(qt, beta)
            if gcd2(ft, tsq).is_one:  # else k qualifies for no b and ell
                group.append((quat_mask(k, beta), qt.bits, tsq.bits))
        if group:
            walk.append(tuple(group))
    # every closed form reads the Bezout identity for (h, g) only mod 2
    mu_g = ext_gcd2(ht, gt)[2] * gt
    # r lifts gcd(f, T(g)): the basic factors over its coset factors, all in f
    rt = gcd2(ft, tensor_square(gt, beta))
    r_mask = divisor_mask(rt, beta)
    # the span of coefficientwise products of the high-order binary code;
    # its part coprime to f is what can erode the binary divisor b
    span_gen = pairwise_product_span((ft * ht) % xn_minus_1(beta), beta)
    cofactor = span_gen // gcd2(span_gen, ft)
    st = BIN_ZERO if cofactor.is_one else invert_mod2(rt % cofactor, cofactor)
    return _TripleForms(
        mu_g.bits, tuple(walk),
        mask_poly(r_mask, beta), mask_poly(f_mask & ~r_mask, beta),
        mask_poly(h_mask | r_mask, beta), (mu_g * cofactor).bits,
        (BIN_ONE + (BIN_ONE + st) * mu_g).bits,
    )


def _forms(spec: CyclicSpec) -> _TripleForms:
    return _triple_forms(spec.h_mask, spec.g_mask, spec.beta)


# ---------------------------------------------------------------------------
# Gray linearity


def gray_linear(spec: CyclicSpec) -> bool:
    """Closed-form linearity test for the full two-block code."""
    return _minimal_divisors(spec)[0][0] == 0  # k = 1 is alone in degree 0


# ---------------------------------------------------------------------------
# order-two subcode and alternative generator forms


def order_two_spec(spec: CyclicSpec) -> CyclicSpec:
    """Generator data for the subcode of words of order at most two."""
    return _subcode(spec, spec.g_mask)


def three_generator_words(spec: CyclicSpec) -> tuple[Word, Word, Word]:
    """Equivalent three-row generating set separating the doubled part.

    Rows are (b | 0), (ell' | f h), (ell_b | 2 f) with ell' chosen so
    the middle row carries no doubled contribution from ell.
    """
    a, be = spec.alpha, spec.beta
    ell_b = BinPoly(_ell_for_divisor(spec, _residue(spec.g_mask, spec.beta)))
    return (
        poly_word(a, be, spec.b, Q_ZERO),
        poly_word(a, be, spec.ell + ell_b, spec.f * spec.h),
        poly_word(a, be, ell_b, spec.f * 2),
    )


# ---------------------------------------------------------------------------
# kernel


def _ell_for_divisor(spec: CyclicSpec, kt: int) -> int:
    # ell (k + (1 + k) mu g) mod b, with k and mu g read mod b first
    b = spec.b.bits
    kb = _mod2(kt, b)
    return _mod2(_mul2(spec.ell.bits, kb ^ _mul2(1 ^ kb, _mod2(_forms(spec).mu_g, b))), b)


def _subcode(spec: CyclicSpec, k_mask: int) -> CyclicSpec:
    """``linear_subcode_spec`` for the divisor k of g with mask ``k_mask``."""
    kt = _residue(k_mask, spec.beta)
    return CyclicSpec(
        spec.alpha, spec.beta, spec.b, BinPoly(_ell_for_divisor(spec, kt)), spec.f,
        mask_poly(spec.h_mask | k_mask, spec.beta), mask_poly(spec.g_mask & ~k_mask, spec.beta),
    )


def linear_subcode_spec(spec: CyclicSpec, k: QuatPoly) -> CyclicSpec:
    """The largest subcode with linear image whose quaternary loss is k.

    k must divide g, up to a unit; the subcode keeps b and f, moves the
    monic k from g to h, and adjusts the binary mixing polynomial
    accordingly.
    """
    k_mask = quat_mask(k.monic(), spec.beta)
    if k_mask & ~spec.g_mask:
        raise ValueError(f"{k} does not divide g = {spec.g}")
    return _subcode(spec, k_mask)


def _divisor_qualifies(spec: CyclicSpec, qt: int, tsq: int) -> bool:
    """Whether moving k out of g leaves a subcode with linear image.

    With q = (g / k) mod 2 that is gcd(f X, T(q)) = 1 over GF(2), where
    X = b / gcd(b, ell q).  It holds iff gcd(f, T(q)) = 1, which the walk
    has checked, and gcd(X, T(q)) = 1; q is read mod b.
    """
    b = spec.b.bits
    return _gcd2(_divmod2(b, _gcd2(_mul2(spec.ell.bits, _mod2(qt, b)), b))[0], tsq) == 1


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


def _minimal_divisors(spec: CyclicSpec) -> tuple[tuple[int, int, int], ...]:
    """The walk entries of the smallest-degree divisors k of g whose
    subcode has linear image.

    The walk ascends in degree, so the first degree with a qualifying
    divisor is the smallest.
    """
    for group in _forms(spec).walk:
        minimal = tuple(e for e in group if _divisor_qualifies(spec, e[1], e[2]))
        if minimal:
            return minimal
    raise AssertionError("k = g must always qualify")


def kernel_spec(spec: CyclicSpec) -> KernelResult:
    minimal = _minimal_divisors(spec)
    k_mask = 0  # k' is the lcm of the minimal divisors
    for m, _, _ in minimal:
        k_mask |= m
    k_prime = mask_poly(k_mask, spec.beta)
    # gamma + 2 delta, less deg k'
    dim = spec.alpha - spec.b.degree + spec.h.degree + 2 * spec.g.degree - k_prime.degree
    return KernelResult(_subcode(spec, k_mask), k_prime,
                        tuple(mask_poly(m, spec.beta) for m, _, _ in minimal), dim)


def maximal_linear_subcodes(spec: CyclicSpec) -> tuple[CyclicSpec, ...]:
    """Subcodes with linear image that are maximal among the cyclic ones."""
    return tuple(_subcode(spec, m) for m, _, _ in _minimal_divisors(spec))


def kernel_dim_candidates(t: CodeType) -> tuple[int, ...]:
    """All kernel dimensions achievable for codes of this type."""
    slack = t.beta - (t.gamma - t.kappa) - t.delta  # CodeType refuses a negative slack
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
    forms = _forms(spec)
    b, ell = spec.b.bits, spec.ell.bits
    b_r = _gcd2(_mul2(ell, _mod2(forms.p, b)), b)
    ell_r = _mod2(_mul2(ell, _mod2(forms.q, b_r)), b_r)
    rspec = CyclicSpec(
        spec.alpha, spec.beta, BinPoly(b_r), BinPoly(ell_r), forms.f_over_r, forms.h_times_r,
        spec.g,
    )
    rank = (spec.alpha - b_r.bit_length() + 1) + forms.h_times_r.degree + 2 * spec.g.degree
    return RankResult(rspec, forms.r, rank)


def rank_candidates(t: CodeType) -> tuple[int, ...]:
    """All ranks achievable for codes of this type."""
    lo = t.gamma + 2 * t.delta
    hi = min(t.beta + t.delta + t.kappa, lo + t.delta * (t.delta - 1) // 2)
    return tuple(range(lo, hi + 1))


# ---------------------------------------------------------------------------
# enumeration over all cyclic pairs


def raw_pair_count(alpha: int, beta: int) -> int:
    """Number of candidate tuples before the validity filter."""
    return 3 ** len(quat_factors(beta)) * sum(1 << _deg(b) for b in divisors_of_xn1(alpha))


def enumerate_cyclic_specs(alpha: int, beta: int, type_filter=None):
    """Yield every valid cyclic pair over (alpha, beta), deterministically.

    ``type_filter`` restricts to matching (gamma, delta) or (gamma,
    delta, kappa).  ``pair-closure-1`` holds exactly when d = b / gcd(b,
    h g) over GF(2) divides ell, so only the multiples of d of degree
    below deg b are built, in ascending order of their bits.  More than
    ``ENUMERATION_LIMIT`` candidates raise SizeGuardError before the
    first is built.
    """
    raw = raw_pair_count(alpha, beta)
    if raw > ENUMERATION_LIMIT:
        raise SizeGuardError(f"{raw} candidate pairs at ({alpha}, {beta}), above the "
                             f"{ENUMERATION_LIMIT} guard", predicted=raw)
    # each basic factor goes into f, h or g; one list of (f, h, g, h g mod 2) per length
    triples = []
    for assign in product((0, 1, 2), repeat=len(quat_factors(beta))):
        masks = [0, 0, 0]
        for i, slot in enumerate(assign):
            masks[slot] |= 1 << i
        f, h, g = (mask_poly(m, beta) for m in masks)
        triples.append((f, h, g, _residue(masks[1] | masks[2], beta)))
    for b in divisors_of_xn1(alpha):
        ells = [BinPoly(m) for m in range(1 << _deg(b))]
        for f, h, g, hg in triples:
            d = _divmod2(b.bits, _gcd2(hg, b.bits))[0]
            for m in sorted(_mul2(d, j) for j in range(1 << (_deg(b) - d.bit_length() + 1))):
                spec = CyclicSpec(alpha, beta, b, ells[m], f, h, g)
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
        **dict(zip("fhg", _factor_text(spec.h_mask, spec.g_mask, spec.beta))),
    }
