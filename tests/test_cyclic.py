"""Generator-pair specs: validation, enumeration, kernel and rank closed forms.

Every closed form asserted here is also cross-checked against the
enumeration oracles by the verify module; these tests pin concrete
values so a regression names the exact code that moved.
"""

import pickle
from itertools import product

import pytest

from z2z4.code import (
    AdditiveCode,
    Word,
    is_gray_linear_bruteforce,
    kernel_bruteforce,
    gray_preimage,
    span_bruteforce,
)
from z2z4.cyclic import (
    ENUMERATION_LIMIT,
    CyclicSpec,
    _triple_forms,
    cardinality,
    cyclic_spec,
    enumerate_cyclic_specs,
    gray_linear,
    kernel_dim_candidates,
    kernel_spec,
    linear_subcode_spec,
    materialize,
    maximal_linear_subcodes,
    order_two_spec,
    poly_word,
    rank_candidates,
    rank_spec,
    raw_pair_count,
    spec_to_dict,
    shift_orbit,
    three_generator_words,
    type_from_degrees,
)
from z2z4.errors import SizeGuardError, SpecError
from z2z4.gf2 import BIN_ONE, BIN_ZERO, BinPoly, divisors_of_xn1, gcd2
from z2z4.z4 import (
    Q_ONE,
    QuatPoly,
    monic_divisors,
    quat_factors,
    reduce_mod2,
    xn_minus_1_z4,
)

from test_gf2 import _rotation_product_gcd

X1 = BinPoly.parse("x + 1")
P3 = QuatPoly((3, 1, 2, 1))
Q3 = QuatPoly((3, 2, 3, 1))
XM1 = QuatPoly((3, 1))


def _mixed_3() -> CyclicSpec:
    return cyclic_spec(1, 3, X1, BIN_ONE, Q_ONE, QuatPoly((3, 1)),
                       QuatPoly((1, 1, 1)))


def test_validate_rejects_even_beta():
    with pytest.raises(SpecError, match="beta-odd"):
        cyclic_spec(1, 4, BIN_ONE, BIN_ZERO, Q_ONE, Q_ONE, Q_ONE)


def test_validate_rejects_wrong_factorization():
    with pytest.raises(SpecError, match="factorization"):
        cyclic_spec(1, 3, BIN_ONE, BIN_ZERO, Q_ONE, Q_ONE, Q_ONE)


def test_factorization_check_survives_a_warm_cache():
    # the valid triple fills the cached factorization test at beta = 7;
    # a bad triple there, and the same triple at another length, still fail
    cyclic_spec(1, 7, BIN_ONE, BIN_ZERO, XM1, P3, Q3)
    with pytest.raises(SpecError, match="factorization"):
        cyclic_spec(1, 7, BIN_ONE, BIN_ZERO, XM1, P3, P3)
    with pytest.raises(SpecError, match="factorization"):
        cyclic_spec(1, 9, BIN_ONE, BIN_ZERO, XM1, P3, Q3)


def test_validate_rejects_bad_binary_divisor():
    with pytest.raises(SpecError, match="b-divides"):
        cyclic_spec(2, 3, BinPoly.parse("x^2 + x + 1"), BIN_ZERO,
                    Q_ONE, Q_ONE, QuatPoly.parse("x^3 - 1"))


def test_validate_rejects_wide_mixing_row():
    with pytest.raises(SpecError, match="ell-degree"):
        cyclic_spec(1, 3, BIN_ONE, BIN_ONE, Q_ONE, Q_ONE,
                    QuatPoly.parse("x^3 - 1"))


def test_validate_rejects_unclosed_pair():
    # b = x^2 - 1 with ell = 1 and h = x - 1 fails the shift-closure
    # divisibility conditions at alpha = 2, beta = 3
    with pytest.raises(SpecError, match="pair-closure"):
        cyclic_spec(2, 3, BinPoly.parse("x^2 + 1"), BIN_ONE,
                    Q_ONE, XM1, QuatPoly((1, 1, 1)))


XN3 = QuatPoly.parse("x^3 - 1")


@pytest.mark.parametrize("invariant, args", [
    ("alpha-positive", (0, 3, BIN_ONE, BIN_ZERO, Q_ONE, Q_ONE, XN3)),
    ("beta-odd", (1, 4, BIN_ONE, BIN_ZERO, Q_ONE, Q_ONE, Q_ONE)),
    ("b-nonzero", (1, 3, BIN_ZERO, BIN_ZERO, Q_ONE, Q_ONE, XN3)),
    ("monic-factors", (1, 3, BIN_ONE, BIN_ZERO, Q_ONE, Q_ONE, XN3 * 3)),
    ("factorization", (1, 3, BIN_ONE, BIN_ZERO, Q_ONE, Q_ONE, Q_ONE)),
    ("b-divides", (2, 3, BinPoly.parse("x^2 + x + 1"), BIN_ZERO, Q_ONE, Q_ONE, XN3)),
    ("ell-degree", (1, 3, BIN_ONE, BIN_ONE, Q_ONE, Q_ONE, XN3)),
    ("pair-closure-1", (1, 1, X1, BIN_ONE, XM1, Q_ONE, Q_ONE)),
])
def test_constructing_an_invalid_spec_raises(invariant, args):
    with pytest.raises(SpecError, match=f"^{invariant}: ") as excinfo:
        CyclicSpec(*args)
    assert excinfo.value.invariant == invariant


def test_pair_closure_1_implies_the_old_pair_closure_2():
    # b | h g gcd(b, ell) gives b / gcd(b, h) | g gcd(b, ell), which divides
    # gcd(b, ell g); so the check b | h gcd(b, ell g) could never fail.  The
    # specs this raw loop builds are, in order, the ones enumerated
    candidates = 0
    for alpha in range(1, 7):
        for beta in (1, 3, 5, 7):
            built = []
            factors = quat_factors(beta)
            for b in divisors_of_xn1(alpha):
                for assign in product((0, 1, 2), repeat=len(factors)):
                    fhg = [Q_ONE, Q_ONE, Q_ONE]
                    for q, slot in zip(factors, assign):
                        fhg[slot] = fhg[slot] * q
                    ht, gt = reduce_mod2(fhg[1]), reduce_mod2(fhg[2])
                    for m in range(1 << b.degree):
                        ell = BinPoly(m)
                        candidates += 1
                        closure_1 = ((ht * gt * gcd2(b, ell)) % b).is_zero
                        closure_2 = ((ht * gcd2(b, ell * gt)) % b).is_zero
                        assert closure_2 or not closure_1, (alpha, beta, b, ell, fhg)
                        try:
                            spec = CyclicSpec(alpha, beta, b, ell, *fhg)
                        except SpecError as exc:
                            assert exc.invariant == "pair-closure-1" and not closure_1
                        else:
                            assert closure_1
                            built.append(spec)
            assert built == list(enumerate_cyclic_specs(alpha, beta)), (alpha, beta)
    assert candidates == sum(raw_pair_count(a, be) for a in range(1, 7) for be in (1, 3, 5, 7))


def test_pickle_round_trip_keeps_the_spec_and_its_residues():
    spec = _mixed_3()
    back = pickle.loads(pickle.dumps(spec))
    assert back == spec and hash(back) == hash(spec) and repr(back) == repr(spec)
    assert repr(spec).endswith(f"g={spec.g!r})")  # residues are not in the repr
    assert (back.ft, back.ht, back.gt) == tuple(map(reduce_mod2, (spec.f, spec.h, spec.g)))


def test_known_type():
    spec = _mixed_3()
    t = type_from_degrees(spec)
    assert (t.alpha, t.beta, t.gamma, t.delta, t.kappa) == (1, 3, 1, 2, 1)
    assert (t.kappa1, t.kappa2) == (0, 1)
    assert cardinality(spec) == 32


def test_materialize_counts():
    spec = _mixed_3()
    code = materialize(spec)
    assert code.size == cardinality(spec)
    assert code.is_cyclic()


def test_enumeration_counts_frozen():
    assert raw_pair_count(2, 7) == 189
    assert raw_pair_count(3, 7) == 405
    assert len(list(enumerate_cyclic_specs(1, 3))) == 24
    assert len(list(enumerate_cyclic_specs(2, 7))) == 117
    assert len(list(enumerate_cyclic_specs(3, 3))) == 96
    assert len(list(enumerate_cyclic_specs(4, 5))) == 69


def test_enumeration_guard_predicts_the_candidate_count():
    with pytest.raises(SizeGuardError) as excinfo:
        next(enumerate_cyclic_specs(40, 3))
    assert excinfo.value.predicted == raw_pair_count(40, 3) > ENUMERATION_LIMIT


def test_enumeration_type_filter():
    specs = list(enumerate_cyclic_specs(2, 7, type_filter=(2, 3)))
    assert len(specs) == 6
    kappas = sorted(type_from_degrees(s).kappa for s in specs)
    assert kappas == [1, 1, 2, 2, 2, 2]
    only_k1 = list(enumerate_cyclic_specs(2, 7, type_filter=(2, 3, 1)))
    assert len(only_k1) == 2


def test_enumeration_is_deterministic():
    a = [spec_to_dict(s) for s in enumerate_cyclic_specs(2, 5)]
    b = [spec_to_dict(s) for s in enumerate_cyclic_specs(2, 5)]
    assert a == b


def test_every_enumerated_spec_is_valid():
    for spec in enumerate_cyclic_specs(3, 5):
        code = materialize(spec)
        assert code.size == cardinality(spec)
        assert code.is_cyclic()


def test_kernel_closed_form_small():
    res = kernel_spec(_mixed_3())
    assert res.dimension == 3
    assert res.k_prime == QuatPoly((1, 1, 1))
    assert res.minimal_divisors == (QuatPoly((1, 1, 1)),)
    kernel = materialize(res.spec)
    assert kernel == kernel_bruteforce(materialize(_mixed_3()))


def test_kernel_of_linear_code_is_everything():
    spec = cyclic_spec(1, 7, BIN_ONE, BIN_ZERO, P3 * Q3, XM1, Q_ONE)
    assert gray_linear(spec)
    res = kernel_spec(spec)
    assert res.k_prime == Q_ONE
    t = type_from_degrees(spec)
    assert res.dimension == t.gamma + 2 * t.delta


def test_kernel_dim_candidates():
    t = type_from_degrees(_mixed_3())
    assert kernel_dim_candidates(t) == (3, 5)
    specs = list(enumerate_cyclic_specs(2, 7, type_filter=(2, 3)))
    assert kernel_dim_candidates(type_from_degrees(specs[0])) == (5, 6, 8)


def test_rank_closed_form_small():
    res = rank_spec(_mixed_3())
    assert res.rank == 6
    assert res.r == Q_ONE
    lifted = gray_preimage(span_bruteforce(materialize(_mixed_3())), 1, 3)
    assert materialize(res.spec) == lifted


@pytest.mark.parametrize("n", (7, 9, 15, 21))
def test_rank_forms_agree_with_the_rotation_product_span(n):
    # S is the product span of f h read off rotations, not tensor squares:
    # r divides f, S meets f in exactly f / r, and p is mu g (S / gcd(S, f))
    whole = xn_minus_1_z4(n)
    for g in monic_divisors(whole, n):
        for h in monic_divisors(whole // g, n):
            ft, ht, gt = (reduce_mod2(p) for p in (whole // (g * h), h, g))
            forms = _triple_forms(ft, ht, gt, n)
            rt = reduce_mod2(forms.r)
            span = _rotation_product_gcd(ft * ht, n)
            shared = gcd2(span, ft)
            assert rt.divides(ft)
            assert shared * rt == ft
            assert forms.p == forms.mu_g * (span // shared)


def test_rank_candidates():
    specs = list(enumerate_cyclic_specs(2, 7, type_filter=(2, 3)))
    assert rank_candidates(type_from_degrees(specs[0])) == (8, 9, 10, 11)
    t = type_from_degrees(_mixed_3())
    assert rank_candidates(t) == (5, 6)


def test_linearity_closed_form_matches_bruteforce():
    for spec in enumerate_cyclic_specs(1, 3):
        closed = gray_linear(spec)
        brute = is_gray_linear_bruteforce(materialize(spec))
        assert closed == brute, str(spec)


def test_quaternary_linearity_criterion():
    # b = 1 and ell = 0 split off the binary block, so the code is linear
    # exactly when gcd of f mod 2 with the root-sumset divisor of g is 1
    def linear(f, h, g):
        return gray_linear(CyclicSpec(1, 7, BIN_ONE, BIN_ZERO, f, h, g))

    assert linear(XM1, P3, Q3)
    assert not linear(XM1 * P3, Q_ONE, Q3)  # p3 roots meet the sumset
    assert not linear(XM1 * Q3, Q_ONE, P3)
    assert linear(P3 * Q3, XM1, Q_ONE)      # g = 1 is always linear


def test_order_two_subcode_spec():
    spec = _mixed_3()
    sub = order_two_spec(spec)
    assert materialize(sub) == materialize(spec).order_two_subcode()


def test_three_generator_presentation():
    spec = _mixed_3()
    w1, w2, w3 = three_generator_words(spec)
    gens = shift_orbit(w1, spec.alpha) + shift_orbit(w2, spec.beta) + shift_orbit(w3, spec.beta)
    assert AdditiveCode(spec.alpha, spec.beta, gens) == materialize(spec)


def test_poly_word_reduces_both_blocks():
    # x^3 = 1 in the binary block of length 3; x^3 + 2x^4 = 1 + 2x mod x^3 - 1
    w = poly_word(3, 3, BinPoly.parse("x^3 + x"), QuatPoly((0, 0, 0, 1, 2)))
    assert str(w) == "110|120"
    assert str(poly_word(0, 3, BIN_ZERO, QuatPoly((3, 3)))) == "|330"
    assert [str(v) for v in shift_orbit(w, 3)] == ["110|120", "011|012", "101|201"]


def test_spec_to_code_is_injective():
    """Distinct canonical pairs generate distinct codes over the sweep range."""
    seen = {}
    for alpha in range(1, 7):
        for beta in (1, 3, 5, 7, 9):
            for spec in enumerate_cyclic_specs(alpha, beta):
                code = materialize(spec)
                assert code not in seen, f"{spec} and {seen[code]} generate one code"
                seen[code] = spec
    assert len(seen) == 3931


def test_maximal_linear_subcodes():
    spec = cyclic_spec(1, 7, BIN_ONE, BIN_ZERO, XM1, Q_ONE, P3 * Q3)
    subs = maximal_linear_subcodes(spec)
    # the divisor moved from g to h identifies each subcode
    assert {s.h for s in subs} == {P3, Q3}
    for sub in subs:
        assert gray_linear(sub)
        assert materialize(sub).is_subcode_of(materialize(spec))


def test_linear_subcode_spec_moves_divisor():
    spec = cyclic_spec(1, 7, BIN_ONE, BIN_ZERO, XM1, Q_ONE, P3 * Q3)
    sub = linear_subcode_spec(spec, P3)
    assert sub.f == spec.f
    assert sub.h == P3
    assert sub.g == Q3
    assert gray_linear(sub)
    # a k with unit leading coefficient 3 divides g too, and moves its monic part
    assert linear_subcode_spec(spec, P3 * 3) == sub
    with pytest.raises(ValueError):
        linear_subcode_spec(spec, QuatPoly((1, 1)))  # x + 1 does not divide g
