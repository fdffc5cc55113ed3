"""End-to-end checks for the headline behaviors, each with its time budget.

Every test wraps its assertions in the ``acceptance`` context manager from
conftest so that the terminal summary ends with one PASS or FAIL line per
behavior, in order.
"""

import os
import time

import pytest

from conftest import acceptance
from z2z4.code import AdditiveCode, Word, gray_preimage, kernel_bruteforce, span_bruteforce
from z2z4.cyclic import (
    cyclic_spec,
    enumerate_cyclic_specs,
    kernel_dim_candidates,
    kernel_spec,
    materialize,
    maximal_linear_subcodes,
    poly_word,
    rank_candidates,
    rank_spec,
    shift_orbit,
    type_from_degrees,
)
from z2z4.gf2 import BIN_ZERO, BinPoly
from z2z4.verify import _matrix_lines, cross_check, paper_suite, sweep
from z2z4.z4 import QuatPoly, factor_xn1_z4, hensel_lift, xn_minus_1_z4

XM1 = QuatPoly((3, 1))
P3 = QuatPoly((3, 1, 2, 1))
Q3 = QuatPoly((3, 2, 3, 1))


@pytest.fixture(scope="module")
def type_2_3_rows():
    """Every (2, 7) spec of type (2, 7; 2, 3; *), fully cross-checked."""
    start = time.perf_counter()
    rows = [
        (spec, cross_check(spec))
        for spec in enumerate_cyclic_specs(2, 7, type_filter=(2, 3))
    ]
    return rows, time.perf_counter() - start


@pytest.fixture(scope="module")
def full_sweep():
    """The complete enumeration at alpha <= 4, beta in {1, 3, 5, 7, 9}."""
    start = time.perf_counter()
    summary = sweep(
        alpha_max=4,
        betas=(1, 3, 5, 7, 9),
        workers=os.cpu_count() or 1,
    )
    return summary, time.perf_counter() - start


def test_factor_length_seven_over_z4():
    with acceptance("01", "x^7 - 1 splits into the three pinned quaternary "
                          "factors (< 1 s)"):
        start = time.perf_counter()
        factors = [p for _, p in factor_xn1_z4(7)]
        elapsed = time.perf_counter() - start
        assert set(factors) == {XM1, P3, Q3}
        product = QuatPoly((1,))
        for p in factors:
            product = product * p
        assert product == xn_minus_1_z4(7)
        assert elapsed < 1.0


def test_degree_four_lift_at_length_fifteen():
    with acceptance("02", "the degree-4 lift at length 15 matches the pinned "
                          "polynomial (< 1 s)"):
        start = time.perf_counter()
        lifted = hensel_lift(BinPoly.parse("x^4+x+1"), 15)
        elapsed = time.perf_counter() - start
        assert lifted == QuatPoly((1, 3, 2, 0, 1))
        assert elapsed < 1.0


def test_mixed_length_example_structure():
    with acceptance("03", "the length-(1, 3) example: type, standard "
                          "matrices, kernel dimension 3 (< 1 s)"):
        start = time.perf_counter()
        spec = cyclic_spec(
            1, 3,
            BinPoly.parse("x+1"), BinPoly.parse("1"),
            QuatPoly((1,)), QuatPoly((3, 1)), QuatPoly((1, 1, 1)),
        )
        assert str(type_from_degrees(spec)) == "(1, 3; 1, 2; 1)"
        code = materialize(spec)
        assert _matrix_lines(code) == ("1 2 0 0", "0 3 1 0", "0 3 0 1")
        kres = kernel_spec(spec)
        assert kres.dimension == 3
        kcode = materialize(kres.spec)
        assert kcode == kernel_bruteforce(code)
        assert _matrix_lines(kcode) == ("1 2 0 0", "0 2 2 0", "0 2 0 2")
        assert time.perf_counter() - start < 1.0


def test_kernel_sweep_of_type_two_three(type_2_3_rows):
    with acceptance("04", "type (2, 3) sweep at length (2, 7): kernel "
                          "dimension 5 everywhere, 6 and 8 never (< 30 s)"):
        rows, elapsed = type_2_3_rows
        assert len(rows) == 6
        assert all(rep.passed for _, rep in rows)
        kappas = {type_from_degrees(spec).kappa for spec, _ in rows}
        assert kappas == {1, 2}
        assert {rep.kernel_result.dimension for _, rep in rows} == {5}
        for spec, _ in rows:
            cands = kernel_dim_candidates(type_from_degrees(spec))
            assert cands == (5, 6, 8)
        assert elapsed < 30.0


def test_rank_sweep_of_type_two_three(type_2_3_rows):
    with acceptance("05", "type (2, 3) sweep at length (2, 7): rank 11 "
                          "everywhere, 8 through 10 never (< 30 s)"):
        rows, elapsed = type_2_3_rows
        assert {rep.rank_result.rank for _, rep in rows} == {11}
        for spec, rep in rows:
            r = rep.rank_result.r
            assert rank_candidates(type_from_degrees(spec)) == (8, 9, 10, 11)
            assert {r, spec.g} == {P3, Q3}
            assert r.divides(spec.f)
            if spec.g == P3:
                assert r == Q3
        assert elapsed < 30.0


def test_maximal_subcodes_meet_in_the_kernel():
    with acceptance("06", "two maximal linear subcodes, k' of degree 6, "
                          "kernel of dimension 7 (< 5 s)"):
        start = time.perf_counter()
        spec = cyclic_spec(
            1, 7,
            BinPoly.parse("1"), BinPoly.parse("0"),
            XM1, QuatPoly((1,)), P3 * Q3,
        )
        subs = maximal_linear_subcodes(spec)
        assert {s.h for s in subs} == {P3, Q3}
        kres = kernel_spec(spec)
        assert kres.k_prime == P3 * Q3
        assert kres.dimension == 7
        code = materialize(spec)
        kcode = materialize(kres.spec)
        assert kcode == kernel_bruteforce(code)
        expected = AdditiveCode(1, 7, [
            Word.parse("1|0000000"),
            *shift_orbit(poly_word(1, 7, BIN_ZERO, spec.f * 2), 7),
        ])
        assert kcode == expected
        assert time.perf_counter() - start < 5.0


def test_mixing_erodes_the_binary_divisor_from_the_span():
    with acceptance("07", "with a mixing row the span drops the binary "
                          "divisor: pair (1 | 0), (0 | (x + 3) + 2) (< 5 s)"):
        start = time.perf_counter()
        spec = cyclic_spec(
            3, 7,
            BinPoly.parse("x+1"), BinPoly.parse("1"),
            QuatPoly((1,)), XM1, P3 * Q3,
        )
        rres = rank_spec(spec)
        assert rres.spec.b == BinPoly.parse("1")
        assert rres.spec.ell == BinPoly.parse("0")
        assert rres.r == QuatPoly((1,))
        assert rres.rank == 16
        lifted = gray_preimage(span_bruteforce(materialize(spec)), 3, 7)
        assert materialize(rres.spec) == lifted
        expected = AdditiveCode(3, 7, [
            Word.parse("100|0000000"),
            Word.parse("010|0000000"),
            Word.parse("001|0000000"),
            *shift_orbit(poly_word(3, 7, BIN_ZERO, spec.h + spec.f * 2), 7),
        ])
        assert lifted == expected
        assert time.perf_counter() - start < 5.0


def test_five_row_non_cyclic_rank_decomposition():
    with acceptance("08", "the five-row non-cyclic code has rank 8 with "
                          "projection rank 5 and kappa1 = 2 (< 1 s)"):
        start = time.perf_counter()
        rows = ["100|000", "010|000", "001|200", "000|110", "000|101"]
        code = AdditiveCode(3, 3, [Word.parse(r) for r in rows])
        assert not code.is_cyclic()
        t = code.code_type()
        assert t.kappa1 == 2
        rank = span_bruteforce(code).dim
        assert rank == 8
        proj_rank = span_bruteforce(code.project_y()).dim
        assert proj_rank == 5
        assert rank > t.kappa1 + proj_rank
        assert time.perf_counter() - start < 1.0


@pytest.mark.slow
def test_full_enumeration_cross_checks(full_sweep):
    with acceptance("09", "full enumeration at alpha <= 4, beta <= 9: every "
                          "cross-check passes (< 10 min)"):
        summary, elapsed = full_sweep
        assert summary.total == 1692
        assert summary.guarded == 0
        assert summary.failures == ()
        assert elapsed < 600.0


@pytest.mark.slow
def test_gray_identity_and_nesting_everywhere(full_sweep):
    with acceptance("10", "Gray identity holds on every swept ambient, "
                          "kernel/code/span nesting on every enumerated code"):
        summary, _ = full_sweep
        needed = ("gray-identity", "kernel-in-code", "code-in-span")
        for row in summary.rows:
            verdicts = dict(row.report.checks)
            for name in needed:
                assert verdicts[name], f"{name} failed for {row.spec}"


def test_discrepant_printed_pair_is_flagged_not_failed():
    with acceptance("11", "the discrepant printed span pair is flagged "
                          "without failing the default run"):
        report = paper_suite()
        last = report["fixtures"][-1]
        assert last["passed"] and last["flagged"]
        assert [f["id"] for f in report["fixtures"] if f["flagged"]] == [last["id"]]
        assert report["ok"]
        assert not paper_suite(strict=True)["ok"]
