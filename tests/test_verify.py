"""Cross-check harness, sweep driver, and reference fixture suite."""

import dataclasses
import hashlib
from collections import Counter

import numpy as np
import pytest

from z2z4 import code as code_module, verify
from z2z4.code import (
    AdditiveCode,
    Word,
    is_gray_linear_bruteforce,
    kernel_bruteforce,
)
from z2z4.cyclic import (
    cardinality,
    cyclic_spec,
    enumerate_cyclic_specs,
    gray_linear,
    kernel_spec,
    materialize,
    rank_spec,
)
from z2z4.gf2 import BIN_ZERO, BinPoly
from z2z4.verify import (
    CheckReport,
    SweepRow,
    SweepSummary,
    _first_difference,
    cross_check,
    paper_suite,
    suite_text,
    sweep,
    sweep_rows_csv,
    sweep_rows_json,
    sweep_text,
)
from z2z4.z4 import QuatPoly

X1 = BinPoly.parse("x+1")
BIN_ONE = BinPoly.parse("1")
Q_ONE = QuatPoly((1,))

CHECK_NAMES = (
    "cardinality",
    "type-structure",
    "type-counting",
    "shift-invariance",
    "gray-identity",
    "standard-form",
    "linearity",
    "kernel-set",
    "kernel-dim",
    "kernel-cyclic",
    "kernel-in-code",
    "kernel-candidates",
    "kernel-bounds",
    "kernel-intersection",
    "maximal-subcodes-linear",
    "x-projection",
    "y-projection",
    "y-projection-size",
    "kernel-projection",
    "kernel-upper-bound",
    "kernel-decomposition",
    "rank-value",
    "rank-candidates",
    "rank-lower-bound",
    "rank-decomposition",
    "rank-set",
    "rank-cyclic",
    "code-in-span",
    "span-projection",
    "order-two-subcode",
    "three-generators",
)


def _mixed_3():
    return cyclic_spec(
        1, 3, X1, BIN_ONE, Q_ONE, QuatPoly((3, 1)), QuatPoly((1, 1, 1))
    )


def test_cross_check_mixed_example():
    report = cross_check(_mixed_3())
    assert report.passed
    assert report.witness is None
    assert report.kernel_result.dimension == 3
    assert report.rank_result.rank == 6
    assert report.kernel_result.k_prime == QuatPoly((1, 1, 1))
    assert report.rank_result.r == Q_ONE


def test_first_difference_names_the_smallest_word_of_the_symmetric_difference():
    code = materialize(_mixed_3())
    sub = code.order_two_subcode()
    assert _first_difference(code, code) == "codes are equal"
    assert _first_difference(code, materialize(_mixed_3())) == "codes are equal"
    assert _first_difference(code, sub) == "word 1|110"
    assert _first_difference(sub, code) == "word 1|110"
    # the smallest differing word may lie in either code
    a = AdditiveCode(1, 3, [Word.parse("1|111")])
    b = AdditiveCode(1, 3, [Word.parse("0|200")])
    assert _first_difference(a, b) == _first_difference(b, a) == "word 1|111"
    c = AdditiveCode(1, 3, [Word.parse("0|020")])
    assert _first_difference(b, c) == _first_difference(c, b) == "word 0|200"


def test_passing_cross_check_builds_no_witness_and_spans_each_code_once(monkeypatch):
    counts = {"first_difference": 0}
    spanned = []  # the codes themselves, so that no id is reused meanwhile
    real_diff, real_span = verify._first_difference, verify.span_bruteforce

    def counted_diff(a, b):
        counts["first_difference"] += 1
        return real_diff(a, b)

    def counted_span(code):
        spanned.append(code)
        return real_span(code)

    monkeypatch.setattr(verify, "_first_difference", counted_diff)
    monkeypatch.setattr(verify, "span_bruteforce", counted_span)
    spec = next(enumerate_cyclic_specs(2, 7, type_filter=(2, 3)))
    report = cross_check(spec)
    assert report.passed
    assert counts["first_difference"] == 0
    assert spanned and max(Counter(map(id, spanned)).values()) == 1


def test_failing_set_check_still_names_its_witness_word(monkeypatch):
    # claim the whole code as its own kernel; the code is not Gray-linear
    spec = _mixed_3()
    real = verify.kernel_spec
    monkeypatch.setattr(verify, "kernel_spec", lambda s: dataclasses.replace(real(s), spec=s))
    report = cross_check(spec)
    code = materialize(spec)
    assert report.failures[0] == "kernel-set"
    assert report.witness == "kernel-set: " + _first_difference(code, kernel_bruteforce(code))
    assert report.witness.startswith("kernel-set: word ")


def test_a_failed_check_whose_witness_is_over_the_budget_stays_failed(monkeypatch):
    # the 1-word code of (2, 3) against the 256-word span of the largest
    # one, with its own r and rank: rank-set compares bases and fails, and
    # its witness would enumerate 256 words, above a budget of 1
    specs = list(enumerate_cyclic_specs(2, 3))
    small, large = min(specs, key=cardinality), max(specs, key=cardinality)
    assert (cardinality(small), cardinality(large)) == (1, 256)
    real = rank_spec(small)
    wrong = dataclasses.replace(real, spec=rank_spec(large).spec)
    monkeypatch.setattr(verify, "rank_spec", lambda s: wrong)
    report = cross_check(small, max_words=1)
    assert report.failures == ("rank-set",)
    assert report.witness == "rank-set: witness over the word budget"
    row = verify._sweep_one((small, 1))
    assert (row.guarded, row.ok, row.report.witness) == (False, False, report.witness)


@pytest.fixture
def gray_memo():
    # the verdict is memoised per ambient: a test that swaps the adder or
    # the Gray map must neither read nor leave a verdict of another one
    verify._ambient_gray_identity.cache_clear()
    yield
    verify._ambient_gray_identity.cache_clear()


def _ambient_code(alpha, beta):
    # f = h = 1 and g = x^beta - 1: every word of Z2^alpha x Z4^beta
    g = QuatPoly((3,) + (0,) * (beta - 1) + (1,))
    return materialize(cyclic_spec(alpha, beta, BIN_ONE, BIN_ZERO, Q_ONE, Q_ONE, g))


def _spy(calls):
    def add(a, b, alpha, beta):
        calls.append((a, b))
        return code_module._add_packed(a, b, alpha, beta)
    return add


def _carry_dropped(a, b, alpha, beta):
    return code_module._add_packed(a, b, alpha, beta) ^ code_module._star2_packed(a, b, alpha, beta)


def _carry_shifted_by_alpha(a, b, alpha, beta):
    return a ^ b ^ ((a & b & (((1 << beta) - 1) << alpha)) << alpha)


def _carry_misses_the_last_coordinate(a, b, alpha, beta):
    return a ^ b ^ ((a & b & (((1 << (beta - 1)) - 1) << alpha)) << beta)


def _gray_bit_flipped_at(word):
    def gray_array(arr, alpha, beta):
        out = code_module.gray_array(arr, alpha, beta)
        return np.where(arr == word, out ^ 1, out)
    return gray_array


@pytest.mark.parametrize("alpha, beta", [(2, 5), (2, 7), (2, 15), (3, 15), (1, 35)])
def test_gray_identity_check_catches_a_wrong_carry_and_a_wrong_gray_bit(
        monkeypatch, gray_memo, alpha, beta):
    # the probe array of the ambient, in its width's dtype: uint32 up to
    # 32 bits, where the last coordinate carries into the top bit, 31; at
    # 33 bits it carries into bit 32, which a uint32 pass would drop; at
    # 71 bits the words are Python ints
    bits = alpha + 2 * beta
    zero = AdditiveCode(alpha, beta, [])
    calls = []
    monkeypatch.setattr(verify, "_add_packed", _spy(calls))
    assert verify._gray_identity_holds(zero)
    probes = calls[0][0]
    assert probes.dtype == (np.uint32 if bits <= 32 else np.uint64 if bits <= 64 else object)
    carries = code_module._star2_packed(probes[:, None], probes, alpha, beta)
    assert 1 << (bits - 1) in set(carries.ravel().tolist())
    # the last quaternary coordinate holding 1, a single-coordinate probe
    last = 1 << (alpha + beta - 1)
    assert last in probes.tolist()
    faults = [("_add_packed", _carry_dropped),
              ("_add_packed", _carry_shifted_by_alpha),
              ("_add_packed", _carry_misses_the_last_coordinate),
              ("gray_array", _gray_bit_flipped_at(last))]
    for name, fault in faults:
        verify._ambient_gray_identity.cache_clear()
        with monkeypatch.context() as m:
            m.setattr(verify, name, fault)
            assert not verify._gray_identity_holds(zero), fault


@pytest.mark.parametrize("alpha, beta, exhaustive", [
    (4, 1, True), (1, 5, True), (2, 5, True), (2, 7, False)])
def test_gray_identity_check_adds_every_probe_to_every_word(
        monkeypatch, gray_memo, alpha, beta, exhaustive):
    # at a limit of the ambient's size every word is a probe (2^6, 2^11
    # and 2^12 words); (2, 7), 2^16 words over the default limit, takes
    # the 8 constant words, the 2 + 3 * 7 single-coordinate words and 64
    # seeded random ones.  One broadcast pass adds each probe to each
    bits = alpha + 2 * beta
    limit = 1 << bits if exhaustive else 256
    calls = []
    monkeypatch.setattr(verify, "_add_packed", _spy(calls))
    assert verify._gray_identity_holds(AdditiveCode(alpha, beta, []), limit)
    [(probes, column)] = calls
    assert column.shape == (len(probes), 1)
    assert np.array_equal(column.ravel(), probes)
    if exhaustive:
        assert sorted(probes.tolist()) == list(range(1 << bits))
    else:
        singles = {Word(alpha, beta, 1 << i, 0, 0).packed for i in range(alpha)}
        singles |= {Word(alpha, beta, 0, (q & 1) << j, (q >> 1) << j).packed
                    for j in range(beta) for q in (1, 2, 3)}
        assert len(probes) == 8 + len(singles) + 64
        words = [str(Word.from_packed(int(p), alpha, beta)) for p in probes[:8]]
        assert words[:4] == ["00|0000000", "00|1111111", "00|2222222", "00|3333333"]
        assert words[7] == "11|3333333"
        assert set(probes[8:8 + len(singles)].tolist()) == singles
    # the verdict is the ambient's: another code of it adds nothing
    assert verify._gray_identity_holds(_ambient_code(alpha, beta), limit)
    assert len(calls) == 1

    # a wrong sum on one pair only: the last probe added to itself
    def adder(a, b, al, be):
        out = code_module._add_packed(a, b, al, be)
        hit = (a == probes[-1]) & (b == probes[-1])
        assert np.count_nonzero(hit) == 1
        return np.where(hit, out ^ 1, out)

    verify._ambient_gray_identity.cache_clear()
    monkeypatch.setattr(verify, "_add_packed", adder)
    assert not verify._gray_identity_holds(AdditiveCode(alpha, beta, []), limit)


def test_check_names_are_stable():
    report = cross_check(_mixed_3())
    assert tuple(name for name, _ in report.checks) == CHECK_NAMES


SEPARABLE_NAMES = ("separable-product", "separable-kernel", "separable-rank")


def test_a_budget_of_the_code_size_runs_every_check():
    # once the code itself enumerates, no check reads a larger object:
    # with max_words = |C| every check runs, the rank-set group (whose
    # lifted span has 2^rank > |C| words) included
    specs = [spec for alpha in range(1, 4) for beta in (1, 3, 5, 7)
             for spec in enumerate_cyclic_specs(alpha, beta)]
    assert len(specs) == 640
    failures = []
    for spec in specs:
        report = cross_check(spec, max_words=cardinality(spec))
        names = tuple(name for name, _ in report.checks)
        if names not in (CHECK_NAMES, CHECK_NAMES + SEPARABLE_NAMES) or not report.passed:
            failures.append((str(spec), names, report.failures))
    assert failures == []


# the rows of ``verify._CHECKS`` that read no enumerated object
BASIS_ROWS = ("type-structure", "shift-invariance", "standard-form", "kernel-in-code",
              "x-projection", "y-projection", "y-projection-size", "order-two-subcode",
              "three-generators")


@pytest.mark.parametrize("alpha, beta, count", [(1, 33, 648), (1, 41, 72)])
def test_basis_rows_hold_past_the_62_bit_ceiling(alpha, beta, count):
    # alpha + 2 beta is 67 and 83 bits: every spec builds its code and its
    # structure, reading no enumerated word
    rows = {name: test for name, test, _ in verify._CHECKS}
    specs = list(enumerate_cyclic_specs(alpha, beta))
    assert len(specs) == count
    failures = []
    for spec in specs:
        o = verify._SpecObjects(spec)
        failures += [(str(spec), name) for name in BASIS_ROWS if not rows[name](o)]
        if gray_linear(spec) != is_gray_linear_bruteforce(o.code):
            failures.append((str(spec), "linearity, closed form against closure oracle"))
    assert failures == []


@pytest.mark.slow
def test_cross_check_at_71_bits():
    # alpha + 2 beta = 71 bits at (1, 35): the words are Python ints in
    # object arrays
    specs = list(enumerate_cyclic_specs(1, 35))
    small = [s for s in specs if cardinality(s) <= 1 << 12]
    assert len(small) == 128
    assert [str(s) for s in small if not cross_check(s).passed] == []
    # ROADMAP item 1's fault, seen by enumeration: on the two codes of 2^15
    # words with b = 1 + x, ell = 0, h = x - 1 and deg g = 7, the kernel
    # closed form says 12 and enumeration 8.  Fixing the closed form
    # (item 1) flips this assertion to a pass
    faulty = [s for s in specs if cardinality(s) == 1 << 15 and s.b == X1 and s.ell == BIN_ZERO
              and s.h == QuatPoly((3, 1)) and s.g.degree == 7]
    assert len(faulty) == 2
    for spec in faulty:
        report = cross_check(spec)
        assert report.failures == ("kernel-set", "kernel-dim", "kernel-intersection")
        assert report.kernel_result.dimension == 12


def test_sweep_verdicts_digest():
    # checks and witnesses of every row; guarded rows (186 of the 640)
    # read None, 295 are separable; all 31 or 34 checks run on the rest
    summary = sweep(alpha_max=3, betas=(1, 3, 5, 7), max_words=256)
    digest = hashlib.sha256()
    for row in summary.rows:
        rep = row.report
        key = None if row.guarded else (str(row.spec), rep.checks, rep.witness)
        digest.update(repr(key).encode())
    assert (summary.total, summary.guarded) == (640, 186)
    assert digest.hexdigest() == (
        "a3643627340d21a79e83ba3d360d479c8886b3e3c191c9b80f500f7f3b62a25f"
    )


def test_sweep_is_deterministic():
    first = sweep(alpha_max=2, betas=(1, 3), workers=1)
    second = sweep(alpha_max=2, betas=(1, 3), workers=1)
    assert sweep_rows_csv(first) == sweep_rows_csv(second)
    assert sweep_text(first) == sweep_text(second)
    assert first.total == 8 + 24 + 13 + 39
    assert first.guarded == 0
    assert first.passed


def test_sweep_worker_count_does_not_change_output():
    serial = sweep(alpha_max=1, betas=(1, 3), workers=1)
    pooled = sweep(alpha_max=1, betas=(1, 3), workers=2)
    assert sweep_rows_csv(serial) == sweep_rows_csv(pooled)


def test_sweep_guard_skips_large_codes():
    summary = sweep(alpha_max=2, betas=(3,), max_words=16, workers=1)
    assert summary.guarded > 0
    assert summary.passed
    for row in summary.rows:
        if row.guarded:
            assert row.report is None
            assert row.ok
    text = sweep_text(summary)
    assert "guarded" in text
    csv_out = sweep_rows_csv(summary)
    assert ",,,,guarded" in csv_out


@pytest.mark.parametrize("workers", [1, 2])
def test_a_spec_whose_cross_check_raises_becomes_an_error_row(monkeypatch, workers):
    clean = sweep(alpha_max=1, betas=(1, 3), workers=1)
    bad = clean.rows[5].spec
    real = verify.cross_check

    def cross_check(spec, max_words):
        if spec == bad:
            raise ValueError("broken\n  library call")
        return real(spec, max_words=max_words)

    monkeypatch.setattr(verify, "cross_check", cross_check)
    summary = sweep(alpha_max=1, betas=(1, 3), workers=workers)
    assert [r.spec for r in summary.rows] == [r.spec for r in clean.rows]
    row = summary.rows[5]
    assert (row.report, row.error) == (None, "ValueError: broken library call")
    assert not (row.guarded or row.ok or summary.passed)
    assert summary.errors == summary.failures == (row,)
    # every other row renders as in the clean sweep; the error row has
    # no closed-form fields
    got, want = sweep_rows_csv(summary).splitlines(), sweep_rows_csv(clean).splitlines()
    assert got[:6] + got[7:] == want[:6] + want[7:]
    assert got[6].endswith(",,,,,error") and got[6].startswith(want[6][:9])
    records, want = sweep_rows_json(summary), sweep_rows_json(clean)
    assert records[:5] + records[6:] == want[:5] + want[6:]
    assert records[5]["verdict"] == "error"
    assert records[5]["error"] == "ValueError: broken library call"
    assert "kernel_dim" not in records[5]
    got, want = sweep_text(summary).splitlines(), sweep_text(clean).splitlines()
    assert got[:5] + got[7:-1] == want[:5] + want[6:-1]
    assert got[5].endswith("  error")
    assert got[6] == "    cause: ValueError: broken library call"
    assert got[-1] == "32 specs checked, 0 guarded, 1 failures, 1 of them errors"


def test_sweep_type_filter():
    summary = sweep(
        alpha_max=2, alpha_min=2, betas=(7,), type_filter=(2, 3), workers=1
    )
    expected = list(enumerate_cyclic_specs(2, 7, type_filter=(2, 3)))
    assert [row.spec for row in summary.rows] == expected
    assert summary.total == 6
    assert summary.passed


def test_sweep_rows_json_verdicts():
    summary = sweep(alpha_max=1, betas=(1,), workers=1)
    rows = sweep_rows_json(summary)
    assert len(rows) == summary.total
    assert all(d["verdict"] == "pass" for d in rows)
    assert all(d["alpha"] == 1 and d["beta"] == 1 for d in rows)


def test_sweep_csv_header():
    summary = sweep(alpha_max=1, betas=(1,), workers=1)
    header = sweep_rows_csv(summary).splitlines()[0]
    assert header == (
        "alpha,beta,b,ell,f,h,g,gamma,delta,kappa,kernel_dim,rank,k_prime,r,verdict"
    )


def test_failing_row_rendering():
    # a synthetic report: no real spec is known to fail where the verdict
    # is settled, so none is pinned here
    spec = _mixed_3()
    rep = CheckReport(
        spec, (("cardinality", True), ("kernel-dim", False)),
        "kernel-dim: closed 3, oracle 2", kernel_spec(spec), rank_spec(spec),
    )
    summary = SweepSummary((SweepRow(spec, rep),))
    assert not summary.passed
    assert sweep_rows_csv(summary).splitlines()[1] == (
        "1,3,1+x,1,1,3+x,1+x+x^2,1,2,1,3,6,1+x+x^2,1,FAIL:kernel-dim"
    )
    (row,) = sweep_rows_json(summary)
    assert row["verdict"] == "fail"
    assert row["failures"] == ["kernel-dim"]
    assert row["witness"] == "kernel-dim: closed 3, oracle 2"
    lines = sweep_text(summary).splitlines()
    assert lines[0].endswith("  FAIL kernel-dim")
    assert lines[1] == "    witness: kernel-dim: closed 3, oracle 2"
    assert lines[2] == "1 specs checked, 0 guarded, 1 failures"


@pytest.fixture(scope="module")
def suite_report():
    return paper_suite()


@pytest.fixture(scope="module")
def strict_report():
    return paper_suite(strict=True)


def test_suite_fixture_ids(suite_report):
    assert [f["id"] for f in suite_report["fixtures"]] == [
        f"F{i}" for i in range(1, 10)
    ]


def test_suite_all_pass(suite_report):
    assert all(f["passed"] for f in suite_report["fixtures"])
    assert suite_report["ok"]


def test_suite_erratum_is_flagged_not_failed(suite_report, strict_report):
    assert [f["id"] for f in suite_report["fixtures"] if f["flagged"]] == ["F9"]
    flagged = suite_report["fixtures"][-1]
    assert flagged["passed"] and flagged["flagged"]
    assert not strict_report["ok"]


def test_suite_text_rendering(suite_report, strict_report):
    text = suite_text(suite_report)
    assert "F1" in text and "F9" in text
    assert "(flagged)" in text
    assert text.rstrip().endswith("flagged: F9")
    assert "suite failed" in suite_text(strict_report)


def test_suite_json_shape(suite_report, strict_report):
    assert suite_report["ok"] is True
    assert suite_report["strict"] is False
    assert len(suite_report["fixtures"]) == 9
    assert suite_report["fixtures"][8]["flagged"] is True
    assert strict_report["ok"] is False
    assert strict_report["strict"] is True
