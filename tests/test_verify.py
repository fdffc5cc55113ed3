"""Cross-check harness, sweep driver, and reference fixture suite."""

import dataclasses
import hashlib
from collections import Counter

import pytest

from z2z4 import verify
from z2z4.code import AdditiveCode, Word, kernel_bruteforce
from z2z4.cyclic import cyclic_spec, enumerate_cyclic_specs, kernel_spec, materialize, rank_spec
from z2z4.gf2 import BinPoly
from z2z4.verify import (
    CheckReport,
    SweepRow,
    SweepSummary,
    _first_difference,
    cross_check,
    paper_suite,
    suite_json,
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
    assert report.skipped == ()
    assert report.kernel_dim == 3
    assert report.rank == 6
    assert report.k_prime == QuatPoly((1, 1, 1))
    assert report.r == Q_ONE


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
    assert report.passed and not report.skipped
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


def test_check_names_are_stable():
    report = cross_check(_mixed_3())
    assert tuple(name for name, _ in report.checks) == CHECK_NAMES


def test_budget_below_the_span_skips_the_rank_set_group():
    # |C| = 2^5 fits the budget; the lifted span, 2^rank = 2^6 words, does not
    report = cross_check(_mixed_3(), max_words=32)
    assert report.rank == 6
    assert report.passed
    assert report.skipped == ("rank-set", "rank-cyclic", "code-in-span", "span-projection")
    assert [n for n, _ in report.checks] == [n for n in CHECK_NAMES if n not in report.skipped]


def test_sweep_verdicts_digest():
    # checks, skips and witnesses of every row; guarded rows (186 of the
    # 640) read None, 51 rows skip the rank-set group, 295 are separable
    summary = sweep(alpha_max=3, betas=(1, 3, 5, 7), max_words=256)
    digest = hashlib.sha256()
    for row in summary.rows:
        rep = row.report
        key = None if row.guarded else (str(row.spec), rep.checks, rep.skipped, rep.witness)
        digest.update(repr(key).encode())
    assert (summary.total, summary.guarded) == (640, 186)
    assert digest.hexdigest() == (
        "dd457637aa7f66b78acaf7a4bbadc851489bce5d018d828ec2c155d4e20b56ee"
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
        "kernel-dim: closed 3, oracle 2", (), kernel_spec(spec), rank_spec(spec),
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


def test_suite_fixture_ids(suite_report):
    assert [f.fixture_id for f in suite_report.fixtures] == [
        f"F{i}" for i in range(1, 10)
    ]


def test_suite_all_pass(suite_report):
    assert all(f.passed for f in suite_report.fixtures)
    assert suite_report.ok()


def test_suite_erratum_is_flagged_not_failed(suite_report):
    assert suite_report.flagged == ("F9",)
    flagged = suite_report.fixtures[-1]
    assert flagged.passed and flagged.flagged
    assert not suite_report.ok(strict=True)


def test_suite_text_rendering(suite_report):
    text = suite_text(suite_report)
    assert "F1" in text and "F9" in text
    assert "(flagged)" in text
    assert text.rstrip().endswith("flagged: F9")
    strict = suite_text(suite_report, strict=True)
    assert "suite failed" in strict


def test_suite_json_shape(suite_report):
    doc = suite_json(suite_report)
    assert doc["ok"] is True
    assert doc["strict"] is False
    assert len(doc["fixtures"]) == 9
    assert doc["fixtures"][8]["flagged"] is True
    strict = suite_json(suite_report, strict=True)
    assert strict["ok"] is False
