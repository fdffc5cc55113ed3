"""Cross-checking harness.

Every closed-form quantity the library computes from generator
polynomials is recomputed here by explicit enumeration and compared.
``cross_check`` runs the full battery on one spec, ``sweep`` drives it
over whole parameter ranges, and ``paper_suite`` pins down the worked
examples this code base was validated against, including one fixture
whose published value contradicts the verified one and is therefore
reported as flagged rather than asserted.

The checks are the rows of ``_CHECKS``, in report order; each reads the
objects of one ``_SpecObjects``, which the paper-suite fixtures share.
``cross_check`` enumerates the code before the first check, so a code
over the word budget, the one enumeration guard, raises
``SizeGuardError`` (a guarded sweep row); no check enumerates an object
larger than the code, so every check of a code that fits runs.  A
witness that would go over the budget says so.  Any other exception out
of ``cross_check`` makes the spec an error sweep row, and the sweep goes on.
One row, ``gray-identity``, reads a verdict on the ambient rather than
the code, checked once per (alpha, beta) on a probe array and memoised.

``sweep_rows_json`` and ``suite_json`` build the JSON records that the
text and CSV views (``sweep_text``, ``csv_row``, ``suite_text``) render.
Verdict words come from ``_verdict``; ``_mark`` spells a failure FAIL.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .code import (
    DEFAULT_MAX_WORDS,
    AdditiveCode,
    BinaryCode,
    Word,
    _add_packed,
    _isin_sorted,
    _type_text,
    _word_dtype,
    gray_array,
    gray_preimage,
    is_gray_linear_bruteforce,
    kernel_bruteforce,
    product_code,
    span_bruteforce,
    standard_form,
    type_by_counting,
)
from .cyclic import (
    CyclicSpec,
    KernelResult,
    RankResult,
    _spec_text,
    cardinality,
    cyclic_spec,
    enumerate_cyclic_specs,
    gray_linear,
    kernel_dim_candidates,
    kernel_spec,
    materialize,
    maximal_linear_subcodes,
    order_two_spec,
    poly_word,
    rank_candidates,
    rank_spec,
    shift_orbit,
    spec_to_dict,
    three_generator_words,
    type_from_degrees,
)
from .errors import SizeGuardError
from .gf2 import BIN_ZERO, BinPoly, gcd2, rotate_mask, xn_minus_1
from .z4 import QuatPoly, hensel_lift, quat_factors, xn_minus_1_z4


@dataclass(frozen=True)
class CheckReport:
    """Verdicts for one spec, in a fixed order, with a failure witness,
    and the closed-form kernel and span the checks were run against."""

    spec: CyclicSpec
    checks: tuple[tuple[str, bool], ...]
    witness: str | None
    kernel_result: KernelResult
    rank_result: RankResult

    @property
    def kernel_dim(self) -> int:
        return self.kernel_result.dimension

    @property
    def rank(self) -> int:
        return self.rank_result.rank

    @property
    def k_prime(self) -> QuatPoly:
        return self.kernel_result.k_prime

    @property
    def r(self) -> QuatPoly:
        return self.rank_result.r

    @property
    def passed(self) -> bool:
        return all(ok for _, ok in self.checks)

    @property
    def failures(self) -> tuple[str, ...]:
        return tuple(name for name, ok in self.checks if not ok)


def _log2(n: int) -> int:
    if n <= 0 or n & (n - 1):
        raise AssertionError(f"{n} is not a power of two")
    return n.bit_length() - 1


def _first_difference(a: AdditiveCode, b: AdditiveCode) -> str:
    """Witness text: the smallest packed word in exactly one of the codes."""
    wa, wb = a.words(), b.words()
    if np.array_equal(wa, wb):
        return "codes are equal"
    only = [x for x in (wa[~_isin_sorted(wb, wa)], wb[~_isin_sorted(wa, wb)]) if len(x)]
    w = Word.from_packed(int(min(x[0] for x in only)), a.alpha, a.beta)
    return f"word {w}"


def _meet(codes) -> np.ndarray:
    """Sorted packed words common to every code in ``codes``."""
    meet = codes[0].words()
    for c in codes[1:]:
        meet = meet[_isin_sorted(c.words(), meet)]
    return meet


def _gray_identity_holds(code: AdditiveCode, exhaustive_limit: int = 256) -> bool:
    """Image of v + w + 2(v * w) must be the XOR of the two images.  That
    holds on every pair of Z2^alpha x Z4^beta, so the verdict is the
    ambient's, ``_ambient_gray_identity``, computed once per (alpha, beta)."""
    return _ambient_gray_identity(code.alpha, code.beta, exhaustive_limit)


@lru_cache(maxsize=None)
def _ambient_gray_identity(alpha: int, beta: int, exhaustive_limit: int) -> bool:
    """The identity on every pair of one probe array of the ambient: every
    word of an ambient of at most ``exhaustive_limit`` words, else the 8
    constant words, every single-coordinate word and 64 words drawn from
    ``random.Random`` seeded with ``"alpha,beta"``.

    The sum goes through the real adder, ``_add_packed``, with its carry;
    only the final order-two correction term is a plain high-plane flip,
    written out here rather than taken from the adder, so that a wrong
    carry cannot cancel out of the check.  The pass runs in
    ``_word_dtype``'s dtype for the width, as the code's words do.
    """
    bits, lo_mask = alpha + 2 * beta, ((1 << beta) - 1) << alpha
    if 1 << bits <= exhaustive_limit:
        probes = list(range(1 << bits))
    else:
        planes = (0, lo_mask, lo_mask << beta, lo_mask | lo_mask << beta)
        probes = [u + q for u in (0, (1 << alpha) - 1) for q in planes]
        probes += [1 << i for i in range(bits)]  # a 1 or a 2 at one coordinate
        probes += [(1 | 1 << beta) << i for i in range(alpha, alpha + beta)]  # a 3
        probes += map(random.Random(f"{alpha},{beta}").getrandbits, [bits] * 64)
    v = np.array(probes, dtype=_word_dtype(bits))
    w = v[:, None]
    combined = _add_packed(v, w, alpha, beta) ^ ((v & w & lo_mask) << beta)
    images = gray_array(v, alpha, beta)
    return np.array_equal(gray_array(combined, alpha, beta), images ^ images[:, None])


class _SpecObjects:
    """What the checks of one spec compare, each object built on its first
    read and kept.  Builders look library functions up through this
    module's names when they run, so a rebound name sees every call."""

    def __init__(self, spec: CyclicSpec, max_words: int = DEFAULT_MAX_WORDS):
        self.spec, self.max_words = spec, max_words

    def build(self, spec: CyclicSpec) -> AdditiveCode:
        return materialize(spec, max_words=self.max_words)

    def lift(self, span: BinaryCode, alpha: int) -> AdditiveCode:
        return gray_preimage(span, alpha, self.spec.beta, self.max_words)

    t = cached_property(lambda o: type_from_degrees(o.spec))
    code = cached_property(lambda o: o.build(o.spec))
    sf = cached_property(lambda o: standard_form(o.code))
    kres = cached_property(lambda o: kernel_spec(o.spec))
    kcode = cached_property(lambda o: o.build(o.kres.spec))
    koracle = cached_property(lambda o: kernel_bruteforce(o.code))
    kdim = cached_property(lambda o: _log2(o.koracle.size))
    subcodes = cached_property(lambda o: [o.build(s) for s in maximal_linear_subcodes(o.spec)])
    sres = cached_property(lambda o: span_bruteforce(o.code))
    rres = cached_property(lambda o: rank_spec(o.spec))
    rcode = cached_property(lambda o: o.build(o.rres.spec))
    lifted = cached_property(lambda o: o.lift(o.sres, o.spec.alpha))
    px = cached_property(lambda o: o.code.project_x())
    cy = cached_property(lambda o: o.code.project_y())
    ky = cached_property(lambda o: kernel_bruteforce(o.cy))
    yres = cached_property(lambda o: span_bruteforce(o.cy))
    cpy = cached_property(lambda o: AdditiveCode(
        o.spec.alpha, o.spec.beta, o.sf.c_prime_words(), max_words=o.max_words).project_y())
    kcpy = cached_property(lambda o: _log2(kernel_bruteforce(o.cpy).size))
    rcpy = cached_property(lambda o: span_bruteforce(o.cpy).dim)

    def expected_x(self) -> BinaryCode:
        a = self.spec.alpha
        d = gcd2(self.spec.b, self.spec.ell) % xn_minus_1(a)
        return BinaryCode.from_masks(a, (rotate_mask(d.bits, i, a) for i in range(a)))

    def expected_y(self) -> AdditiveCode:
        s = self.spec
        gen = poly_word(0, s.beta, BIN_ZERO, s.f * s.h + 2 * s.f)
        return AdditiveCode(0, s.beta, shift_orbit(gen, s.beta))

    def three_generator_code(self) -> AdditiveCode:
        s = self.spec
        w1, w2, w3 = three_generator_words(s)
        return AdditiveCode(
            s.alpha, s.beta,
            shift_orbit(w1, s.alpha) + shift_orbit(w2, s.beta) + shift_orbit(w3, s.beta))


# (name, test, note): ``test`` and ``note`` read a ``_SpecObjects``; a
# note is built for the first failing check only, as its witness
_CHECKS = (
    ("cardinality", lambda o: o.code.size == cardinality(o.spec) == o.t.size,
     lambda o: f"enumerated {o.code.size}, degrees predict {cardinality(o.spec)}"),
    ("type-structure", lambda o: o.code.code_type() == o.t,
     lambda o: f"basis says {o.code.code_type()}, degrees say {o.t}"),
    ("type-counting", lambda o: type_by_counting(o.code) == o.t,
     lambda o: f"counting says {type_by_counting(o.code)}, degrees say {o.t}"),
    ("shift-invariance", lambda o: o.code.is_cyclic(), None),
    ("gray-identity", lambda o: _gray_identity_holds(o.code), None),
    ("standard-form", lambda o: (o.sf.kappa1, o.sf.kappa2, o.sf.gamma, o.sf.delta)
     == (o.t.kappa1, o.t.kappa2, o.t.gamma, o.t.delta), None),
    # linearity, four ways
    ("linearity", lambda o: gray_linear(o.spec) == is_gray_linear_bruteforce(o.code)
     == (o.sres.dim == o.t.gamma + 2 * o.t.delta) == (o.kdim == o.t.gamma + 2 * o.t.delta),
     lambda o: f"closed {gray_linear(o.spec)}, closure oracle "
               f"{is_gray_linear_bruteforce(o.code)}, rank {o.sres.dim}, kernel dim {o.kdim}"),
    # kernel
    ("kernel-set", lambda o: o.kcode == o.koracle,
     lambda o: _first_difference(o.kcode, o.koracle)),
    ("kernel-dim", lambda o: o.kres.dimension == o.kdim,
     lambda o: f"closed {o.kres.dimension}, oracle {o.kdim}"),
    ("kernel-cyclic", lambda o: o.koracle.is_cyclic(), None),
    ("kernel-in-code", lambda o: o.kcode.is_subcode_of(o.code), None),
    ("kernel-candidates", lambda o: o.kres.dimension in kernel_dim_candidates(o.t),
     lambda o: f"dim {o.kres.dimension} not among {kernel_dim_candidates(o.t)}"),
    ("kernel-bounds",
     lambda o: o.t.gamma + o.t.delta <= o.kres.dimension <= o.t.gamma + 2 * o.t.delta, None),
    ("kernel-intersection",
     lambda o: bool(np.array_equal(_meet(o.subcodes), o.koracle.words())), None),
    ("maximal-subcodes-linear",
     lambda o: all(is_gray_linear_bruteforce(sub) for sub in o.subcodes), None),
    # projections
    ("x-projection", lambda o: o.px == o.expected_x(), None),
    ("y-projection", lambda o: o.cy == o.expected_y(), None),
    ("y-projection-size",
     lambda o: o.cy.size == (1 << (o.t.gamma - o.t.kappa1)) << (2 * o.t.delta), None),
    ("kernel-projection", lambda o: o.koracle.project_y().is_subcode_of(o.ky), None),
    ("kernel-upper-bound", lambda o: o.kdim <= o.t.kappa1 + _log2(o.ky.size), None),
    ("kernel-decomposition", lambda o: o.kdim == o.t.kappa1 + o.t.kappa2 + o.kcpy,
     lambda o: f"dim {o.kdim} != {o.t.kappa1} + {o.t.kappa2} + {o.kcpy}"),
    # rank
    ("rank-value", lambda o: o.rres.rank == o.sres.dim,
     lambda o: f"closed {o.rres.rank}, oracle {o.sres.dim}"),
    ("rank-candidates", lambda o: o.rres.rank in rank_candidates(o.t),
     lambda o: f"rank {o.rres.rank} not among {rank_candidates(o.t)}"),
    ("rank-lower-bound", lambda o: o.sres.dim >= o.t.kappa1 + o.yres.dim, None),
    ("rank-decomposition", lambda o: o.sres.dim == o.t.kappa1 + o.t.kappa2 + o.rcpy,
     lambda o: f"rank {o.sres.dim} != {o.t.kappa1} + {o.t.kappa2} + {o.rcpy}"),
    ("rank-set", lambda o: o.rcode == o.lifted,
     lambda o: _first_difference(o.rcode, o.lifted)),
    ("rank-cyclic", lambda o: o.lifted.is_cyclic(), None),
    ("code-in-span", lambda o: o.code.is_subcode_of(o.lifted), None),
    ("span-projection", lambda o: o.lifted.project_y() == o.lift(o.yres, 0), None),
    # alternative generator forms
    ("order-two-subcode",
     lambda o: o.build(order_two_spec(o.spec)) == o.code.order_two_subcode(), None),
    ("three-generators", lambda o: o.three_generator_code() == o.code, None),
    # separable codes only; ``cross_check`` drops these three rows otherwise
    ("separable-product", lambda o: o.code == product_code(o.px, o.cy), None),
    ("separable-kernel", lambda o: o.kdim == o.px.dim + _log2(o.ky.size), None),
    ("separable-rank", lambda o: o.sres.dim == o.px.dim + o.yres.dim, None),
)


def cross_check(spec: CyclicSpec, max_words: int = DEFAULT_MAX_WORDS) -> CheckReport:
    """Run every closed-form-versus-enumeration comparison on one spec.

    Raises ``SizeGuardError`` when the code itself is over the word
    budget, the one enumeration guard.  No check enumerates a larger
    object, so every check runs; only a witness may need one (the words
    of two codes that differ), and then it says so.
    """
    o = _SpecObjects(spec, max_words)
    o.code.words()  # the code's own guard; no check enumerates a larger object
    table = _CHECKS if o.code.is_separable() else _CHECKS[:-3]
    checks: list[tuple[str, bool]] = []
    witness: str | None = None
    for name, test, note in table:
        ok = test(o)
        checks.append((name, ok))
        if not ok and witness is None:
            try:
                witness = f"{name}: {note(o)}" if note else name
            except SizeGuardError:  # the note enumerates what the test compared whole
                witness = f"{name}: witness over the word budget"
    return CheckReport(spec, tuple(checks), witness, o.kres, o.rres)


# ---------------------------------------------------------------------------
# parameter sweeps


@dataclass(frozen=True)
class SweepRow:
    spec: CyclicSpec
    report: CheckReport | None  # None when the code is too large to enumerate,
    error: str | None = None  # or "Type: message" when cross_check raised

    @property
    def guarded(self) -> bool:
        return self.report is None and self.error is None

    @property
    def ok(self) -> bool:
        return self.guarded or self.report is not None and self.report.passed


@dataclass(frozen=True)
class SweepSummary:
    """Rows in enumeration order; ``checked`` is false for closed forms alone."""

    rows: tuple[SweepRow, ...]
    checked: bool = True

    @property
    def total(self) -> int:
        return len(self.rows)

    @property
    def guarded(self) -> int:
        return sum(1 for r in self.rows if r.guarded)

    @property
    def failures(self) -> tuple[SweepRow, ...]:
        """Rows that failed a check or raised; ``errors`` are the latter."""
        return tuple(r for r in self.rows if not r.ok)

    @property
    def errors(self) -> tuple[SweepRow, ...]:
        return tuple(r for r in self.rows if r.error is not None)

    @property
    def passed(self) -> bool:
        return not self.failures


def _sweep_one(args: tuple[CyclicSpec, int]) -> SweepRow:
    spec, max_words = args
    try:
        return SweepRow(spec, cross_check(spec, max_words=max_words))
    except SizeGuardError:
        return SweepRow(spec, None)
    except Exception as exc:  # one bad spec must not abort the sweep
        return SweepRow(spec, None, f"{type(exc).__name__}: {' '.join(str(exc).split())}")


def sweep(
    alpha_max: int = 6,
    betas: tuple[int, ...] = (1, 3, 5, 7, 9, 15),
    max_words: int = DEFAULT_MAX_WORDS,
    workers: int = 1,
    type_filter: tuple[int, ...] | None = None,
    alpha_min: int = 1,
) -> SweepSummary:
    """Cross-check every valid spec in the range, in a fixed order.

    Specs whose codes exceed the word budget are recorded as guarded
    rows, not failures; a spec whose cross-check raises anything else is
    an error row, which names the exception and counts as a failure.
    Scheduling never changes the output: rows come back in enumeration
    order regardless of the worker count.
    """
    specs = [
        spec
        for alpha in range(alpha_min, alpha_max + 1)
        for beta in sorted(betas)
        for spec in enumerate_cyclic_specs(alpha, beta, type_filter=type_filter)
    ]
    jobs = [(s, max_words) for s in specs]
    if workers > 1 and len(jobs) > 1:
        from multiprocessing import Pool
        with Pool(workers) as pool:
            rows = list(pool.imap(_sweep_one, jobs, chunksize=16))
    else:
        rows = [_sweep_one(j) for j in jobs]
    return SweepSummary(tuple(rows))


def tabulate(alpha: int, beta: int, type_filter=None) -> SweepSummary:
    """Closed-form kernel and rank of every valid spec at one length pair.

    Nothing is enumerated or cross-checked; the rows render like a
    sweep's, with verdict ``unchecked``.
    """
    rows = [
        SweepRow(spec, CheckReport(spec, (), None, kernel_spec(spec), rank_spec(spec)))
        for spec in enumerate_cyclic_specs(alpha, beta, type_filter=type_filter)
    ]
    return SweepSummary(tuple(rows), checked=False)


CSV_HEADER = ("alpha,beta,b,ell,f,h,g,gamma,delta,kappa,"
              "kernel_dim,rank,k_prime,r,verdict")


def _verdict(passed: bool) -> str:
    """The verdict word of a record."""
    return "pass" if passed else "fail"


def _mark(verdict: str) -> str:
    """Text and CSV print a failing verdict in capitals."""
    return verdict.upper() if verdict == "fail" else verdict


def sweep_rows_json(summary: SweepSummary) -> list[dict]:
    """One record per row, which ``sweep_text`` and ``csv_row`` render; a
    guarded or error row has no closed-form fields, and an unchecked one
    no verdict."""
    out = []
    for row in summary.rows:
        t = type_from_degrees(row.spec)
        d = {**spec_to_dict(row.spec), "type": [t.alpha, t.beta, t.gamma, t.delta, t.kappa]}
        rep = row.report
        if row.guarded:
            d["verdict"] = "guarded"
        elif row.error is not None:
            d.update(verdict="error", error=row.error)
        else:
            d.update(kernel_dim=rep.kernel_dim, rank=rep.rank,
                     k_prime=str(rep.k_prime), r=str(rep.r))
            if summary.checked:
                d["verdict"] = _verdict(rep.passed)
            if not rep.passed:
                d.update(failures=list(rep.failures), witness=rep.witness)
        out.append(d)
    return out


def csv_row(record: dict) -> str:
    """One line under ``CSV_HEADER`` from a row record; no verdict reads ``unchecked``."""
    cells = {**record, **dict(zip(("gamma", "delta", "kappa"), record["type"][2:]))}
    cells.setdefault("verdict", "unchecked")
    if "failures" in record:
        cells["verdict"] = _mark(record["verdict"]) + ":" + "|".join(record["failures"])
    return ",".join(str(cells.get(k, "")) for k in CSV_HEADER.split(",")).replace(" ", "")


def sweep_rows_csv(summary: SweepSummary) -> str:
    return "\n".join([CSV_HEADER, *map(csv_row, sweep_rows_json(summary))]) + "\n"


def sweep_text(summary: SweepSummary) -> str:
    lines = []
    for d in sweep_rows_json(summary):
        cells = [_spec_text(**d), "type " + _type_text(*d["type"])]
        if "rank" in d:
            cells.append("ker={kernel_dim} rank={rank} k'=({k_prime}) r=({r})".format_map(d))
        if "failures" in d:
            cells.append(_mark(d["verdict"]) + " " + ",".join(d["failures"]))
        elif "verdict" in d:
            cells.append(d["verdict"])
        lines.append("  ".join(cells))
        if "witness" in d:
            lines.append(f"    witness: {d['witness']}")
        if "error" in d:
            lines.append(f"    cause: {d['error']}")
    if summary.checked:
        errors = len(summary.errors)
        lines.append(
            f"{summary.total} specs checked, {summary.guarded} guarded, "
            f"{len(summary.failures)} failures"
            + (f", {errors} of them errors" if errors else "")
        )
    else:
        lines.append(f"{summary.total} specs")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# pinned regression fixtures

P3 = QuatPoly((3, 1, 2, 1))
Q3 = QuatPoly((3, 2, 3, 1))
X_MINUS_1 = QuatPoly((3, 1))


@dataclass(frozen=True)
class FixtureResult:
    fixture_id: str
    title: str
    passed: bool
    flagged: bool
    details: tuple[str, ...]


@dataclass(frozen=True)
class SuiteReport:
    fixtures: tuple[FixtureResult, ...]

    @property
    def flagged(self) -> tuple[str, ...]:
        return tuple(f.fixture_id for f in self.fixtures if f.flagged)

    def ok(self, strict: bool = False) -> bool:
        if not all(f.passed for f in self.fixtures):
            return False
        return not (strict and self.flagged)


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise AssertionError(message)


def _matrix_lines(code: AdditiveCode) -> tuple[str, ...]:
    sf = standard_form(code)
    return tuple(" ".join(str(v) for v in row) for row in sf.permuted_rows())


def _fx_factorization() -> tuple[bool, list[str]]:
    facs = set(quat_factors(7))
    _require(facs == {X_MINUS_1, P3, Q3}, f"unexpected factor set {facs}")
    prod = QuatPoly((1,))
    for p in facs:
        prod = prod * p
    _require(prod == xn_minus_1_z4(7), "factors do not multiply back")
    return False, [f"x^7 - 1 = ({X_MINUS_1})({P3})({Q3})"]


def _fx_standard_matrices() -> tuple[bool, list[str]]:
    spec = cyclic_spec(1, 3, BinPoly.parse("x + 1"), BinPoly.parse("1"),
                       QuatPoly.parse("1"), QuatPoly.parse("x + 3"),
                       QuatPoly.parse("x^2 + x + 1"))
    o = _SpecObjects(spec)
    _require(str(o.t) == "(1, 3; 1, 2; 1)", f"type is {o.t}")
    rows = _matrix_lines(o.code)
    _require(rows == ("1 2 0 0", "0 3 1 0", "0 3 0 1"),
             f"standard form of the code is {rows}")

    _require(o.kres.dimension == 3, f"kernel dimension {o.kres.dimension}")
    _require(o.kcode == o.koracle, "kernel mismatch")
    krows = _matrix_lines(o.kcode)
    _require(krows == ("1 2 0 0", "0 2 2 0", "0 2 0 2"),
             f"standard form of the kernel is {krows}")

    single = AdditiveCode(1, 3, shift_orbit(Word.parse("1|200"), 3))
    _require(o.kcode == single, "kernel is not the cyclic span of (1 | 2)")

    _require(o.ky == o.cy, "quaternary projection should be its own kernel")
    kproj = o.kcode.project_y()
    _require(kproj.is_subcode_of(o.ky) and kproj.size < o.ky.size,
             "projected kernel should sit strictly inside the projection kernel")
    prod = product_code(o.px, o.ky)
    _require(o.kcode.is_subcode_of(prod) and o.kcode.size < prod.size,
             "kernel should sit strictly inside the product code")
    return False, [f"type {o.t}, kernel dim 3", *rows, "kernel:", *krows]


def _listed_sweep_specs() -> tuple[list[CyclicSpec], list[CyclicSpec]]:
    """The four explicitly listed codes of the length-(2, 7) family."""
    b = BinPoly.parse("x + 1")
    one = BinPoly.parse("1")
    zero = BinPoly.parse("0")
    h = QuatPoly.parse("x + 3")
    kappa2 = [
        cyclic_spec(2, 7, b, one, P3, h, Q3),
        cyclic_spec(2, 7, b, one, Q3, h, P3),
    ]
    kappa1 = [
        cyclic_spec(2, 7, b, zero, Q3, h, P3),
        cyclic_spec(2, 7, b, zero, P3, h, Q3),
    ]
    return kappa2, kappa1


@lru_cache(maxsize=1)
def _filtered_2_7() -> tuple[tuple[CyclicSpec, CheckReport], ...]:
    """Cross-checked specs of type (2, 7; 2, 3; *), shared by F3 and F5."""
    return tuple((s, cross_check(s)) for s in enumerate_cyclic_specs(2, 7, type_filter=(2, 3)))


def _fx_kernel_sweep() -> tuple[bool, list[str]]:
    checked = _filtered_2_7()
    _require(bool(checked), "no specs of the target type found")
    _require(all(rep.passed for _, rep in checked), "cross-checks failed")
    kappas = sorted({type_from_degrees(s).kappa for s, _ in checked})
    _require(kappas == [1, 2], f"kappa values attained: {kappas}")
    dims = {rep.kernel_dim for _, rep in checked}
    _require(dims == {5}, f"kernel dimensions attained: {dims}")
    t = type_from_degrees(checked[0][0])
    cands = kernel_dim_candidates(t)
    _require(cands == (5, 6, 8), f"candidate dims {cands}")
    kappa2, kappa1 = _listed_sweep_specs()
    specs = [s for s, _ in checked]
    for s in kappa2 + kappa1:
        _require(s in specs, f"listed code missing from the sweep: {s}")
    for s in kappa2:
        _require(type_from_degrees(s).kappa == 2, f"{s} should have kappa 2")
    for s in kappa1:
        _require(type_from_degrees(s).kappa == 1, f"{s} should have kappa 1")
    return False, [
        f"{len(checked)} specs of type (2, 7; 2, 3; *), kappas {kappas}",
        "kernel dim 5 throughout; 6 and 8 never attained",
    ]


def _fx_maximal_subcodes() -> tuple[bool, list[str]]:
    spec = cyclic_spec(1, 7, BinPoly.parse("1"), BinPoly.parse("0"),
                       X_MINUS_1, QuatPoly.parse("1"), P3 * Q3)
    o = _SpecObjects(spec)
    _require(str(o.t) == "(1, 7; 1, 6; 1)", f"type is {o.t}")
    _require(set(o.kres.minimal_divisors) == {P3, Q3},
             f"minimal divisors {o.kres.minimal_divisors}")
    _require(o.kres.k_prime == P3 * Q3, f"k' = {o.kres.k_prime}")
    _require(o.kres.dimension == 7, f"kernel dim {o.kres.dimension}")
    _require(o.kcode == o.koracle, "kernel mismatch")
    expected = AdditiveCode(1, 7, [
        Word.parse("1|0000000"),
        *shift_orbit(poly_word(1, 7, BIN_ZERO, spec.f * 2), 7),
    ])
    _require(o.kcode == expected, "kernel is not the doubled-generator code")
    _require(len(o.subcodes) == 2, f"{len(o.subcodes)} maximal subcodes")
    _require(bool(np.array_equal(_meet(o.subcodes), o.kcode.words())),
             "kernel is not the intersection of the maximal subcodes")
    return False, [f"type {o.t}, minimal divisors of degree 3, k' of degree 6, "
                   f"kernel dim 7"]


def _fx_rank_sweep() -> tuple[bool, list[str]]:
    checked = _filtered_2_7()
    ranks = {rep.rank for _, rep in checked}
    _require(ranks == {11}, f"ranks attained: {ranks}")
    t = type_from_degrees(checked[0][0])
    cands = rank_candidates(t)
    _require(cands == (8, 9, 10, 11), f"candidate ranks {cands}")
    for s, rep in checked:
        _require({rep.r, s.g} == {P3, Q3},
                 f"r = {rep.r} and g = {s.g} should split the degree-3 factors")
        _require(rep.r.divides(s.f), f"r = {rep.r} does not divide f = {s.f}")
        if s.g == P3:
            _require(rep.r == Q3, f"with g fixed to ({P3}), r must be ({Q3})")
        _require(rep.rank_result.spec.b == s.b, "the binary divisor should survive here")
    return False, [
        f"{len(checked)} specs of type (2, 7; 2, 3; *), rank 11 throughout",
        "candidates 8, 9, 10 never attained; r is the degree-3 divisor of f",
    ]


def _fx_rank_erosion() -> tuple[bool, list[str]]:
    spec = cyclic_spec(3, 7, BinPoly.parse("x + 1"), BinPoly.parse("1"),
                       QuatPoly.parse("1"), QuatPoly.parse("x + 3"), P3 * Q3)
    _require(not gray_linear(spec), "image should not be linear")
    o = _SpecObjects(spec)
    _require(o.rres.r == QuatPoly.parse("1"), f"r = {o.rres.r}")
    _require(o.rres.spec.b == BinPoly.parse("1"), f"b_r = {o.rres.spec.b}")
    _require(o.rres.spec.ell == BinPoly.parse("0"), f"ell_r = {o.rres.spec.ell}")
    _require(o.rres.rank == 16, f"rank {o.rres.rank}")
    _require(o.rcode == o.lifted, "span preimage mismatch")
    expected = AdditiveCode(3, 7, [
        Word.parse("100|0000000"), Word.parse("010|0000000"),
        Word.parse("001|0000000"),
        *shift_orbit(poly_word(3, 7, BIN_ZERO, spec.h + spec.f * 2), 7),
    ])
    _require(o.lifted == expected, "span is not the expected two-generator code")
    return False, ["b erodes to 1 in the span: rank 16 against code dimension 15"]


def _fx_hensel_lift() -> tuple[bool, list[str]]:
    lifted = hensel_lift(BinPoly.parse("x^4 + x + 1"), 15)
    target = QuatPoly.parse("x^4 + 2x^2 + 3x + 1")
    _require(lifted == target, f"lift is {lifted}")
    f = target
    h = X_MINUS_1 * QuatPoly.parse("x^4 + x^3 + x^2 + x + 1")
    g = xn_minus_1_z4(15) // (f * h)
    o = _SpecObjects(cyclic_spec(3, 15, BinPoly.parse("x + 1"), BinPoly.parse("1"), f, h, g))
    _require(o.rres.r == f, f"r = {o.rres.r} should equal f")
    _require(o.rres.spec.b == BinPoly.parse("1"), f"b_r = {o.rres.spec.b}")
    _require(o.rres.spec.ell == BinPoly.parse("0"), f"ell_r = {o.rres.spec.ell}")
    _require(o.rres.rank == 24, f"rank {o.rres.rank}")
    _require(o.sres.dim == 24, "oracle rank disagrees")
    return False, [f"lift of x^4 + x + 1 at length 15 is ({target}); "
                   f"r = f and the rank is 24"]


def _fx_non_cyclic() -> tuple[bool, list[str]]:
    rows = ["100|000", "010|000", "001|200", "000|110", "000|101"]
    code = AdditiveCode(3, 3, [Word.parse(r) for r in rows])
    _require(not code.is_cyclic(), "the five-row code should not be cyclic")
    t = code.code_type()
    _require(t.kappa1 == 2, f"kappa1 = {t.kappa1}")
    rank = span_bruteforce(code).dim
    _require(rank == 8, f"rank {rank}")
    cy = code.project_y()
    _require(is_gray_linear_bruteforce(cy), "the projection should be linear")
    _require(not is_gray_linear_bruteforce(code), "the code should not be linear")
    ry = span_bruteforce(cy).dim
    _require(ry == 5, f"projection rank {ry}")
    _require(rank > t.kappa1 + ry, "strict gap expected")
    sf = standard_form(code)
    cprime = AdditiveCode(3, 3, sf.c_prime_words())
    rcpy = span_bruteforce(cprime.project_y()).dim
    _require(rank == t.kappa1 + t.kappa2 + rcpy, "decomposition mismatch")
    return False, [f"rank 8 = 2 + 1 + 5 while the projection alone has rank 5"]


def _fx_printed_rank_erratum() -> tuple[bool, list[str]]:
    spec = cyclic_spec(3, 7, BinPoly.parse("x + 1"), BinPoly.parse("0"),
                       X_MINUS_1, QuatPoly.parse("1"), P3 * Q3)
    o = _SpecObjects(spec)
    _require(o.rres.spec.b == spec.b, f"b_r = {o.rres.spec.b} should equal b")
    _require(o.rres.r == spec.f, f"r = {o.rres.r} should equal f")
    _require(o.rres.rank == 15, f"rank {o.rres.rank}")
    _require(o.rcode == o.lifted, "span preimage mismatch")
    _require(o.sres.dim == 15, "oracle rank disagrees")
    printed = cyclic_spec(3, 7, BinPoly.parse("1"), BinPoly.parse("0"),
                          QuatPoly.parse("1"), X_MINUS_1, P3 * Q3)
    _require(materialize(printed) != o.lifted,
             "the published generator pair should not match the span")
    return True, [
        "with no binary mixing the binary divisor survives into the span:",
        "b_r = b = x + 1 and the rank is 15, both confirmed by enumeration;",
        "a published account instead prints the pair (1 | 0), (0 | (x + 3) + 2),",
        "which generates a strictly larger code of dimension 16",
    ]


_FIXTURES = (
    ("F1", "degree-7 factorization", _fx_factorization),
    ("F2", "mixed-length standard matrices", _fx_standard_matrices),
    ("F3", "length-(2, 7) kernel sweep", _fx_kernel_sweep),
    ("F4", "maximal subcodes at length (1, 7)", _fx_maximal_subcodes),
    ("F5", "length-(2, 7) rank sweep", _fx_rank_sweep),
    ("F6", "binary divisor erosion in the span", _fx_rank_erosion),
    ("F7", "degree-4 lift at length 15", _fx_hensel_lift),
    ("F8", "non-cyclic five-row decomposition", _fx_non_cyclic),
    ("F9", "printed span pair at length (3, 7)", _fx_printed_rank_erratum),
)


def paper_suite() -> SuiteReport:
    """Run the pinned regression fixtures in order."""
    results = []
    for fid, title, fn in _FIXTURES:
        try:
            flagged, details = fn()
            results.append(FixtureResult(fid, title, True, flagged, tuple(details)))
        except AssertionError as exc:
            results.append(FixtureResult(fid, title, False, False, (str(exc),)))
    return SuiteReport(tuple(results))


def suite_text(report: SuiteReport, strict: bool = False) -> str:
    """The text view of ``suite_json``'s record."""
    doc = suite_json(report, strict=strict)
    lines = []
    for f in doc["fixtures"]:
        status = _mark(_verdict(f["passed"])) + (" (flagged)" if f["flagged"] else "")
        lines.append(f"{f['id']}  {f['title']}: {status}")
        lines.extend(f"    {d}" for d in f["details"])
    flagged = ", ".join(f["id"] for f in doc["fixtures"] if f["flagged"])
    lines.append(f"suite {'ok' if doc['ok'] else 'failed'}"
                 + (f", flagged: {flagged}" if flagged else ""))
    return "\n".join(lines) + "\n"


def suite_json(report: SuiteReport, strict: bool = False) -> dict:
    """The record of a suite run; its text and CSV views render this."""
    return {
        "fixtures": [
            {
                "id": f.fixture_id,
                "title": f.title,
                "passed": f.passed,
                "flagged": f.flagged,
                "details": list(f.details),
            }
            for f in report.fixtures
        ],
        "ok": report.ok(strict=strict),
        "strict": strict,
    }
