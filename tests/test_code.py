"""Words, the Gray map, additive codes, and the brute-force oracles.

The oracles here are deliberately naive; faster closed forms elsewhere
are checked against them, so these tests pin the oracles' own behavior
on hand-computable codes.
"""

import dataclasses
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from z2z4 import code as code_module
from z2z4.code import (
    AdditiveCode,
    BinaryCode,
    CodeType,
    Word,
    _BLOCK_WORDS,
    _add_packed,
    _f2,
    _f2_rref,
    _isin_sorted,
    _sorted_unique,
    _star2_packed,
    _word,
    gray_array,
    gray_preimage,
    group_basis,
    howell_rows,
    is_gray_linear_bruteforce,
    kernel_bruteforce,
    product_code,
    span_bruteforce,
    standard_form,
    star2,
    type_by_counting,
    ungray,
)
from z2z4.cyclic import cardinality, enumerate_cyclic_specs, materialize
from z2z4.errors import SizeGuardError
from z2z4.gf2 import DEGREE_GUARD_BITS, BinPoly
from z2z4.z4 import QuatPoly


@st.composite
def words(draw, alpha=None, beta=None):
    a = draw(st.integers(0, 6)) if alpha is None else alpha
    b = draw(st.integers(0, 6)) if beta is None else beta
    if a + b == 0:
        b = 1
    u = draw(st.integers(0, (1 << a) - 1)) if a else 0
    lo = draw(st.integers(0, (1 << b) - 1)) if b else 0
    hi = draw(st.integers(0, (1 << b) - 1)) if b else 0
    return Word(a, b, u, lo, hi)


@st.composite
def word_pairs(draw):
    a = draw(st.integers(0, 6))
    b = draw(st.integers(0, 6))
    if a + b == 0:
        b = 1
    return draw(words(a, b)), draw(words(a, b))


@st.composite
def small_codes(draw):
    """Additive codes from up to four random generators, alpha + 2 beta <= 12."""
    b = draw(st.integers(0, 6))
    a = draw(st.integers(0 if b else 1, 12 - 2 * b))
    gens = draw(st.lists(words(a, b), min_size=1, max_size=4))
    return AdditiveCode(a, b, gens)


def _ungray_array(bits, alpha, beta):
    """Packed preimages of Gray masks: a mask holds hi where a packed word
    holds lo, and lo ^ hi where it holds hi."""
    hi, lo_hi = ((bits >> shift) & ((1 << beta) - 1) for shift in (alpha, alpha + beta))
    return (bits & ((1 << alpha) - 1)) | ((lo_hi ^ hi) << alpha) | (hi << (alpha + beta))


# small values force duplicates; the top range has bit 63 set
u64_lists = st.lists(
    st.one_of(st.integers(0, 7), st.integers(1 << 63, (1 << 64) - 1),
              st.integers(0, (1 << 64) - 1)),
    max_size=40,
)


def test_word_parse_and_str():
    w = Word.parse("10|103")
    assert w.alpha == 2 and w.beta == 3
    assert w.x_vector() == (1, 0)
    assert w.y_vector() == (1, 0, 3)
    assert str(w) == "10|103"
    assert Word.parse("|12").alpha == 0
    assert Word.parse("01|").beta == 0
    with pytest.raises(ValueError):
        Word.parse("12|0")  # 2 is not a binary digit
    with pytest.raises(ValueError):
        Word.parse("103")


def test_word_arithmetic():
    v = Word.parse("1|13")
    assert (v + v).y_vector() == (2, 2)
    assert (v + v).x_vector() == (0,)
    assert (v * 4).is_zero
    assert (-v + v).is_zero
    assert v.double() == v + v
    assert v.order() == 4
    assert Word.parse("1|22").order() == 2
    assert Word.parse("0|00").order() == 1


def test_word_shift_rotates_both_blocks_together():
    w = Word.parse("10|120")
    assert str(w.shift()) == "01|012"
    # three shifts close the y-cycle, two close the x-cycle
    third = w.shift().shift().shift()
    assert str(third) == "01|120"
    sixth = third.shift().shift().shift()
    assert sixth == w
    v = Word.parse("|123")
    assert str(v.shift()) == "|312"


def test_gray_per_symbol():
    # 0 -> 00, 1 -> 01, 2 -> 11, 3 -> 10 split across the two halves
    assert Word.parse("|0").gray == 0b00
    assert Word.parse("|1").gray == 0b10  # low-order half first
    assert Word.parse("|2").gray == 0b11
    assert Word.parse("|3").gray == 0b01
    assert Word.parse("1|").gray == 0b1


# the package's immutable values: words, and polynomials over GF(2) and Z4
values = st.one_of(
    words(),
    st.integers(0, (1 << 24) - 1).map(BinPoly),
    st.lists(st.integers(-8, 8), max_size=12).map(QuatPoly),
)


@given(values, st.data())
def test_values_refuse_assignment(v, data):
    name = data.draw(st.sampled_from([f.name for f in dataclasses.fields(v)]))
    before = getattr(v, name)
    with pytest.raises(AttributeError):
        setattr(v, name, 0)
    assert getattr(v, name) == before


@given(values, st.integers(0, pickle.HIGHEST_PROTOCOL))
def test_values_survive_a_pickle_round_trip(v, protocol):
    back = pickle.loads(pickle.dumps(v, protocol=protocol))
    assert type(back) is type(v) and back == v
    assert hash(back) == hash(v) and repr(back) == repr(v)


@given(words())
def test_unchecked_word_equals_the_checked_one(w):
    fast = _word(w.alpha, w.beta, w.u, w.lo, w.hi)
    assert type(fast) is Word and fast == w and hash(fast) == hash(w)


@given(st.lists(st.integers(-8, 8), max_size=8), st.lists(st.sampled_from((0, 4, -4))))
@example([1], [0, 4])
def test_quat_poly_ignores_trailing_zeros_mod_4(cs, zeros):
    p, q = QuatPoly(cs), QuatPoly(cs + zeros)
    assert p == q and hash(p) == hash(q) and p.coeffs == q.coeffs


@given(words(), st.integers(0, (1 << 12) - 1))
@example(Word.parse("1|"), 1)
def test_values_equal_only_their_own_type(w, bits):
    assert w != w.packed and w.packed != w
    b = BinPoly(bits)
    q = QuatPoly(b.coeffs())
    assert b != q and q != b and b.coeffs() == q.coeffs


@pytest.mark.parametrize("make, error, text", [
    pytest.param(lambda: Word(0, 0, 0, 0, 0), ValueError, "with alpha", id="empty-ambient"),
    pytest.param(lambda: Word(-1, 2, 0, 0, 0), ValueError, "with alpha", id="negative-alpha"),
    pytest.param(lambda: Word(2, 1, 4, 0, 0), ValueError, "binary block", id="wide-u"),
    pytest.param(lambda: Word(0, 1, 1, 0, 0), ValueError, "binary block", id="u-without-alpha"),
    pytest.param(lambda: Word(1, 2, 0, 4, 0), ValueError, "quaternary block", id="wide-lo"),
    pytest.param(lambda: Word(1, 2, 0, 0, -1), ValueError, "quaternary block", id="negative-hi"),
    pytest.param(lambda: BinPoly(-1), ValueError, "nonnegative", id="negative-mask"),
    pytest.param(lambda: BinPoly(1 << DEGREE_GUARD_BITS), SizeGuardError, "exceeds guard",
                 id="degree-guard"),
])
def test_values_check_their_ranges(make, error, text):
    """Raised, not asserted, so the checks hold under ``python -O`` too."""
    with pytest.raises(error, match=text):
        make()


@given(words())
def test_gray_round_trip(w):
    assert ungray(w.gray, w.alpha, w.beta) == w


@given(word_pairs())
def test_gray_identity(pair):
    """The image of v + w + 2(v * w) is the XOR of the images."""
    v, w = pair
    combined = v + w + star2(v, w)  # star2 is already the doubled product
    assert combined.gray == v.gray ^ w.gray


@given(word_pairs())
def test_star_is_symmetric(pair):
    v, w = pair
    assert star2(v, w) == star2(w, v)


@given(word_pairs(), st.integers(0, 3))
def test_word_arithmetic_matches_coordinates(pair, c):
    """Bitplane operators agree with mod 2 / mod 4 coordinate arithmetic."""
    v, w = pair

    def ref(op):
        xs = tuple(op(a, b) % 2 for a, b in zip(v.x_vector(), w.x_vector()))
        ys = tuple(op(a, b) % 4 for a, b in zip(v.y_vector(), w.y_vector()))
        return xs, ys

    cases = [
        (v + w, ref(lambda a, b: a + b)),
        (v - w, ref(lambda a, b: a - b)),
        (-v, ref(lambda a, b: -a)),
        (c * v, ref(lambda a, b: c * a)),
        (v.double(), ref(lambda a, b: 2 * a)),
    ]
    for got, (xs, ys) in cases:
        assert (got.x_vector(), got.y_vector()) == (xs, ys)
        assert got == Word.from_vectors(xs, ys)


@st.composite
def packed_arrays(draw):
    """(alpha, beta, packed words, w): up to 20 words, alpha + 2 beta <= 71."""
    beta = draw(st.integers(0, 35))
    alpha = draw(st.integers(0 if beta else 1, 71 - 2 * beta))
    packed = draw(st.lists(st.integers(0, (1 << (alpha + 2 * beta)) - 1), max_size=20))
    return alpha, beta, packed, draw(words(alpha, beta))


@given(packed_arrays())
@example((3, 4, list(range(1 << 11)), Word.parse("101|3120")))
@example((2, 30, [0, (1 << 62) - 1, 1 << 61, (1 << 32) - 1, 0x2AAAAAAAAAAAAAAA],
          Word(2, 30, 3, (1 << 30) - 1, 1 << 29)))
@example((0, 32, [0, (1 << 64) - 1, 1 << 63, 0xAAAAAAAAAAAAAAAA],
          Word(0, 32, 0, (1 << 32) - 1, 1 << 31)))
@example((1, 35, [0, (1 << 71) - 1, 1 << 70, (1 << 64) - 1, 0x2AAAAAAAAAAAAAAAAA],
          Word(1, 35, 1, (1 << 35) - 1, 1 << 34)))
def test_packed_arrays_match_words(case):
    # uint64 up to 64 bits, Python ints in an object array above
    alpha, beta, packed, w = case
    dtype = np.uint64 if alpha + 2 * beta <= 64 else object
    arr = np.array(packed, dtype=dtype)
    wp = np.array([w.packed], dtype=dtype)[0]
    sums, stars = _add_packed(arr, wp, alpha, beta), _star2_packed(arr, wp, alpha, beta)
    masks = gray_array(arr, alpha, beta)
    vs = [Word.from_packed(p, alpha, beta) for p in packed]
    for i, v in enumerate(vs):
        assert v.packed == packed[i]
        assert int(sums[i]) == (v + w).packed
        assert int(stars[i]) == star2(v, w).packed
        assert int(masks[i]) == v.gray
        assert ungray(v.gray, alpha, beta) == v
    assert np.array_equal(_ungray_array(masks, alpha, beta), arr)
    # a (k, 1) column against a (B,) row, as the Gray identity check adds
    # its probes, and the same pairs the other way round
    column = [w] + vs[:3]
    col = np.array([c.packed for c in column], dtype=dtype)[:, None]
    grids = (_add_packed(col, arr, alpha, beta), _add_packed(arr, col, alpha, beta))
    for grid in grids:
        assert grid.shape == (len(column), len(packed))
        images = gray_array(grid, alpha, beta)
        for r, c in enumerate(column):
            for i, v in enumerate(vs):
                assert int(grid[r, i]) == (c + v).packed
                assert int(images[r, i]) == (c + v).gray


@st.composite
def narrow_word_lists(draw):
    """(alpha, beta, words, w): up to 20 words and one more, alpha + 2 beta <= 32."""
    beta = draw(st.integers(0, 16))
    alpha = draw(st.integers(0 if beta else 1, 32 - 2 * beta))
    return alpha, beta, draw(st.lists(words(alpha, beta), max_size=20)), draw(words(alpha, beta))


@given(narrow_word_lists())
@example((0, 16, [Word(0, 16, 0, 1 << 15, 1 << 15)], Word(0, 16, 0, (1 << 16) - 1, 0)))
@example((32, 0, [Word(32, 0, (1 << 32) - 1, 0, 0)], Word(32, 0, 1 << 31, 0, 0)))
def test_packed_kernels_keep_a_uint32_input_in_uint32(case):
    # a numpy uint64 constant in a kernel would widen every uint32 pass
    alpha, beta, ws, w = case
    packed = [v.packed for v in ws]
    narrow, wide = (np.array(packed, dtype=t) for t in (np.uint32, np.uint64))
    k = min(3, len(packed))
    kernels = (
        lambda a, t: _add_packed(a, t(w.packed), alpha, beta),  # a scalar, as _cosets adds
        lambda a, t: _star2_packed(a, t(w.packed), alpha, beta),
        lambda a, t: _add_packed(a, a[:k, None], alpha, beta),  # a (k, B) grid
        lambda a, t: _star2_packed(a[:k, None], a, alpha, beta),
        lambda a, t: gray_array(a, alpha, beta),
        lambda a, t: gray_array(_add_packed(a[:k, None], a, alpha, beta), alpha, beta),
        lambda a, t: _ungray_array(gray_array(a[:k, None] ^ a, alpha, beta), alpha, beta),
    )
    for kernel in kernels:
        got, want = kernel(narrow, np.uint32), kernel(wide, np.uint64)
        assert got.dtype == np.uint32 and want.dtype == np.uint64
        assert got.shape == want.shape and np.array_equal(got, want)


def test_ambient_guard():
    # no width is refused: 80-bit words enumerate as Python ints in an
    # object array, and the word budget is the only guard
    w = Word(40, 20, 1 << 39, 1 << 19, 0)
    code = AdditiveCode(40, 20, [w])
    arr = code.words()
    assert arr.dtype == object and arr.tolist() == sorted((w * c).packed for c in range(4))
    assert AdditiveCode.from_words(40, 20, arr) == code
    assert BinaryCode(80, (1 << 79,)).words().tolist() == [0, 1 << 79]
    span = span_bruteforce(code)
    assert span.dim == 2 and gray_preimage(span, 40, 20) == code
    with pytest.raises(SizeGuardError) as e:
        AdditiveCode(40, 20, [w], max_words=3).words()
    assert e.value.predicted == 4


def test_group_basis_and_size():
    code = AdditiveCode(1, 3, [Word.parse("1|100")])
    # (1|100) has order 4 and its double has a zero x part
    assert code.size == 4
    basis = group_basis(1, 3, code.generators)
    assert 2 ** basis.gamma * 4 ** basis.delta == 4

    # three independent order-4 generators: gamma 0, delta 3
    shifts = [Word.parse("1|100"), Word.parse("1|010"), Word.parse("1|001")]
    code = AdditiveCode(1, 3, shifts)
    assert code.size == 64
    assert sorted(int(p) for p in code.words())[0] == 0


@given(small_codes())
def test_group_basis_pivot_contract(code):
    """What ``standard_form`` reads off the group basis: ``pivots2`` run
    binary ascending, then quaternary descending; each ``words2`` row's
    ``_f2`` vector is 1 at its own pivot, 0 at the other pivots and 0 at
    every column before its pivot in that order; and each ``words4``
    row's ``_f2`` vector is 0 at every ``pivots2`` column."""
    gb = code.basis
    a = code.alpha
    order = list(range(a)) + list(range(a + code.beta - 1, a - 1, -1))
    rank = {c: i for i, c in enumerate(order)}
    assert list(gb.pivots2) == sorted(gb.pivots2, key=rank.__getitem__)
    for w, p in zip(gb.words2, gb.pivots2):
        v = _f2(w)
        assert all((v >> c) & 1 == (c == p) for c in gb.pivots2)
        assert all((v >> c) & 1 == 0 for c in order[: rank[p]])
    for w in gb.words4:
        assert all((_f2(w) >> c) & 1 == 0 for c in gb.pivots2)


def test_code_equality_ignores_generator_presentation():
    a = AdditiveCode(1, 3, [Word.parse("1|100"), Word.parse("1|010")])
    b = AdditiveCode(1, 3, [Word.parse("1|010"), Word.parse("0|110")])
    assert a == b
    assert howell_rows(1, 3, a.generators) == howell_rows(1, 3, b.generators)
    assert hash(a) == hash(b)
    c = AdditiveCode(1, 3, [Word.parse("1|100")])
    assert a != c


def _combination(gens, coeffs) -> Word:
    out = gens[0] * 0
    for g, c in zip(gens, coeffs):
        out = out + g * c
    return out


@settings(deadline=None)
@given(small_codes(), st.data())
def test_regenerated_code_has_the_same_identity(code, data):
    """Another generating set of the same group gives an equal code, an
    equal hash and the same group basis."""
    gens = list(code.generators)
    n = len(gens)
    order = data.draw(st.permutations(range(n)))
    # each generator again, as a unit multiple plus multiples of the ones
    # before it in a random order: a unitriangular change of generators
    regen = []
    for k, i in enumerate(order):
        coeffs = [0] * n
        coeffs[i] = data.draw(st.sampled_from((1, 3)))
        for j in order[:k]:
            coeffs[j] = data.draw(st.integers(0, 3))
        regen.append(_combination(gens, coeffs))
    extra = data.draw(st.lists(st.lists(st.integers(0, 3), min_size=n, max_size=n), max_size=3))
    regen += [_combination(gens, coeffs) for coeffs in extra]
    regen = data.draw(st.permutations(regen))
    other = AdditiveCode(code.alpha, code.beta, regen)
    assert other == code
    assert hash(other) == hash(code)
    assert other.basis == code.basis


@settings(deadline=None)
@given(small_codes(), st.data())
def test_code_equality_agrees_with_howell_rows(code, data):
    """Two codes in one ambient space are equal iff their Howell rows are;
    the second code is spanned by random combinations of the first's
    generators, so it is the same code or a subcode."""
    gens = code.generators
    combos = data.draw(st.lists(
        st.lists(st.integers(0, 3), min_size=len(gens), max_size=len(gens)),
        min_size=1, max_size=5,
    ))
    other = AdditiveCode(code.alpha, code.beta, [_combination(gens, c) for c in combos])
    a, b = code.alpha, code.beta
    same = howell_rows(a, b, code.generators) == howell_rows(a, b, other.generators)
    assert (other == code) == same
    if same:
        assert hash(other) == hash(code)


def test_from_words_requires_closure():
    code = AdditiveCode(1, 3, [Word.parse("1|100"), Word.parse("0|110")])
    rebuilt = AdditiveCode.from_words(1, 3, code.words())
    assert rebuilt == code
    with pytest.raises(ValueError):
        AdditiveCode.from_words(1, 1, np.array([0, 3], dtype=np.uint64))
    with pytest.raises(ValueError):
        AdditiveCode.from_words(1, 1, np.array([3], dtype=np.uint64))


@pytest.mark.parametrize("alpha, beta, packed", [
    (1, 1, [0, 8]),  # a 4th bit, masked away by Word.from_packed
    (1, 1, [0, 1 << 63]),
    (2, 15, [0, 1 << 32]),  # 0 in uint32
    (2, 15, [0, (1 << 32) | 1]),  # 1, a word, in uint32
    (3, 15, [0, 1 << 33]),
])
def test_from_words_rejects_values_outside_the_ambient(alpha, beta, packed):
    for arr in (packed, np.array(packed, dtype=np.uint64)):
        with pytest.raises(ValueError, match="outside"):
            AdditiveCode.from_words(alpha, beta, arr)


def _group_words(gens) -> list[int]:
    """Sorted packed words of the group ``gens`` generate, by ``Word`` sums."""
    zero = gens[0] * 0
    group = {zero}
    for g in gens:
        group |= {v + g * c for v in group for c in range(1, g.order())}
    return sorted(v.packed for v in group)


def _xor_span(masks) -> list[int]:
    span = {0}
    for m in masks:
        span |= {s ^ m for s in span}
    return sorted(span)


@settings(deadline=None)
@given(small_codes())
@example(AdditiveCode(2, 15, [Word(2, 15, 3, 1 << 14, 1), Word(2, 15, 1, 0, 1 << 14)]))
@example(AdditiveCode(3, 15, [Word(3, 15, 4, 1 << 14, 1), Word(3, 15, 1, 0, 1 << 14)]))
def test_packed_arrays_take_the_ambient_dtype(code):
    # uint32 up to 32 ambient bits, uint64 above; the values are the
    # ones Word arithmetic gives
    a, b = code.alpha, code.beta
    dtype = np.uint32 if a + 2 * b <= 32 else np.uint64
    words = _group_words(code.generators)
    rebuilt = AdditiveCode.from_words(a, b, np.array(words, dtype=np.uint64))
    kernel = kernel_bruteforce(code)
    span = span_bruteforce(code)
    lifted = gray_preimage(span, a, b)
    vs = [Word.from_packed(p, a, b) for p in words]
    basis = code.basis_words()
    got_want = (
        (code.words(), words),
        (rebuilt.words(), words),
        (kernel.words(), [v.packed for v in vs
                          if all(code.contains(star2(v, w)) for w in basis)]),
        (span.words(), _xor_span(span.basis)),
        (lifted.words(), sorted(ungray(m, a, b).packed for m in _xor_span(span.basis))),
    )
    for got, want in got_want:
        assert got.dtype == dtype
        assert got.tolist() == want
    assert span == BinaryCode.from_masks(a + 2 * b, [v.gray for v in vs])


@given(u64_lists, u64_lists)
@example([], [])
@example([5], [])
@example([], [5])
@example([3, 3, 3, 3], [3])
@example([(1 << 64) - 1, 1 << 63, 0], [(1 << 64) - 1, (1 << 64) - 1])
def test_sorted_primitives_match_numpy(xs, ys):
    # in uint32 a value of more than 32 bits keeps its top half, so bit
    # 63 becomes bit 31
    for dtype, narrow in ((np.uint64, lambda x: x), (np.uint32, lambda x: x >> 32 or x)):
        a = np.array([narrow(x) for x in xs], dtype=dtype)
        b = np.array([narrow(y) for y in ys], dtype=dtype)
        got = _sorted_unique(a)
        assert got.dtype == dtype
        assert np.array_equal(got, np.unique(a))
        assert np.array_equal(_isin_sorted(np.unique(b), a), np.isin(a, b))


@settings(deadline=None)
@given(small_codes(), st.data())
def test_from_words_rebuilds_closed_sets_and_rejects_the_rest(code, data):
    a, b = code.alpha, code.beta
    arr = code.words()
    assert AdditiveCode.from_words(a, b, arr[::-1]) == code
    drop = data.draw(st.integers(0, len(arr) - 1))
    extra = data.draw(st.integers(0, (1 << (a + 2 * b)) - 1))
    for packed in (np.delete(arr, drop), np.append(arr, np.uint64(extra))):
        # the reference: the group the words generate, enumerated from its basis
        group = AdditiveCode(a, b, [Word.from_packed(int(p), a, b) for p in packed])
        if 0 in packed and np.array_equal(group.words(), np.unique(packed)):
            assert np.array_equal(AdditiveCode.from_words(a, b, packed).words(), group.words())
        else:
            with pytest.raises(ValueError):
                AdditiveCode.from_words(a, b, packed)


def test_contains_and_membership_mask():
    code = AdditiveCode(2, 3, [Word.parse("11|100"), Word.parse("00|210")])
    for w in (Word.parse("11|100"), Word.parse("00|020"), Word.parse("11|310")):
        assert code.contains(w)
    assert not code.contains(Word.parse("10|000"))
    arr = code.words()
    assert bool(np.all(code.membership_mask(arr)))
    assert not bool(code.membership_mask(np.array([1], dtype=np.uint64))[0])
    # a uint64 query of a uint32 code: low 32 bits that are a codeword do
    # not make a member
    assert arr.dtype == np.uint32
    wide = np.array([(1 << 32) | int(arr[-1]), 1 << 40, int(arr[-1])], dtype=np.uint64)
    assert code.membership_mask(wide).tolist() == [False, False, True]


def test_word_budget_guard():
    gens = [Word(0, 11, 0, 1 << i, 0) for i in range(11)]
    code = AdditiveCode(0, 11, gens, max_words=100)
    with pytest.raises(SizeGuardError):
        code.words()


def test_howell_rows_canonical():
    rows = howell_rows(1, 3, [Word.parse("1|100"), Word.parse("1|010")])
    assert rows == howell_rows(1, 3, [Word.parse("1|010"), Word.parse("0|110")])
    for row in rows:
        assert len(row) == 4


def test_binary_code_rrefs():
    c = BinaryCode.from_masks(4, [0b0011, 0b0110, 0b0101])
    assert c.dim == 2
    assert c.size == 4
    d = BinaryCode.from_masks(4, [0b0110, 0b0011])
    assert c == d
    assert list(d.words()) == sorted(
        {0, 0b0011, 0b0110, 0b0101}
    )


@given(st.lists(st.integers(0, (1 << 12) - 1), max_size=10),
       st.permutations(range(12)), st.integers(0, 12))
def test_f2_rref_on_a_partial_pivot_set(vectors, perm, k):
    cols = perm[:k]
    pivots, rest = _f2_rref(vectors, cols)
    assert [p for _, p in pivots] == [c for c in cols if c in {p for _, p in pivots}]
    for v, p in pivots:
        assert all((v >> q) & 1 == (q == p) for _, q in pivots)
    assert all((v >> c) & 1 == 0 for v in rest for c in cols)
    span = BinaryCode.from_masks(12, [v for v, _ in pivots] + rest)
    assert span.dim == BinaryCode.from_masks(12, vectors).dim
    assert span == BinaryCode.from_masks(12, vectors)


def test_echelon_fast_path_matches_scalar_loop():
    rng = np.random.default_rng(11)
    for dtype, max_length in ((np.uint64, 48), (np.uint32, 33)):
        for _ in range(50):
            length = int(rng.integers(1, max_length))
            masks = rng.integers(0, 1 << length, size=64, dtype=dtype)
            assert BinaryCode.from_masks(length, masks) == BinaryCode.from_masks(
                length, (int(m) for m in masks)
            )


@pytest.mark.parametrize("new_mask", [(1 << 15) | 1, 1, (1 << 14) | 1])
def test_echelon_pivot_found_only_in_the_last_block(new_mask):
    # every mask of the first block lies in the span of bits 1-14; the
    # last mask, alone in the second block, brings one new pivot: above
    # the pivots found so far, below them, or at bit 0 once the pivot
    # at its leading bit 14 has reduced it
    for dtype in (np.uint64, np.uint32):
        rng = np.random.default_rng(12)
        masks = rng.integers(0, 1 << 14, size=_BLOCK_WORDS + 1, dtype=dtype) << 1
        masks[-1] = new_mask
        code = BinaryCode.from_masks(16, masks)
        assert code.dim == BinaryCode.from_masks(16, masks[:-1]).dim + 1 == 15
        assert code == BinaryCode.from_masks(16, [int(m) for m in masks])


def test_echelon_full_rank_in_the_first_block():
    rng = np.random.default_rng(13)
    masks = rng.integers(0, 1 << 20, size=_BLOCK_WORDS + 7, dtype=np.uint64)
    code = BinaryCode.from_masks(20, masks)
    assert code.dim == BinaryCode.from_masks(20, masks[:_BLOCK_WORDS]).dim == 20
    assert code == BinaryCode.from_masks(20, [int(m) for m in masks])


def _below(rng, b: int) -> int:
    """A random int below 2^b, drawn 62 bits at a time past 62 bits."""
    if b <= 62:
        return int(rng.integers(0, 1 << b))
    return _below(rng, 62) | _below(rng, b - 62) << 62


@pytest.mark.parametrize("dtype, length, rank, late", [
    (np.uint64, 62, 40, None),
    (np.uint64, 57, 56, None),
    (np.uint64, 58, 57, "top"),
    (np.uint64, 59, 31, "top"),
    (np.uint64, 60, 12, "bottom"),
    (np.uint64, 61, 45, "bottom"),
    (np.uint64, 20, 13, "bottom"),
    (np.uint32, 25, 24, None),
    (np.uint32, 27, 26, "top"),
    (np.uint32, 30, 3, "top"),
    (np.uint32, 31, 17, "bottom"),
    (np.uint32, 32, 20, "top"),
    (np.uint64, 64, 50, "top"),
    (object, 71, 60, "bottom"),
])
def test_echelon_table_path_matches_scalar_loop(monkeypatch, dtype, length, rank, late):
    # random sums of ``rank`` rows with distinct leading bits, the top
    # bit among them, over three blocks and a few masks; a ``late`` row,
    # the one with the highest or the lowest leading bit, enters only
    # from the third block on, after the first block's tables exist.
    # Blocks of 256 masks keep the scalar loop's reference quick.  Each
    # pivot is taken by one argmax: the tables clear every known pivot
    # bit, so no later block runs the bit loop for nothing.
    block = 256
    monkeypatch.setattr(code_module, "_BLOCK_WORDS", block)
    taken = []
    argmax = np.argmax
    monkeypatch.setattr(np, "argmax", lambda *args: taken.append(1) or argmax(*args))
    rng = np.random.default_rng(length * 100 + rank)
    leads = [int(b) for b in rng.choice(length - 1, size=rank - 1, replace=False)]
    rows = [(1 << b) | _below(rng, b) for b in sorted(leads) + [length - 1]]
    n = 3 * block + 5
    coeffs = rng.integers(0, 2, size=(n, rank), dtype=bool)
    if late is not None:
        coeffs[:2 * block, -1 if late == "top" else 0] = False
    masks = np.zeros(n, dtype=dtype)
    for row, picked in zip(rows, coeffs.T):
        masks[picked] ^= row
    code = BinaryCode.from_masks(length, masks)
    assert code.dim == len(taken) == rank
    if late is not None:
        assert BinaryCode.from_masks(length, masks[:2 * block]).dim == rank - 1
    assert code == BinaryCode.from_masks(length, (int(m) for m in masks))


def _kernel_by_definition(code: AdditiveCode) -> list[int]:
    ws = [Word.from_packed(int(p), code.alpha, code.beta) for p in code.words()]
    return sorted(v.packed for v in ws if all(code.contains(star2(v, w)) for w in ws))


# hand-checkable code: the mixed-length pair from the worked examples
def _small_mixed_code() -> AdditiveCode:
    gens = [Word.parse("1|111")]
    gens += [Word.parse("0|311"), Word.parse("0|131"), Word.parse("0|113")]
    return AdditiveCode(1, 3, gens)


def test_kernel_bruteforce_small():
    code = _small_mixed_code()
    kernel = kernel_bruteforce(code)
    assert kernel.is_subcode_of(code)
    # kernel words v satisfy 2(v * w) in C for every w
    arr_k = kernel.words()
    for p in arr_k:
        v = Word.from_packed(int(p), 1, 3)
        for q in code.words():
            w = Word.from_packed(int(q), 1, 3)
            assert code.contains(star2(v, w))
    # and non-kernel words must fail it for some w
    for q in code.words():
        v = Word.from_packed(int(q), 1, 3)
        if kernel.contains(v):
            continue
        assert any(
            not code.contains(star2(v, Word.from_packed(int(p), 1, 3)))
            for p in code.words()
        )


@settings(deadline=None)
@given(small_codes())
def test_kernel_bruteforce_is_the_definition(code):
    """Kernel words are exactly the v with 2(v * w) in C for every word w."""
    assert [int(p) for p in kernel_bruteforce(code).words()] == _kernel_by_definition(code)


def _spy_from_words(monkeypatch) -> list:
    calls = []
    real = AdditiveCode.from_words
    monkeypatch.setattr(AdditiveCode, "from_words",
                        lambda *args, **kwargs: calls.append(args) or real(*args, **kwargs))
    return calls


def test_kernel_bruteforce_returns_a_gray_linear_code_itself(monkeypatch):
    code = _small_mixed_code()
    assert is_gray_linear_bruteforce(code)
    calls = _spy_from_words(monkeypatch)
    assert kernel_bruteforce(code) is code
    assert calls == []


def test_kernel_bruteforce_rebuilds_a_proper_kernel(monkeypatch):
    code = AdditiveCode(0, 3, [Word.parse("|110"), Word.parse("|011")])
    calls = _spy_from_words(monkeypatch)
    kernel = kernel_bruteforce(code)
    assert len(calls) == 1 and kernel.size == 4 < code.size
    assert [int(p) for p in kernel.words()] == _kernel_by_definition(code)


@settings(deadline=None)
@given(small_codes())
@example(_small_mixed_code())
@example(AdditiveCode(1, 1, [Word.parse("1|0"), Word.parse("0|1")]))
def test_linearity_oracle_agrees_with_exhaustive(code):
    """The basis-pair linearity test equals closure under 2(v * w) over
    all pairs of words, and equals the kernel being the whole code."""
    ws = [Word.from_packed(int(p), code.alpha, code.beta) for p in code.words()]
    products = {star2(v, w) for v in ws for w in ws}
    linear = all(code.contains(p) for p in products)
    assert is_gray_linear_bruteforce(code) == linear
    assert (kernel_bruteforce(code) == code) == linear


def test_span_bruteforce_contains_and_bounds():
    code = _small_mixed_code()
    span = span_bruteforce(code)
    t = code.code_type()
    assert t.gamma + 2 * t.delta <= span.dim
    assert code.is_subcode_of(gray_preimage(span, 1, 3))
    grays = set(int(m) for m in gray_array(code.words(), 1, 3))
    span_words = set(int(m) for m in span.words())
    assert grays <= span_words
    assert kernel_bruteforce(code).is_subcode_of(code)


def test_span_rank_without_lift():
    code = _small_mixed_code()
    span = span_bruteforce(code)
    lifted = gray_preimage(span, 1, 3)
    assert lifted.size == 1 << span.dim
    # the lift lists no word, so a budget below the span binds only the
    # lifted code's own enumeration
    tight = gray_preimage(span, 1, 3, max_words=(1 << span.dim) - 1)
    assert tight == lifted
    with pytest.raises(SizeGuardError) as e:
        tight.words()
    assert e.value.predicted == 1 << span.dim


def test_gray_preimage_refuses_a_span_of_another_length():
    # a 9-bit span is not in the 7-bit ambient (1, 3); read as one, it
    # lifted to {0, (1|000)}
    with pytest.raises(ValueError, match="length 9 does not lie in the 7-bit ambient"):
        gray_preimage(BinaryCode.from_masks(9, [1 | 1 << 8]), 1, 3)


def _enumerated_preimage(span: BinaryCode, alpha: int, beta: int) -> AdditiveCode:
    """The lift by enumeration: every span word, un-Grayed, regrown as a code."""
    return AdditiveCode.from_words(alpha, beta, _ungray_array(span.words(), alpha, beta))


def test_gray_preimage_is_the_enumerated_preimage_on_every_small_spec():
    specs = [spec for alpha in range(1, 5) for beta in (1, 3, 5, 7, 9)
             for spec in enumerate_cyclic_specs(alpha, beta) if cardinality(spec) <= 1 << 14]
    assert len(specs) == 1470
    for spec in specs:
        span = span_bruteforce(materialize(spec))
        lifted = gray_preimage(span, spec.alpha, spec.beta)
        want = _enumerated_preimage(span, spec.alpha, spec.beta)
        assert lifted == want, spec
        assert np.array_equal(lifted.words(), want.words()), spec


@st.composite
def binary_spans(draw):
    """(span, alpha, beta): the span of random masks over alpha + 2 beta
    bits, with alpha <= 2 and beta <= 3."""
    beta = draw(st.integers(0, 3))
    alpha = draw(st.integers(0 if beta else 1, 2))
    n = alpha + 2 * beta
    masks = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=n))
    return BinaryCode.from_masks(n, masks), alpha, beta


def _lift_or_error(lift, span, alpha, beta):
    try:
        return lift(span, alpha, beta)
    except ValueError as e:
        return str(e)


@settings(max_examples=300, deadline=None)
@given(binary_spans())
@example((BinaryCode.from_masks(2, [0b10]), 0, 1))  # the preimage {0, 1} of Z4 misses 1 + 1
def test_gray_preimage_lifts_a_random_span_as_enumeration_does(case):
    # either both routes find the preimage not additively closed, or both
    # return the same code
    span, alpha, beta = case
    got = _lift_or_error(gray_preimage, span, alpha, beta)
    want = _lift_or_error(_enumerated_preimage, span, alpha, beta)
    if isinstance(want, str):
        assert got == want == "word set is not additively closed"
    else:
        assert got == want
        assert np.array_equal(got.words(), want.words())


def test_gray_preimage_holds_for_any_basis_of_the_span():
    # five words of H = <(110), (011)> with independent Gray images: they
    # generate only H, 16 words, but span the Gray image of
    # R(H) = <H, 2((110) * (011))>, 32 words; the doubled products fill the gap
    ws = [Word.parse(t) for t in ("|110", "|011", "|301", "|121", "|103")]
    h = AdditiveCode(0, 3, ws)
    span = BinaryCode(6, tuple(w.gray for w in ws))
    assert h.size == 16 and BinaryCode.from_masks(6, span.basis).dim == 5
    lifted = gray_preimage(span, 0, 3)
    assert lifted == gray_preimage(span_bruteforce(h), 0, 3)
    assert lifted == AdditiveCode(0, 3, ws + [Word.parse("|020")]) and lifted.size == 32


def test_gray_preimage_enumerates_nothing(monkeypatch):
    code = _small_mixed_code()
    span = span_bruteforce(code)
    calls = []
    real = code_module._enumerate
    monkeypatch.setattr(code_module, "_enumerate",
                        lambda *args: calls.append(args) or real(*args))
    lifted = gray_preimage(span, 1, 3)
    assert calls == []
    assert lifted.size == span.size and code.is_subcode_of(lifted)


def test_type_by_counting_matches_structure():
    code = _small_mixed_code()
    assert type_by_counting(code) == code.code_type()
    binary_only = AdditiveCode(3, 1, [Word.parse("110|0"), Word.parse("011|0")])
    t = type_by_counting(binary_only)
    assert (t.gamma, t.delta, t.kappa) == (2, 0, 2)


def test_type_by_counting_matches_structure_over_several_blocks():
    # 2^17 words, 2^15 of them of order two: both mask arrays that
    # type_by_counting echelons span more than one block
    rng = np.random.default_rng(10)
    gens = [Word(10, 6, int(rng.integers(1 << 10)), int(rng.integers(1, 1 << 6)),
                 int(rng.integers(1 << 6))) for _ in range(2)]
    gens += [Word(10, 6, int(rng.integers(1 << 9)), 0, int(rng.integers(1 << 6)))
             for _ in range(16)]
    code = AdditiveCode(10, 6, gens)
    t = code.code_type()
    assert (code.size, 1 << (t.gamma + t.delta)) == (1 << 17, 2 * _BLOCK_WORDS)
    assert (t.kappa, t.kappa1, t.delta1) == (9, 9, 1)
    assert type_by_counting(code) == t


def test_type_by_counting_peaks_below_three_word_arrays():
    # the counts read the packed words; only the binary parts become an
    # array of their own
    spec = next(s for s in enumerate_cyclic_specs(3, 9) if cardinality(s) == 1 << 16)
    code = materialize(spec)
    arr = code.words()
    tracemalloc.start()
    try:
        t = type_by_counting(code)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert t == code.code_type()
    assert peak <= 3 * arr.nbytes, peak / arr.nbytes


def test_code_type_validates():
    with pytest.raises(ValueError, match="kappa exceeds"):
        CodeType(alpha=1, beta=1, gamma=3, delta=0, kappa=2,
                 kappa1=1, kappa2=1, delta1=0, delta2=0)
    with pytest.raises(ValueError, match="kappa exceeds"):  # no binary block
        CodeType(alpha=0, beta=3, gamma=1, delta=1, kappa=1,
                 kappa1=0, kappa2=1, delta1=0, delta2=1)
    with pytest.raises(ValueError, match="gamma \\+ delta"):
        CodeType(alpha=2, beta=1, gamma=2, delta=1, kappa=1,
                 kappa1=1, kappa2=1, delta1=1, delta2=0)
    with pytest.raises(ValueError, match="kappa1 \\+ kappa2"):
        CodeType(alpha=2, beta=3, gamma=2, delta=1, kappa=1,
                 kappa1=1, kappa2=1, delta1=1, delta2=0)
    with pytest.raises(ValueError, match="delta split"):
        CodeType(alpha=2, beta=3, gamma=2, delta=1, kappa=1,
                 kappa1=1, kappa2=0, delta1=2, delta2=-1)


@settings(deadline=None)
@given(small_codes())
@example(_small_mixed_code())
# its kappa2 row has a 2 at the even row's pivot; the RREF of words2 leaves it 0 there
@example(AdditiveCode(1, 3, [Word.parse("1|022"), Word.parse("0|202")]))
def test_standard_form_shape(code):
    sf = standard_form(code)
    t = code.code_type()
    assert (sf.kappa1, sf.kappa2, sf.gamma, sf.delta) == (t.kappa1, t.kappa2, t.gamma, t.delta)
    # rows are stored against the original coordinates: same code back
    assert AdditiveCode(code.alpha, code.beta, sf.words()) == code
    # the recorded column orders are permutations of each block
    assert sorted(sf.x_order) == list(range(code.alpha))
    assert sorted(sf.y_order) == list(range(code.beta))
    # identity blocks: row i of the kappa1 block is e_i on the kappa1 columns
    rows = sf.permuted_rows()
    for i in range(sf.kappa1):
        assert rows[i][: sf.kappa1] == tuple(
            1 if j == i else 0 for j in range(sf.kappa1)
        )


def test_product_code_is_separable():
    cx = BinaryCode.from_masks(2, [0b11])
    cy = AdditiveCode(0, 3, [Word.parse("|110"), Word.parse("|011")])
    code = product_code(cx, cy)
    assert code.is_separable()
    assert code.project_x() == cx
    assert code.project_y() == cy
    assert code.size == cx.size * cy.size


def test_separability_detects_mixing():
    mixed = AdditiveCode(1, 1, [Word.parse("1|1")])
    assert not mixed.is_separable()
    assert mixed.project_x().size * mixed.project_y().size > mixed.size


def test_order_two_subcode():
    code = _small_mixed_code()
    sub = code.order_two_subcode()
    for p in sub.words():
        w = Word.from_packed(int(p), 1, 3)
        assert (w + w).is_zero
        assert code.contains(w)
    assert sub.size == sum(
        1 for p in code.words()
        if (Word.from_packed(int(p), 1, 3).double()).is_zero
    )
