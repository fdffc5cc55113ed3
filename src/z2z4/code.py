"""Words and additive subgroups of Z2^alpha x Z4^beta, with exact oracles.

A word is stored as three bitplanes: ``u`` for the binary block and
``lo``/``hi`` for the quaternary block, where the coordinate value is
``lo_i + 2*hi_i``.  A whole code is a sorted numpy array of packed
words, in the one dtype ``_word_dtype`` gives its width alpha + 2 beta:
uint32 up to 32 bits, uint64 up to 64, and Python ints (``object``)
above, so no width is refused.  Every bulk operation (enumeration, Gray
images, membership, kernels, spans) is a few vectorized bitplane ops, so
the oracles stay exact while handling millions of words.  The packed-word
kernels (``_add_packed``, ``_star2_packed``, ``gray_array``) keep their
input's dtype: their masks and shift counts are Python ints, cast to its
width.

Structure never comes from enumeration: ``group_basis`` extracts a
basis split into order-4 and order-2 rows by exact elimination over the
mixed alphabet; that basis is canonical, so it is also the identity of a
code (the generated equality on ``AdditiveCode.basis``).  ``howell_rows``
is an independent canonical form, kept as a reference for that identity.
Enumeration is only used where an oracle reads a code's own words, and
``max_words`` is its one guard; ``gray_preimage`` lifts a span from its
basis and lists no word.  The structure layer reads no array.

A binary linear code of length n is the additive code with alpha = n
and beta = 0: ``binary_code`` builds one, and Gray spans and binary
projections are such codes.

Every GF(2) elimination (the order-2 stage of ``group_basis``, so every
binary code, and the standard form) goes through ``_f2_rref``; the ranks
of ``code_type`` and ``type_by_counting`` come from ``_f2_rank``.
Order-2 words add as their F2 vectors ``_f2`` XOR, so an elimination on
those vectors returns the combined words.  The standard form runs one
such RREF, for its kappa1 block, and takes its other three blocks from
the group basis as they are (see ``GroupBasis``).
``_echelon`` pre-reduces numpy mask arrays for ``_f2_rref`` and ranks
them for ``_f2_rank``.  It reduces a large array ``_BLOCK_WORDS`` masks
at a time, each block by table lookups on the pivots found so far, and
stops at full rank, because a pass over a whole array of a million words
streams it through main memory, while a block's temporaries stay in cache.

Set operations on sorted packed arrays (deduplication, membership,
intersection) go through ``_sorted_unique`` and ``_isin_sorted``, and
arithmetic on packed words (sums, doubled products) goes through
``_add_packed`` and ``_star2_packed``, which broadcast like any numpy
operator, so one call adds a word to an array or a column of words to a
row of them.  ``_enumerate`` lists a code, growing a word array one
basis word at a time with ``_cosets``.

``Word``'s bitplane arithmetic is the only Z4 arithmetic: the group
basis, Howell form and membership reduce ``Word``s, and coordinate
tuples appear only at the edges (parsing, display, the ``rows4``/``rows2``
views, Howell rows and the standard-form blocks, which become words in
``StandardFormMatrix.words`` alone).
``Word`` is a frozen slotted dataclass, range-checked in ``__post_init__``;
arithmetic results skip the checks through ``_word``, which fills the
generated slots directly.  ``Word.from_packed`` and ``ungray`` split an
int with ``_fields``, which refuses one outside the alpha + 2 beta bits.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import SizeGuardError

DEFAULT_MAX_WORDS = 1 << 24
# words per block of the blocked array passes: a block's temporary, 64 KiB
# in uint32 and 128 KiB in uint64, is small enough to stay in L2 cache
_BLOCK_WORDS = 1 << 14


def _word_dtype(bits: int) -> type:
    """The dtype of packed arrays of ``bits``-bit words or masks: uint32 up
    to 32 bits, uint64 up to 64, and ``object`` (Python ints, which numpy's
    bitwise operators, comparisons and sort take as they are) above.  It
    refuses no width; the word budget is the one guard of an enumeration."""
    if bits <= 32:
        return np.uint32
    return np.uint64 if bits <= 64 else object


@dataclass(frozen=True, slots=True)
class Word:
    """One element of Z2^alpha x Z4^beta."""

    alpha: int
    beta: int
    u: int
    lo: int
    hi: int

    def __post_init__(self) -> None:
        alpha, beta = self.alpha, self.beta
        if alpha < 0 or beta < 0 or alpha + beta == 0:
            raise ValueError("need alpha, beta >= 0 with alpha + beta > 0")
        if not (0 <= self.u < (1 << alpha) if alpha else self.u == 0):
            raise ValueError("binary block out of range")
        full = (1 << beta) - 1
        if not (0 <= self.lo <= full and 0 <= self.hi <= full):
            raise ValueError("quaternary block out of range")

    @classmethod
    def from_vectors(cls, xs, ys) -> "Word":
        xs = tuple(xs)
        ys = tuple(ys)
        return _coords_to_word(len(xs), len(ys), xs + ys)

    @classmethod
    def from_packed(cls, packed: int, alpha: int, beta: int) -> "Word":
        return cls(alpha, beta, *_fields(packed, alpha, beta))

    @classmethod
    def parse(cls, text: str) -> "Word":
        """Digits with a ``|`` between blocks, leftmost digit = coordinate 0."""
        left, _, right = text.partition("|")
        xs = [int(c) for c in left.strip()]
        ys = [int(c) for c in right.strip()]
        if any(x not in (0, 1) for x in xs):
            raise ValueError("binary block digits must be 0 or 1")
        if any(y not in (0, 1, 2, 3) for y in ys):
            raise ValueError("quaternary block digits must be 0..3")
        return cls.from_vectors(xs, ys)

    @property
    def gray(self) -> int:
        """Image as a bitmask of length alpha + 2*beta, bit i = coordinate i."""
        return self.u | (self.hi << self.alpha) | ((self.lo ^ self.hi) << (self.alpha + self.beta))

    @property
    def packed(self) -> int:
        """The packed word, inverse of ``from_packed``: u, then lo, then hi."""
        return self.u | (self.lo << self.alpha) | (self.hi << (self.alpha + self.beta))

    @property
    def is_zero(self) -> bool:
        return self.u == 0 and self.lo == 0 and self.hi == 0

    def x_vector(self) -> tuple[int, ...]:
        return tuple((self.u >> i) & 1 for i in range(self.alpha))

    def y_vector(self) -> tuple[int, ...]:
        return tuple(((self.lo >> i) & 1) + 2 * ((self.hi >> i) & 1) for i in range(self.beta))

    def __add__(self, other: "Word") -> "Word":
        self._check(other)
        return _word(
            self.alpha,
            self.beta,
            self.u ^ other.u,
            self.lo ^ other.lo,
            self.hi ^ other.hi ^ (self.lo & other.lo),
        )

    def __neg__(self) -> "Word":
        return _word(self.alpha, self.beta, self.u, self.lo, self.hi ^ self.lo)

    def __sub__(self, other: "Word") -> "Word":
        self._check(other)
        return _word(
            self.alpha,
            self.beta,
            self.u ^ other.u,
            self.lo ^ other.lo,
            self.hi ^ other.hi ^ (other.lo & ~self.lo),
        )

    def double(self) -> "Word":
        return _word(self.alpha, self.beta, 0, 0, self.lo)

    def __mul__(self, c: int) -> "Word":
        c %= 4
        if c == 0:
            return _word(self.alpha, self.beta, 0, 0, 0)
        if c == 1:
            return self
        if c == 2:
            return self.double()
        return -self

    __rmul__ = __mul__

    def order(self) -> int:
        if self.is_zero:
            return 1
        return 2 if self.lo == 0 else 4

    def shift(self) -> "Word":
        """Simultaneous cyclic shift: last coordinate of each block to the front."""
        a, b = self.alpha, self.beta

        def rot(m: int, n: int) -> int:
            if n <= 1:
                return m
            return ((m << 1) | (m >> (n - 1))) & ((1 << n) - 1)

        return _word(a, b, rot(self.u, a), rot(self.lo, b), rot(self.hi, b))

    def __str__(self) -> str:
        xs = "".join(str(x) for x in self.x_vector())
        ys = "".join(str(y) for y in self.y_vector())
        return f"{xs}|{ys}"

    def __repr__(self) -> str:
        return f"Word({str(self)!r})"

    def _check(self, other: "Word") -> None:
        if self.alpha != other.alpha or self.beta != other.beta:
            raise ValueError("mismatched ambient spaces")


_set_alpha, _set_beta, _set_u, _set_lo, _set_hi = (
    Word.__dict__[name].__set__ for name in Word.__slots__
)


def _word(alpha: int, beta: int, u: int, lo: int, hi: int) -> Word:
    """``Word(...)`` without its range checks, for results of in-range words."""
    w = object.__new__(Word)
    _set_alpha(w, alpha)
    _set_beta(w, beta)
    _set_u(w, u)
    _set_lo(w, lo)
    _set_hi(w, hi)
    return w


def star2(v: Word, w: Word) -> Word:
    """Twice the coordinatewise product of the odd parts: (0 | 2(v' * w')).

    Bilinear over addition in each argument, which is what lets kernel
    and linearity tests quantify over generators instead of all words.
    """
    v._check(w)
    return _word(v.alpha, v.beta, 0, 0, v.lo & w.lo)


def _fields(value: int, alpha: int, beta: int) -> tuple[int, int, int]:
    """The alpha-, beta- and beta-bit fields of a packed word or Gray image,
    low bits first; a value outside [0, 2^(alpha + 2 beta)) is refused."""
    bits = alpha + 2 * beta
    if not 0 <= value < 1 << bits:
        raise ValueError(f"{value} lies outside the {bits}-bit ambient")
    mask_b = (1 << beta) - 1
    return value & ((1 << alpha) - 1), (value >> alpha) & mask_b, value >> (alpha + beta)


def ungray(bits: int, alpha: int, beta: int) -> Word:
    u, hi, top = _fields(bits, alpha, beta)
    return Word(alpha, beta, u, top ^ hi, hi)


# ---------------------------------------------------------------------------
# vectorized plane helpers on packed word arrays of any unsigned dtype
# wide enough for alpha + 2 beta bits


def _star2_packed(a, b, alpha: int, beta: int):
    """``star2(v, w)`` for packed words v of ``a`` and w of ``b``, broadcast:
    the product of the residues, moved from the ``lo`` plane up to ``hi``."""
    return (a & b & (((1 << beta) - 1) << alpha)) << beta


def _add_packed(a, b, alpha: int, beta: int):
    """``v + w`` for packed words v of ``a`` and w of ``b``, broadcast: XOR
    of the planes, plus the carry of the residues into ``hi``."""
    return a ^ b ^ _star2_packed(a, b, alpha, beta)


def _cosets(arr: np.ndarray, w: Word) -> np.ndarray:
    """``arr`` followed by ``arr + c*w`` for each 1 <= c < order(w); a word
    of order 2 has no residue to carry, so it adds as a plain XOR."""
    if w.order() == 2:
        return np.concatenate([arr, arr ^ w.packed])
    return np.concatenate([arr] + [_add_packed(arr, (w * c).packed, w.alpha, w.beta)
                                   for c in range(1, w.order())])


def _enumerate(bits: int, basis, size: int, max_words: int) -> np.ndarray:
    """The ``size`` words ``basis`` generates, sorted, unless ``max_words`` is fewer."""
    if size > max_words:
        raise SizeGuardError(f"code has {size} words, above the {max_words} budget", predicted=size)
    arr = np.zeros(1, dtype=_word_dtype(bits))
    for w in basis:
        arr = _cosets(arr, w)
    arr.sort()
    if len(arr) != size:
        raise AssertionError("enumeration does not match the basis order")
    return arr


def gray_array(arr: np.ndarray, alpha: int, beta: int) -> np.ndarray:
    # the image is the packed word with lo ^ hi added into the lo plane
    # and lo into the hi plane, built in place in two temporaries: on a
    # large array, holding more at once churns the heap with page faults
    lo_mask = ((1 << beta) - 1) << alpha
    lo = arr & lo_mask
    out = arr >> beta
    out &= lo_mask
    out ^= lo
    lo <<= beta
    out |= lo
    out ^= arr
    return out


def _sorted_unique(arr: np.ndarray) -> np.ndarray:
    """Distinct values in ascending order: a sort, then each element
    that differs from its predecessor.  numpy 2.x's own unique hashes,
    which is many times slower on large arrays."""
    arr = np.sort(arr)
    if len(arr) < 2:
        return arr
    return arr[np.concatenate(([True], arr[1:] != arr[:-1]))]


def _isin_sorted(sorted_arr: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """``np.isin(vals, sorted_arr)`` for a sorted, duplicate-free ``sorted_arr``."""
    idx = np.searchsorted(sorted_arr, vals)
    idx[idx == len(sorted_arr)] = 0
    return sorted_arr[idx] == vals if len(sorted_arr) else np.zeros(len(vals), dtype=bool)


# ---------------------------------------------------------------------------
# exact structure: group basis and Howell canonical form


def _coord_rows(words) -> tuple[tuple[int, ...], ...]:
    return tuple(w.x_vector() + w.y_vector() for w in words)


def _coords_to_word(alpha: int, beta: int, cs) -> Word:
    u = lo = hi = 0
    for i in range(alpha):
        if cs[i] % 2:
            u |= 1 << i
    for i in range(beta):
        y = cs[alpha + i] % 4
        if y & 1:
            lo |= 1 << i
        if y & 2:
            hi |= 1 << i
    return Word(alpha, beta, u, lo, hi)


def _f2(w: Word) -> int:
    """F2 vector ``u | hi << alpha``; it determines an order-2 word."""
    return w.u | (w.hi << w.alpha)


def _from_f2(alpha: int, beta: int, v: int) -> Word:
    return _word(alpha, beta, v & ((1 << alpha) - 1), 0, v >> alpha)


def _cancel(r: Word, pivot: Word, bit: int) -> Word:
    """``r`` minus the multiple of ``pivot`` that clears quaternary ``bit``.

    ``pivot`` must be 1 at ``bit``; the multiple is r's own value there.
    """
    if r.lo & bit:
        return r + pivot if r.hi & bit else r - pivot
    if r.hi & bit:
        return r + pivot.double()
    return r


def _f2_rref(vectors, col_order) -> tuple[list[tuple[int, int]], list[int]]:
    """RREF over GF(2) of bit-vectors, pivoting only on ``col_order``.

    Pivots are taken in ``col_order``, each from the first remaining
    vector with that bit, and cleared from every other row, so the
    pivot rows are the unique reduced row echelon form for that column
    order.  Rows keep their whole vectors, so on ``_f2`` vectors each row
    is the order-2 word its combination sums to.  Returns (pivot rows as
    (vector, pivot_col), in pivot order) and (the rows left over, zero on
    every column of ``col_order``).
    """
    work = list(vectors)
    pivots: list[tuple[int, int]] = []
    for col in col_order:
        bit = 1 << col
        hit = next((v for v in work if v & bit), None)
        if hit is None:
            continue
        work.remove(hit)
        work = [v ^ hit if v & bit else v for v in work]
        pivots = [(v ^ hit, p) if v & bit else (v, p) for v, p in pivots]
        pivots.append((hit, col))
    return pivots, work


@dataclass(frozen=True)
class GroupBasis:
    """Basis of an additive subgroup, split by row order.

    ``words4`` have unit pivots at distinct quaternary columns
    (``pivots4``, found scanning right to left); ``words2`` generate the
    residual elementary 2-group and are fully reduced with pivots
    ``pivots2`` (binary columns left to right, then quaternary columns
    right to left, where the pivot value is 2).  Every word has a unique
    coefficient vector over this basis, so the group order is exactly
    4^delta * 2^gamma.

    The basis depends only on the group, not on its generators, which is
    why it serves as the identity of an ``AdditiveCode``.  Scanning right
    to left, the order-4 pivots are the leading positions of the residue
    code, and each order-4 row's residue is the unique residue-code word
    that is 1 at its own pivot and 0 at the other pivots.  What is left
    free in each order-4 row is an order-2 word that is 0 at every
    order-4 pivot; those words form the space T' spanned by the residual
    rows.  ``words2`` is the RREF of T', and the final tidy step reduces
    each order-4 row to its unique normal form against ``words2``, zero
    at every pivot column of ``words2``.

    Those pivot columns, P (binary) and Q (quaternary), are all the
    leading columns of T' for the order above, so a vector of T' is the
    sum of the ``words2`` rows whose pivot bits it has set: it is fixed by
    its values on P and Q.  The standard form's even rows have zero binary
    part, a 2 at their own pivot in Q and 0 at the rest of Q, so each is
    the ``words2`` row with that pivot; its kappa2 rows have a 1 at their
    own pivot in P and 0 at the rest of P and at Q, so each is the
    ``words2`` row with that pivot.  Only the kappa1 block, the
    combinations with zero quaternary part, needs an elimination, and the
    order-4 rows, zero at P and Q, are taken as they are.
    """

    alpha: int
    beta: int
    words4: tuple[Word, ...]
    pivots4: tuple[int, ...]
    words2: tuple[Word, ...]
    pivots2: tuple[int, ...]

    @property
    def rows4(self) -> tuple[tuple[int, ...], ...]:
        return _coord_rows(self.words4)

    @property
    def rows2(self) -> tuple[tuple[int, ...], ...]:
        return _coord_rows(self.words2)

    @property
    def delta(self) -> int:
        return len(self.words4)

    @property
    def gamma(self) -> int:
        return len(self.words2)

    @property
    def size(self) -> int:
        return 1 << (self.gamma + 2 * self.delta)


def group_basis(alpha: int, beta: int, generators) -> GroupBasis:
    rows = [w for w in generators if not w.is_zero]

    words4: list[Word] = []
    pivots4: list[int] = []
    for col in range(alpha + beta - 1, alpha - 1, -1):
        bit = 1 << (col - alpha)
        hit = next((r for r in rows if r.lo & bit), None)
        if hit is None:
            continue
        rows.remove(hit)
        if hit.hi & bit:
            hit = -hit
        rows = [r for r in (_cancel(r, hit, bit) for r in rows) if not r.is_zero]
        words4 = [_cancel(r, hit, bit) for r in words4]
        words4.append(hit)
        pivots4.append(col)

    # residual rows are all-even on the quaternary block: an F2 space,
    # with bit c of ``_f2`` standing for coordinate c
    if any(r.lo for r in rows):
        raise AssertionError("nonzero residue after group elimination")
    col_order = list(range(alpha)) + list(range(alpha + beta - 1, alpha - 1, -1))
    pivots, rest = _f2_rref([_f2(r) for r in rows], col_order)
    if any(rest):
        raise AssertionError("RREF left nonzero rows outside pivots")
    words2 = [_from_f2(alpha, beta, v) for v, _ in pivots]
    pivots2 = [p for _, p in pivots]

    # tidy the order-4 rows at the order-2 pivot columns
    for r2, col in zip(words2, pivots2):
        words4 = [r4 + r2 if (_f2(r4) >> col) & 1 else r4 for r4 in words4]

    return GroupBasis(alpha, beta, tuple(words4), tuple(pivots4), tuple(words2), tuple(pivots2))


def howell_rows(alpha: int, beta: int, generators) -> tuple[tuple[int, ...], ...]:
    """Canonical generating rows over Z4, with Z2 coords embedded as 2*Z4.

    Two generating sets span the same subgroup iff their Howell rows are
    identical, so this is the basis-free equality certificate.  Pivot
    rows are fully reduced above and below; a row with a zero-divisor
    pivot contributes its double back to the working set.
    """
    n = alpha + beta
    work = [
        _word(0, n, 0, w.lo << alpha, w.u | (w.hi << alpha))
        for w in generators
        if not w.is_zero
    ]
    out: list[Word] = []
    for col in range(n):
        bit = 1 << col
        unit = next((r for r in work if r.lo & bit), None)
        if unit is not None:
            work.remove(unit)
            if unit.hi & bit:
                unit = -unit
            work = [_cancel(r, unit, bit) for r in work]
            out = [_cancel(r, unit, bit) for r in out]
            out.append(unit)
        else:
            two = next((r for r in work if r.hi & bit), None)
            if two is None:
                continue
            work.remove(two)
            work = [r - two if r.hi & bit else r for r in work]
            out = [r - two if r.hi & bit else r for r in out]
            work.append(two.double())
            out.append(two)
        work = [r for r in work if not r.is_zero]
    if work:
        raise AssertionError("Howell reduction left unprocessed rows")
    return _coord_rows(out)


def _type_text(alpha, beta, gamma, delta, kappa) -> str:
    """The one text form of a type; JSON records list the five numbers in this order."""
    return f"({alpha}, {beta}; {gamma}, {delta}; {kappa})"


@dataclass(frozen=True)
class CodeType:
    """Type parameters (alpha, beta; gamma, delta; kappa) with refinements.

    ``kappa1 + kappa2 = kappa`` and ``delta1 + delta2 = delta`` are
    nonnegative splits of kappa and delta.
    """

    alpha: int
    beta: int
    gamma: int
    delta: int
    kappa: int
    kappa1: int
    kappa2: int
    delta1: int
    delta2: int

    def __post_init__(self):
        if min(self.alpha, self.beta, self.gamma, self.delta, self.kappa) < 0:
            raise ValueError("type parameters must be nonnegative")
        if self.kappa > min(self.alpha, self.gamma):
            raise ValueError("kappa exceeds min(alpha, gamma)")
        if self.gamma + self.delta > self.beta + self.kappa:
            raise ValueError("gamma + delta exceeds beta + kappa")
        if self.kappa1 + self.kappa2 != self.kappa:
            raise ValueError("kappa1 + kappa2 must equal kappa")
        if min(self.kappa1, self.kappa2) < 0:
            raise ValueError("kappa split must be nonnegative")
        if self.delta1 + self.delta2 != self.delta:
            raise ValueError("delta1 + delta2 must equal delta")
        if min(self.delta1, self.delta2) < 0:
            raise ValueError("delta split must be nonnegative")

    @property
    def size(self) -> int:
        return 1 << (self.gamma + 2 * self.delta)

    def __str__(self) -> str:
        return _type_text(self.alpha, self.beta, self.gamma, self.delta, self.kappa)


# ---------------------------------------------------------------------------
# GF(2) ranks of mask lists and arrays


def _echelon(masks: np.ndarray, length: int) -> list[int]:
    """Reduced echelon pivots of a mask array, in descending leading-bit order.

    The array, whose dtype must hold ``length`` bits, is taken
    ``_BLOCK_WORDS`` masks at a time.  One vectorized pass per bit, from
    the top, gives each bit left in a block its pivot, cleared from the
    block and from the other pivots.  Reduced pivots add up per pivot bit,
    so a later block is first reduced by one table lookup per 8-bit chunk
    of its masks, as in the Method of Four Russians; only another block
    builds the tables.  Blocks stop once every bit has a pivot.  A gather
    index must be an integer array, so an ``object`` array's is cast.
    """
    pivots: dict[int, int] = {}
    tables: list[np.ndarray] = []
    wide = masks.dtype == object
    for start in range(0, len(masks), _BLOCK_WORDS):
        if len(pivots) == length:
            break
        work = masks[start:start + _BLOCK_WORDS]
        if tables:
            reduced = work.copy()
            for k, table in enumerate(tables):
                chunk = (work >> 8 * k) & 255
                reduced ^= np.take(table, chunk.astype(np.intp) if wide else chunk)
            work = reduced
        work = work[work != 0]
        found = len(pivots)
        for bit in range(length - 1, -1, -1):
            if work.size == 0:
                break
            hit = (work & (1 << bit)) != 0
            if not bool(hit.any()):
                continue
            p = int(work[int(np.argmax(hit))])
            for b in pivots:
                if pivots[b] >> bit & 1:
                    pivots[b] ^= p
            pivots[bit] = p
            work = np.where(hit, work ^ p, work)
            work = work[work != 0]
        if len(pivots) > found and start + _BLOCK_WORDS < len(masks):
            tables = [np.zeros(256, dtype=masks.dtype) for _ in range(0, length, 8)]
            for k, table in enumerate(tables):
                for j in range(8):
                    table[1 << j:2 << j] = table[:1 << j] ^ pivots.get(8 * k + j, 0)
    return [pivots[bit] for bit in sorted(pivots, reverse=True)]


def _f2_rank(masks, length: int) -> int:
    """GF(2) rank of ``masks`` on their low ``length`` bits: the pivot
    count of ``_echelon`` for a numpy array, of ``_f2_rref`` otherwise."""
    if isinstance(masks, np.ndarray):
        return len(_echelon(masks, length))
    return len(_f2_rref(masks, range(length))[0])


# ---------------------------------------------------------------------------
# additive codes


@dataclass(frozen=True, slots=True)
class AdditiveCode:
    """An additive subgroup of Z2^alpha x Z4^beta.

    Two codes are equal iff they share a group basis, the one compared
    field; the basis is canonical (see ``GroupBasis``) and names the ambient.
    """

    alpha: int = field(compare=False)
    beta: int = field(compare=False)
    generators: tuple[Word, ...] = field(compare=False)
    max_words: int = field(default=DEFAULT_MAX_WORDS, compare=False)
    basis: GroupBasis = field(init=False)
    _words: np.ndarray | None = field(init=False, default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        alpha, beta = self.alpha, self.beta
        if alpha < 0 or beta < 0 or alpha + beta == 0:
            raise ValueError("need alpha, beta >= 0 with alpha + beta > 0")
        gens = tuple(self.generators)
        for w in gens:
            if w.alpha != alpha or w.beta != beta:
                raise ValueError("generator does not live in the stated ambient space")
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "basis", group_basis(alpha, beta, gens))

    @classmethod
    def from_words(
        cls, alpha: int, beta: int, packed, max_words: int = DEFAULT_MAX_WORDS
    ) -> "AdditiveCode":
        """Rebuild a code from the exact set of its packed words.

        Generators are extracted by growing a span until it covers the
        input; if the input is not additively closed, or holds a value of
        more than alpha + 2 beta bits, this raises.
        """
        bits = alpha + 2 * beta
        arr = np.asarray(packed)
        # checked before the cast to the ambient's dtype, which would wrap
        if arr.size and (arr.min() < 0 or int(arr.max()) >> bits):
            raise ValueError(f"a packed value lies outside the {bits}-bit ambient")
        arr = _sorted_unique(arr.astype(_word_dtype(bits), copy=False))
        if len(arr) == 0 or arr[0] != 0:
            raise ValueError("a code must contain the zero word")
        span = np.zeros(1, dtype=arr.dtype)
        gens: list[Word] = []
        while len(span) < len(arr):
            # both arrays are sorted, so where they first differ arr holds
            # its smallest word outside the span, unless the span holds a
            # word outside arr
            differs = arr[: len(span)] != span
            i = int(np.argmax(differs)) if differs.any() else len(span)
            if i < len(span) and span[i] < arr[i]:
                break
            w = Word.from_packed(int(arr[i]), alpha, beta)
            gens.append(w)
            span = _sorted_unique(_cosets(span, w))
        if not np.array_equal(span, arr):
            raise ValueError("word set is not additively closed")
        code = cls(alpha, beta, gens, max_words=max_words)
        object.__setattr__(code, "_words", arr)
        return code

    @property
    def size(self) -> int:
        return self.basis.size

    @property
    def dim(self) -> int:
        """log2 of the size; a binary code's dimension."""
        return self.basis.gamma + 2 * self.basis.delta

    def basis_words(self) -> tuple[Word, ...]:
        return self.basis.words4 + self.basis.words2

    def words(self) -> np.ndarray:
        """Sorted packed array of all words; guarded by ``max_words``."""
        if self._words is None:
            arr = _enumerate(self.alpha + 2 * self.beta, self.basis_words(), self.size,
                             self.max_words)
            object.__setattr__(self, "_words", arr)
        return self._words

    def contains(self, w: Word) -> bool:
        if w.alpha != self.alpha or w.beta != self.beta:
            return False
        gb = self.basis
        for row, col in zip(gb.words4, gb.pivots4):
            w = _cancel(w, row, 1 << (col - self.alpha))
        # order-2 rows never change ``lo``, so what is left must be order 2
        if w.lo:
            return False
        v = _f2(w)
        for row, col in zip(gb.words2, gb.pivots2):
            if (v >> col) & 1:
                v ^= _f2(row)
        return v == 0

    def membership_mask(self, packed: np.ndarray) -> np.ndarray:
        return _isin_sorted(self.words(), packed)

    def is_subcode_of(self, other: "AdditiveCode") -> bool:
        return all(other.contains(w) for w in self.basis_words())

    def code_type(self) -> CodeType:
        """Type from the group basis alone, no enumeration.

        kappa is the F2 rank of the binary parts of the order-2 rows
        (doubles of order-4 rows have zero binary part), and kappa1
        counts independent order-2 combinations whose quaternary part
        vanishes: the nullity of the halved quaternary parts.
        """
        gb = self.basis
        a = self.alpha
        xrows = [w.u for w in gb.words2]
        kappa = _f2_rank(xrows, a)
        kappa1 = gb.gamma - _f2_rank([w.hi for w in gb.words2], self.beta)
        delta1 = _f2_rank(xrows + [w.u for w in gb.words4], a) - kappa
        return CodeType(
            self.alpha,
            self.beta,
            gb.gamma,
            gb.delta,
            kappa,
            kappa1=kappa1,
            kappa2=kappa - kappa1,
            delta1=delta1,
            delta2=gb.delta - delta1,
        )

    def is_cyclic(self) -> bool:
        return all(self.contains(w.shift()) for w in self.basis_words())

    def project_x(self) -> "AdditiveCode":
        if self.alpha == 0:
            raise ValueError("no binary block to project onto")
        return binary_code(self.alpha, [w.u for w in self.basis_words()])

    def project_y(self) -> "AdditiveCode":
        if self.beta == 0:
            raise ValueError("no quaternary block to project onto")
        # zero projections need no filtering: group_basis and howell_rows drop zeros
        gens = [Word(0, self.beta, 0, w.lo, w.hi) for w in self.basis_words()]
        return AdditiveCode(0, self.beta, gens, max_words=self.max_words)

    def order_two_subcode(self) -> "AdditiveCode":
        gb = self.basis
        gens = gb.words2 + tuple(w.double() for w in gb.words4)
        return AdditiveCode(self.alpha, self.beta, gens, max_words=self.max_words)


def binary_code(length: int, masks) -> AdditiveCode:
    """The binary linear code ``masks`` span: alpha = ``length``, beta = 0.

    A numpy array is first reduced to its ``_echelon`` pivots.  A mask
    wider than ``length`` is refused, as is ``length`` 0.
    """
    if isinstance(masks, np.ndarray):
        if masks.size and int(masks.max()) >> length:
            raise ValueError(f"a mask is wider than {length} bits")
        masks = _echelon(masks, length)
    return AdditiveCode(length, 0, [Word(length, 0, m, 0, 0) for m in masks])


def product_code(cx: AdditiveCode, cy: AdditiveCode) -> AdditiveCode:
    """The code of the pairs (x | y) with x in the binary code ``cx`` and y
    in the quaternary block of ``cy``."""
    alpha, beta = cx.alpha, cy.beta
    gens = [Word(alpha, beta, w.u, 0, 0) for w in cx.basis_words()] + [
        Word(alpha, beta, 0, w.lo, w.hi) for w in cy.basis_words()
    ]
    return AdditiveCode(alpha, beta, gens, max_words=cy.max_words)


def type_by_counting(code: AdditiveCode) -> CodeType:
    """Independent type oracle: read gamma, delta, kappa off the word list.

    2^(gamma+2delta) words in total, 2^(gamma+delta) of order at most
    two; kappa is the rank of the binary parts of those, kappa1 the log
    of how many have zero quaternary part.  The counts mask and shift the
    packed words; only the binary parts become an array of their own.
    """
    arr = code.words()
    total = len(arr)
    n_xonly = int(np.count_nonzero((arr >> code.alpha) == 0))
    ord2 = (arr & (((1 << code.beta) - 1) << code.alpha)) == 0
    n_ord2 = int(np.count_nonzero(ord2))
    gamma_delta = n_ord2.bit_length() - 1
    gamma_2delta = total.bit_length() - 1
    if 1 << gamma_delta != n_ord2 or 1 << gamma_2delta != total:
        raise AssertionError("word counts are not powers of two")
    delta = gamma_2delta - gamma_delta
    gamma = gamma_delta - delta
    u = arr & ((1 << code.alpha) - 1)
    kappa = _f2_rank(u[ord2], code.alpha)
    kappa1 = n_xonly.bit_length() - 1
    if 1 << kappa1 != n_xonly:
        raise AssertionError("binary-only word count is not a power of two")
    delta1 = _f2_rank(u, code.alpha) - kappa
    return CodeType(
        code.alpha, code.beta, gamma, delta, kappa,
        kappa1=kappa1, kappa2=kappa - kappa1,
        delta1=delta1, delta2=delta - delta1,
    )


# ---------------------------------------------------------------------------
# brute-force oracles


def kernel_bruteforce(code: AdditiveCode) -> AdditiveCode:
    """Words v with Phi(v) + Phi(C) inside Phi(C), found by enumeration.

    v qualifies iff 2(v * w) lands in the code for every word w; by
    bilinearity it is enough to range w over the basis rows.  2(v * w)
    depends on v and w only through their residues mod 2, so each
    distinct residue of the words is tested once, against the residue
    of each basis row.  If every residue passes, K(C) = C: ``code`` is returned.
    """
    arr = code.words()
    alpha, beta = code.alpha, code.beta
    # the residue plane left in place, so each residue is a packed word
    lo = arr & (((1 << beta) - 1) << alpha)
    residues = _sorted_unique(lo)
    passed = np.ones(len(residues), dtype=bool)
    for w in code.basis_words():
        if w.lo:
            passed &= code.membership_mask(_star2_packed(residues, w.packed, alpha, beta))
    if passed.all():
        return code
    kept = arr[_isin_sorted(residues[passed], lo)]
    return AdditiveCode.from_words(alpha, beta, kept, max_words=code.max_words)


def span_bruteforce(code: AdditiveCode) -> AdditiveCode:
    """Linear span of the Gray image, a binary code; its ``dim`` is the rank.

    The rank needs no enumeration of the span itself, only of the code;
    ``gray_preimage`` lifts the span back from its basis when wanted.
    """
    masks = gray_array(code.words(), code.alpha, code.beta)
    return binary_code(code.alpha + 2 * code.beta, masks)


def gray_preimage(
    span: AdditiveCode, alpha: int, beta: int, max_words: int = DEFAULT_MAX_WORDS
) -> AdditiveCode:
    """The words of Z2^alpha x Z4^beta whose Gray images lie in ``span``.

    Read off the basis masks b_i, with no enumeration.  With x_i =
    ungray(b_i), Phi(v) + Phi(w) = Phi(v + w + 2(v * w)) and bilinearity
    of 2(v * w) put the preimage P of ``span`` inside G = <x_i,
    2(x_i * x_j)>.  A closed P holds each 2(x_i * x_j), the preimage of
    b_i + b_j less x_i and x_j, so P is closed iff |G| = |span|, and then
    P = G; otherwise this raises ``ValueError``, as it does for a span
    with a quaternary block or whose length is not alpha + 2 beta.  The
    lift lists no word, so ``max_words`` only becomes the lifted code's budget.
    """
    if span.beta:
        raise ValueError("a span is a binary code, with no quaternary block")
    if span.alpha != alpha + 2 * beta:
        raise ValueError(f"a span of length {span.alpha} does not lie in the "
                         f"{alpha + 2 * beta}-bit ambient")
    xs = [ungray(w.u, alpha, beta) for w in span.basis_words()]
    products = {star2(v, w) for i, v in enumerate(xs) for w in xs[i + 1:] if v.lo & w.lo}
    lifted = AdditiveCode(alpha, beta, xs + list(products), max_words=max_words)
    if lifted.size != span.size:
        raise ValueError("word set is not additively closed")
    return lifted


def is_gray_linear_bruteforce(code: AdditiveCode) -> bool:
    """Whether the Gray image is a linear code.

    Linearity is equivalent to closure under the doubled coordinatewise
    products, and bilinearity again reduces the check to basis pairs.
    """
    ws = [w for w in code.basis_words() if w.lo]
    for i, v in enumerate(ws):
        for w in ws[i:]:
            if not code.contains(star2(v, w)):
                return False
    return True


# ---------------------------------------------------------------------------
# standard generator matrix


@dataclass(frozen=True)
class StandardFormMatrix:
    """Generator matrix organized into the four canonical row blocks.

    Rows are kept in the original coordinate order; ``x_order`` and
    ``y_order`` record the column classification that exhibits the
    identity blocks: binary columns as [kappa1 pivots, kappa2 pivots,
    rest], quaternary columns as [plain, order-2 pivots, order-4
    pivots].  Row blocks come in the order kappa1, kappa2,
    gamma - kappa, delta.
    """

    alpha: int
    beta: int
    kappa1_rows: tuple[tuple[int, ...], ...]
    kappa2_rows: tuple[tuple[int, ...], ...]
    even_rows: tuple[tuple[int, ...], ...]
    quaternary_rows: tuple[tuple[int, ...], ...]
    x_order: tuple[int, ...]
    y_order: tuple[int, ...]

    @property
    def kappa1(self) -> int:
        return len(self.kappa1_rows)

    @property
    def kappa2(self) -> int:
        return len(self.kappa2_rows)

    @property
    def gamma(self) -> int:
        return self.kappa1 + self.kappa2 + len(self.even_rows)

    @property
    def delta(self) -> int:
        return len(self.quaternary_rows)

    def rows(self) -> tuple[tuple[int, ...], ...]:
        return self.kappa1_rows + self.kappa2_rows + self.even_rows + self.quaternary_rows

    def words(self) -> tuple[Word, ...]:
        return tuple(_coords_to_word(self.alpha, self.beta, r) for r in self.rows())

    def permuted_rows(self) -> tuple[tuple[int, ...], ...]:
        cols = list(self.x_order) + [self.alpha + j for j in self.y_order]
        return tuple(tuple(r[c] for c in cols) for r in self.rows())

    def c_prime_words(self) -> tuple[Word, ...]:
        """Rows generating the subcode that carries the quaternary action."""
        return self.words()[self.kappa1 + self.kappa2:]


def standard_form(code: AdditiveCode) -> StandardFormMatrix:
    """The standard generator matrix of ``code``, which exhibits its type.

    One RREF of the order-2 rows gives the kappa1 block; the kappa2, even
    and quaternary blocks are rows of the group basis as they are (see
    ``GroupBasis``).  The result is checked against ``code``.
    """
    alpha, beta = code.alpha, code.beta
    gb = code.basis

    # the order-2 rows as ``_f2`` vectors, quaternary column j at bit
    # alpha + j; pivoting on the quaternary columns first leaves the
    # combinations with zero quaternary part, the kappa1 block, to pivot
    # on the binary columns
    col_order = list(range(alpha, alpha + beta)) + list(range(alpha))
    pivots, dependent = _f2_rref([_f2(w) for w in gb.words2], col_order)
    if dependent:
        raise AssertionError("dependent rows in the group basis")
    k1 = [(v, p) for v, p in pivots if p < alpha]
    k1_pivot_cols = [p for _, p in k1]

    # words2 rows with the other binary pivots form the kappa2 block, those
    # with a quaternary pivot the even block; the order-4 rows are taken
    # as they are, all by ascending pivot column
    rows2 = list(zip(gb.words2, gb.pivots2))
    k2 = [(w, p) for w, p in rows2 if p < alpha and p not in k1_pivot_cols]
    even = sorted(((w, p) for w, p in rows2 if p >= alpha), key=lambda it: it[1])
    q = sorted(zip(gb.words4, gb.pivots4), key=lambda it: it[1])

    k2_pivot_cols = [p for _, p in k2]
    even_pivot_cols = [p - alpha for _, p in even]
    quaternary_pivot_cols = [p - alpha for _, p in q]
    # the kappa1 and kappa2 pivots split the binary pivots of words2
    x_rest = [c for c in range(alpha) if c not in gb.pivots2]
    y_rest = [c for c in range(beta) if alpha + c not in gb.pivots2 + gb.pivots4]
    sf = StandardFormMatrix(
        alpha,
        beta,
        _coord_rows(_from_f2(alpha, beta, v) for v, _ in k1),
        _coord_rows(w for w, _ in k2),
        _coord_rows(w for w, _ in even),
        _coord_rows(r for r, _ in q),
        tuple(k1_pivot_cols + k2_pivot_cols + x_rest),
        tuple(y_rest + even_pivot_cols + quaternary_pivot_cols),
    )
    _validate_standard_form(sf, code)
    return sf


def _validate_standard_form(sf: StandardFormMatrix, code: AdditiveCode) -> None:
    alpha, beta = sf.alpha, sf.beta
    k1, k2 = sf.kappa1, sf.kappa2
    ge = len(sf.even_rows)
    d = sf.delta
    rows = sf.permuted_rows()
    nx = alpha
    plain = beta - ge - d

    def xval(r, i):
        return r[i]

    def yval(r, j):
        return r[nx + j]

    def need(ok: bool, block: str) -> None:
        if not ok:
            raise AssertionError(f"standard form: malformed {block} block")

    for i, r in enumerate(rows[:k1]):
        for j in range(k1):
            need(xval(r, j) == (1 if i == j else 0), "kappa1")
        need(all(yval(r, j) == 0 for j in range(beta)), "kappa1")
    for i, r in enumerate(rows[k1 : k1 + k2]):
        need(all(xval(r, j) == 0 for j in range(k1)), "kappa2")
        for j in range(k2):
            need(xval(r, k1 + j) == (1 if i == j else 0), "kappa2")
        need(all(yval(r, j) in (0, 2) for j in range(plain)), "kappa2")
        need(all(yval(r, j) == 0 for j in range(plain, beta)), "kappa2")
    for i, r in enumerate(rows[k1 + k2 : k1 + k2 + ge]):
        need(all(xval(r, j) == 0 for j in range(alpha)), "even")
        need(all(yval(r, j) in (0, 2) for j in range(plain)), "even")
        for j in range(ge):
            need(yval(r, plain + j) == (2 if i == j else 0), "even")
        need(all(yval(r, j) == 0 for j in range(plain + ge, beta)), "even")
    for i, r in enumerate(rows[k1 + k2 + ge :]):
        need(all(xval(r, j) == 0 for j in range(k1 + k2)), "quaternary")
        need(all(yval(r, plain + j) in (0, 1) for j in range(ge)), "quaternary")
        for j in range(d):
            need(yval(r, plain + ge + j) == (1 if i == j else 0), "quaternary")

    if AdditiveCode(alpha, beta, sf.words()) != code:
        raise AssertionError("standard form does not regenerate the code")
