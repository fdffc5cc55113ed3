"""Plain-text polynomial syntax shared by the two coefficient rings.

Accepted input: sums of terms like ``3``, ``x``, ``2x^4``, ``x**4``,
in any order, with ``+`` and ``-`` separators and arbitrary whitespace.
A leading sign is allowed.  Output is always ascending by exponent,
``3 + x + 2x^2``, with coefficient 1 elided on nonconstant terms.
"""

import re

_TERM = re.compile(
    r"""\s*(?P<sign>[+-])?\s*
        (?P<coeff>\d+)?
        (?P<var>x(?:\s*(?:\^|\*\*)\s*(?P<exp>\d+))?)?
        \s*""",
    re.VERBOSE,
)


def parse_terms(text: str, modulus: int) -> dict[int, int]:
    """Parse ``text`` into an exponent -> coefficient map, reduced mod ``modulus``.

    Minus signs act as ring negation.  Repeated exponents accumulate.
    """
    out: dict[int, int] = {}
    pos = 0
    first = True
    n = len(text)
    while pos < n:
        m = _TERM.match(text, pos)
        if m is None or m.end() == pos:
            raise ValueError(f"cannot parse polynomial at ...{text[pos:pos + 20]!r}")
        sign, coeff, var, exp = m.group("sign", "coeff", "var", "exp")
        if coeff is None and var is None:
            raise ValueError(f"empty term at ...{text[pos:pos + 20]!r}")
        if sign is None and not first:
            raise ValueError(f"missing +/- before ...{text[pos:pos + 20]!r}")
        c = int(coeff) if coeff is not None else 1
        if sign == "-":
            c = -c
        e = 0
        if var is not None:
            e = int(exp) if exp is not None else 1
        out[e] = (out.get(e, 0) + c) % modulus
        pos = m.end()
        first = False
    if first:
        raise ValueError("empty polynomial text")
    return {e: c for e, c in out.items() if c}


def format_terms(coeffs: dict[int, int]) -> str:
    """Render an exponent -> coefficient map of nonzero coefficients,
    ascending; the empty map, the zero polynomial, reads ``0``."""
    parts = []
    for e in sorted(coeffs):
        c = coeffs[e]
        if e == 0:
            parts.append(str(c))
        else:
            xpart = "x" if e == 1 else f"x^{e}"
            parts.append(xpart if c == 1 else f"{c}{xpart}")
    return " + ".join(parts) if parts else "0"
