"""Exact rational parsing/printing: `parse_rational` reads every rational a
caller hands the library, its JSON interfaces or the CLI.

Rationals travel as "num/den" strings (plain integers allowed); internally
everything is a `fractions.Fraction`, which already stores lowest terms with
a positive denominator.  An exponent ("1e3" is 1000) above MAX_EXPONENT in
magnitude is refused before `Fraction` builds its power of ten.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm

__all__ = ["parse_rational", "format_rational"]

_ZERO = Fraction(0)
# Python's limit for printing an int: no larger power of ten could be printed
MAX_EXPONENT = 4300
_EXPONENT = re.compile(r"e([-+]?\d+(?:_\d+)*)\Z", re.IGNORECASE)


def parse_rational(text) -> Fraction:
    """`text` as a Fraction: a Fraction or an int as it is, else its string
    through `Fraction`.  A bool (a JSON true) is refused, not read as 1."""
    if isinstance(text, Fraction):
        return text
    if isinstance(text, bool):
        raise ValueError(f"cannot parse rational {text!r}: a bool is not a number")
    if isinstance(text, int):
        return Fraction(text)
    try:
        exponent = _EXPONENT.search(s := str(text).strip())
        if exponent and abs(int(exponent[1])) > MAX_EXPONENT:
            raise ValueError(f"exponent above {MAX_EXPONENT} in magnitude")
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse rational {text!r}: {exc}") from None


def _nonnegative(t: Fraction) -> Fraction:
    """The one refusal of a negative parameter t, read by `parse_rational`."""
    if t < 0:
        raise ValueError("t must be >= 0")
    return t


def format_rational(q) -> str:
    # str of an int or a Fraction is already "num" or "num/den"; anything
    # else is read by `parse_rational` first
    if type(q) is not int and not isinstance(q, Fraction):
        q = parse_rational(q)
    return str(q)


def _format_over(n: int, d: int) -> str:
    """`format_rational(Fraction(n, d))` for ints n and d > 0, through one
    gcd and no Fraction."""
    g = gcd(n, d)
    return str(n // g) if d == g else f"{n // g}/{d // g}"


def _scaled(points) -> tuple:
    """The points times the lcm L of their coordinates' denominators, as
    integer pairs, and L."""
    L = lcm(*(c.denominator for p in points for c in p))
    return [(x.numerator * (L // x.denominator), y.numerator * (L // y.denominator))
            for x, y in points], L
