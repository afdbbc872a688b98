"""Exact rational parsing/printing used by JSON interfaces and the CLI.

Rationals travel as "num/den" strings (plain integers allowed); internally
everything is a `fractions.Fraction`, which already stores lowest terms with
a positive denominator.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

__all__ = ["Rational", "parse_rational", "format_rational"]

Rational = Fraction
_ZERO = Fraction(0)


def parse_rational(text) -> Fraction:
    if isinstance(text, Fraction):
        return text
    if isinstance(text, int):
        return Fraction(text)
    try:
        return Fraction(str(text).strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse rational {text!r}: {exc}") from None


def format_rational(q) -> str:
    # str of an int or a Fraction is already "num" or "num/den"; a bool or
    # anything else is read as a Fraction first
    if type(q) is not int and not isinstance(q, Fraction):
        q = Fraction(q)
    return str(q)


def _scaled(points) -> tuple:
    """The points times the lcm L of their coordinates' denominators, as
    integer pairs, and L."""
    L = lcm(*(c.denominator for p in points for c in p))
    return [(x.numerator * (L // x.denominator), y.numerator * (L // y.denominator))
            for x, y in points], L
