"""Hilbert functions of monomial ideals from the Hilbert-series numerator.

HF_I(d) is the number of degree-d monomials outside I, i.e. dim of the
degree-d piece of the quotient ring S/I.  Every quantity is read off the
sparse numerator N(t) = sum_e c_e t^e of the Hilbert series
HS(S/I) = N(t) / (1 - t)^n, n the number of variables (Bayer-Stillman 1992;
Bruns-Herzog, section 4.1):

    HF(d) = sum_{e <= d} c_e * C(d - e + n - 1, n - 1),

the Hilbert polynomial is the same sum with each binomial read as a
polynomial in d, and the two agree exactly from degree max(N) - n + 1 on.
A two-variable N is read straight off the staircase corners in one sorted
pass; with more variables `_numerator` slices on x_0 down to that corner
form, n - 1 calls deep, so a series charges its variables to the
"variables" budget before it starts and the generators it hands its slices
to one "slices" total, mid-series.  No degree cap is involved.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from math import comb, factorial
from operator import itemgetter

from .ideals import MonomialIdeal, _check_int
from .rationals import _nonnegative, parse_rational
from .work import charge

__all__ = [
    "IntegerPolynomial",
    "hilbert_function",
    "hilbert_function_extended",
    "hilbert_polynomial",
    "regularity_index",
    "degree_cap",
]


def _numerator(gens, nvars: int) -> dict:
    """Numerator {degree: coeff} of HS(S/I), zero coefficients dropped.

    Two variables: one sorted pass keeps a generator only where its
    y-exponent strictly drops, which leaves the staircase corners
    (a_0, b_0), ..., (a_r, b_r) with a rising and b falling, and
    N = 1 - sum_i t^(a_i + b_i) + sum_(i<r) t^(a_(i+1) + b_i).

    More variables, slicing on x_0: S/I is the direct sum over k >= 0 of
    x_0^k * S'/I_k, where I_k is generated by the tails g[1:] of the
    generators with g[0] <= k.  I_k changes only at the distinct first
    exponents a_0 < ... < a_r, so
    N = 1 + sum_j t^(a_j) * (N(I_(a_j)) - N(I_(a_(j-1)))) with N(I_(a_(-1))) = 1.
    The tails are not minimalized: the formula needs only generators of I_k,
    and redundant tails cost less than removing them.  The recursion is
    nvars - 1 calls deep: it bottoms out at the corner form, and the
    one-variable case serves one-variable ideals only.  Its worst case is
    exponential in nvars, so each slice's tails are charged to one "slices"
    total for the whole series before the slice is read, and nvars is
    charged to the "variables" budget before the recursion starts.
    """
    charge("variables", nvars)
    spent = 0

    def series(gens, nvars: int) -> dict:
        nonlocal spent
        if not gens:
            return {0: 1}
        if nvars == 1:
            e = min(g[0] for g in gens)
            return {} if e == 0 else {0: 1, e: -1}
        if nvars == 2:
            out = {0: 1}
            last = None  # y-exponent of the previous corner
            for a, b in sorted(gens):
                if last is not None:
                    if b >= last:
                        continue
                    out[a + last] = out.get(a + last, 0) + 1
                out[a + b] = out.get(a + b, 0) - 1
                last = b
            return {e: c for e, c in out.items() if c}
        gens = sorted(gens)
        if not any(gens[0]):  # the zero vector sorts first: I is the unit ideal
            return {}
        out = {0: 1}
        prev = {0: 1}
        tails: list = []
        for a, group in groupby(gens, key=itemgetter(0)):
            tails.extend(g[1:] for g in group)
            spent = charge("slices", spent + len(tails))
            cur = series(tails, nvars - 1)
            for e, c in cur.items():
                out[a + e] = out.get(a + e, 0) + c
            for e, c in prev.items():
                out[a + e] = out.get(a + e, 0) - c
            if not cur:  # a unit slice stays the unit ideal at every later a_j
                break
            prev = cur
        return {e: c for e, c in out.items() if c}

    try:
        return series(gens, nvars)
    finally:
        del series  # the closure holds itself through its cell: break the cycle


def hilbert_function(I: MonomialIdeal, d: int) -> int:
    """dim of (S/I)_d: degree-d monomials not contained in I.  `d` is read by
    the rule for exponents: True, 2.5, 3.0 or "3" is refused with a
    ValueError, never truncated."""
    d = _check_int(d, "degree")
    if d < 0:
        raise ValueError("degree must be non-negative")
    n = I.nvars
    # generators of degree > d cannot change the degree-d piece; in
    # (degree, vector) order they are a suffix of the generators
    N = _numerator(I.gens[:bisect_right(I.gens, d, key=sum)], n)
    return sum(c * comb(d - e + n - 1, n - 1) for e, c in N.items() if e <= d)


def hilbert_function_extended(I: MonomialIdeal, t) -> int:
    """HF at the floor of a rational argument."""
    t = _nonnegative(parse_rational(t))
    return hilbert_function(I, int(t.numerator // t.denominator))


@dataclass(frozen=True)
class IntegerPolynomial:
    """Polynomial with exact rational coefficients (`parse_rational`), ascending, zeros stripped."""

    coeffs: tuple

    def __post_init__(self):
        cs = [parse_rational(c) for c in self.coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @classmethod
    def from_coeffs(cls, coeffs) -> "IntegerPolynomial":
        return cls(coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1 if self.coeffs else -1

    def __call__(self, t) -> Fraction:
        t, acc = parse_rational(t), Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc

    def __str__(self) -> str:
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            if k == 0:
                body = str(abs(c))
            else:
                mag = "" if abs(c) == 1 else f"{abs(c)}*"
                body = mag + ("t" if k == 1 else f"t^{k}")
            if not parts:
                parts.append(("-" if c < 0 else "") + body)
            else:
                parts.append((" - " if c < 0 else " + ") + body)
        return "".join(parts) if parts else "0"


def degree_cap(I: MonomialIdeal) -> int:
    """max(50, 4 * max generator degree, 4 * nvars + 8): the degree table of
    the retired cap-relative search, kept only for the benchmark tracer's
    `hilbert.hp.table_degrees` counter until that counter is dropped."""
    top = 0 if I.is_zero else I.max_generator_degree()
    return max(50, 4 * top, 4 * I.nvars + 8)


def hilbert_polynomial(I: MonomialIdeal) -> IntegerPolynomial:
    """Eventual polynomial of HF_I: sum_e c_e * C(t - e + n - 1, n - 1) over
    the Hilbert-series numerator, exact for every ideal.

    By moments, in O(|N| * n + n^2) steps: with (u + 1) ... (u + n - 1) =
    sum_k b_k u^k and M_j = sum_e c_e * (-e)^j, the coefficient of t^i is
    sum_j C(i + j, j) * M_j * b_(i+j), over (n - 1)!.
    """
    n = I.nvars
    moments = [0] * n
    for e, c in _numerator(I.gens, n).items():
        for j in range(n):
            moments[j] += c
            c *= -e
    b = [1]
    for k in range(1, n):  # times (u + k)
        b = [k * x + y for x, y in zip(b + [0], [0] + b)]
    den = factorial(n - 1)
    return IntegerPolynomial.from_coeffs(
        Fraction(sum(comb(i + j, j) * moments[j] * b[i + j] for j in range(n - i)), den) for i in range(n)
    )


def regularity_index(I: MonomialIdeal) -> int:
    """Least degree from which HF agrees with the Hilbert polynomial.

    Exactly max(0, max(N) - n + 1) for the Hilbert-series numerator N: at
    degree max(N) - n the top term of N alone disagrees, by +-c_top, and
    above it every term agrees.
    """
    N = _numerator(I.gens, I.nvars)
    return max(0, max(N) - I.nvars + 1) if N else 0
