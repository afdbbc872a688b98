"""Exponent vectors and monomial ideals with exact integer arithmetic.

A monomial in K[x_0, ..., x_n] is identified with its exponent vector in
Z_{>=0}^{n+1}.  Variables are ordered x_0 > x_1 > ... > x_n, so the exchange
move used by the strong-stability test replaces one unit of x_j by x_i with
i < j.  Ideals are stored as the antichain of minimal generators; the empty
generator set denotes the zero ideal.

Exponent vectors are checked (entries through `operator.index`, none
negative) only where they enter: the `MonomialIdeal` constructor, `contains`
and `minimal_exponents`.  Products and family rules build theirs from checked
integers through the unchecked kernel `_minimal` and `MonomialIdeal._of`.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from operator import add, index
from typing import Iterable

from .work import WorkBudgetError, charge

__all__ = [
    "MonomialIdeal",
    "minimal_exponents",
    "format_monomial",
    "WorkBudgetError",
]


def _check_int(value, name: str) -> int:
    """`value` through `operator.index`, by the rule `_check_vector` applies to
    exponents: a bool or a value without `__index__` (1.5, "3") is refused
    with a ValueError naming `name`, never truncated."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return index(value)


def _check_at_least(value, name: str, least: int = 1) -> int:
    """`value` through `_check_int`, refused below `least`: the one check of
    every integer with a lower bound (an index m, a bound max_m)."""
    value = _check_int(value, name)
    if value < least:
        raise ValueError(f"{name} must be >= {least}")
    return value


def _check_nvars(nvars) -> int:
    """A variable count through `_check_int`, refused below one."""
    nvars = _check_int(nvars, "nvars")
    if nvars < 1:
        raise ValueError("need at least one variable")
    return nvars


def _check_vector(vec) -> tuple:
    """`vec` as a tuple of non-negative ints; a bool or an entry without
    `__index__` (1.5, "3") is refused, never truncated."""
    try:
        v = tuple(vec)
    except TypeError:
        raise ValueError(f"exponent vector must hold integers, got {vec!r}") from None
    if not v:
        raise ValueError("exponent vector must be non-empty")
    for e in v:
        if isinstance(e, bool) or not hasattr(type(e), "__index__"):
            raise ValueError(f"exponent {e!r} in {v!r} is not an integer")
        if e < 0:
            raise ValueError(f"negative exponent in {v}")
    return tuple(map(index, v))


def _degree_key(v) -> tuple:
    return (sum(v), v)


def minimal_exponents(vectors: Iterable) -> tuple:
    """Antichain of <=-minimal vectors, sorted by (degree, vector); the
    generated ideal is unchanged.  Checks every vector: products and family
    rules, whose vectors need no check, call `_minimal` directly."""
    return _minimal({_check_vector(v) for v in vectors})


def _minimal(vs) -> tuple:
    """minimal_exponents of a collection of non-negative int tuples, of which
    only the common length is checked.  In lexicographic order every divisor
    of v comes before v, so 2 and 3 variables take one sort and one pass
    against the kept vectors' staircase (a running minimum in 2 variables, a
    bisected 2-D staircase in 3); other lengths scan in degree order."""
    lengths = {len(v) for v in vs}
    if len(lengths) > 1:
        raise ValueError("mixed exponent-vector lengths")
    keep: list[tuple] = []
    if lengths == {2}:
        # in lexicographic order every divisor of v comes before it, and v is
        # minimal iff its second exponent drops below all earlier ones
        for v in sorted(vs):
            if not keep or v[1] < keep[-1][1]:
                keep.append(v)
        return tuple(sorted(keep, key=_degree_key))
    if lengths == {3}:
        # every kept u has u0 <= v0, so u divides v iff (u1, u2) <= (v1, v2);
        # the kept (x1, x2) pairs reduce to a staircase with x1 ascending and
        # x2 strictly descending
        xs: list = []
        ys: list = []
        for v in sorted(vs):
            _, v1, v2 = v
            i = bisect_right(xs, v1)
            if i and ys[i - 1] <= v2:
                continue
            keep.append(v)
            lo = hi = bisect_left(xs, v1)
            while hi < len(ys) and ys[hi] >= v2:
                hi += 1
            xs[lo:hi] = [v1]
            ys[lo:hi] = [v2]
        return tuple(sorted(keep, key=_degree_key))
    for v in sorted(vs, key=_degree_key):
        # any divisor of v has strictly smaller degree (or equals v), so it
        # already sits in `keep` when v is redundant
        if not any(all(x <= y for x, y in zip(u, v)) for u in keep):
            keep.append(v)
    return tuple(keep)


@dataclass(frozen=True)
class MonomialIdeal:
    """Monomial ideal given by its minimal generators (an antichain).

    The constructor is the checked way in (`from_gens`, `from_json`, `zero`,
    `unit` and `dataclasses.replace` call it): it checks nvars and every
    vector, and keeps `gens` minimal and strictly increasing by `_degree_key`,
    the (degree, vector) order.  Readers rely on it instead of a scan:
    `is_unit` and `alpha` read the degree of `gens[0]`, `max_generator_degree`
    that of `gens[-1]`, and `hilbert_function` bisects to degree at most d."""

    nvars: int
    gens: tuple

    def __post_init__(self):
        object.__setattr__(self, "nvars", nvars := _check_nvars(self.nvars))
        object.__setattr__(self, "gens", gens := minimal_exponents(self.gens))
        if gens and len(gens[0]) != nvars:
            raise ValueError(f"generators have {len(gens[0])} exponents, expected {nvars}")

    @classmethod
    def _of(cls, nvars: int, gens: tuple) -> "MonomialIdeal":
        """Unchecked, for builders whose gens already keep the contract:
        `product` and `families._member` (`_minimal` of checked ints),
        `padded` (appended zeros change no degree and no order) and
        `families._staircase_rule` (columns, b falling, sorted by degree)."""
        obj = object.__new__(cls)
        obj.__dict__.update(nvars=nvars, gens=gens)
        return obj

    @classmethod
    def from_gens(cls, nvars: int, gens: Iterable) -> "MonomialIdeal":
        return cls(nvars, gens)

    @classmethod
    def zero(cls, nvars: int) -> "MonomialIdeal":
        return cls(nvars, ())

    @classmethod
    def unit(cls, nvars: int) -> "MonomialIdeal":
        return cls(nvars, ((0,) * _check_nvars(nvars),))

    @property
    def is_zero(self) -> bool:
        return not self.gens

    @property
    def is_unit(self) -> bool:
        return bool(self.gens) and sum(self.gens[0]) == 0

    @property
    def is_proper(self) -> bool:
        return not self.is_zero and not self.is_unit

    def contains(self, mono) -> bool:
        """Membership test: some minimal generator divides the monomial."""
        m = _check_vector(mono)
        if len(m) != self.nvars:
            raise ValueError(
                f"monomial has {len(m)} exponents, ideal lives in {self.nvars} variables"
            )
        return self._contains(m)

    @cached_property
    def _staircase(self) -> tuple:
        """2 variables: the corners, the sorted generators, whose x_0 exponents
        ascend and, in an antichain, x_1 exponents strictly descend."""
        corners = sorted(self.gens)
        return [a for a, _ in corners], [b for _, b in corners]

    def _contains(self, v) -> bool:
        """Membership of a vector of nvars non-negative ints, unchecked."""
        return any(all(a <= b for a, b in zip(g, v)) for g in self.gens)

    def product(self, other: "MonomialIdeal") -> "MonomialIdeal":
        """Ideal product; its generator pairs are charged to the "product"
        budget before any sum is formed."""
        if self.nvars != other.nvars:
            raise ValueError("ideal product across different variable counts")
        charge("product", len(self.gens) * len(other.gens), len(self.gens), len(other.gens))
        sums = {tuple(map(add, a, b)) for a in self.gens for b in other.gens}
        return MonomialIdeal._of(self.nvars, _minimal(sums))

    def is_borel_fixed(self) -> bool:
        """Strong stability: every exchange x_j -> x_i (i < j) of every monomial
        of the ideal stays in the ideal.

        In 2 variables the corners of the staircase decide it: a corner
        (a, b) with b > 0 moves to (a + 1, b - 1), which only the next corner
        can divide, so the x_0 exponents of the corners must be consecutive
        and the last corner must have b = 0.

        Otherwise only the adjacent moves x_j -> x_(j-1) of the generators are
        tried, which is equivalent.  If u = g*w with g a generator, an
        adjacent move of u either moves a unit of g, giving (moved g)*w, or a
        unit of w, giving g*(moved w); both lie in the ideal when the moved
        generators do.  A move x_j -> x_i is the chain of adjacent moves
        x_j -> x_(j-1) -> ... -> x_i, each starting from a positive exponent.
        """
        if self.is_zero:
            raise ValueError("Borel test undefined for the zero ideal")
        if self.nvars == 2:
            xs, ys = self._staircase
            return ys[-1] == 0 and xs[-1] - xs[0] == len(xs) - 1
        for g in self.gens:
            for j in range(1, self.nvars):
                if g[j]:
                    moved = list(g)
                    moved[j] -= 1
                    moved[j - 1] += 1
                    if not self._contains(moved):
                        return False
        return True

    def alpha(self) -> int:
        """Least degree of a nonzero element: the degree of gens[0]."""
        if self.is_zero:
            raise ValueError("zero ideal has elements in no degree")
        return sum(self.gens[0])

    def max_generator_degree(self) -> int:
        if self.is_zero:
            raise ValueError("zero ideal has no generators")
        return sum(self.gens[-1])

    def padded(self, nvars: int) -> "MonomialIdeal":
        """Extend to a larger polynomial ring (new variables get exponent 0)."""
        nvars = _check_int(nvars, "nvars")
        if nvars < self.nvars:
            raise ValueError("cannot pad to fewer variables")
        if nvars == self.nvars:
            return self
        pad = (0,) * (nvars - self.nvars)
        return MonomialIdeal._of(nvars, tuple(g + pad for g in self.gens))

    def to_json(self) -> dict:
        return {"vars": self.nvars, "gens": [list(g) for g in self.gens]}

    @classmethod
    def from_json(cls, obj: dict) -> "MonomialIdeal":
        if not isinstance(obj, dict) or "vars" not in obj or "gens" not in obj:
            raise ValueError("ideal JSON needs an object with 'vars' and 'gens'")
        nvars = _check_int(obj["vars"], "ideal 'vars'")
        gens = obj["gens"]
        if not isinstance(gens, (list, tuple)) or not all(isinstance(g, (list, tuple)) for g in gens):
            raise ValueError(f"ideal 'gens' must be a list of exponent lists, got {gens!r}")
        return cls.from_gens(nvars, [tuple(g) for g in gens])

    def __str__(self) -> str:
        if self.is_zero:
            return "(0)"
        return "(" + ", ".join(format_monomial(g) for g in self.gens) + ")"


def format_monomial(vec) -> str:
    parts = []
    for i, e in enumerate(vec):
        if e == 0:
            continue
        parts.append(f"x{i}" + (f"^{e}" if e > 1 else ""))
    return "*".join(parts) if parts else "1"
