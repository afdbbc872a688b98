"""Graded families of monomial ideals and their sequence-limit estimators.

A graded family is a rule m -> I_m with I_p * I_q contained in I_{p+q}.
Constructors cover powers of a fixed ideal, the doubling family
(x^2, x*y^(2^m)), families cut out by rational half-plane inequalities on the
exponents, single-variable ceiling families (x^ceil(m*q)), chain families
bounded by a concave staircase of rational breakpoints, and a periodic family
whose regularity sequence oscillates between two subsequence limits.

Closed forms (halfplane, ceiling, chain) carry an `ExactShape`, whose chain
is validated, and whose staircase rule reads its planes, on one integer image
of the vertices.  Limit estimators never claim convergence: they report the
value sequence with inf / tail-liminf / tail-limsup and oscillation or
divergence flags, decided on integer pairs.  Exact closed-form limits live in
the geometry module.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cmp_to_key
from math import ceil
from typing import Callable

from .hilbert import regularity_index
from .ideals import MonomialIdeal, _check_at_least, _check_int, _minimal
from .rationals import _ZERO, _scaled, format_rational, parse_rational
from .work import charge

__all__ = [
    "ExactShape",
    "FamilyRuleError",
    "GradedFamily",
    "LimitEstimate",
    "GradednessReport",
    "GradednessViolation",
    "make_power_family",
    "make_doubling_family",
    "make_halfplane_family",
    "make_ceiling_family",
    "make_chain_family",
    "make_oscillating_family",
    "verify_graded",
    "waldschmidt_estimate",
    "areg_estimate",
    "ri_estimate",
    "family_from_json",
    "family_to_json",
    "BUILTIN_KINDS",
]

DEFAULT_TOLERANCE = Fraction(1, 20)
# least charge of one pair (p, q): the fixed cost of fetching its members and
# testing them, which a pair of one-generator ideals spends almost alone
GRADED_PRODUCT_FLOOR = 8


class FamilyRuleError(RuntimeError):
    """A family rule returned an ideal that breaks the family's declaration:
    the wrong number of variables, or not Borel-fixed as claimed."""


@dataclass(frozen=True)
class ExactShape:
    """Closed form of the limit staircase region lim NP(I_m)/m in the exponent
    plane: the set { A*x + B*y >= C for all half-planes } in the first
    quadrant.  `vertices` is the boundary chain of extremal points, listed
    from the x-axis towards the y-axis; a chain ending off the y-axis goes
    on up a vertical ray.  `geometry` cuts the chain's planar graph once,
    which needs it to start on the x-axis with x strictly decreasing and
    slopes -1 or steeper that strictly steepen (so y strictly rises and
    x + y never decreases along it); any other chain is refused with ValueError.

    The shape carries one integer image, `_image`: its vertices times the
    lcm L of their denominators, made by `_scaled`.  The chain is validated
    on the image by cross products, the staircase rule and `geometry`'s cut
    run on it, and `halfplanes` are read off it: the line through each two
    consecutive vertices, then the vertical ray x >= x_n of a chain ending
    off the y-axis."""

    vertices: tuple  # ((x, y), ...) Fractions
    halfplanes: tuple = field(init=False)  # ((A, B, C), ...) with A, B >= 0

    def __post_init__(self):
        v = self.vertices
        if any(type(c) is not int and not isinstance(c, Fraction) for p in v for c in p):
            raise ValueError(f"vertex coordinates must be ints or Fractions: {v!r}")
        ints, L = _scaled(v)
        if not ints or ints[0][1] or any(not x1 < x0 for (x0, _), (x1, _) in zip(ints, ints[1:])):
            raise ValueError(f"chain must start on the x-axis, x strictly decreasing: {_chain_text(v)}")
        # (dx, dy) of each segment, dx < 0: slope dy/dx is -1 or steeper when
        # dx + dy >= 0, and steeper than dy0/dx0 when dy * dx0 < dy0 * dx
        steps = [(x1 - x0, y1 - y0) for (x0, y0), (x1, y1) in zip(ints, ints[1:])]
        if steps and sum(steps[0]) < 0:
            raise ValueError(f"first slope {Fraction(steps[0][1], steps[0][0])} exceeds -1: "
                             "chain must start at -1 or steeper")
        for i in range(1, len(steps)):
            (dx0, dy0), (dx, dy) = steps[i - 1], steps[i]
            if dy * dx0 >= dy0 * dx:
                raise ValueError(
                    f"slopes must strictly steepen: segment {i} has slope "
                    f"{Fraction(dy, dx)}, previous {Fraction(dy0, dx0)}"
                )
        self.__dict__["_image"] = ints, L
        planes = [(y1 - y0, x0 - x1, Fraction(x0 * y1 - x1 * y0, L))
                  for (x0, y0), (x1, y1) in zip(ints, ints[1:])]
        if ints[-1][0]:
            planes.append((1, 0, v[-1][0]))
        object.__setattr__(self, "halfplanes", tuple(planes))

    def columns(self, m: int) -> int:
        """ceil(m * x-intercept) + 1: the columns of member m of its staircase
        rule, and its generators for a chain ending on the y-axis."""
        ints, L = self._image
        return -(-m * ints[0][0] // L) + 1


def _chain_text(points) -> str:
    """The points as a chain label writes them: [(s,t);...]."""
    return "[" + ";".join(f"({format_rational(s)},{format_rational(t)})" for s, t in points) + "]"


def _member(nvars: int, gens) -> MonomialIdeal:
    """A rule's member: `_minimal` orders the antichain of its int vectors for `_of`."""
    return MonomialIdeal._of(nvars, _minimal(gens))


class GradedFamily:
    """Deterministic rule m -> MonomialIdeal, memoized, with declared claims.

    `claims_borel` is re-checked on every ideal actually evaluated, so a
    family constructed with a wrong claim fails loudly.  `period`, when set,
    asks estimators to also report subsequence values along residues mod the
    period.  `exact_shape` carries the closed-form limit staircase when one
    is known.

    Members are memoized in `_cache`, keyed by m.  `geometry` memoizes each
    limiting shape and its complement, computed together, in `_shapes`:
    keyed by t for a closed form, by (t, max_m) for an inner approximation.
    """

    def __init__(
        self,
        nvars: int,
        rule: Callable[[int], MonomialIdeal],
        label: str,
        claims_borel: bool = False,
        period: int | None = None,
        exact_shape: ExactShape | None = None,
        json_spec: dict | None = None,
    ):
        self.nvars = nvars
        self.label = label
        self.claims_borel = claims_borel
        self.period = period
        self.exact_shape = exact_shape
        self.json_spec = json_spec
        self._rule = rule
        self._cache: dict[int, MonomialIdeal] = {}
        self._shapes: dict = {}

    def ideal(self, m: int) -> MonomialIdeal:
        if type(m) is not int or m < 1:  # a bool, float, str or m < 1 is refused, never read as a member
            m = _check_at_least(m, "family index m")
        cached = self._cache.get(m)
        if cached is not None:
            return cached
        ideal = self._rule(m)
        if ideal.nvars != self.nvars:
            raise FamilyRuleError(
                f"{self.label}: rule({m}) lives in {ideal.nvars} variables, expected {self.nvars}"
            )
        if self.claims_borel and not ideal.is_zero and not ideal.is_borel_fixed():
            raise FamilyRuleError(f"{self.label}: rule({m}) is not Borel-fixed as claimed")
        self._cache[m] = ideal
        return ideal

    def __repr__(self) -> str:
        return f"GradedFamily({self.label!r}, nvars={self.nvars})"


def make_power_family(I: MonomialIdeal) -> GradedFamily:
    """Ordinary powers m -> I^m of a fixed proper nonzero ideal.

    The chain of products I^(k-1)*I charges its generator pairs to one
    "power" total per family, each product before it is formed, and a lower
    bound on the pairs towards I^m before the first: |G(I^j)| >= j + 1 when
    I has two generators or more (a compact edge of NP(I), scaled by j,
    holds j + 1 lattice points, all minimal generators of I^j, as its weight
    vector is strictly positive), and |G(I^j)| = 1 for a principal I."""
    if not I.is_proper:
        raise ValueError("power family needs a proper nonzero ideal")
    powers = {1: I}
    charged = 0
    n = len(I.gens)

    def rule(m: int) -> MonomialIdeal:
        nonlocal charged
        top = max(k for k in powers if k <= m)
        out = powers[top]
        if m > top + 1:
            # the bound b(j) on |G(I^j)| summed over j = top + 1 .. m - 1
            rest = (m * (m + 1) - (top + 1) * (top + 2)) // 2 if n > 1 else m - 1 - top
            charge("power", charged + n * (len(out.gens) + rest), m, "at least ")
        for k in range(top + 1, m + 1):
            charged = charge("power", charged + len(out.gens) * n, k, "")
            out = out.product(I)
            powers[k] = out
        return out

    return GradedFamily(
        I.nvars,
        rule,
        label=f"powers of {I}",
        claims_borel=I.is_borel_fixed(),
        json_spec={"kind": "power", "params": {"ideal": I.to_json()}},
    )


def make_doubling_family(extra_vars: int = 0) -> GradedFamily:
    """m -> (x^2, x*y^(2^m)), optionally padded by one extra variable.

    Generator degrees grow like 2^m, so no linear regularity bound exists;
    m itself is charged to the "doubling" budget.
    """
    extra_vars = _check_int(extra_vars, "parameter 'extra_vars'")
    if extra_vars not in (0, 1):
        raise ValueError("extra_vars must be 0 or 1")
    nv = 2 + extra_vars
    pad = (0,) * extra_vars

    def rule(m: int) -> MonomialIdeal:
        return _member(nv, [(2, 0) + pad, (1, 2 ** charge("doubling", m)) + pad])

    return GradedFamily(
        nv,
        rule,
        label=f"doubling[{nv} vars]",
        claims_borel=True,
        json_spec={"kind": "doubling", "params": {"extra_vars": extra_vars}},
    )


def make_halfplane_family(q1, q2) -> GradedFamily:
    """m -> ideal of all x^a*y^b with a*q2 + b*q1 >= m*q1*q2, 0 < q1 <= q2.

    The generating set is the boundary staircase of the half-plane, which is
    finite and independent of any search cap.
    """
    q1, q2 = parse_rational(q1), parse_rational(q2)
    if not 0 < q1 <= q2:
        raise ValueError(f"need 0 < q1 <= q2, got q1={q1}, q2={q2}")
    shape = ExactShape(((q1, _ZERO), (_ZERO, q2)))
    text1, text2 = format_rational(q1), format_rational(q2)
    return GradedFamily(
        2,
        _staircase_rule(shape),
        label=f"halfplane(q1={text1}, q2={text2})",
        claims_borel=True,
        exact_shape=shape,
        json_spec={"kind": "halfplane", "params": {"q1": text1, "q2": text2}},
    )


def make_ceiling_family(q) -> GradedFamily:
    """m -> (x^ceil(m*q)) in one variable, q a positive rational."""
    q = parse_rational(q)
    if q <= 0:
        raise ValueError("ceiling family needs q > 0")

    def rule(m: int) -> MonomialIdeal:
        return _member(1, [(ceil(m * q),)])

    return GradedFamily(
        1,
        rule,
        label=f"ceiling(q={q})",
        claims_borel=True,
        exact_shape=ExactShape(((q, _ZERO),)),
        json_spec={"kind": "ceiling", "params": {"q": format_rational(q)}},
    )


def _staircase_rule(shape: ExactShape) -> Callable[[int], MonomialIdeal]:
    """m -> the ideal of the lattice points on or above the shape's chain
    scaled by m, for a chain ending on the y-axis.  Every slope is -1 or
    steeper, so the least b of the columns a = 0 .. ceil(m * x-intercept)
    drops strictly until it reaches 0 in the last: each column is a
    generator, with the staircase corners already known.  Column a reads the
    one segment above it, from consecutive points of the shape's image.  A
    member's columns are charged to the "columns" budget before its walk."""
    ints, L = shape._image
    # segment j, from image point j to j + 1, as A*a + B*b >= m*C on lattice
    # points (a, b); listed from the y-axis, each with the image x of its
    # right end, which bounds its columns
    segments = [((y1 - y0) * L, (x0 - x1) * L, x0 * y1 - x1 * y0, x0)
                for (x0, y0), (x1, y1) in zip(ints, ints[1:])][::-1]

    def rule(m: int) -> MonomialIdeal:
        columns = charge("columns", shape.columns(m), m)
        ys: list = []
        for A, B, C, x in segments:
            mC = m * C
            # ceil((m*C - a*A) / B) for the columns a <= floor(m * x / L)
            ys += [(mC - a * A + B - 1) // B for a in range(len(ys), m * x // L + 1)]
        if len(ys) < columns:  # m * x-intercept is not an integer
            ys.append(0)
        xs = list(range(columns))
        # a ascends, so a stable sort by degree gives the (degree, vector) order
        I = MonomialIdeal._of(2, tuple(sorted(zip(xs, ys), key=sum)))
        I.__dict__["_staircase"] = xs, ys
        return I

    return rule


def make_chain_family(breakpoints) -> GradedFamily:
    """Family whose m-th ideal consists of the lattice points on or above the
    concave chain of breakpoints scaled by m.

    Breakpoints run (s_0, 0), (s_1, t_1), ..., (0, t_n), at least two and
    the last on the y-axis, under `ExactShape`'s chain rules (which also make
    t strictly increase and every ideal Borel-fixed).
    """
    if not isinstance(breakpoints, (list, tuple)) or not all(
        isinstance(p, (list, tuple)) and len(p) == 2 for p in breakpoints
    ):
        raise ValueError(f"breakpoints must be a list of (s, t) pairs, got {breakpoints!r}")
    pts = [(parse_rational(s), parse_rational(t)) for s, t in breakpoints]
    if len(pts) < 2:
        raise ValueError("need at least two breakpoints")
    if pts[-1][0] != 0:
        raise ValueError("last breakpoint must lie on the y-axis (s_n = 0)")
    # ExactShape refuses every other chain its rule cannot read
    shape = ExactShape(tuple(pts))
    text = [[format_rational(s), format_rational(t)] for s, t in pts]
    return GradedFamily(
        2,
        _staircase_rule(shape),
        label="chain" + _chain_text(pts),
        claims_borel=True,
        exact_shape=shape,
        json_spec={"kind": "chain", "params": {"breakpoints": text}},
    )


def make_oscillating_family(a: int, b: int, d: int) -> GradedFamily:
    """Periodic family: (x^(a*k)) at m = d(k-1)+1, else (x^(a*k+1), x^(a*k)*y^(b*k)).

    The regularity sequence reg(I_m)/m accumulates at a/d along the first
    residue and at (a+b)/d along the last, so no asymptotic regularity exists.
    """
    # the rule's exponents go unchecked
    a, b, d = (_check_int(v, f"parameter {n!r}") for n, v in zip("abd", (a, b, d)))
    if not (a >= 1 and a < b and d >= 2):
        raise ValueError("need 1 <= a < b and d >= 2")

    def rule(m: int) -> MonomialIdeal:
        k = (m - 1) // d + 1
        r = m - d * (k - 1)
        if r == 1:
            return _member(2, [(a * k, 0)])
        return _member(2, [(a * k + 1, 0), (a * k, b * k)])

    return GradedFamily(
        2,
        rule,
        label=f"oscillating(a={a}, b={b}, d={d})",
        claims_borel=True,
        period=d,
        json_spec={"kind": "oscillating", "params": {"a": a, "b": b, "d": d}},
    )


@dataclass(frozen=True)
class GradednessViolation:
    p: int
    q: int
    witness: tuple  # least product generator missing from I_{p+q}, by (degree, vector)


@dataclass(frozen=True)
class GradednessReport:
    max_m: int
    checked_pairs: int
    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {"max_m": self.max_m, "checked_pairs": self.checked_pairs, "ok": self.ok,
                "violations": [{"p": v.p, "q": v.q, "witness": list(v.witness)} for v in self.violations]}


def verify_graded(family: GradedFamily, max_m: int) -> GradednessReport:
    """Check I_p * I_q <= I_{p+q} for every p <= q with p + q <= max_m;
    each pair (p, q) charges max(|G_p| * |G_q|, GRADED_PRODUCT_FLOOR)
    generator pairs to one "graded pairs" total before it is tested.

    In 2 variables no product is formed: every sum a + b of generators is
    looked up in the staircase of I_{p+q}, and the least missing sum by
    (degree, vector) is the witness.  It is the product's first missing
    generator, since a missing sum's minimal divisor among the sums is
    itself a missing sum of no larger degree."""
    max_m = _check_at_least(max_m, "max_m", 2)
    violations = []
    checked = 0
    work = 0
    for p in range(1, max_m // 2 + 1):
        for q in range(p, max_m - p + 1):
            Ip, Iq = family.ideal(p), family.ideal(q)
            work = charge("graded pairs", work + max(len(Ip.gens) * len(Iq.gens), GRADED_PRODUCT_FLOOR),
                          family.label, max_m, GRADED_PRODUCT_FLOOR, p, q)
            target = family.ideal(p + q)
            checked += 1
            if target.nvars == 2:
                xs, ys = target._staircase
                missing = []
                for a0, a1 in Ip.gens:
                    for b0, b1 in Iq.gens:
                        i = bisect_right(xs, a0 + b0)
                        if not i or ys[i - 1] > a1 + b1:
                            missing.append((a0 + b0 + a1 + b1, (a0 + b0, a1 + b1)))
                if missing:
                    violations.append(GradednessViolation(p, q, min(missing)[1]))
                continue
            # a generator of the target needs no divisor scan
            own = set(target.gens)
            for g in Ip.product(Iq).gens:
                if g not in own and not target._contains(g):
                    violations.append(GradednessViolation(p, q, g))
                    break
    return GradednessReport(max_m, checked, tuple(violations))


@dataclass(frozen=True)
class LimitEstimate:
    """Sequence data for v_m/m limits; no convergence is asserted.

    liminf/limsup are taken over the tail half m > M//2; `oscillating` means
    their gap exceeds the tolerance while the tail is not monotonically
    drifting upwards, which is flagged as `diverging` instead.
    """

    values: tuple  # ((m, Fraction), ...)
    inf_value: Fraction
    liminf: Fraction
    limsup: Fraction
    oscillating: bool
    diverging: bool
    tolerance: Fraction
    residue_values: tuple | None = None  # ((residue, tail value), ...)


# orders integer pairs (m, n) by n/m, m > 0
_BY_VALUE = cmp_to_key(lambda u, w: u[1] * w[0] - w[1] * u[0])


def _estimate_from_values(values, tolerance, period) -> LimitEstimate:
    """The estimate of the sequence v_m = n/m from its integer pairs (m, n),
    m = 1 .. max_m, within a Fraction tolerance.  Values are compared by
    cross products, and one Fraction is built per value."""
    tn, td = tolerance.numerator, tolerance.denominator

    def over(lo, hi):  # v(hi) - v(lo) > tolerance
        return (hi[1] * lo[0] - lo[1] * hi[0]) * td > tn * lo[0] * hi[0]

    max_m = values[-1][0]
    fracs = [(m, Fraction(n, m)) for m, n in values]
    tail = values[max_m // 2:]
    low, high = min(tail, key=_BY_VALUE), max(tail, key=_BY_VALUE)
    increasing = all(n0 * m1 < n1 * m0 for (m0, n0), (m1, n1) in zip(tail, tail[1:]))
    diverging = increasing and over(tail[0], tail[-1])
    oscillating = (not diverging) and over(low, high)
    residues = None
    if period:
        residues = tuple(sorted({m % period: v for m, v in fracs[max_m // 2:]}.items()))
    return LimitEstimate(
        values=tuple(fracs),
        inf_value=fracs[min(values, key=_BY_VALUE)[0] - 1][1],
        liminf=fracs[low[0] - 1][1],
        limsup=fracs[high[0] - 1][1],
        oscillating=oscillating,
        diverging=diverging,
        tolerance=tolerance,
        residue_values=residues,
    )


def _walk_estimate(family: GradedFamily, max_m: int, value) -> LimitEstimate:
    """The estimate of v_m = value(m)/m over m = 1 .. max_m, a checked
    max_m, with the "walk" charged before the first member."""
    charge("walk", max_m, family.label)
    values = [(m, value(m)) for m in range(1, max_m + 1)]
    return _estimate_from_values(values, DEFAULT_TOLERANCE, family.period)


def waldschmidt_estimate(family: GradedFamily, max_m: int) -> LimitEstimate:
    """Sequence alpha(I_m)/m.  Subadditivity makes the limit equal the inf
    over all m, so `inf_value` over a prefix is an exact upper bound."""

    def alpha(m):
        ideal = family.ideal(m)
        if ideal.is_zero:
            raise ValueError(f"{family.label}: rule({m}) is the zero ideal")
        return ideal.alpha()

    return _walk_estimate(family, _check_at_least(max_m, "max_m"), alpha)


def areg_estimate(family: GradedFamily, max_m: int) -> LimitEstimate:
    """Sequence reg(I_m)/m for Borel-fixed families (max generator degree)."""
    max_m = _check_at_least(max_m, "max_m")
    if not family.claims_borel:
        raise ValueError("asymptotic regularity estimate needs a Borel-fixed family")
    return _walk_estimate(family, max_m, lambda m: family.ideal(m).max_generator_degree())


def ri_estimate(family: GradedFamily, max_m: int) -> LimitEstimate:
    """Sequence ri(I_m)/m via the Hilbert-polynomial regularity index."""
    return _walk_estimate(family, _check_at_least(max_m, "max_m"), lambda m: regularity_index(family.ideal(m)))


def _build_power(params: dict) -> GradedFamily:
    return make_power_family(MonomialIdeal.from_json(params["ideal"]))


def _build_doubling(params: dict) -> GradedFamily:
    return make_doubling_family(params.get("extra_vars", 0))


def _build_halfplane(params: dict) -> GradedFamily:
    return make_halfplane_family(params["q1"], params["q2"])


def _build_ceiling(params: dict) -> GradedFamily:
    return make_ceiling_family(params["q"])


def _build_chain(params: dict) -> GradedFamily:
    return make_chain_family(params["breakpoints"])


def _build_oscillating(params: dict) -> GradedFamily:
    return make_oscillating_family(params["a"], params["b"], params["d"])


# kind -> (builder, accepted parameter names)
_BUILDERS = {
    "power": (_build_power, ("ideal",)),
    "doubling": (_build_doubling, ("extra_vars",)),
    "halfplane": (_build_halfplane, ("q1", "q2")),
    "ceiling": (_build_ceiling, ("q",)),
    "chain": (_build_chain, ("breakpoints",)),
    "oscillating": (_build_oscillating, ("a", "b", "d")),
}

BUILTIN_KINDS = tuple(sorted(_BUILDERS))


def family_from_json(obj: dict) -> GradedFamily:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValueError("family JSON needs an object with a 'kind' field")
    kind = obj["kind"]
    entry = _BUILDERS.get(kind) if isinstance(kind, str) else None
    if entry is None:
        raise ValueError(f"unknown family kind {kind!r}; known: {BUILTIN_KINDS}")
    builder, known = entry
    params = obj.get("params", {})
    if not isinstance(params, dict):
        raise ValueError("family 'params' must be an object")
    unknown = sorted(str(name) for name in params if name not in known)
    if unknown:
        raise ValueError(
            f"family kind {kind!r} has no parameter {', '.join(map(repr, unknown))}; known: {known}"
        )
    try:
        return builder(params)
    except KeyError as exc:
        raise ValueError(f"family kind {kind!r} missing parameter {exc}") from None


def family_to_json(family: GradedFamily) -> dict:
    if family.json_spec is None:
        raise ValueError(f"{family.label} has no JSON form")
    return family.json_spec
