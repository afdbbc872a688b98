"""Staircase regions, exact lattice counts and volumes, and limiting shapes.

For an ideal in n+1 variables the staircase region at scale m and parameter t
lives in R^n: each minimal generator alpha contributes the truncated box
{ beta >= (alpha_0..alpha_{n-1}), sum(beta) <= m*t - alpha_n }, and the
complement region is the simplex { beta >= 0, sum(beta) <= m*t } minus that
union.  Lattice points of the complement count the quotient's monomial basis,
which is the bridge identity the test-suite leans on.

Every count and volume of a region goes through that identity.  On one
integer scale L (1 for a count, which floors the bound and each slack; else
the lcm of their denominators) a region of bound B in R^k lifts each corner
(prefix, slack) to the generator (B - slack, *prefix) in k + 1 variables,
both times L: beta lies in the box exactly when x_0^(B - |beta|) x^beta is
divisible by it.  With N = sum_e c_e t^e the Hilbert-series numerator of the
lifted generators (`hilbert._numerator`), the complement holds
sum_(e <= B) c_e C(B - e + k, k) lattice points and has measure
sum_(e <= B) c_e (B - e)^k / (k! L^k); the staircase is the simplex minus
it.  The slack coordinate comes first, so a region whose boxes share one
slack is read as a single two-variable corner form.

Shape computations for whole families work in the exponent plane, where the
region drawn is the limit of the scaled generator staircases (the picture the
two-variable family figures show).  A member in one or two variables is read
straight from the corners of its staircase, which is what padding it to three
variables would give; a member in three variables goes through its generator
boxes; members in more than three variables are refused.  A closed form's
chain is mapped to its planar graph and cut once per t by `_cut`, the one cut
`planar` makes too; only the areas, and the vertices of a polygon when read,
become Fractions.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import comb, factorial, floor, lcm

from .families import areg_estimate, waldschmidt_estimate
from .hilbert import _numerator, hilbert_function
from .ideals import MonomialIdeal, _check_at_least
from .rationals import _ZERO, _format_over, _nonnegative, _scaled, format_rational, parse_rational
from .work import charge

__all__ = [
    "UnsupportedDimensionError",
    "StaircaseRegion",
    "ComplementRegion",
    "staircase_region",
    "gamma_region",
    "gamma_lattice_count",
    "lattice_count",
    "region_volume",
    "ShapePolygon",
    "ShapeResult",
    "AhfResult",
    "convex_hull",
    "limiting_shape",
    "gamma_limit",
    "waldschmidt_from_shape",
    "areg_from_shape",
    "shape_json",
    "waldschmidt",
    "areg",
    "ahf",
]


class UnsupportedDimensionError(RuntimeError):
    """Raised when a shape computation is asked of a member in more than three
    variables."""


@dataclass(frozen=True)
class StaircaseRegion:
    """Union of truncated corner boxes inside the simplex of the same bound.

    Corners are (prefix, slack) pairs: { beta >= prefix, sum(beta) <= slack },
    sorted.  Only nonempty boxes are stored (slack >= sum(prefix)).  The
    corner set is an antichain under (prefix smaller, slack larger)
    domination because the ideal's generators are minimal: a dominating
    corner would come from a generator dividing the other's.  The bound and
    each slack are read once by `parse_rational`.  A prefix entry that is not
    an int (a Fraction, a float, a bool) is refused, and so is a corner whose
    box leaves the simplex (a prefix not of length dim, a negative prefix
    entry, or a slack above the bound), so no count or volume of the
    complement is negative.
    """

    dim: int
    bound: Fraction
    corners: tuple

    def __post_init__(self):
        object.__setattr__(self, "bound", parse_rational(self.bound))
        object.__setattr__(self, "corners", tuple((p, parse_rational(s)) for p, s in self.corners))
        for prefix, slack in self.corners:
            if any(type(v) is not int for v in prefix):
                raise ValueError(f"corner {(prefix, slack)} has a prefix entry that is not an int")
            if slack > self.bound or len(prefix) != self.dim or min(prefix, default=0) < 0:
                raise ValueError(f"corner {(prefix, slack)} leaves the simplex of bound {self.bound}")


@dataclass(frozen=True)
class ComplementRegion:
    """Simplex minus staircase; its lattice points count standard monomials."""

    staircase: StaircaseRegion


def _boxes(gens, bound, scale=1) -> list:
    """(g[:-1], bound - scale * g[-1]) for every generator g whose box is
    nonempty (slack >= scale * |prefix|): one rule for staircase regions
    (bound m*num(t), scale den(t)) and the integer hull (scale D/m)."""
    out = []
    for g in gens:
        slack = bound - scale * g[-1]
        if slack >= scale * sum(g[:-1]):
            out.append((g[:-1], slack))
    return out


def _scale_and_parameter(m, t) -> tuple:
    """m through `_check_at_least` and t through `parse_rational` and
    `_nonnegative`: an m below 1 and a t below 0 are refused."""
    return _check_at_least(m, "m"), _nonnegative(parse_rational(t))


def staircase_region(I: MonomialIdeal, m: int, t) -> StaircaseRegion:
    """Scaled staircase of I: generator boxes clipped by per-generator slack.
    Each slack m*t - last is decided on the integers m*num(t) - den(t)*last,
    and only a kept corner's slack becomes a Fraction."""
    m, t = _scale_and_parameter(m, t)
    den = t.denominator
    # already an antichain: a dominating corner's generator would divide the other's
    corners = sorted(_boxes(I.gens, m * t.numerator, den))
    return StaircaseRegion(I.nvars - 1, m * t, tuple((p, Fraction(s, den)) for p, s in corners))


def gamma_region(I: MonomialIdeal, m: int, t) -> ComplementRegion:
    return ComplementRegion(staircase_region(I, m, t))


def _corner_count(xs, ys, d: int) -> int:
    """Lattice points a + b <= d on or above the staircase with corners
    (xs[i], ys[i]), xs ascending and ys strictly descending: corner i owns the
    columns xs[i] .. xs[i+1] - 1 from ys[i] up, one arithmetic series."""
    total = 0
    for a, b, nxt in zip(xs, ys, [*xs[1:], d + 1]):
        hi = min(nxt - 1, d - b)  # last column of the corner that counts
        if hi >= a:
            total += (2 * (d - b + 1) - a - hi) * (hi - a + 1) // 2
    return total


def _complement(stair: StaircaseRegion, count: bool, outside: bool):
    """Lattice count (an int) or measure (a Fraction) of `stair`, or with
    `outside` of its complement in the simplex: the lift and the two sums of
    the module docstring, with the simplex C(B + k, k) or B^k / (k! L^k)."""
    k = stair.dim
    if count:
        B = floor(stair.bound)
        gens = [(B - floor(s), *p) for p, s in stair.corners]
    else:
        bound = stair.bound
        L = lcm(bound.denominator, *(s.denominator for _, s in stair.corners))
        B = bound.numerator * (L // bound.denominator)
        gens = [(B - s.numerator * (L // s.denominator), *(v * L for v in p)) for p, s in stair.corners]
    if B < 0:
        return 0 if count else _ZERO
    N = _numerator(gens, k + 1)
    if count:
        rest = sum(c * comb(B - e + k, k) for e, c in N.items() if e <= B)
        return rest if outside else comb(B + k, k) - rest
    rest = sum(c * (B - e) ** k for e, c in N.items() if e <= B)
    return Fraction(rest if outside else B**k - rest, factorial(k) * L**k)


def _parts(region) -> tuple:
    """(staircase, whether `region` is its complement)."""
    if isinstance(region, ComplementRegion):
        return region.staircase, True
    if isinstance(region, StaircaseRegion):
        return region, False
    raise TypeError(f"not a region: {region!r}")


def lattice_count(region) -> int:
    """Exact number of integer points of the region.

    Boundary convention: the simplex and the staircase boxes are closed, so
    the complement's count equals the Hilbert function of the quotient at the
    floor of the bound.  A lattice point sees a slack only through its floor,
    so the bound d and every slack are floored once and each corner
    (prefix, slack) lifts to the generator (d - slack, *prefix); the
    complement counts sum_(e <= d) c_e C(d - e + dim, dim) over that ideal's
    Hilbert-series numerator sum_e c_e t^e, and the staircase is the simplex
    minus it.
    """
    stair, outside = _parts(region)
    return _complement(stair, True, outside)


def gamma_lattice_count(I: MonomialIdeal, m: int, t) -> int:
    """lattice_count(gamma_region(I, m, t)) without building the region: at
    d = floor(m*t) a generator's corner (g[:-1], d - g[-1]) lifts back to g
    with its last exponent first, so the count is hilbert_function(I, d)."""
    m, t = _scale_and_parameter(m, t)
    return hilbert_function(I, floor(m * t))


def region_volume(region) -> Fraction:
    """Exact measure in every dimension (the counting measure in dimension 0).

    On the scale L, the lcm of the denominators of the bound and the slacks,
    the bound is B and each corner (prefix, slack) lifts to the generator
    (B - slack, *prefix), both times L; the complement measures
    sum_(e <= B) c_e (B - e)^dim / (dim! L^dim) over that ideal's
    Hilbert-series numerator sum_e c_e t^e, and the staircase is the simplex
    minus it.
    """
    stair, outside = _parts(region)
    return _complement(stair, False, outside)


class _Imaged:
    """Base of `ShapePolygon` and `planar.PLGraph`: exact rational vertices
    carrying one integer image, the vertices times a scale L.  `_of` keeps
    only an image already reduced, `_from_image` reduces one first, and
    `__getattr__` reads the vertices off it; from vertices, `_scaled` takes
    the image when first read.  `cls._reduce` picks the vertices, and
    `to_json` prints them off the image."""

    @classmethod
    def make(cls, points):
        """Through the points read by `parse_rational`, reduced by `_reduce`
        on the points scaled to integers."""
        return cls._from_image(*_scaled([(parse_rational(x), parse_rational(y)) for x, y in points]))

    @classmethod
    def _from_image(cls, ints, L):
        """`_of` of the integer points over the scale L that `_reduce` keeps."""
        return cls._of([ints[i] for i in cls._reduce(ints)], L)

    @classmethod
    def _of(cls, ints, L):
        """Through integer points over the scale L that `_reduce` would keep
        whole, so it is not run: the points and L are the image, and no
        Fraction is built."""
        obj = object.__new__(cls)
        obj.__dict__["_image"] = ints, L
        return obj

    def __getattr__(self, name):
        """Only missing attributes come here: one Fraction per coordinate
        of the image is an `_of` polygon's vertices, kept once read."""
        if name != "vertices" or "_image" not in self.__dict__:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        ints, L = self._image
        self.__dict__["vertices"] = vertices = tuple((Fraction(x, L), Fraction(y, L)) for x, y in ints)
        return vertices

    @cached_property
    def _image(self) -> tuple:
        """The image of vertices given to the constructor, each coordinate
        read by `parse_rational` as `format_rational` reads it."""
        return _scaled([(parse_rational(x), parse_rational(y)) for x, y in self.vertices])

    def to_json(self) -> list:
        """The vertices as "num/den" pairs, each coordinate formatted straight
        off the image by `_format_over`, building no Fraction."""
        ints, L = self._image
        return [[_format_over(x, L), _format_over(y, L)] for x, y in ints]


@dataclass(frozen=True)
class ShapePolygon(_Imaged):
    """Simple polygon with exact rational vertices in boundary (CCW) order.

    Limiting shapes are convex; their complements generally are not.
    Collinearity and the area are decided on the integer image.
    """

    vertices: tuple

    @staticmethod
    def _reduce(ints) -> list:
        """Indices of the integer points kept: cyclic repeats dropped, then,
        again and again, the first vertex collinear with its two cyclic
        neighbours."""
        keep = [i for i, q in enumerate(ints) if not i or q != ints[i - 1]]
        if len(keep) > 1 and ints[keep[0]] == ints[keep[-1]]:
            keep.pop()
        changed = True
        while changed and len(keep) > 2:
            changed = False
            for i in range(len(keep)):
                if _cross(ints[keep[i - 1]], ints[keep[i]], ints[keep[(i + 1) % len(keep)]]) == 0:
                    keep.pop(i)
                    changed = True
                    break
        return keep

    def _twice_area(self) -> tuple:
        """Twice the signed area times L^2, the shoelace sum on the image
        (0 below three vertices), and 2 * L^2."""
        ints, L = self._image
        twice = sum(x0 * y1 - x1 * y0 for (x0, y0), (x1, y1) in zip(ints, ints[1:] + ints[:1]))
        return twice, 2 * L * L

    def signed_area(self) -> Fraction:
        return Fraction(*self._twice_area())

    def area(self) -> Fraction:
        """|shoelace| / (2 * L^2), one Fraction."""
        twice, den = self._twice_area()
        return Fraction(abs(twice), den)


def _cross(a, b, c):
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _half_chain(seq) -> list:
    """One half of Andrew's monotone chain, ends included: over points of
    strictly increasing x the lower hull, with no repeated or collinear
    vertex."""
    out: list = []
    for p in seq:
        x, y = p
        while len(out) >= 2:  # pop unless out[-2], out[-1], p turn left
            (ax, ay), (bx, by) = out[-2], out[-1]
            if (bx - ax) * (y - ay) > (by - ay) * (x - ax):
                break
            out.pop()
        out.append(p)
    return out


def _at(P, L, t: Fraction, monotone=True, right=False) -> tuple:
    """Where the chain of integer image P over L meets x = t: the number j
    of its points left of t (with `right`, at t too), bisected as x never
    decreases, and the point on the segment from the j-th (the first
    segment's when j = 0, the top of a vertical one) as integers on the
    scale L * k, with k.  A chain not `monotone`, then a t outside its
    x-range, is refused."""
    if not monotone:
        raise ValueError("graph is not x-monotone")
    dt, tL = t.denominator, t.numerator * L
    if not P or tL < P[0][0] * dt or tL > P[-1][0] * dt:
        raise ValueError(f"x={t} outside graph range")
    j = bisect_left(P, (tL // dt + 1,) if right else (-(-tL // dt),))  # (x,) sorts before every (x, y)
    i = max(j - 1, 0)
    (x0, y0), (x1, y1) = P[i], P[min(i + 1, len(P) - 1)]
    dx = x1 - x0 or 1  # a vertical segment (or a lone vertex) gives y1
    return j, dt * dx, (tL * dx, y1 * dx * dt - (y1 - y0) * (x1 * dt - tL))


def _cut(P, L, t: Fraction, monotone=True, right=False):
    """The one cut of an integer chain: image P over L truncated at x = t,
    as (points, scale), the j points of `_at` (or the first) then the point
    at t unless it is the last of them.  None at or past the last x of a
    nonempty chain, before `_at` refuses anything."""
    if P and t.numerator * L >= P[-1][0] * t.denominator:
        return None
    j, k, cut = _at(P, L, t, monotone, right)
    pts = [(x * k, y * k) for x, y in P[:j] or P[:1]]
    if pts[-1] != cut:
        pts.append(cut)
    return pts, L * k


def _gamma_image(P, L, t, monotone=True) -> tuple:
    """Gamma's image, with its scale, read off a graph's image P over L:
    each point (x, y) of the graph, cut at x = t unless t is None, mapped to
    (y, x - y), then (0, t) after a cut unless it is there already."""
    cut = t is not None and _cut(P, L, t, monotone)
    ints, S = cut or (P, L)
    out = [(y, x - y) for x, y in ints]
    if cut and out[-1] != (closing := (0, t.numerator * (S // t.denominator))):
        out.append(closing)
    return out, S


def _monotone_chain(pts: list) -> list:
    """Andrew's monotone chain over sorted distinct points: the CCW hull with
    no repeated or collinear vertex (the points themselves if at most two)."""
    if len(pts) <= 2:
        return pts
    return _half_chain(pts)[:-1] + _half_chain(reversed(pts))[:-1]


def convex_hull(points) -> list:
    """Exact 2-D convex hull (monotone chain) of the points read by
    `parse_rational`, CCW without repeated endpoint."""
    return _monotone_chain(sorted({(parse_rational(x), parse_rational(y)) for x, y in points}))


@dataclass(frozen=True)
class ShapeResult:
    """Polygonal limiting shape (or complement) at parameter t.

    `exact` marks closed-form families; otherwise the polygon is an inner
    approximation of the limiting shape built from finitely many scaled
    staircases (and the complement is reported by area only).
    """

    t: Fraction
    exact: bool
    polygon: ShapePolygon | None
    area: Fraction
    staircase_vertices: tuple | None


def _plane_ideal(family, m: int) -> MonomialIdeal:
    """Member m in the plane: a one-variable member padded once and kept on
    it (`MonomialIdeal._plane`), with its staircase; more than three
    variables are refused."""
    I = family.ideal(m)
    if I.nvars > 3:
        raise UnsupportedDimensionError(
            f"{family.label}: shape computations need at most 3 variables, got {I.nvars}"
        )
    return I._plane if I.nvars == 1 else I


def _exact_pair(shape, t: Fraction) -> tuple:
    """Both closed-form results, built reduced from one cut of the chain's
    planar graph, with one shoelace for both areas.

    A chain and a first-difference graph are one object under
    (x, y) -> (x + y, x), the inverse of `planar.gamma_vertices`' map.  On
    the scale S = L * den(t), where t is T = num(t) * L, the graph's image
    is (x + y, x) of each image point, then for a chain ending off the
    y-axis (max(T, last X) + 1, x_n).  The map is sound: a validated chain
    never lowers x + y, so its graph is x-monotone; the map has determinant
    -1, so areas are kept; the vertical ray becomes a horizontal segment
    past t, so such a chain is always cut.

    Gamma is the part of the triangle x, y >= 0, x + y <= t below the chain,
    delta the part on or above it.  For t <= x_0 gamma is the triangle (the
    origin at t = 0) and delta is empty, or at t = x_0 the chain's points on
    the line: its first vertex, and its second when the first slope is -1.
    For t > x_0 the walk is the graph cut at t, keeping the points at t
    (`right`), mapped back; gamma is the origin, the walk, then (0, t) when
    cut, and delta is walk[0], (t, 0), then (0, t) when uncut unless the
    walk ends there, then the walk back to walk[1].

    Neither repeats or aligns a point, so `_reduce` is not run.  Along the
    walk x falls and y rises strictly, and the slopes strictly steepen; only
    the first segment may keep x + y, hence the case t = x_0.  For t > x_0
    every walk point after walk[0] has y > 0 and all but the last lie
    strictly below the line; `_cut` appends its point only when it is not
    the last vertex kept, and a cut walk ends at x > 0, so a closing (0, t)
    repeats nothing, but for delta's at the top of a chain ending on the
    y-axis, which is dropped.  Every three consecutive points turn: at the
    origin, (t, 0) and walk[0] an axis meets a point off it, at (0, t) the
    line meets the y-axis, and at a later walk point the chain turns or
    meets the line, which no segment after the first runs along.  The lone
    vertex (0, 0), the one chain starting at the origin, leaves gamma the
    origin alone.

    Gamma is counter-clockwise with twice-area w on its image, and the two
    tile the triangle, so delta's area is (T^2 - w) / (2 S^2)."""
    ints, L = shape._image
    q, T, S = t.denominator, t.numerator * L, L * t.denominator
    if T <= q * ints[0][0]:
        delta = [(q * x, q * y) for x, y in ints[:2] if q * (x + y) == T]
        gamma = [(0, 0), (T, 0), (0, T)] if T else [(0, 0)]
    else:
        graph = [(q * (x + y), q * x) for x, y in ints]
        if ints[-1][0]:  # the vertical ray
            graph.append((max(T, graph[-1][0]) + 1, graph[-1][1]))
        cut = _cut(graph, S, t, right=True)
        if cut:
            graph, S = cut
        T = t.numerator * (S // q)
        walk = [(y, x - y) for x, y in graph]
        gamma = [(0, 0)] * (ints[0][0] > 0) + walk + [(0, T)] * bool(cut)
        delta = [walk[0], (T, 0)] + [(0, T)] * (not cut and walk[-1] != (0, T)) + walk[:0:-1]
    delta, gamma = ShapePolygon._of(delta, S), ShapePolygon._of(gamma, S)
    twice, den = gamma._twice_area()
    return (ShapeResult(t, True, delta, Fraction(T * T - twice, den), shape.vertices),
            ShapeResult(t, True, gamma, Fraction(twice, den), shape.vertices))


def _staircase_hull(stair: list, tD: int) -> list:
    """The strict CCW hull of a nonempty staircase (x rising, y falling) on
    or below x + y = tD and of that line's points A = (x_lo, tD - x_lo) and
    B = (tD - y_lo, y_lo), x_lo and y_lo the least x and y.

    Every point lies in the triangle x >= x_lo, y >= y_lo, x + y <= tD with
    top vertices A and B, and stair[0] is the lowest on its left side.  So
    the upper hull is B, A (A dropped when it is stair[0]), then down the
    left side; the lower hull, from stair[0] to B over strictly increasing
    x with A above stair[0], is `_half_chain(stair + [B])`, which drops a
    last corner equal to B.  They meet in strict turns: the lower hull's
    last corner before B lies strictly below the line (a corner on it lies
    above the segment from stair[0] to B, or, when stair[0] = A, on the
    line, where the chain drops it), and at A and stair[0] the vertical
    meets a point off it.  A == B only for a lone corner on the line."""
    (x_lo, _), (_, y_lo) = stair[0], stair[-1]
    A, B = (x_lo, tD - x_lo), (tD - y_lo, y_lo)
    if A == B:
        return [A]
    return _half_chain(stair + [B])[:-1] + [B] + [A] * (A != stair[0])


def _inner_pair(family, t: Fraction, max_m: int) -> tuple:
    """The inner approximation (see `limiting_shape`) and its complement,
    reported by area only: t^2/2 - area(delta), as ((tD)^2 - w) / (2 D^2)
    from the hull's twice-area w.  max_m is charged to the "walk" budget
    before D is formed.

    A two-variable member gives its corners on or below x + y = tD, scaled
    by k = D/m; of all of them the hull takes the union staircase (in
    lexicographic order a corner stays when its y drops below every kept y)
    and two points of that line, (x_lo, tD - x_lo) and (tD - y_lo, y_lo),
    x_lo and y_lo the least x and y of the staircase, read off it by
    `_staircase_hull`.  Its strict hull is that of every corner and both its
    projections onto the line: a dropped corner p has a staircase corner
    q <= p, so it lies in the triangle of q and q's projections; and a
    projection of any corner q, (q_x, tD - q_x) say, lies between the two
    line points, as x_lo <= q_x and q_x + y_lo <= q_x + q_y <= tD.  A
    three-variable member gives each of its boxes' corners and both
    projections onto that box's hypotenuse, hulled by Andrew's monotone
    chain."""
    charge("walk", max_m, family.label)
    D = lcm(*range(1, max_m + 1)) * t.denominator
    tD = t.numerator * (D // t.denominator)
    points, corners = [], []
    for m in range(1, max_m + 1):
        k = D // m  # sD = k * (m*t - last) is the generator's slack times D
        I = _plane_ideal(family, m)
        if I.nvars == 2:
            corners += [(a * k, b * k) for a, b in zip(*I._staircase) if k * (a + b) <= tD]
            continue
        for (p0, p1), sD in _boxes(I.gens, tD, k):
            x, y = p0 * k, p1 * k
            points += ((x, y), (x, sD - x), (sD - y, y))
    if corners:
        stair = []
        for p in sorted(corners):
            if not stair or p[1] < stair[-1][1]:
                stair.append(p)
        hull = _staircase_hull(stair, tD)
    else:  # every member in three variables, or no corner below the line
        hull = _monotone_chain(sorted(set(points)))
    # a strictly convex hull (or at most two points): the reduction keeps
    # every vertex, so it is not run
    poly = ShapePolygon._of(hull, D)
    twice, den = poly._twice_area()  # counter-clockwise, so twice >= 0
    return (ShapeResult(t, False, poly, Fraction(twice, den), None),
            ShapeResult(t, False, None, Fraction(tD * tD - twice, den), None))


def _shape_pair(family, t, max_m: int) -> tuple:
    """(delta, gamma) at t, computed once and kept in `family._shapes`:
    under t for a closed form, under (t, max_m) for an inner approximation."""
    t = _nonnegative(parse_rational(t))
    max_m = _check_at_least(max_m, "max_m")
    shape = getattr(family, "exact_shape", None)
    key = t if shape is not None else (t, max_m)
    pair = family._shapes.get(key)
    if pair is None:
        pair = family._shapes[key] = (_exact_pair(shape, t) if shape is not None
                                      else _inner_pair(family, t, max_m))
    return pair


def limiting_shape(family, t, max_m: int = 16) -> ShapeResult:
    """Limiting shape at parameter t as a polygon in the exponent plane.

    Exact for families carrying a closed form; otherwise the convex hull of
    the scaled staircases for m <= max_m, an inner approximation that is
    non-decreasing in max_m.  That hull is taken in integers on the common
    scale D = lcm(1..max_m) * den(t), where every corner point of NP(I_m)/m
    is integral.  The area is read off the integer hull, |shoelace|/(2D^2),
    and only its vertices (never repeated or collinear) are divided by D.
    The shape and its complement are computed together, once per family
    and t (and max_m for inner approximations).
    """
    return _shape_pair(family, t, max_m)[0]


def gamma_limit(family, t, max_m: int = 16) -> ShapeResult:
    """Complement of the limiting shape inside the simplex of bound t."""
    return _shape_pair(family, t, max_m)[1]


def waldschmidt_from_shape(result: ShapeResult) -> Fraction:
    """Axis intercept of an exact shape: where shape and complement meet the
    first axis.  Refuses inner approximations."""
    if not result.exact or result.staircase_vertices is None:
        raise ValueError("Waldschmidt from shape needs an exact limiting shape")
    x, y = result.staircase_vertices[0]
    if y != 0:
        raise ValueError("staircase chain must start on the x-axis")
    return x if type(x) is Fraction else Fraction(x)


def areg_from_shape(result: ShapeResult) -> Fraction:
    """Largest coordinate sum over the extremal points of an exact shape: the
    last one's, since x + y never decreases along its chain."""
    if not result.exact or result.staircase_vertices is None:
        raise ValueError("asymptotic regularity from shape needs an exact shape")
    if not result.staircase_vertices:
        raise ValueError("shape has no extremal points below the simplex bound")
    x, y = result.staircase_vertices[-1]
    value = x + y
    return value if type(value) is Fraction else Fraction(value)


def shape_json(family, t, max_m: int) -> dict:
    """The `shape` payload: the limiting shape and its complement at t, and
    for a closed form its chain and the two invariants read off the shape."""
    delta, gamma = limiting_shape(family, t, max_m), gamma_limit(family, t, max_m)
    out = {
        "label": family.label,
        "t": format_rational(delta.t),
        "exact": delta.exact,
        "delta_vertices": delta.polygon.to_json(),
        "gamma_vertices": gamma.polygon.to_json() if gamma.polygon else [],
        "gamma_area": format_rational(gamma.area),
    }
    if delta.exact:
        out["staircase_vertices"] = [list(map(format_rational, p)) for p in delta.staircase_vertices]
        out["waldschmidt"] = format_rational(waldschmidt_from_shape(delta))
        out["areg"] = format_rational(areg_from_shape(delta))
    return out


def waldschmidt(family, max_m: int) -> dict:
    """The `waldschmidt` payload: a closed form's constant, its chain's
    x-intercept (`method` "shape"), else the infimum of `waldschmidt_estimate`
    over the members up to max_m, with its values (`method` "estimate")."""
    shape = family.exact_shape
    if shape is not None:
        _check_at_least(max_m, "max_m")
        return {"label": family.label, "method": "shape", "value": format_rational(shape.vertices[0][0])}
    est = waldschmidt_estimate(family, max_m)
    return {"label": family.label, "method": "estimate", "value": format_rational(est.inf_value),
            "max_m": max_m, "values": [[m, format_rational(v)] for m, v in est.values]}


def areg(family, max_m: int) -> dict:
    """The `areg` payload: a closed form's asymptotic regularity, its chain's
    last coordinate sum, as x + y never decreases along it (`method` "shape"),
    else the tail of `areg_estimate` over the members up to max_m, per residue
    for a periodic family (`method` "estimate")."""
    shape = family.exact_shape
    if shape is not None:
        _check_at_least(max_m, "max_m")
        return {"label": family.label, "method": "shape", "value": format_rational(sum(shape.vertices[-1]))}
    est = areg_estimate(family, max_m)
    out = {"label": family.label, "method": "estimate", "max_m": max_m,
           "liminf": format_rational(est.liminf), "limsup": format_rational(est.limsup),
           "oscillating": est.oscillating, "diverging": est.diverging,
           "tolerance": format_rational(est.tolerance)}
    if est.residue_values:
        out["residue_values"] = [[r, format_rational(v)] for r, v in est.residue_values]
    return out


@dataclass(frozen=True)
class AhfResult:
    """Value of the asymptotic Hilbert function with convergence diagnostics.

    `samples` lists (m, lattice count of the complement region, count/m^2) in
    the exponent plane; for exact families the value is the complement area.
    """

    t: Fraction
    value: Fraction
    exact: bool
    samples: tuple

    def to_json(self) -> dict:
        return {"t": format_rational(self.t), "value": format_rational(self.value), "exact": self.exact,
                "samples": [[m, count, format_rational(ratio)] for m, count, ratio in self.samples]}


def ahf(family, t, max_m: int = 16) -> AhfResult:
    """The complement area of the limiting shape at t and the samples for
    m = 1..max_m.  Before any member or shape is built, max_m is charged to
    the "walk" budget and, for a two-variable closed form, the sum of its
    members' generators `columns(m)` to the "ahf columns" budget.  Each
    sample is the member's Hilbert function at floor(m*t): a two-variable
    member's is read off its cached staircase corners, a three-variable
    member's is `hilbert_function`, which charges its own numerator."""
    t = _nonnegative(parse_rational(t))
    p, q = t.numerator, t.denominator
    max_m = _check_at_least(max_m, "max_m")
    charge("walk", max_m, family.label)
    shape = family.exact_shape
    if shape is not None and family.nvars == 2:
        charge("ahf columns", sum(shape.columns(m) for m in range(1, max_m + 1)), max_m)
    gamma = gamma_limit(family, t, max_m)
    samples = []
    for m in range(1, max_m + 1):
        I, d = _plane_ideal(family, m), m * p // q  # floor(m*t)
        count = (comb(d + 2, 2) - _corner_count(*I._staircase, d) if I.nvars == 2
                 else hilbert_function(I, d))
        samples.append((m, count, Fraction(count, m * m)))
    return AhfResult(t, gamma.area, gamma.exact, tuple(samples))
