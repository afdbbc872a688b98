"""Reduction vectors and first-difference graphs for planar point/line data.

A configuration is a list of per-line point counts, strictly decreasing, with
an optional variant of exactly two lines sharing one extra point at their
intersection.  The reduction step repeatedly picks the line whose points
carry the largest multiplicity sum (weight), records that weight, and lowers
every multiplicity on the line by one.  For disjoint lines the recorded
sequence is exactly the descending merge of the arithmetic progressions
a_i*m, a_i*(m-1), ..., a_i.  The shared point adds the same weight to both
lines, so it never changes which line is picked: the shared variant records
that same merge plus max(m - k, 0) on the k-th pick (counting from 0).
`reduction_vector` builds both by one sort of the ascending progressions;
the test-suite checks it against a step simulator with pluggable
tie-breaking.

The graph extractor takes the lattice path (k, k + u_{k+1}) of the recorded
entries and keeps its lower-left convex hull scaled by 1/m.  At multiplicity
divisible by the configuration's modulus the hull breakpoints are exactly the
closed-form vertex chain: the number of entries above w is at least a convex
piecewise-linear function of w, and equals it at each of its breaks (see
`dhf_envelope`).  So the extractor returns the closed form itself for an
exact vector that `reduction_vector` built, and hulls any other vector by a
sampled search that checks every entry.

Hulls and the closed form run on integers, and each graph is that integer
image with its scale; the closed form is built reduced and with its
x-monotonicity, both proved in `_closed_graph`, so neither is recomputed.
Cuts at t and the gamma map are `geometry`'s kernels on the image, which the
closed-form shapes share (a cut lands on its scale times den(t) and the cut
segment's dx); every area runs on the image too, so a Fraction is built only
for a value, an area, or a vertex when first read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import chain, compress, repeat
from math import lcm
from operator import add, lt, mul

from .geometry import ShapePolygon, _at, _cross, _cut, _gamma_image, _half_chain, _Imaged
from .ideals import _check_at_least, _check_int
from .rationals import parse_rational
from .work import WorkBudgetError, charge

__all__ = [
    "LineConfiguration",
    "ReductionVector",
    "PLGraph",
    "validate_configuration",
    "divisibility_modulus",
    "reduction_vector",
    "dhf_envelope",
    "dhf_vertices_closed_form",
    "two_line_vertices",
    "gamma_vertices",
    "area_under_graph",
    "WorkBudgetError",
]


@dataclass(frozen=True)
class LineConfiguration:
    """Point counts per line; `shared_intersection` adds one common point to
    exactly two lines (requires a1*a2 > a1 + a2).  Every configuration is
    checked when built, so `reduction_vector` and the closed form read only
    checked ones: the number of lines against the "lines" budget, each count
    through `_check_int`, the flag True or False."""

    counts: tuple
    shared_intersection: bool = False

    def __post_init__(self):
        counts, shared = tuple(self.counts), self.shared_intersection
        charge("lines", len(counts))
        cs = tuple(_check_int(a, "point count") for a in counts)
        if not cs:
            raise ValueError("configuration needs at least one line")
        if any(a < 1 for a in cs):
            raise ValueError(f"point counts must be positive: {cs}")
        if shared is not True and shared is not False:
            raise ValueError(f"shared_intersection must be True or False, got {shared!r}")
        if shared:
            if len(cs) != 2:
                raise ValueError("shared-intersection variant needs exactly two lines")
            a1, a2 = cs
            if a1 < a2:
                raise ValueError(f"counts must be non-increasing: {cs}")
            if a1 * a2 <= a1 + a2:
                raise ValueError(f"need a1*a2 > a1+a2, got {a1}*{a2} = {a1 * a2} <= {a1 + a2}")
        elif any(x <= y for x, y in zip(cs, cs[1:])):
            raise ValueError(f"counts must be strictly decreasing: {cs}")
        object.__setattr__(self, "counts", cs)


def validate_configuration(counts, shared_intersection: bool = False) -> LineConfiguration:
    """The checked configuration of `counts`: `LineConfiguration` checks."""
    return LineConfiguration(counts, shared_intersection)


def divisibility_modulus(config: LineConfiguration) -> int:
    """Smallest multiplicity modulus making the envelope breakpoints exact."""
    if config.shared_intersection:
        a1, a2 = config.counts
        return lcm(a1, a2, a1 + a2)
    return lcm(*config.counts)


@dataclass(frozen=True)
class ReductionVector:
    """Recorded line weights in pick order, plus one terminal zero.

    `exact` marks multiplicities divisible by the modulus of `config`, where
    the scaled envelope provably matches the closed-form chain.  Only
    `reduction_vector` sets `_trusted`, on the exact vectors it built, and
    `dhf_envelope` returns the closed form for them without reading an
    entry.  It is no constructor argument, so `dataclasses.replace` leaves it
    False.
    """

    entries: tuple
    multiplicity: int
    exact: bool
    config: LineConfiguration | None = field(default=None, compare=False, repr=False)
    _trusted: bool = field(default=False, init=False, compare=False, repr=False)


def reduction_vector(
    config: LineConfiguration, m: int, approximate: bool = False
) -> ReductionVector:
    m = _check_at_least(m, "multiplicity m")
    base = lcm(*config.counts)
    if m % base != 0 and not approximate:
        raise ValueError(
            f"m={m} not divisible by lcm{config.counts} = {base}; "
            "pass approximate=True to run anyway"
        )
    # lines * m entries; the shared variant records 2m against a bound of 3m,
    # counting the shared point's m units as the step simulator did
    charge("entries", (len(config.counts) + config.shared_intersection) * m, m)
    # greedy order equals the descending merge of each line's progression:
    # one sort of the ascending runs, reversed in place
    entries: list = []
    for a in config.counts:
        entries.extend(range(a, a * m + 1, a))
    entries.sort()
    entries.reverse()
    if config.shared_intersection:
        # the shared point weighs m - k on the k-th pick, the same on both lines
        entries[:m] = map(add, entries[:m], range(m, 0, -1))
    entries.append(0)
    exact = m % divisibility_modulus(config) == 0
    vec = ReductionVector(tuple(entries), m, exact, config)
    object.__setattr__(vec, "_trusted", exact)
    return vec


@dataclass(frozen=True)
class PLGraph(_Imaged):
    """Piecewise-linear chain through exact rational vertices.

    Valid first-difference graphs start at (0,0), climb with slope one to the
    diagonal corner, then descend to the x-axis; `is_function` reports
    whether x is non-decreasing.  The closed form of disjoint lines a_i is
    x-monotone exactly when the sum of the 1/a_i is at most 1 (its x-steps are
    (a_i - a_(i+1)) * (1 - 1/a_1 - ... - 1/a_i)), and a shared pair's always
    is, so a closed form stores `is_function` when built; a folded chain is
    still comparable vertex-for-vertex.
    Cuts, values and areas run on the integer image.
    """

    vertices: tuple

    @staticmethod
    def _reduce(ints) -> list:
        """Indices of the integer points kept: no repeat of the previous
        point, and no middle point of a collinear run."""
        keep: list = []
        for i, q in enumerate(ints):
            if keep and q == ints[keep[-1]]:
                continue
            while len(keep) >= 2 and _cross(ints[keep[-2]], ints[keep[-1]], q) == 0:
                keep.pop()
            keep.append(i)
        return keep

    @cached_property
    def is_function(self) -> bool:
        P = self._image[0]
        return all(p[0] <= q[0] for p, q in zip(P, P[1:]))

    def value_at(self, x) -> Fraction:
        _, k, (_, y) = _at(*self._image, parse_rational(x), self.is_function)
        return Fraction(y, self._image[1] * k)

    def truncated(self, t) -> "PLGraph":
        """The chain cut at x = t, or itself when t is at or past the last x;
        a cut at a vertex's x ends at that vertex, or for a chain opening with
        a vertical segment at t, at the top of that segment."""
        cut = _cut(*self._image, parse_rational(t), self.is_function)
        return PLGraph._from_image(*cut) if cut else self

    def area(self, upto=None) -> Fraction:
        """Exact trapezoid area between the chain and the x-axis, summed on
        the image (of the truncated chain) and divided by 2 * L^2 once."""
        # a truncation of an x-monotone graph is x-monotone, so only self is checked
        cut = upto is not None and _cut(*self._image, parse_rational(upto), self.is_function)
        ints, L = cut or self._image
        if not self.is_function:
            raise ValueError("graph is not x-monotone")
        twice = sum((y0 + y1) * (x1 - x0) for (x0, y0), (x1, y1) in zip(ints, ints[1:]))
        return Fraction(twice, 2 * L * L)


# Of a vector it does not trust, `dhf_envelope` hulls every SAMPLE_STRIDE-th point
# first: on the planar-sweep pools of seeds 5 and 31 (CPython 3.11), 12-16 measured
# fastest of 4-48, and 0.5-2 times sqrt(len(entries)) slower.
SAMPLE_STRIDE = 16


def _below(entries, k1: int, e1: int, k2: int, e2: int):
    """Lazily for k1 < k < k2: is (k, e_k) strictly below (k1, e1)-(k2, e2)?"""
    dk, de = k2 - k1, e2 - e1
    c = e1 * dk - de * k1  # (k, e_k) is strictly below iff e_k*dk < c + de*k
    rhs = range(c + de * (k1 + 1), c + de * k2, de) if de else repeat(c)
    return map(lt, map(mul, entries[k1 + 1:k2], repeat(dk)), rhs)


def dhf_envelope(u: ReductionVector) -> PLGraph:
    """First-difference graph read off a reduction vector.

    Hull of the integer path (k, k + u_{k+1}); the x-coordinate as a function
    of the pick count is convex, so the lower hull keeps exactly the phase
    breakpoints, scaled by the multiplicity.  A slope-one diagonal from the
    origin closes the graph on the left.  The hull is taken on (k, e_k), a
    shear of the path with the same hull indices.

    For an exact vector that `reduction_vector` built, that hull is the
    closed-form chain, returned as the closed-form graph (`_closed_graph`)
    without reading an entry, on the closed form's scale:
    - Disjoint lines a_1, ..., a_n.  The entries above w number
      G(w) = sum_i max(0, m - floor(w/a_i)), at least
      g(w) = sum_i max(0, m - w/a_i), which is convex and decreasing.  The
      entry e_k has at most k entries above it, so every point (k, e_k), and
      so their hull, lies in the convex region {(k, w) : w >= 0, k >= g(w)}.
      The region's corners are (g(w), w) at g's breaks w = a_(i+1)*m,
      i = 0..n, with a_(n+1) = 0.  The modulus divides m, so each a_i divides
      m, and G = g there: each corner is the path's point at
      k = G(w) = S_i*m (S_i as in `_closed_graph`), a closed-form vertex.
      So the hull is the region's boundary, the closed-form chain.
    - Shared pair.  e_k = d_k + max(m - k, 0), d the vector of the disjoint
      lines (a_1, a_2).  The added term is convex with one break, at k = m,
      so the hull of e is the hull of d plus that term if d_m is on d's hull.
      It is: a_1 + a_2 divides m, so w = a_1*a_2*m/(a_1 + a_2) is an entry
      with G(w) = g(w) = m.  The hull's picks are k = 0, S_1*m, m and 2m.

    Any other vector is hulled by every SAMPLE_STRIDE-th point first, then
    by that hull's vertices and the points strictly below its edges.  That
    is exact, since a strict hull vertex lies strictly below every chord
    over it.
    """
    if u._trusted:
        return _closed_graph(u.config)
    entries, m = u.entries, u.multiplicity
    last = len(entries)  # the path ends at (last, 0), after the last nonzero entry
    while last and entries[last - 1] == 0:
        last -= 1
    if not last:
        return PLGraph._of([(0, 0)], 1)
    if last == len(entries):
        entries = (*entries, 0)
    sampled = zip(range(0, last, SAMPLE_STRIDE), entries[:last:SAMPLE_STRIDE])
    sample = _half_chain(chain(sampled, ((last, 0),)))
    kept = sample[:1]
    for (s1, f1), (s2, f2) in zip(sample, sample[1:]):
        below = compress(range(s1 + 1, s2), _below(entries, s1, f1, s2, f2))
        kept.extend([(k, entries[k]) for k in below])
        kept.append((s2, f2))
    return PLGraph._from_image([(0, 0), *((k + e, k) for k, e in reversed(_half_chain(kept)))], m)


def _closed_graph(config: LineConfiguration) -> PLGraph:
    """Vertex chain of the limiting first-difference graph, built from its
    integer image with `is_function` stored: both proved below, so neither
    `PLGraph._reduce` nor the scan of `is_function` is run.

    For disjoint lines, with a_{n+1} = 0, H_i = 1/a_1 + ... + 1/a_i and S_i
    the total scaled pick count needed to level the first i lines down to
    weight a_{i+1}, so that S_i = S_{i-1} + (a_i - a_{i+1}) H_i, the chain is
    (0,0), (n,n), then (a_{i+1} + S_i, S_i) for i = n-1 .. 1, then (a_1, 0).
    H_i and S_i are carried as integers times L = lcm(a_1..a_n), the scale.

    The chain is reduced as built: `PLGraph._reduce` would keep every
    point.  Its first step has direction (1, 1); the step into
    (a_i + S_(i-1), S_(i-1)) is (a_i - a_(i+1)) * (1 - H_i, -H_i), never
    zero as the counts strictly decrease.  Two such directions cross in
    H_i - H_j, never zero as H_i strictly rises, and each crosses (1, 1) in
    -1: no step is parallel to the next, so no point repeats and none is
    collinear with its neighbours.  The x-steps (a_i - a_(i+1)) * (1 - H_i) are all >= 0
    exactly when H_n <= 1, which is `is_function`.

    The shared pair's chain, over its scale L = a1 * (a1 + a2), is (0,0),
    (2,2), (1 + h, 1), (a2 + 1, 1 - a2/a1), (a1 + 1, 0) with
    h = a1*a2/(a1 + a2) > 1.  Its steps are 2 * (1, 1), (h - 1, -1),
    (a2^2/(a1 + a2), -a2/a1) and (a1 - a2) * (1, -1/a1), all with x >= 0,
    so the chain is x-monotone.  Their directions cross their successors'
    in -h, a2/a1 and a2/(a1 + a2), never zero, so only a1 = a2, zeroing the
    last step, repeats a point, and that point is dropped.
    """
    if config.shared_intersection:
        a1, a2 = config.counts
        L = a1 * (a1 + a2)
        ints, monotone = [(0, 0), (2 * L, 2 * L), ((a1 * a2 + a1 + a2) * a1, L),
                          ((a2 + 1) * L, (a1 - a2) * (a1 + a2)), ((a1 + 1) * L, 0)][:4 + (a1 > a2)], True
    else:
        a, L = config.counts + (0,), lcm(*config.counts)
        SD, HD = [0], 0
        for i in range(1, len(a)):
            HD += L // a[i - 1]
            SD.append(SD[-1] + (a[i - 1] - a[i]) * HD)
        ints, monotone = [(0, 0), *((a[i] * L + SD[i], SD[i]) for i in reversed(range(len(a))))], HD <= L
    graph = PLGraph._of(ints, L)
    graph.__dict__["is_function"] = monotone
    return graph


def dhf_vertices_closed_form(counts) -> PLGraph:
    """Vertex chain of the limiting first-difference graph for disjoint lines."""
    return _closed_graph(validate_configuration(counts))


def two_line_vertices(a1: int, a2: int) -> PLGraph:
    """Closed-form graph for two lines sharing one extra intersection point."""
    return _closed_graph(validate_configuration((a1, a2), shared_intersection=True))


def gamma_vertices(graph: PLGraph, t=None) -> ShapePolygon:
    """Boundary of the limiting-shape complement read off the graph: each
    point (x, y) of its image cut at t maps to (y, x-y), closed along the
    simplex edge back to (0, t) (`geometry._gamma_image`)."""
    t = None if t is None else parse_rational(t)
    return ShapePolygon._from_image(*_gamma_image(*graph._image, t, graph.is_function))


def area_under_graph(graph: PLGraph, t=None) -> Fraction:
    return graph.area(upto=t)
