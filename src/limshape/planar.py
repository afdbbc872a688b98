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
`reduction_vector` builds both by a sort; the test-suite checks it against a
step simulator with pluggable tie-breaking.

The graph extractor takes the lattice path (k, k + u_{k+1}) of the recorded
entries and keeps its lower-left convex hull scaled by 1/m.  At multiplicity
divisible by every line count the hull breakpoints coincide exactly with the
closed-form vertex chain, which is the oracle the test-suite enforces.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, compress, repeat
from math import lcm
from operator import add, gt, sub

from .geometry import ShapePolygon
from .ideals import WorkBudgetError, _check_int

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

MAX_REDUCTION_ENTRIES = 10**6


@dataclass(frozen=True)
class LineConfiguration:
    """Point counts per line; `shared_intersection` adds one common point to
    exactly two lines (requires a1*a2 > a1 + a2)."""

    counts: tuple
    shared_intersection: bool = False

    @classmethod
    def make(cls, counts, shared_intersection: bool = False) -> "LineConfiguration":
        cs = tuple(_check_int(a, "point count") for a in counts)
        if not cs:
            raise ValueError("configuration needs at least one line")
        if any(a < 1 for a in cs):
            raise ValueError(f"point counts must be positive: {cs}")
        if shared_intersection:
            if len(cs) != 2:
                raise ValueError("shared-intersection variant needs exactly two lines")
            a1, a2 = cs
            if a1 < a2:
                raise ValueError(f"counts must be non-increasing: {cs}")
            if a1 * a2 <= a1 + a2:
                raise ValueError(
                    f"need a1*a2 > a1+a2, got {a1}*{a2} = {a1 * a2} <= {a1 + a2}"
                )
        else:
            if any(x <= y for x, y in zip(cs, cs[1:])):
                raise ValueError(f"counts must be strictly decreasing: {cs}")
        return cls(cs, shared_intersection)

    @property
    def total_points(self) -> int:
        return sum(self.counts) + (1 if self.shared_intersection else 0)


def validate_configuration(counts, shared_intersection: bool = False) -> LineConfiguration:
    return LineConfiguration.make(counts, shared_intersection)


def divisibility_modulus(config: LineConfiguration) -> int:
    """Smallest multiplicity modulus making the envelope breakpoints exact."""
    if config.shared_intersection:
        a1, a2 = config.counts
        return lcm(a1, a2, a1 + a2)
    return lcm(*config.counts)


@dataclass(frozen=True)
class ReductionVector:
    """Recorded line weights in pick order, plus one terminal zero.

    `exact` marks multiplicities divisible by the configuration's modulus,
    where the scaled envelope provably matches the closed-form chain.
    """

    entries: tuple
    multiplicity: int
    exact: bool


def reduction_vector(
    config: LineConfiguration, m: int, approximate: bool = False
) -> ReductionVector:
    if m < 1:
        raise ValueError("multiplicity m must be >= 1")
    base = lcm(*config.counts)
    if m % base != 0 and not approximate:
        raise ValueError(
            f"m={m} not divisible by lcm{config.counts} = {base}; "
            "pass approximate=True to run anyway"
        )
    # lines * m entries; the shared variant records 2m against a bound of 3m,
    # counting the shared point's m units as the step simulator did
    size = (len(config.counts) + config.shared_intersection) * m
    if size > MAX_REDUCTION_ENTRIES:
        raise WorkBudgetError(f"m={m} needs {size} entries, over {MAX_REDUCTION_ENTRIES}")
    # greedy order equals the descending merge of each line's progression
    entries = sorted(
        chain.from_iterable([range(a * m, 0, -a) for a in config.counts]), reverse=True
    )
    if config.shared_intersection:
        # the shared point weighs m - k on the k-th pick, the same on both lines
        entries = map(add, entries, chain(range(m, 0, -1), repeat(0)))
    exact = m % divisibility_modulus(config) == 0
    return ReductionVector(tuple(entries) + (0,), m, exact)


@dataclass(frozen=True)
class PLGraph:
    """Piecewise-linear chain through exact rational vertices.

    Valid first-difference graphs start at (0,0), climb with slope one to the
    diagonal corner, then descend to the x-axis; `is_function` reports
    whether x is non-decreasing (configurations with too few points per line
    produce folded chains, which are still comparable vertex-for-vertex).
    """

    vertices: tuple

    @classmethod
    def make(cls, points) -> "PLGraph":
        out: list = []
        for x, y in points:
            p = (x if type(x) is Fraction else Fraction(x),
                 y if type(y) is Fraction else Fraction(y))
            if out and p == out[-1]:
                continue
            while len(out) >= 2 and _collinear(out[-2], out[-1], p):
                out.pop()
            out.append(p)
        return cls(tuple(out))

    @cached_property
    def is_function(self) -> bool:
        v = self.vertices
        return all(p[0] <= q[0] for p, q in zip(v, v[1:]))

    def value_at(self, x) -> Fraction:
        x = Fraction(x)
        v = self.vertices
        if not self.is_function:
            raise ValueError("graph is not x-monotone")
        if not v or x < v[0][0] or x > v[-1][0]:
            raise ValueError(f"x={x} outside graph range")
        for (x0, y0), (x1, y1) in zip(v, v[1:]):
            if x0 <= x <= x1:
                if x1 == x0:
                    return y1
                return y0 + (y1 - y0) * (x - x0) / (x1 - x0)
        return v[-1][1]

    def truncated(self, t) -> "PLGraph":
        t = Fraction(t)
        v = self.vertices
        if t >= v[-1][0]:
            return self
        cut = (t, self.value_at(t))
        # the vertices are already reduced, and a cut strictly inside the last
        # kept segment is never collinear with it; a cut at a vertex's x is
        # that vertex, or for a chain opening with a vertical segment at t,
        # the top of that segment
        kept = [p for p in v if p[0] < t] or [v[0]]
        if kept[-1] != cut:
            kept.append(cut)
        return PLGraph(tuple(kept))

    def area(self, upto=None) -> Fraction:
        """Exact trapezoid area between the chain and the x-axis."""
        # a truncation of an x-monotone graph is x-monotone, so only self is checked
        v = self.vertices if upto is None else self.truncated(upto).vertices
        if not self.is_function:
            raise ValueError("area needs an x-monotone graph")
        return Fraction(sum((y0 + y1) * (x1 - x0) for (x0, y0), (x1, y1) in zip(v, v[1:])), 2)


def _collinear(a, b, c) -> bool:
    return (b[0] - a[0]) * (c[1] - a[1]) == (b[1] - a[1]) * (c[0] - a[0])


def dhf_envelope(u: ReductionVector) -> PLGraph:
    """First-difference graph read off a reduction vector.

    Hull of the integer path (k, k + u_{k+1}); the x-coordinate as a function
    of the pick count is convex, so the lower hull keeps exactly the phase
    breakpoints, scaled by the multiplicity.  A slope-one diagonal from the
    origin closes the graph on the left.
    """
    entries = list(u.entries)
    while entries and entries[-1] == 0:
        entries.pop()
    m = u.multiplicity
    if not entries:
        return PLGraph.make([(0, 0)])
    entries.append(0)
    # the slope from k-1 to k is 1 - gap_k with gap_k = e_(k-1) - e_k, so an
    # interior point whose gap does not exceed the next one lies on or above
    # the chord of its neighbours and cannot be a strict hull vertex
    gaps = list(map(sub, entries, entries[1:]))
    ks = compress(range(len(entries)), chain((True,), map(gt, gaps, gaps[1:]), (True,)))
    hull: list = []  # (k, x) with x convex in k
    for k in ks:
        x = k + entries[k]
        while len(hull) >= 2:
            (k1, x1), (k2, x2) = hull[-2], hull[-1]
            # drop the middle point when it lies on or above the new chord
            if (x2 - x1) * (k - k1) >= (x - x1) * (k2 - k1):
                hull.pop()
            else:
                break
        hull.append((k, x))
    verts = [(Fraction(0), Fraction(0))]
    verts.extend((Fraction(x, m), Fraction(k, m)) for k, x in reversed(hull))
    return PLGraph.make(verts)


def dhf_vertices_closed_form(counts) -> PLGraph:
    """Vertex chain of the limiting first-difference graph for disjoint lines.

    With a_{n+1} = 0 and S_i the total scaled pick count needed to level the
    first i lines down to weight a_{i+1}, the chain is
    (0,0), (n,n), then (a_{i+1} + S_i, S_i) for i = n-1 .. 1, then (a_1, 0).
    """
    config = LineConfiguration.make(counts)
    a = list(config.counts) + [0]
    n = len(config.counts)
    S = [Fraction(0)] * (n + 1)
    harmonic = Fraction(0)
    for i in range(1, n + 1):
        harmonic += Fraction(1, a[i - 1])
        S[i] = S[i - 1] + (a[i - 1] - a[i]) * harmonic
    verts = [(Fraction(0), Fraction(0))]
    verts.extend((a[i] + S[i], S[i]) for i in range(n, -1, -1))
    return PLGraph.make(verts)


def two_line_vertices(a1: int, a2: int) -> PLGraph:
    """Closed-form graph for two lines sharing one extra intersection point."""
    config = LineConfiguration.make((a1, a2), shared_intersection=True)
    a1, a2 = config.counts
    if a1 > a2:
        verts = [
            (0, 0),
            (2, 2),
            (Fraction(a1 * a2 + a1 + a2, a1 + a2), 1),
            (a2 + 1, Fraction(a1 - a2, a1)),
            (a1 + 1, 0),
        ]
    else:
        verts = [(0, 0), (2, 2), (Fraction(a1 + 2, 2), 1), (a1 + 1, 0)]
    return PLGraph.make(verts)


def gamma_vertices(graph: PLGraph, t=None) -> ShapePolygon:
    """Boundary of the limiting-shape complement read off the graph.

    Each graph point (x, y) with x <= t maps to the boundary point (y, x-y);
    truncation closes the region along the simplex edge back to (0, t).
    """
    verts = graph.vertices
    if t is None or Fraction(t) >= verts[-1][0]:
        pts = verts
        closing = None
    else:
        t = Fraction(t)
        pts = graph.truncated(t).vertices
        closing = (Fraction(0), t)
    out = [(y, x - y) for x, y in pts]
    if closing is not None and (not out or out[-1] != closing):
        out.append(closing)
    return ShapePolygon.make(out)


def area_under_graph(graph: PLGraph, t=None) -> Fraction:
    return graph.area(upto=t)
