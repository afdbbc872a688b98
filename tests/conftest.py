"""Shared oracles for the test-suite.

Each oracle recomputes a quantity by a method independent of the
production code path: Hilbert functions by brute monomial enumeration,
Hilbert-series numerators by slicing on the first variable down to one,
Hilbert polynomials by expanding one product of linear factors per
numerator term, staircase volumes in every dimension by inclusion-exclusion
over corner boxes, staircase areas by sweeping vertical strips, staircase
lattice counts by slicing into columns and merging intervals,
Borel-fixedness by scanning every monomial of the ideal up to a degree
bound, membership by testing divisibility by every generator, polygon and
graph vertices, cuts, areas and convexity in Fractions, the closed-form
graph from harmonic Fractions, closed-form shapes cut with every repeat and
collinear point and then reduced, reduction vectors by stepping the reduction,
inner approximations by hulling every point of every member padded to three
variables, a polygon built from its image against the one built from its
vertices, SVG scenes by mapping every point in Fractions, closed-form
shapes by walking the chain in Fractions, and limit estimates by comparing
Fraction values.
"""

from __future__ import annotations

import copy
import pickle
import random
from dataclasses import FrozenInstanceError
from fractions import Fraction
from itertools import combinations, groupby
from math import factorial, lcm
from operator import itemgetter

import pytest
from math import ceil

from hypothesis import settings
from hypothesis import strategies as st

from limshape import (ExactShape, IntegerPolynomial, MonomialIdeal, ShapePolygon, convex_hull, format_rational,
                      staircase_region)
from limshape.families import LimitEstimate
from limshape.geometry import _corner_count, _cut
from limshape.rationals import _ZERO

# every property test draws the same examples on every run
settings.register_profile("limshape", derandomize=True, deadline=None)
settings.load_profile("limshape")


def compositions(total: int, parts: int):
    """All tuples of `parts` non-negative integers summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in compositions(total - head, parts - 1):
            yield (head,) + rest


def brute_hf(I: MonomialIdeal, d: int) -> int:
    """Hilbert function by enumerating every degree-d monomial."""
    count = 0
    for mono in compositions(d, I.nvars):
        if not any(all(g[i] <= mono[i] for i in range(I.nvars)) for g in I.gens):
            count += 1
    return count


def slicing_numerator(gens, nvars: int) -> dict:
    """Numerator {degree: coeff} of HS(S/I), zero coefficients dropped.

    Slicing on x_0: S/I is the direct sum over k >= 0 of x_0^k * S'/I_k, where
    I_k is generated by the tails g[1:] of the generators with g[0] <= k.
    I_k changes only at the distinct first exponents a_0 < ... < a_r, so
    N = 1 + sum_j t^(a_j) * (N(I_(a_j)) - N(I_(a_(j-1)))) with N(I_(a_(-1))) = 1.
    The tails are not minimalized: the formula needs only generators of I_k,
    and redundant tails cost less than removing them.  The recursion depth
    is nvars.
    """
    if not gens:
        return {0: 1}
    if nvars == 1:
        e = min(g[0] for g in gens)
        return {} if e == 0 else {0: 1, e: -1}
    out = {0: 1}
    prev = {0: 1}
    tails: list = []
    for a, group in groupby(sorted(gens), key=itemgetter(0)):
        tails.extend(g[1:] for g in group)
        cur = slicing_numerator(tails, nvars - 1)
        for e, c in cur.items():
            out[a + e] = out.get(a + e, 0) + c
        for e, c in prev.items():
            out[a + e] = out.get(a + e, 0) - c
        if not cur:  # a unit slice stays the unit ideal at every later a_j
            break
        prev = cur
    return {e: c for e, c in out.items() if c}


def expanded_hilbert_polynomial(numerator: dict, nvars: int) -> IntegerPolynomial:
    """sum_e c_e * C(t - e + n - 1, n - 1), expanding one product
    (t - e + 1) (t - e + 2) ... (t - e + n - 1) per numerator term."""
    acc = [0] * nvars
    for e, c in numerator.items():
        basis = [1]
        for k in range(1, nvars):  # times (t + k - e)
            basis = [x * (k - e) + y for x, y in zip(basis + [0], [0] + basis)]
        for i, b in enumerate(basis):
            acc[i] += c * b
    return IntegerPolynomial.from_coeffs(Fraction(a, factorial(nvars - 1)) for a in acc)


def divisible_by_a_generator(I: MonomialIdeal, mono) -> bool:
    """Membership straight from the definition, without `I.contains`."""
    return any(all(g[i] <= mono[i] for i in range(I.nvars)) for g in I.gens)


def borel_by_full_scan(I: MonomialIdeal, extra_degrees: int = 2) -> bool:
    """Exchange condition x_j -> x_i (every i < j) checked on every monomial of
    the ideal up to max generator degree + extra_degrees (not just the
    generators)."""
    top = I.max_generator_degree() + extra_degrees
    for d in range(top + 1):
        for mono in compositions(d, I.nvars):
            if not divisible_by_a_generator(I, mono):
                continue
            for j in range(I.nvars):
                if mono[j] == 0:
                    continue
                moved = list(mono)
                moved[j] -= 1
                for i in range(j):
                    moved[i] += 1
                    if not divisible_by_a_generator(I, moved):
                        return False
                    moved[i] -= 1
    return True


def volume_by_inclusion_exclusion(corners) -> Fraction:
    """Union volume of corner boxes {beta >= prefix, sum(beta) <= s} in any
    dimension k >= 1 via subsets: the boxes of a subset meet in the box of
    their coordinatewise largest prefix and least slack, a simplex of side
    s - |prefix| and volume side^k / k!."""
    total = Fraction(0)
    items = list(corners)
    for k in range(1, len(items) + 1):
        sign = 1 if k % 2 == 1 else -1
        for subset in combinations(items, k):
            prefix = [max(c) for c in zip(*(p for p, _ in subset))]
            side = min(Fraction(s) for _, s in subset) - sum(prefix)
            if side > 0:
                total += sign * side ** len(prefix) / factorial(len(prefix))
    return total


def merge_intervals(intervals: list) -> list:
    """The union of closed intervals (lo, hi) as disjoint sorted ones; an
    interval with hi < lo is empty."""
    out = []
    for lo, hi in sorted(intervals):
        if hi < lo:
            continue
        if out and lo <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], hi))
        else:
            out.append((lo, hi))
    return out


def slicing_lattice_count(corners, dim: int, dfloor: int) -> int:
    """Lattice points of a union of corner boxes with integer slacks; the
    corners need not form an antichain."""
    if dfloor < 0 or not corners:
        return 0
    if dim == 0:
        return 1
    if dim == 1:
        ivs = [(p[0], s) for p, s in corners]
        return sum(hi - lo + 1 for lo, hi in merge_intervals(ivs) if lo <= dfloor)
    s = corners[0][1]
    if dim == 2 and s <= dfloor and all(c[1] == s for c in corners):
        # single hypotenuse (every padded plane ideal): the prefixes' staircase
        return _corner_count(*MonomialIdeal(2, tuple(p for p, _ in corners))._staircase, s)
    # generic: slice along the first coordinate
    total = 0
    for a in range(dfloor + 1):
        sub = [(p[1:], s - a) for p, s in corners if p[0] <= a and s - a >= sum(p[1:])]
        total += slicing_lattice_count(sub, dim - 1, dfloor - a)
    return total


def sweep_area(corners: tuple) -> Fraction:
    """Exact area of a union of corner triangles {x>=p0, y>=p1, x+y<=s}
    with integer prefixes.

    Sweeps vertical strips cut at every combinatorial change; within a strip
    the column measure is linear in x, so the midpoint value integrates it
    exactly.  The sweep runs in integers on the scale L = 2 * lcm(slack
    denominators), where every cut is even and every midpoint an integer.
    """
    if not corners:
        return Fraction(0)
    L = 2 * lcm(*(s.denominator for _, s in corners))
    boxes = [(p0 * L, p1 * L, s.numerator * (L // s.denominator)) for (p0, p1), s in corners]
    lo = min(p0 for p0, _, _ in boxes)
    hi = max(s - p1 for _, p1, s in boxes)
    cuts = {p0 for p0, _, _ in boxes}
    cuts.update(s - q1 for _, _, s in boxes for _, q1, _ in boxes)
    xs = sorted(x for x in cuts if lo <= x <= hi)
    total = 0
    for x0, x1 in zip(xs, xs[1:]):
        xm = (x0 + x1) // 2
        ivs = [(p1, s - xm) for p0, p1, s in boxes if p0 <= xm and s - xm >= p1]
        total += (x1 - x0) * sum(b - a for a, b in merge_intervals(ivs))
    return Fraction(total, L * L)


def fraction_polygon_make(points) -> tuple:
    """The vertices `ShapePolygon.make` keeps, computed in Fractions: repeats
    of the previous point and a closing repeat dropped, then the first vertex
    collinear with its two cyclic neighbours removed, again and again."""
    out = []
    for x, y in points:
        p = (Fraction(x), Fraction(y))
        if not out or p != out[-1]:
            out.append(p)
    if len(out) > 1 and out[0] == out[-1]:
        out.pop()
    changed = True
    while changed and len(out) > 2:
        changed = False
        for i in range(len(out)):
            (ax, ay), (bx, by), (cx, cy) = out[i - 1], out[i], out[(i + 1) % len(out)]
            if (bx - ax) * (cy - ay) == (by - ay) * (cx - ax):
                out.pop(i)
                changed = True
                break
    return tuple(out)


def fraction_signed_area(vertices) -> Fraction:
    """Shoelace sum over consecutive vertices, in Fractions."""
    if len(vertices) < 3:
        return Fraction(0)
    twice = Fraction(0)
    for (x0, y0), (x1, y1) in zip(vertices, vertices[1:] + vertices[:1]):
        twice += x0 * y1 - x1 * y0
    return twice / 2


def assert_vertices_read_once(poly, oracle) -> None:
    """`poly`, built from its integer image, holds no vertices until they are
    read; a deep copy and a pickle round trip taken before then hold none
    either.  Read, they are all Fractions and equal `oracle`; `poly` and both
    copies equal, hash and print as the polygon built from them, and its
    `vertices` cannot be assigned."""
    assert "vertices" not in poly.__dict__
    copies = [copy.deepcopy(poly), pickle.loads(pickle.dumps(poly))]
    assert not any("vertices" in c.__dict__ for c in copies)
    vertices = poly.vertices
    assert vertices == tuple(oracle) and all(type(c) is Fraction for p in vertices for c in p)
    assert poly.vertices is vertices  # built once
    ref = type(poly)(vertices)
    for c in [poly, *copies, copy.deepcopy(poly), pickle.loads(pickle.dumps(poly))]:
        assert (c, hash(c), repr(c)) == (ref, hash(ref), repr(ref))
    with pytest.raises(FrozenInstanceError):
        poly.vertices = vertices


def fraction_chain_walk(vertices, t) -> tuple:
    """The chain's vertices with x + y <= t, then the point where it meets
    x + y = t, and whether it met it, all in Fractions.  Every slope is -1 or
    steeper, so x + y never decreases along the chain and one pass finds
    both; a chain ending off the y-axis goes on up a vertical ray, which
    always meets the line."""
    t = Fraction(t)
    walk = []
    for x, y in vertices:
        x, y = Fraction(x), Fraction(y)
        if x + y > t:
            if walk:
                x0, y0 = walk[-1]
                lam = (t - x0 - y0) / (x + y - x0 - y0)
                walk.append((x0 + lam * (x - x0), y0 + lam * (y - y0)))
            return walk, bool(walk)
        walk.append((x, y))
    x0 = walk[-1][0]
    if x0 != 0:
        walk.append((x0, t - x0))
    return walk, x0 != 0


def fraction_exact_pair(vertices, t) -> tuple:
    """(delta vertices, delta area, gamma vertices, gamma area) of a closed
    form at t from the Fraction walk: delta is the part of the triangle
    x, y >= 0, x + y <= t on or above the chain, gamma the part below it."""
    t = Fraction(t)
    walk, crossed = fraction_chain_walk(vertices, t)
    delta = fraction_polygon_make(
        walk and [walk[0], (t, 0)] + [(0, t)] * (not crossed) + walk[:0:-1])
    if not walk:  # the chain starts beyond the line
        walk, crossed = [(t, 0)], True
    gamma = fraction_polygon_make([(0, 0)] + walk + [(0, t)] * crossed)
    return (delta, abs(fraction_signed_area(delta)), gamma, abs(fraction_signed_area(gamma)))


def exact_pair_shapes(rng) -> list:
    """Closed-form chains for `_exact_pair`: chains of 2-6 breakpoints, the
    same with the first vertex moved to x_1 + y_1 so the first slope is -1,
    each of them ending off the y-axis too (last vertex dropped), halfplanes
    (q1 = q2 among them, a first slope of -1 ending on the y-axis) and
    ceilings, and the lone vertex (0, 0)."""
    def q():
        d = rng.randint(1, 12)
        return Fraction(rng.randint(1, 6 * d), d)

    chains = [((Fraction(0), Fraction(0)),)]
    for n in range(2, 7):
        for _ in range(12):
            chain = random_chain(rng, n)
            x1, y1 = chain[1]
            for c in (chain, ((x1 + y1, Fraction(0)),) + chain[1:]):
                chains += [c, c[:-1]]
    for _ in range(12):
        q1, q2 = sorted((q(), q()))
        chains += [((q1, _ZERO), (_ZERO, q2)), ((q1, _ZERO), (_ZERO, q1)), ((q1, _ZERO),)]
    return [ExactShape(c) for c in chains]


def reduced_exact_images(shape, t) -> tuple:
    """The images (points, scale) of delta and gamma of a closed form at t
    as a cut builds them with every repeat and collinear point it may add,
    then reduced by `ShapePolygon._from_image`: the origin and the chain's
    planar graph cut at t, keeping the points at t, mapped back by
    (x, y) -> (y, x - y) and closed by (0, t) when cut; delta is the walk's
    first point, (t, 0), (0, t) when uncut and the walk reversed, empty when
    the chain starts past t."""
    ints, L = shape._image
    q, T = t.denominator, t.numerator * L
    graph = [(0, 0), *((q * (x + y), q * x) for x, y in ints)]
    if ints[-1][0]:  # the vertical ray
        graph.append((max(T, graph[-1][0]) + 1, graph[-1][1]))
    empty = T < graph[1][0]
    cut = _cut(graph, L * q, t, right=True)
    pts, S = cut or (graph, L * q)
    T = t.numerator * (S // q)
    gamma = [(y, x - y) for x, y in pts] + [(0, T)] * bool(cut)
    walk = gamma[1:len(gamma) - bool(cut)]
    delta = [] if empty else [walk[0], (T, 0)] + [(0, T)] * (not cut) + walk[:0:-1]
    return tuple(ShapePolygon._from_image(p, S)._image for p in (delta, gamma))


def fraction_estimate(values, tolerance, period) -> LimitEstimate:
    """The limit estimate of the (m, value) pairs, comparing Fractions: inf,
    tail-liminf and tail-limsup over m > max_m // 2, the drift and gap
    flags, and the last tail value of each residue mod the period."""
    tolerance = Fraction(tolerance)
    max_m = values[-1][0]
    tail = [v for m, v in values if m > max_m // 2]
    liminf, limsup = min(tail), max(tail)
    increasing = all(x < y for x, y in zip(tail, tail[1:]))
    diverging = increasing and (tail[-1] - tail[0]) > tolerance
    oscillating = (not diverging) and (limsup - liminf) > tolerance
    residues = None
    if period:
        by_res = {}
        for m, v in values:
            if m > max_m // 2:
                by_res[m % period] = v
        residues = tuple(sorted(by_res.items()))
    return LimitEstimate(
        values=tuple(values),
        inf_value=min(v for _, v in values),
        liminf=liminf,
        limsup=limsup,
        oscillating=oscillating,
        diverging=diverging,
        tolerance=tolerance,
        residue_values=residues,
    )


def random_chain(rng: random.Random, n: int, den: int = 12) -> tuple:
    """n >= 2 breakpoints (x, y) from the x-axis to the y-axis, every
    coordinate a Fraction of denominator at most `den`, with slopes -1 or
    steeper that strictly steepen."""
    xs = {Fraction(0)}
    while len(xs) < n:
        d = rng.randint(1, den)
        xs.add(Fraction(rng.randint(1, 6 * d), d))
    xs = sorted(xs, reverse=True)
    pts = [(xs[0], Fraction(0))]
    steep = Fraction(1)  # the last segment's -slope; the next may not be shallower
    for x in xs[1:]:
        x0, y0 = pts[-1]
        low = y0 + steep * (x0 - x)  # y on the last segment's line
        d = rng.randint(1, den)
        k = ceil(low * d)
        if len(pts) > 1 and k == low * d:
            k += 1  # after the first segment the slope strictly steepens
        y = Fraction(k + rng.randint(0, 2 * d), d)
        steep = (y - y0) / (x0 - x)
        pts.append((x, y))
    return tuple(pts)


def is_convex(vertices) -> bool:
    """No two turns along the closed polygon bend opposite ways."""
    v = tuple(vertices)
    turns = set()
    for (ax, ay), (bx, by), (cx, cy) in zip(v[-1:] + v[:-1], v, v[1:] + v[:1]):
        c = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
        if c:
            turns.add(c > 0)
    return len(turns) < 2


def clip_halfplane(vertices, a, b, c) -> tuple:
    """The part of the polygon with a*x + b*y <= c, by one Sutherland-Hodgman
    step, as `fraction_polygon_make` vertices."""
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    v = tuple(vertices)
    inside = [a * x + b * y <= c for x, y in v]
    out = []
    for cur, cur_in, nxt, nxt_in in zip(v, inside, v[1:] + v[:1], inside[1:] + inside[:1]):
        if cur_in:
            out.append(cur)
        if cur_in != nxt_in:
            dx, dy = nxt[0] - cur[0], nxt[1] - cur[1]
            lam = (c - a * cur[0] - b * cur[1]) / (a * dx + b * dy)
            out.append((cur[0] + lam * dx, cur[1] + lam * dy))
    return fraction_polygon_make(out)


def simulate_reduction(config, m: int, pick=None) -> list:
    """Reduction step by step: the line of largest weight is recorded and
    lowered by one, until every weight is zero; `pick` chooses among tied
    maximal lines.  In the shared variant the shared point, of multiplicity m,
    adds its weight to every line and is lowered on every pick."""
    counts = config.counts
    regs = [m] * len(counts)
    p = m if config.shared_intersection else 0
    entries = []
    while True:
        weights = [a * r + p for a, r in zip(counts, regs)]
        top = max(weights)
        if top == 0:
            break
        tied = [i for i, w in enumerate(weights) if w == top]
        i = tied[0] if pick is None else pick(tied)
        entries.append(top)
        if regs[i] > 0:
            regs[i] -= 1
        if p > 0:
            p -= 1
    return entries


def fraction_graph_make(points) -> tuple:
    """The vertices `PLGraph.make` keeps, computed in Fractions: a repeat of
    the previous point dropped, and the middle of three collinear points
    removed as each point arrives."""
    out = []
    for x, y in points:
        p = (Fraction(x), Fraction(y))
        if out and p == out[-1]:
            continue
        while len(out) >= 2:
            (ax, ay), (bx, by) = out[-2], out[-1]
            if (bx - ax) * (p[1] - ay) != (by - ay) * (p[0] - ax):
                break
            out.pop()
        out.append(p)
    return tuple(out)


def fraction_graph_area(vertices) -> Fraction:
    """Trapezoids between consecutive vertices and the x-axis, in Fractions."""
    return sum(((y0 + y1) * (x1 - x0) / 2 for (x0, y0), (x1, y1) in zip(vertices, vertices[1:])),
               Fraction(0))


def fraction_graph_value(vertices, x) -> Fraction:
    """The chain's y at x, in Fractions: on the first segment over x,
    interpolated, or the top of a vertical one; a lone vertex gives its y."""
    for (x0, y0), (x1, y1) in zip(vertices, vertices[1:]):
        if x0 <= x <= x1:
            return y1 if x0 == x1 else y0 + (y1 - y0) * (x - x0) / (x1 - x0)
    return vertices[-1][1]


def fraction_graph_truncate(vertices, t) -> tuple:
    """The x-monotone chain cut at x = t >= its first x, in Fractions: the
    vertices left of t (or the first), then (t, value) unless it is the last
    of them; the chain itself when t is at or past its last x."""
    t = Fraction(t)
    if t >= vertices[-1][0]:
        return tuple(vertices)
    kept = [p for p in vertices if p[0] < t] or [vertices[0]]
    cut = (t, fraction_graph_value(vertices, t))
    return tuple(kept if kept[-1] == cut else kept + [cut])


def harmonic_closed_form(counts) -> tuple:
    """The disjoint-lines vertex chain from harmonic Fractions: with
    H_i = 1/a_1 + ... + 1/a_i and S_i = S_(i-1) + (a_i - a_(i+1)) H_i, the
    points (0,0), then (a_(i+1) + S_i, S_i) for i = n .. 0, through
    `fraction_graph_make`."""
    a = list(counts) + [0]
    S, harmonic = [Fraction(0)], Fraction(0)
    for i in range(1, len(counts) + 1):
        harmonic += Fraction(1, a[i - 1])
        S.append(S[-1] + (a[i - 1] - a[i]) * harmonic)
    return fraction_graph_make([(0, 0)] + [(a[i] + S[i], S[i]) for i in range(len(counts), -1, -1)])


def padded_inner_hull(family, t, max_m: int) -> list:
    """Vertices of the inner approximation of the limiting shape from every
    point the definition names: each member padded to three variables, and
    for each box of its staircase region the corner and both projections
    onto the box's hypotenuse, all scaled by 1/m."""
    points = []
    for m in range(1, max_m + 1):
        for (p0, p1), s in staircase_region(family.ideal(m).padded(3), m, t).corners:
            points += [(Fraction(p0, m), Fraction(p1, m)),
                       (Fraction(p0, m), (s - p0) / m),
                       ((s - p1) / m, Fraction(p1, m))]
    return convex_hull(points)


def fraction_decimal(q) -> str:
    """The SVG decimal of a rational through a Fraction product: |q| * 10^12
    rounded half away from zero, zeros trimmed."""
    q = Fraction(q)
    sign = "-" if q < 0 else ""
    scaled = abs(q) * 10**12
    units = (2 * scaled.numerator + scaled.denominator) // (2 * scaled.denominator)
    whole, frac = divmod(units, 10**12)
    return sign + (f"{whole}.{frac:012d}".rstrip("0").rstrip(".") or "0")


def fraction_svg(items) -> str:
    """`svgfig._svg` of the same items, each coordinate the Fraction
    40 + 48*x or 40 + 48*(y_max - y) of one point at a time, written by
    `fraction_decimal`; the axes are read off the same map."""
    dec = fraction_decimal
    points = [p for kind, data, _ in items for p in ([data] if kind == "point" else data)]
    xmax = max([Fraction(1)] + [Fraction(x) for x, _ in points])
    ymax = max([Fraction(1)] + [Fraction(y) for _, y in points])

    def image(p) -> tuple:
        return 40 + 48 * Fraction(p[0]), 40 + 48 * (ymax - Fraction(p[1]))

    def line(a, b) -> str:
        return (f'<line x1="{dec(a[0])}" y1="{dec(a[1])}" x2="{dec(b[0])}" y2="{dec(b[1])}" '
                'stroke="black" stroke-width="1"/>')

    width, height = dec(80 + 48 * xmax), dec(80 + 48 * ymax)
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="0 0 {width} {height}" width="{width}" height="{height}">',
        "<defs>",
        '<pattern id="hatch" patternUnits="userSpaceOnUse" width="7" height="7">',
        '<path d="M0,7 L7,0" stroke="black" stroke-width="0.6"/>',
        "</pattern>",
        "</defs>",
    ]
    origin = image((0, 0))
    parts += [line(origin, image((xmax, 0))), line(origin, image((0, ymax)))]
    step = max(1, ceil(max(xmax, ymax) / 10))
    k = step
    while k <= xmax:
        x, y = image((k, 0))
        parts.append(line((x, y - 3), (x, y + 3)))
        parts.append(f'<text x="{dec(x - 3)}" y="{dec(y + 16)}" font-size="11">{k}</text>')
        k += step
    k = step
    while k <= ymax:
        x, y = image((0, k))
        parts.append(line((x - 3, y), (x + 3, y)))
        parts.append(f'<text x="{dec(x - 20)}" y="{dec(y + 4)}" font-size="11">{k}</text>')
        k += step
    for kind, data, flag in items:
        text = " ".join(f"{dec(x)},{dec(y)}" for x, y in map(image, data)) if kind != "point" else ""
        if kind == "polyline":
            dash = ' stroke-dasharray="6,4"' if flag else ""
            parts.append(f'<polyline points="{text}" fill="none" stroke="black" stroke-width="1.5"{dash}/>')
        elif kind == "polygon":
            fill = "url(#hatch)" if flag else "none"
            parts.append(f'<polygon points="{text}" fill="{fill}" stroke="black" stroke-width="1"/>')
        else:
            x, y = image(data)
            parts.append(f'<circle cx="{dec(x)}" cy="{dec(y)}" r="3" fill="black"/>')
            if flag:
                parts.append(f'<text x="{dec(x + 5)}" y="{dec(y - 5)}" font-size="11">{flag}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def random_ideal(rng: random.Random, nvars: int, maxdeg: int = 5, ngens: int = 4):
    gens = []
    for _ in range(rng.randint(1, ngens)):
        deg = rng.randint(1, maxdeg)
        cuts = sorted(rng.randint(0, deg) for _ in range(nvars - 1))
        gen = []
        prev = 0
        for c in cuts:
            gen.append(c - prev)
            prev = c
        gen.append(deg - prev)
        gens.append(tuple(gen))
    return MonomialIdeal.from_gens(nvars, gens)


def cyclic_gens(n: int) -> list:
    """x_i^2 x_(i+1) x_(i+3) and x_i x_(i+5) x_(i+7), indices mod n: 2n
    generators whose Hilbert-series slicing grows exponentially in n."""
    gens = []
    for i in range(n):
        for powers in ({i: 2, (i + 1) % n: 1, (i + 3) % n: 1}, {i: 1, (i + 5) % n: 1, (i + 7) % n: 1}):
            gens.append(tuple(powers.get(j, 0) for j in range(n)))
    return gens


def borel_closure(I: MonomialIdeal) -> MonomialIdeal:
    """Smallest strongly stable ideal containing I."""
    gens = set(I.gens)
    frontier = list(gens)
    while frontier:
        g = frontier.pop()
        for j in range(I.nvars):
            if g[j] == 0:
                continue
            for i in range(j):
                moved = list(g)
                moved[j] -= 1
                moved[i] += 1
                moved = tuple(moved)
                if moved not in gens:
                    gens.add(moved)
                    frontier.append(moved)
    return MonomialIdeal.from_gens(I.nvars, gens)


def _rationals(top: int, den: int):
    return st.builds(Fraction, st.integers(1, top), st.integers(1, den))


@st.composite
def family_specs(draw, kinds=("halfplane", "ceiling", "chain", "oscillating")):
    """JSON specs of the halfplane, ceiling, chain and oscillating families
    (and, when `kinds` names them, doubling and power families of 2-variable
    ideals), with parameters inside the ranges `family_from_json` accepts and
    small enough that ideals up to m = 6 stay cheap."""
    kind = draw(st.sampled_from(list(kinds)))
    if kind == "halfplane":
        q1, q2 = sorted(draw(st.tuples(_rationals(12, 4), _rationals(12, 4))))
        params = {"q1": format_rational(q1), "q2": format_rational(q2)}
    elif kind == "ceiling":
        params = {"q": format_rational(draw(_rationals(12, 4)))}
    elif kind == "chain":
        # slopes -r with 1 <= r_1 < r_2 < ... : each segment strictly steeper
        n = draw(st.integers(1, 3))
        steepness = st.builds(
            lambda k, den: 1 + Fraction(k, den), st.integers(0, 6), st.integers(1, 3)
        )
        ratios = sorted(draw(st.sets(steepness, min_size=n, max_size=n)))
        widths = draw(st.lists(_rationals(4, 3), min_size=n, max_size=n))
        s, t = sum(widths), Fraction(0)
        points = [(s, t)]
        for width, ratio in zip(widths, ratios):
            s, t = s - width, t + ratio * width
            points.append((s, t))
        params = {"breakpoints": [[format_rational(s), format_rational(t)] for s, t in points]}
    elif kind == "doubling":
        params = {"extra_vars": draw(st.integers(0, 1))}
    elif kind == "power":
        gens = draw(st.lists(st.lists(st.integers(0, 4), min_size=2, max_size=2).filter(any),
                             min_size=1, max_size=3))
        params = {"ideal": {"vars": 2, "gens": gens}}
    else:
        a = draw(st.integers(1, 4))
        params = {"a": a, "b": draw(st.integers(a + 1, 8)), "d": draw(st.integers(2, 5))}
    return {"kind": kind, "params": params}


@pytest.fixture
def rng():
    return random.Random(20260810)
