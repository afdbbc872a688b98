"""Shared oracles for the test-suite.

Each oracle recomputes a quantity by a method independent of the production
code path: Hilbert functions by brute monomial enumeration, staircase areas
by inclusion-exclusion over corner triangles, Borel-fixedness by scanning
every monomial of the ideal up to a degree bound, membership by testing
divisibility by every generator, polygon and graph vertices, cuts, areas
and convexity in Fractions, the closed-form graph from harmonic Fractions,
reduction vectors by stepping the reduction, inner approximations by
hulling every point of every member padded to three variables, SVG scenes
by mapping every point in Fractions, closed-form shapes by walking the
chain in Fractions, and limit estimates by comparing Fraction values.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

import pytest
from math import ceil

from hypothesis import settings
from hypothesis import strategies as st

from limshape import MonomialIdeal, convex_hull, format_rational, staircase_region
from limshape.families import LimitEstimate
from limshape.svgfig import SvgScene, _dec

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


def area_by_inclusion_exclusion(corners) -> Fraction:
    """Union area of corner triangles {x>=p0, y>=p1, x+y<=s} via subsets;
    intersections of corner triangles are corner triangles again."""

    def tri_area(p0, p1, s):
        side = Fraction(s) - p0 - p1
        return side * side / 2 if side > 0 else Fraction(0)

    total = Fraction(0)
    items = list(corners)
    for k in range(1, len(items) + 1):
        sign = 1 if k % 2 == 1 else -1
        for subset in combinations(items, k):
            p0 = max(p for (p, _), _ in subset)
            p1 = max(q for (_, q), _ in subset)
            s = min(Fraction(s) for _, s in subset)
            total += sign * tri_area(p0, p1, s)
    return total


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


class FractionSvgScene(SvgScene):
    """`SvgScene` emitting each coordinate from its Fraction image
    margin + scale*x, margin + scale*(y_max - y), one point at a time."""

    def __init__(self, scale: int = 48, margin: int = 40):
        super().__init__(scale, margin)
        self._xmax = Fraction(1)
        self._ymax = Fraction(1)

    def _track(self, points) -> None:
        for x, y in points:
            self._xmax = max(self._xmax, Fraction(x))
            self._ymax = max(self._ymax, Fraction(y))

    def _map(self, p) -> tuple:
        x = self.margin + self.scale * Fraction(p[0])
        y = self.margin + self.scale * (self._ymax - Fraction(p[1]))
        return x, y

    def _fmt_points(self, pts) -> str:
        return " ".join(f"{_dec(x)},{_dec(y)}" for x, y in (self._map(p) for p in pts))

    def to_svg(self) -> str:
        width = _dec(2 * self.margin + self.scale * self._xmax)
        height = _dec(2 * self.margin + self.scale * self._ymax)
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
        parts.extend(self._axes())
        for item in self._items:
            if item[0] == "polyline":
                _, pts, dashed, width_ = item
                dash = ' stroke-dasharray="6,4"' if dashed else ""
                parts.append(
                    f'<polyline points="{self._fmt_points(pts)}" fill="none" '
                    f'stroke="black" stroke-width="{width_}"{dash}/>'
                )
            elif item[0] == "polygon":
                _, pts, hatched = item
                fill = "url(#hatch)" if hatched else "none"
                parts.append(
                    f'<polygon points="{self._fmt_points(pts)}" fill="{fill}" '
                    'stroke="black" stroke-width="1"/>'
                )
            elif item[0] == "point":
                _, p, label = item
                x, y = self._map(p)
                parts.append(f'<circle cx="{_dec(x)}" cy="{_dec(y)}" r="3" fill="black"/>')
                if label:
                    parts.append(
                        f'<text x="{_dec(x + 5)}" y="{_dec(y - 5)}" '
                        f'font-size="11">{label}</text>'
                    )
        parts.append("</svg>")
        return "\n".join(parts) + "\n"

    def _axes(self) -> list:
        out = []
        origin = self._map((0, 0))
        xend = self._map((self._xmax, 0))
        yend = self._map((0, self._ymax))
        for end in (xend, yend):
            out.append(
                f'<line x1="{_dec(origin[0])}" y1="{_dec(origin[1])}" '
                f'x2="{_dec(end[0])}" y2="{_dec(end[1])}" stroke="black" stroke-width="1"/>'
            )
        step = max(1, ceil(max(self._xmax, self._ymax) / 10))
        k = step
        while k <= self._xmax:
            x, y = self._map((k, 0))
            out.append(
                f'<line x1="{_dec(x)}" y1="{_dec(y - 3)}" x2="{_dec(x)}" '
                f'y2="{_dec(y + 3)}" stroke="black" stroke-width="1"/>'
            )
            out.append(f'<text x="{_dec(x - 3)}" y="{_dec(y + 16)}" font-size="11">{k}</text>')
            k += step
        k = step
        while k <= self._ymax:
            x, y = self._map((0, k))
            out.append(
                f'<line x1="{_dec(x - 3)}" y1="{_dec(y)}" x2="{_dec(x + 3)}" '
                f'y2="{_dec(y)}" stroke="black" stroke-width="1"/>'
            )
            out.append(f'<text x="{_dec(x - 20)}" y="{_dec(y + 4)}" font-size="11">{k}</text>')
            k += step
        return out


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
    """JSON specs of the halfplane, ceiling, chain and oscillating families,
    with parameters inside the ranges `family_from_json` accepts and small
    enough that ideals up to m = 6 stay cheap."""
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
    else:
        a = draw(st.integers(1, 4))
        params = {"a": a, "b": draw(st.integers(a + 1, 8)), "d": draw(st.integers(2, 5))}
    return {"kind": kind, "params": params}


@pytest.fixture
def rng():
    return random.Random(20260810)
