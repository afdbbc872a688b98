"""Independent correctness oracles for the benchmark workloads.

Nothing here imports limshape: every quantity is recomputed from its
definition on plain tuples and Fractions, so an oracle cannot share a bug
with the code it checks.  Each ``check_*`` function returns None when the
output is right and a one-line reason when it is not.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil


# --- monomials and Hilbert functions -------------------------------------


def compositions(total: int, parts: int):
    """Every exponent vector with `parts` entries summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in compositions(total - head, parts - 1):
            yield (head,) + rest


def divides(g, mono) -> bool:
    return all(a <= b for a, b in zip(g, mono))


def brute_hf(gens, nvars: int, d: int) -> int:
    """Degree-d monomials outside the ideal, by enumerating all of them."""
    return sum(
        1 for mono in compositions(d, nvars) if not any(divides(g, mono) for g in gens)
    )


def minimalize(vectors) -> tuple:
    """Antichain of divisibility-minimal vectors, sorted."""
    vs = sorted(set(vectors))
    return tuple(v for v in vs if not any(u != v and divides(u, v) for u in vs))


def eval_poly(coeffs, d) -> Fraction:
    """Ascending coefficients evaluated at d."""
    return sum((Fraction(c) * d**k for k, c in enumerate(coeffs)), Fraction(0))


def check_hilbert(gens, nvars, degrees, hf_values, coeffs, ri, brute) -> str | None:
    """HF at sampled degrees, polynomial agreement from ri on, and the
    disagreement just below ri.  `brute(d)` is a memoized brute_hf."""
    for d, v in zip(degrees, hf_values):
        if v != brute(d):
            return f"HF({d}) = {v}, brute force gives {brute(d)}"
    for d in range(ri, ri + nvars + 2):
        if eval_poly(coeffs, d) != brute(d):
            return f"polynomial disagrees with HF at d={d} >= ri={ri}"
    if ri > 0 and eval_poly(coeffs, ri - 1) == brute(ri - 1):
        return f"polynomial already agrees at ri-1={ri - 1}"
    return None


# --- graded families in the plane ----------------------------------------


def family_generators(spec: dict, m: int) -> tuple:
    """Minimal generators of the m-th ideal, straight from the definition."""
    kind, p = spec["kind"], spec["params"]
    if kind == "halfplane":
        q1, q2 = Fraction(p["q1"]), Fraction(p["q2"])
        return _stair_from_halfplanes([(q2, q1, q1 * q2)], m, ceil(m * q1))
    if kind == "chain":
        pts = [(Fraction(s), Fraction(t)) for s, t in p["breakpoints"]]
        planes = [
            (t1 - t0, s0 - s1, s0 * t1 - s1 * t0)
            for (s0, t0), (s1, t1) in zip(pts, pts[1:])
        ]
        return _stair_from_halfplanes(planes, m, ceil(m * pts[0][0]))
    if kind == "ceiling":
        return ((ceil(m * Fraction(p["q"])),),)
    if kind == "oscillating":
        a, b, d = p["a"], p["b"], p["d"]
        k = (m - 1) // d + 1
        if m - d * (k - 1) == 1:
            return ((a * k, 0),)
        return minimalize([(a * k + 1, 0), (a * k, b * k)])
    if kind == "power":
        base = minimalize(tuple(g) for g in p["ideal"]["gens"])
        out = base
        for _ in range(m - 1):
            out = minimalize(tuple(x + y for x, y in zip(u, v)) for u in out for v in base)
        return out
    raise ValueError(f"no oracle for family kind {kind!r}")


def _stair_from_halfplanes(planes, m, a_top) -> tuple:
    # the ideal is every (a, b) with A*a + B*b >= m*C for all planes; along
    # each column a the least admissible b is where a generator may sit
    gens = []
    prev = None
    for a in range(a_top + 1):
        # least b >= 0 with A*a + B*b >= m*C for every plane
        b = max(0, max(ceil((m * C - A * a) / B) for A, B, C in planes))
        if prev is None or b < prev:
            gens.append((a, b))
            prev = b
    return tuple(gens)


def pad3(gens) -> tuple:
    return tuple(tuple(g) + (0,) * (3 - len(g)) for g in gens)


def triangle_union_area(corners) -> Fraction:
    """Area of a union of corner triangles {x>=p0, y>=p1, x+y<=s} by
    inclusion-exclusion; an empty intersection prunes all its supersets."""
    items = [(Fraction(p0), Fraction(p1), Fraction(s)) for (p0, p1), s in corners]
    total = Fraction(0)

    def rec(start, p0, p1, s, sign):
        nonlocal total
        for k in range(start, len(items)):
            q0, q1, r = items[k]
            a, b, c = max(p0, q0), max(p1, q1), min(s, r)
            side = c - a - b
            if side > 0:
                total += sign * side * side / 2
                rec(k + 1, a, b, c, -sign)

    big = max((s for _, _, s in items), default=Fraction(0))
    rec(0, Fraction(0), Fraction(0), big, 1)
    return total


def staircase_corners(gens3, m, t) -> list:
    """Corner boxes of the scaled staircase of a 3-variable ideal."""
    bound = m * Fraction(t)
    out = []
    for g0, g1, g2 in gens3:
        slack = bound - g2
        if slack >= g0 + g1:
            out.append(((g0, g1), slack))
    return out


def chain_gamma_area(chain, t) -> Fraction:
    """Area of {x, y >= 0, x + y <= t} below the concave staircase chain,
    whose vertices run from (s0, 0) on the x-axis towards the y-axis."""
    t = Fraction(t)
    pts = [(Fraction(x), Fraction(y)) for x, y in chain]
    s0 = pts[0][0]
    top = pts[-1]

    def height(x):  # chain height over x; unbounded left of a vertical end
        if x >= s0:
            return Fraction(0)
        for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
            if x1 <= x <= x0:  # chains have no vertical segment
                return y1 + (y0 - y1) * (x - x1) / (x0 - x1)
        return None if top[0] > 0 else top[1]

    def f(x):
        h = height(x)
        cap = t - x
        return max(Fraction(0), cap if h is None or h > cap else h)

    cuts = {Fraction(0), t, s0} | {x for x, _ in pts}
    for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
        # where the segment's line meets the simplex edge y = t - x
        k = (y0 - y1) / (x0 - x1)
        if k != -1:
            cuts.add((t - y1 + k * x1) / (k + 1))
    xs = sorted(x for x in cuts if 0 <= x <= t)
    # f is linear between cuts (it jumps at a vertical wall), so the
    # midpoint rule is exact on each piece
    return sum(((x1 - x0) * f((x0 + x1) / 2) for x0, x1 in zip(xs, xs[1:])), Fraction(0))


# --- planar reduction vectors ---------------------------------------------


def simulate_entries(counts, m, shared) -> tuple:
    """Greedy reduction replayed step by step (ties to the first line)."""
    regs = [m] * len(counts)
    p = m if shared else 0
    out = []
    while True:
        weights = [a * r + p for a, r in zip(counts, regs)]
        top = max(weights)
        if top == 0:
            return tuple(out) + (0,)
        i = weights.index(top)
        out.append(top)
        regs[i] = max(0, regs[i] - 1)
        p = max(0, p - 1)


def closed_form_vertices(counts, shared) -> tuple:
    """The limiting first-difference graph from its published formulas."""
    if shared:
        a1, a2 = counts
        if a1 > a2:
            raw = [
                (0, 0),
                (2, 2),
                (Fraction(a1 * a2 + a1 + a2, a1 + a2), 1),
                (a2 + 1, Fraction(a1 - a2, a1)),
                (a1 + 1, 0),
            ]
        else:
            raw = [(0, 0), (2, 2), (Fraction(a1 + 2, 2), 1), (a1 + 1, 0)]
    else:
        a = list(counts) + [0]
        n = len(counts)
        S = [Fraction(0)] * (n + 1)
        h = Fraction(0)
        for i in range(1, n + 1):
            h += Fraction(1, a[i - 1])
            S[i] = S[i - 1] + (a[i - 1] - a[i]) * h
        raw = [(0, 0)] + [(a[i] + S[i], S[i]) for i in range(n, -1, -1)]
    return _drop_collinear(raw)


def _drop_collinear(points) -> tuple:
    out: list = []
    for x, y in points:
        p = (Fraction(x), Fraction(y))
        if out and out[-1] == p:
            continue
        while len(out) >= 2 and _cross(out[-2], out[-1], p) == 0:
            out.pop()
        out.append(p)
    return tuple(out)


def _cross(a, b, c) -> Fraction:
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def graph_area(vertices, t) -> Fraction:
    """Trapezoid area under an x-monotone chain, cut at x = t."""
    t = Fraction(t)
    area = Fraction(0)
    for (x0, y0), (x1, y1) in zip(vertices, vertices[1:]):
        if x0 >= t:
            break
        if x1 > t:
            y1 = y0 + (y1 - y0) * (t - x0) / (x1 - x0)
            x1 = t
        area += (y0 + y1) * (x1 - x0) / 2
    return area


def check_planar(inp: dict, out: dict) -> str | None:
    counts, shared = inp["counts"], inp["shared"]
    if not out["exact"]:
        return "reduction vector at a multiple of the modulus is not marked exact"
    expected = closed_form_vertices(counts, shared)
    if out["closed"] != expected:
        return f"closed form {out['closed']} != formula {expected}"
    for m, env in out["envelopes"]:
        if env != expected:
            return f"envelope at m={m} differs from the closed form"
    memo = inp["oracle_entries"]
    for m, digest in out["entries"]:
        if m not in memo:
            ref = simulate_entries(counts, m, shared)
            memo[m] = (len(ref), hash(ref))
        if digest != memo[m]:
            return f"reduction vector at m={m} differs from the step simulation"
    for t, area, gamma_area in out["areas"]:
        want = graph_area(expected, t)
        if area != want or gamma_area != want:
            return f"at t={t} graph area {area} and complement area {gamma_area} != {want}"
    if out["total_area"] is not None:
        points = sum(counts) + (1 if shared else 0)
        if out["total_area"] != Fraction(points, 2):
            return f"total graph area {out['total_area']} != points/2"
    return None
