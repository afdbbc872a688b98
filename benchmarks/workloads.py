"""The four seeded workloads: input generators, jobs and output checks.

A workload turns a seed into a fixed pool of inputs (`generate`), runs one
job on one input (`job`, the only timed code), and checks a job's raw output
against the independent oracles (`check`, untimed).  `L` is always the
imported `limshape` package; jobs call it only through its public names.

Pools are stratified: every seed draws the same number of inputs from each
size class and only the concrete inputs inside a class vary, so a pool's
total work, and with it every end-to-end metric, stays close across seeds.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction
from math import lcm
from itertools import combinations
from statistics import quantiles

import oracles


def _rng(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}:{seed}")


def _quartiles(values) -> list:
    vs = sorted(values)
    if len(vs) < 2:
        return vs * 3
    q1, q2, q3 = quantiles(vs, n=4, method="inclusive")
    return [q1, q2, q3]


def _random_monomial(rng, nvars, deg) -> tuple:
    cuts = sorted(rng.randint(0, deg) for _ in range(nvars - 1))
    out, prev = [], 0
    for c in cuts:
        out.append(c - prev)
        prev = c
    out.append(deg - prev)
    return tuple(out)


def _antichain(rng, nvars, k, lo, hi, start=()) -> tuple:
    """Exactly k minimal generators: random monomials of degree lo..hi are
    added (dropping what they divide) until the antichain has size k."""
    for _ in range(100):
        gens = list(start)
        for _ in range(60 * k):
            v = _random_monomial(rng, nvars, rng.randint(lo, hi))
            if any(oracles.divides(g, v) for g in gens):
                continue
            gens = [g for g in gens if not oracles.divides(v, g)] + [v]
            if len(gens) == k:
                return tuple(gens)
    raise ValueError(f"no {k}-generator antichain in degrees {lo}..{hi}")


def _strata(rng, n) -> list:
    """n draws from [0, 1), one in each of n equal bins, in random order;
    a class's parameters spread evenly, so its total work varies little."""
    bins = list(range(n))
    rng.shuffle(bins)
    return [(b + rng.random()) / n for b in bins]


def _fmt(q) -> str:
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _decreasing_counts(rng) -> tuple:
    """1-4 lines with distinct counts up to 12."""
    return tuple(sorted(rng.sample(range(1, 13), rng.randint(1, 4)), reverse=True))


# --- hilbert-ri ----------------------------------------------------------


class HilbertRI:
    """Hilbert function, polynomial and regularity index of seeded ideals."""

    # (nvars, generators, degree band, inputs per pool); generator counts
    # <= 12 take the inclusion-exclusion path, larger ones the 2- and
    # 3-variable sweeps, and the 4-variable Artinian class the recursion.
    # Inclusion-exclusion stops at 8 generators: 9-12 cost 0.3-1.2 s a job,
    # and a handful of those would outweigh the rest of the pool.
    CLASSES = [
        (2, 4, (6, 8), 24),
        (2, 8, (10, 12), 8),
        (2, 16, (18, 20), 24),
        (2, 30, (32, 34), 16),
        (3, 4, (4, 6), 24),
        (3, 6, (4, 6), 20),
        (3, 8, (4, 6), 8),
        (3, 16, (5, 6), 24),
        (3, 25, (6, 7), 16),
        (3, 32, (7, 8), 12),
        (4, 4, (3, 5), 16),
        (4, 6, (3, 5), 12),
    ]
    ARTINIAN = 2  # 4 variables, x_i^4 plus degree 3-4 monomials, 14 generators
    DOUBLING = 16  # members m = 3..6 of the doubling family
    POWER = 16  # squares and cubes of 2-generator ideals in 2 and 3 variables
    DEGREES = 6  # Hilbert-function degrees sampled per input

    def generate(self, L, seed):
        rng = _rng("hilbert-ri", seed)
        pool = []
        for nvars, k, (lo, hi), count in self.CLASSES:
            for _ in range(count):
                gens = _antichain(rng, nvars, k, lo, hi)
                pool.append(self._input(rng, L.MonomialIdeal.from_gens(nvars, gens), hi))
        for _ in range(self.ARTINIAN):
            pure = [tuple(4 if i == j else 0 for i in range(4)) for j in range(4)]
            gens = _antichain(rng, 4, 14, 3, 4, start=pure)
            pool.append(self._input(rng, L.MonomialIdeal.from_gens(4, gens), 4))
        doubling = L.make_doubling_family()
        for i in range(self.DOUBLING):
            m = 3 + i % 4
            pool.append(self._input(rng, doubling.ideal(m), 2**m + 2, doubling_m=m))
        for i in range(self.POWER):
            nvars, m = 2 + i % 2, 2 + i // 2 % 2
            base = _antichain(rng, nvars, 2, 1, 3)
            fam = L.make_power_family(L.MonomialIdeal.from_gens(nvars, base))
            pool.append(self._input(rng, fam.ideal(m), 3 * m, power_m=m))
        rng.shuffle(pool)
        return pool

    def _input(self, rng, ideal, top, **extra):
        degrees = sorted(rng.sample(range(0, 2 * top + 5), self.DEGREES))
        return {"ideal": ideal, "degrees": degrees, "memo": {}, **extra}

    def job(self, L, inp):
        I = inp["ideal"]
        hf = [L.hilbert_function(I, d) for d in inp["degrees"]]
        return hf, L.hilbert_polynomial(I), L.regularity_index(I)

    def check(self, L, inp, raw):
        hf, poly, ri = raw
        I = inp["ideal"]
        memo = inp["memo"]

        def brute(d):
            if d not in memo:
                memo[d] = oracles.brute_hf(I.gens, I.nvars, d)
            return memo[d]

        reason = oracles.check_hilbert(
            I.gens, I.nvars, inp["degrees"], hf, poly.coeffs, ri, brute
        )
        if reason is None and "doubling_m" in inp and ri != 2 ** inp["doubling_m"] + 1:
            reason = f"doubling member ri={ri}, expected 2^m+1"
        return reason

    def profile(self, pool):
        nv = [inp["ideal"].nvars for inp in pool]
        return {
            "inputs": len(pool),
            "nvars_mix": {str(n): nv.count(n) for n in sorted(set(nv))},
            "generator_quartiles": _quartiles(len(inp["ideal"].gens) for inp in pool),
            "generators_max": max(len(inp["ideal"].gens) for inp in pool),
            "doubling_m": sorted(inp["doubling_m"] for inp in pool if "doubling_m" in inp),
            "power_m": sorted(inp["power_m"] for inp in pool if "power_m" in inp),
            "degree_range": [
                min(min(inp["degrees"]) for inp in pool),
                max(max(inp["degrees"]) for inp in pool),
            ],
        }


# --- family-shapes -------------------------------------------------------


def _halfplane_spec(rng, u=None) -> dict:
    """q1 in [1, 3] (at the u-quantile when given), q2 up to q1 + 2."""
    u = rng.random() if u is None else u
    den, den2 = rng.randint(1, 4), rng.randint(1, 3)
    q1 = Fraction(round((1 + 2 * u) * den), den)
    q2 = q1 + Fraction(rng.randint(0, 2 * den2), den2)
    return {"kind": "halfplane", "params": {"q1": _fmt(q1), "q2": _fmt(q2)}}


def _chain_spec(rng, u=None, segments=None) -> dict:
    """Concave chain of 2-3 segments whose x-intercept s0 spans [1, 4]."""
    u = rng.random() if u is None else u
    segments = rng.randint(2, 3) if segments is None else segments
    slopes = [-1 - Fraction(rng.randint(0, 2), 2)]
    for _ in range(segments - 1):
        slopes.append(slopes[-1] - Fraction(rng.randint(1, 4), 2))
    halves = segments + round(u * (8 - segments))
    cuts = [0] + sorted(rng.sample(range(1, halves), segments - 1)) + [halves]
    lengths = [Fraction(b - a, 2) for a, b in zip(cuts, cuts[1:])]
    x, y = sum(lengths), Fraction(0)
    pts = [(x, y)]
    for slope, length in zip(slopes, lengths):
        x, y = x - length, y - slope * length
        pts.append((x, y))
    return {"kind": "chain", "params": {"breakpoints": [[_fmt(a), _fmt(b)] for a, b in pts]}}


def _power_spec(rng, nvars=None) -> dict:
    nvars = rng.choice((2, 3)) if nvars is None else nvars
    gens = _antichain(rng, nvars, 2, 1, 3)
    return {"kind": "power", "params": {"ideal": {"vars": nvars, "gens": [list(g) for g in gens]}}}


def _oscillating_spec(rng) -> dict:
    a = rng.randint(1, 2)
    return {"kind": "oscillating", "params": {"a": a, "b": rng.randint(a + 1, a + 3), "d": rng.randint(2, 3)}}


def _ceiling_spec(rng) -> dict:
    den = rng.randint(1, 4)
    return {"kind": "ceiling", "params": {"q": _fmt(Fraction(rng.randint(den, 4 * den), den))}}


def _shape_invariants(spec) -> tuple | None:
    """Known Waldschmidt constant and asymptotic regularity, and the chain
    of extremal points, for the families with a closed form."""
    p = spec["params"]
    if spec["kind"] == "halfplane":
        q1, q2 = Fraction(p["q1"]), Fraction(p["q2"])
        return q1, q2, [(q1, 0), (0, q2)]
    if spec["kind"] == "chain":
        pts = [(Fraction(s), Fraction(t)) for s, t in p["breakpoints"]]
        return pts[0][0], max(s + t for s, t in pts), pts
    if spec["kind"] == "ceiling":
        q = Fraction(p["q"])
        return q, q, [(q, 0)]
    return None


class FamilyShapes:
    """Fresh graded family per job: gradedness, estimators, shapes, ahf."""

    HALFPLANE, CHAIN, POWER, OSCILLATING, CEILING = 48, 40, 24, 16, 16
    CORRUPTED = 16  # halfplane or chain families with one broken index
    GRADED_M = 8  # verify_graded bound
    ESTIMATE_M = 12  # estimator prefix
    SHAPE_M = 8  # inner-approximation and ahf max_m

    def generate(self, L, seed):
        rng = _rng("family-shapes", seed)
        # a halfplane or chain job's work grows with its generator counts:
        # twice the needed candidates, spread over q1 or s0, are ranked by
        # that work and one of each adjacent pair is drawn; t is spread too
        specs = self._ranked_half(rng, [_halfplane_spec(rng, u) for u in _strata(rng, 2 * self.HALFPLANE)])
        specs += self._ranked_half(rng, [_chain_spec(rng, u, 2 + i % 2)
                                         for i, u in enumerate(_strata(rng, 2 * self.CHAIN))])
        specs += [_power_spec(rng, 2 + i % 2) for i in range(self.POWER)]
        specs += [_oscillating_spec(rng) for _ in range(self.OSCILLATING)]
        specs += [_ceiling_spec(rng) for _ in range(self.CEILING)]
        lows, highs = _strata(rng, len(specs)), _strata(rng, len(specs))
        pool = [self._input(rng, spec, lo, hi) for spec, lo, hi in zip(specs, lows, highs)]
        for i in range(self.CORRUPTED):
            spec = (_halfplane_spec, _chain_spec)[i % 2](rng)
            # x^big lies in every other member up to GRADED_M, but no
            # product generator reaching the broken index is divisible by it
            big = 2 * max(g[0] for m in range(1, self.GRADED_M + 1)
                          for g in oracles.family_generators(spec, m)) + 1
            pool.append({"spec": spec, "broken_at": rng.randint(2, self.GRADED_M), "big": big,
                         "memo": {}})
        rng.shuffle(pool)
        return pool

    def _ranked_half(self, rng, specs):
        def work(spec):
            return sum(len(oracles.family_generators(spec, m)) ** 2 for m in range(1, 4))

        ranked = sorted(specs, key=work)
        return [rng.choice(ranked[i:i + 2]) for i in range(0, len(ranked), 2)]

    def _input(self, rng, spec, lo, hi):
        ts = [Fraction(4 + round(3 * lo), 2), Fraction(8 + round(4 * hi), 2)]
        bridge = [(rng.randint(1, 5), t) for t in ts]
        volume = [(rng.randint(1, 2), t) for t in ts]
        return {"spec": spec, "ts": ts, "bridge": bridge, "volume": volume, "memo": {}}

    def job(self, L, inp):
        if "broken_at" in inp:
            return L.verify_graded(self._corrupted(L, inp), self.GRADED_M)
        fam = L.family_from_json(inp["spec"])
        report = L.verify_graded(fam, self.GRADED_M)
        wald = L.waldschmidt_estimate(fam, self.ESTIMATE_M)
        areg = L.areg_estimate(fam, self.ESTIMATE_M) if fam.claims_borel else None
        shapes = []
        for t in inp["ts"]:
            delta = L.limiting_shape(fam, t, self.SHAPE_M)
            gamma = L.gamma_limit(fam, t, self.SHAPE_M)
            extra = None
            if delta.exact:
                # the same rule without its closed form takes the inner
                # approximation path
                plain = L.GradedFamily(fam.nvars, fam.ideal, fam.label, claims_borel=fam.claims_borel)
                extra = (
                    L.waldschmidt_from_shape(delta),
                    L.areg_from_shape(delta),
                    L.limiting_shape(plain, t, self.SHAPE_M),
                )
            shapes.append((t, delta, gamma, extra))
        ahfs = [L.ahf(fam, t, self.SHAPE_M) for t in inp["ts"]]
        volumes = [
            L.region_volume(L.gamma_region(fam.ideal(m).padded(3), m, t))
            for m, t in inp["volume"]
        ]
        return fam, report, wald, areg, shapes, ahfs, volumes

    def _corrupted(self, L, inp):
        base = L.family_from_json(inp["spec"])
        k0, big = inp["broken_at"], inp["big"]

        def rule(m):
            return L.MonomialIdeal.from_gens(2, [(big, 0)]) if m == k0 else base.ideal(m)

        return L.GradedFamily(2, rule, "corrupted " + base.label)

    def check(self, L, inp, raw):
        spec, memo = inp["spec"], inp["memo"]
        pairs = sum(self.GRADED_M - 2 * p + 1 for p in range(1, self.GRADED_M // 2 + 1))
        if "broken_at" in inp:
            report, k0 = raw, inp["broken_at"]
            if report.ok:
                return f"corrupted family at m={k0} passed verify_graded"
            if report.checked_pairs != pairs:
                return f"checked {report.checked_pairs} pairs, expected {pairs}"
            hits = [(v.p, v.q) for v in report.violations]
            if (1, k0 - 1) not in hits or any(p + q != k0 for p, q in hits):
                return f"violations {hits} do not single out index {k0}"
            if any(v.witness[0] >= inp["big"] for v in report.violations):
                return "a reported witness lies in the corrupted ideal"
            return None
        fam, report, wald, areg, shapes, ahfs, volumes = raw
        if "gens" not in memo:
            memo["gens"] = {
                m: oracles.family_generators(spec, m) for m in range(1, self.ESTIMATE_M + 1)
            }
        own = memo["gens"]
        for m in own:
            if tuple(sorted(fam.ideal(m).gens)) != own[m]:
                return f"I_{m} generators {fam.ideal(m).gens} != definition {own[m]}"
        if not report.ok or report.checked_pairs != pairs:
            return f"verify_graded: ok={report.ok}, pairs={report.checked_pairs}"
        alphas = [(m, Fraction(min(sum(g) for g in own[m]), m)) for m in own]
        if list(wald.values) != alphas or wald.inf_value != min(v for _, v in alphas):
            return "Waldschmidt sequence differs from alpha(I_m)/m"
        if areg is not None:
            regs = [(m, Fraction(max(sum(g) for g in own[m]), m)) for m in own]
            if list(areg.values) != regs:
                return "regularity sequence differs from maxdeg(I_m)/m"
        known = _shape_invariants(spec)
        for t, delta, gamma, extra in shapes:
            half = t * t / 2
            if delta.exact != (known is not None) or delta.area + gamma.area != half:
                return f"shape at t={t}: exact={delta.exact}, areas do not add to t^2/2"
            if known is None:
                continue
            wc, ar, chain = known
            if extra[0] != wc or extra[1] != ar:
                return f"shape invariants {extra[:2]} != known ({wc}, {ar})"
            if gamma.area != oracles.chain_gamma_area(chain, t):
                return f"complement area at t={t} differs from the chain integral"
            inner = extra[2]
            if inner.exact or inner.area > delta.area:
                return f"inner approximation at t={t} exceeds the exact shape"
            planes = fam.exact_shape.halfplanes
            if any(A * x + B * y < C for x, y in inner.polygon.vertices for A, B, C in planes):
                return f"inner approximation at t={t} leaves the exact shape"
        for (t, delta, gamma, _), res in zip(shapes, ahfs):
            if res.value != gamma.area or res.exact != delta.exact:
                return f"ahf({t}) = {res.value} but the complement area is {gamma.area}"
            if any(ratio != Fraction(count, m * m) for m, count, ratio in res.samples):
                return f"ahf({t}) sample ratios are not count/m^2"
        for m, t in inp["bridge"]:
            key = ("bridge", m, t)
            if key not in memo:
                d = (m * t).numerator // (m * t).denominator
                memo[key] = oracles.brute_hf(oracles.pad3(own[m]), 3, d)
            count = next(c for (mm, c, _) in ahfs[inp["ts"].index(t)].samples if mm == m)
            if count != memo[key]:
                return f"lattice count {count} != HF {memo[key]} at m={m}, t={t}"
        for (m, t), vol in zip(inp["volume"], volumes):
            key = ("volume", m, t)
            if key not in memo:
                corners = oracles.staircase_corners(oracles.pad3(own[m]), m, t)
                memo[key] = (m * t) ** 2 / 2 - oracles.triangle_union_area(corners)
            if vol != memo[key]:
                return f"complement volume {vol} != inclusion-exclusion {memo[key]}"
        return None

    def profile(self, pool):
        kinds = [inp["spec"]["kind"] + ("-corrupted" if "broken_at" in inp else "") for inp in pool]
        ts = [t for inp in pool for t in inp.get("ts", ())]
        return {
            "inputs": len(pool),
            "kind_mix": {k: kinds.count(k) for k in sorted(set(kinds))},
            "graded_max_m": self.GRADED_M,
            "estimate_max_m": self.ESTIMATE_M,
            "shape_max_m": self.SHAPE_M,
            "t_range": [_fmt(min(ts)), _fmt(max(ts))],
            "broken_at_range": [
                min(inp["broken_at"] for inp in pool if "broken_at" in inp),
                max(inp["broken_at"] for inp in pool if "broken_at" in inp),
            ],
        }


# --- planar-sweep --------------------------------------------------------


class PlanarSweep:
    """Reduction vectors, envelopes, closed forms and areas of line counts."""

    STRATUM = 4  # candidates of adjacent work per stratum; half are drawn
    MAX_WORK = 40000  # points x modulus; bounds a job to about 20 ms

    def generate(self, L, seed):
        rng = _rng("planar-sweep", seed)
        disjoint = [
            (sum(c) * lcm(*c), c, False)
            for k in range(1, 5)
            for c in combinations(range(12, 0, -1), k)
        ]
        shared = [
            ((a1 + a2 + 1) * lcm(a1, a2, a1 + a2), (a1, a2), True)
            for a1 in range(2, 13)
            for a2 in range(2, a1 + 1)
            if a1 * a2 > a1 + a2
        ]
        pool = []
        for cands, size in ((disjoint, self.STRATUM), (shared, self.STRATUM // 2)):
            cands = sorted(c for c in cands if c[0] <= self.MAX_WORK)
            for i in range(0, len(cands) - size + 1, size):
                for work, counts, is_shared in rng.sample(cands[i:i + size], size // 2):
                    pool.append(self._input(rng, L, counts, is_shared, work))
        rng.shuffle(pool)
        return pool

    def _input(self, rng, L, counts, shared, work):
        config = L.validate_configuration(counts, shared)
        top = counts[0] + (1 if shared else 0)
        cuts = sorted({Fraction(rng.randint(1, 4 * top), 4) for _ in range(3)})
        return {"counts": counts, "shared": shared, "config": config, "cuts": cuts,
                "work": work, "oracle_entries": {}}

    def job(self, L, inp):
        config = inp["config"]
        modulus = L.divisibility_modulus(config)
        runs = []
        for mult in (1, 2):
            vec = L.reduction_vector(config, modulus * mult)
            runs.append((vec, L.dhf_envelope(vec)))
        if inp["shared"]:
            closed = L.two_line_vertices(*inp["counts"])
        else:
            closed = L.dhf_vertices_closed_form(inp["counts"])
        areas, total = [], None
        if closed.is_function:  # folded chains have no area
            for t in inp["cuts"]:
                areas.append((t, L.area_under_graph(closed, t), L.gamma_vertices(closed, t).area()))
            total = L.area_under_graph(closed)
        return runs, closed, areas, total

    def summarize(self, raw) -> dict:
        """Plain data for the oracle; entries travel as (length, hash)."""
        runs, closed, areas, total = raw
        return {
            "closed": closed.vertices,
            "envelopes": [(vec.multiplicity, env.vertices) for vec, env in runs],
            "entries": [(vec.multiplicity, (len(vec.entries), hash(vec.entries))) for vec, _ in runs],
            "exact": all(vec.exact for vec, _ in runs),
            "areas": areas,
            "total_area": total,
        }

    def check(self, L, inp, raw):
        return oracles.check_planar(inp, self.summarize(raw))

    def profile(self, pool):
        lines = [len(inp["counts"]) for inp in pool]
        work = [inp["work"] for inp in pool]
        return {
            "inputs": len(pool),
            "lines_mix": {str(n): lines.count(n) for n in sorted(set(lines))},
            "shared_pairs": sum(inp["shared"] for inp in pool),
            "work_quartiles": _quartiles(work),
            "count_tuples": sorted(",".join(map(str, inp["counts"])) + ("+shared" if inp["shared"] else "")
                                   for inp in pool),
        }


# --- cli-mix -------------------------------------------------------------


def _family_flags(spec) -> list:
    kind, p = spec["kind"], spec["params"]
    flags = ["--family", kind]
    if kind == "halfplane":
        flags += ["--q1", p["q1"], "--q2", p["q2"]]
    elif kind == "chain":
        flags += ["--breakpoints", ";".join(f"{s},{t}" for s, t in p["breakpoints"])]
    elif kind == "power":
        flags += ["--ideal", json.dumps(p["ideal"])]
    elif kind == "oscillating":
        flags += ["--a", str(p["a"]), "--b", str(p["b"]), "--d", str(p["d"])]
    elif kind == "ceiling":
        flags += ["--q", p["q"]]
    return flags


def _doubling_spec(rng) -> dict:
    return {"kind": "doubling", "params": {"extra_vars": 0}}


def _planar_counts(rng, max_work=2000):
    while True:
        if rng.random() < 0.25:
            a1 = rng.randint(3, 9)
            a2 = rng.randint(2, a1)
            if a1 * a2 > a1 + a2 and (a1 + a2 + 1) * lcm(a1, a2, a1 + a2) <= max_work:
                return (a1, a2), True
        else:
            c = _decreasing_counts(rng)
            if sum(c) * lcm(*c) <= max_work:
                return c, False


def _cycle(i, options):
    return options[i % len(options)]


def _is_function(counts, shared) -> bool:
    xs = [x for x, _ in oracles.closed_form_vertices(counts, shared)]
    return all(a <= b for a, b in zip(xs, xs[1:]))


def _counts_flags(counts, shared) -> list:
    return ["--counts", ",".join(map(str, counts))] + (["--shared"] if shared else [])


class CliMix:
    """In-process `limshape` calls, every subcommand, one sixth invalid.

    A job is a bundle of twelve calls: each subcommand once with valid
    flags, then two refused calls.  Single calls cost 3-40 ms and their
    90th percentile sat on the edge of the costly `hf --hp` cluster, so it
    jumped with the seed; the bundle's cost varies smoothly."""

    BUNDLES = 100
    INVALID_PER_BUNDLE = 2
    COMMANDS = ["planar-vertices", "planar-reduce", "waldschmidt", "areg", "check-graded",
                "family-eval", "hf", "shape", "ahf", "render"]

    def generate(self, L, seed):
        rng = _rng("cli-mix", seed)
        pool = []
        # variants cycle with the bundle index, so every seed has the same
        # mix of them
        for i in range(self.BUNDLES):
            calls = []
            for cmd in self.COMMANDS:
                argv, expect = getattr(self, "_" + cmd.replace("-", "_"))(rng, i)
                calls.append({"argv": [cmd] + argv, "expect": expect, "code": 0, "memo": {}})
            for j in range(self.INVALID_PER_BUNDLE):
                k = self.INVALID_PER_BUNDLE * i + j
                cmd = _cycle(k, self.COMMANDS)
                calls.append({"argv": [cmd] + self._invalid(rng, cmd, k // len(self.COMMANDS)),
                              "code": 1, "memo": {}})
            pool.append({"calls": calls})
        return pool

    # each subcommand method returns (flags, expected-payload recipe); the recipe is
    # data, evaluated against the library only in `check`
    def _planar_vertices(self, rng, i):
        counts, shared = _planar_counts(rng)
        return _counts_flags(counts, shared), ("planar-vertices", counts, shared)

    def _planar_reduce(self, rng, i):
        counts, shared = _planar_counts(rng)
        m = lcm(*counts) * rng.randint(1, 2)
        return _counts_flags(counts, shared) + ["--m", str(m)], ("planar-reduce", counts, shared, m)

    def _waldschmidt(self, rng, i):
        spec = _cycle(i, [_halfplane_spec, _chain_spec, _ceiling_spec, _oscillating_spec, _power_spec])(rng)
        max_m = rng.randint(6, 12)
        return _family_flags(spec) + ["--max-m", str(max_m)], ("waldschmidt", spec, max_m)

    def _areg(self, rng, i):
        spec = _cycle(i, [_halfplane_spec, _chain_spec, _oscillating_spec, _doubling_spec])(rng)
        max_m = rng.randint(6, 12)
        return _family_flags(spec) + ["--max-m", str(max_m)], ("areg", spec, max_m)

    def _check_graded(self, rng, i):
        spec = _cycle(i, [_halfplane_spec, _chain_spec, _power_spec, _doubling_spec, _oscillating_spec])(rng)
        max_m = rng.randint(4, 6)
        return _family_flags(spec) + ["--max-m", str(max_m)], ("check-graded", spec, max_m)

    def _family_eval(self, rng, i):
        spec = _cycle(i, [_halfplane_spec, _chain_spec, _power_spec, _ceiling_spec, _oscillating_spec])(rng)
        m = rng.randint(1, 6)
        return _family_flags(spec) + ["--m", str(m)], ("family-eval", spec, m)

    def _hf(self, rng, i):
        if i % 2:
            m = rng.randint(1, 4)
            t = Fraction(rng.randint(1, 12), 2)
            return (["--family", "doubling", "--m", str(m), "--t", _fmt(t), "--hp"],
                    ("hf", _doubling_spec(rng), m, None, t, True))
        ideal = {"vars": 3, "gens": [list(g) for g in _antichain(rng, 3, 2 + i // 4 % 3, 2, 4)]}
        d = rng.randint(0, 12)
        hp = i // 2 % 2 == 1
        return (["--ideal", json.dumps(ideal), "--degree", str(d)] + (["--hp"] if hp else []),
                ("hf", ideal, None, d, None, hp))

    def _shape(self, rng, i):
        spec = _cycle(i, [_halfplane_spec, _chain_spec, _power_spec, _oscillating_spec])(rng)
        t = Fraction(rng.randint(4, 12), 2)
        return _family_flags(spec) + ["--t", _fmt(t), "--max-m", "6"], ("shape", spec, t, 6)

    def _ahf(self, rng, i):
        spec = _cycle(i, [_halfplane_spec, _chain_spec, _ceiling_spec])(rng)
        t = Fraction(rng.randint(4, 12), 2)
        max_m = rng.randint(3, 6)
        return _family_flags(spec) + ["--t", _fmt(t), "--max-m", str(max_m)], ("ahf", spec, t, max_m)

    def _render(self, rng, i):
        kind = _cycle(i, ["staircase", "graph", "gamma", "shape"])
        if kind == "staircase":
            ideal = {"vars": 3, "gens": [list(g) for g in _antichain(rng, 3, rng.randint(2, 5), 2, 6)]}
            t = rng.randint(4, 10)
            return (["--kind", kind, "--ideal", json.dumps(ideal), "--m", "1", "--t", str(t)],
                    ("render", kind, ideal, t))
        if kind == "shape":
            spec = _halfplane_spec(rng)
            t = Fraction(rng.randint(4, 12), 2)
            return ["--kind", kind] + _family_flags(spec) + ["--t", _fmt(t)], ("render", kind, spec, t)
        counts, shared = _planar_counts(rng)
        while kind == "gamma" and not _is_function(counts, shared):
            counts, shared = _planar_counts(rng)  # a folded chain cannot be cut
        t = Fraction(rng.randint(2, 16), 2) if kind == "gamma" else None
        flags = ["--kind", kind] + _counts_flags(counts, shared) + (["--t", _fmt(t)] if t else [])
        return flags, ("render", kind, (counts, shared), t)

    def _invalid(self, rng, cmd, i) -> list:
        """Flags that must be refused with exit code 1."""
        n = rng.randint(2, 9)
        bad = {
            "planar-vertices": [["--counts", f"{n},{n + 1}"], ["--counts", f"{n},x"]],
            "planar-reduce": [["--counts", f"{n + 1},{n}", "--m", str(n * (n + 1) + 1)], ["--counts", f"{n},{n}"]],
            "waldschmidt": [["--family", "halfplane", "--q1", str(n + 1), "--q2", str(n)], ["--family", "nosuch"]],
            "areg": [["--family", "chain", "--breakpoints", f"{n},0;0"], ["--family", "ceiling"]],
            "check-graded": [["--family", "oscillating", "--a", str(n), "--b", "1", "--d", "2"], ["--max-m", str(n)]],
            "family-eval": [["--family", "halfplane", "--q1", "1", "--q2", str(n)], ["--family", "power", "--m", "2"]],
            "hf": [["--ideal", '{"vars": 2, "gens": [[1, 2]', "--degree", str(n)], ["--family", "doubling", "--m", str(n)]],
            "shape": [["--family", "halfplane", "--q1", "1", "--q2", str(n)], ["--family", "ceiling", "--q", f"-{n}", "--t", "3"]],
            "ahf": [["--family", "ceiling", "--t", str(n)], ["--family", "halfplane", "--q1", "0", "--q2", str(n), "--t", "2"]],
            "render": [["--kind", "bogus"], ["--kind", "staircase", "--ideal", '{"vars": 3, "gens": [[1, 0, 0]]}']],
        }[cmd]
        return _cycle(i, bad)

    def job(self, L, inp):
        return [_run_cli(L, call["argv"]) for call in inp["calls"]]

    def check(self, L, inp, raw):
        for call, result in zip(inp["calls"], raw):
            reason = self.check_call(L, call, result)
            if reason is not None:
                return f"{' '.join(call['argv'])[:80]}: {reason}"
        return None

    def check_call(self, L, call, result):
        code, out, err = result
        memo = call["memo"]
        if code != call["code"]:
            return f"exit code {code}, expected {call['code']}: {err.strip()[:120]}"
        if "stdout" not in memo:
            again = _run_cli(L, call["argv"])
            if again != result:
                return "a repeated call printed different output"
            memo["stdout"] = out
            if code == 0:
                expected = _expected_output(L, call["expect"])
                got = out if call["argv"][0] == "render" else json.loads(out)
                if got != expected:
                    return "stdout differs from the library payload"
            elif out or not err.startswith("error:"):
                return "a refused call wrote stdout or no error line"
        elif out != memo["stdout"]:
            return "stdout is not byte-identical to the first call"
        return None

    def profile(self, pool):
        calls = [call for inp in pool for call in inp["calls"]]
        cmds = [call["argv"][0] for call in calls]
        return {
            "inputs": len(pool),
            "calls_per_job": len(pool[0]["calls"]),
            "command_mix": {c: cmds.count(c) for c in self.COMMANDS},
            "invalid": sum(call["code"] != 0 for call in calls),
            "argv_length_quartiles": _quartiles(len(call["argv"]) for call in calls),
        }


def _run_cli(L, argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = L.cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _points(vertices) -> list:
    return [[_fmt(x), _fmt(y)] for x, y in vertices]


def _expected_output(L, recipe):
    """The payload each subcommand should print, built from library calls."""
    cmd = recipe[0]
    if cmd in ("planar-vertices", "planar-reduce"):
        counts, shared = recipe[1], recipe[2]
        if cmd == "planar-vertices":
            graph = L.two_line_vertices(*counts) if shared else L.dhf_vertices_closed_form(counts)
            return {"counts": list(counts), "shared_intersection": shared, "vertices": _points(graph.vertices)}
        vec = L.reduction_vector(L.validate_configuration(counts, shared), recipe[3])
        return {"counts": list(counts), "shared_intersection": shared, "m": vec.multiplicity,
                "exact": vec.exact, "entries": list(vec.entries),
                "envelope": _points(L.dhf_envelope(vec).vertices)}
    if cmd == "render":
        kind, arg, t = recipe[1], recipe[2], recipe[3]
        if kind == "staircase":
            return L.svgfig.render_staircase(L.MonomialIdeal.from_json(arg), 1, Fraction(t))
        if kind == "shape":
            shape = L.limiting_shape(L.family_from_json(arg), t, 16)
            return L.svgfig.render_polygon(shape.polygon, hatched=False)
        graph = L.two_line_vertices(*arg[0]) if arg[1] else L.dhf_vertices_closed_form(arg[0])
        if kind == "graph":
            return L.svgfig.render_graph(graph)
        return L.svgfig.render_polygon(L.gamma_vertices(graph, t), hatched=True)
    if cmd == "hf":
        source, m, d, t, hp = recipe[1:]
        ideal = L.family_from_json(source).ideal(m) if m is not None else L.MonomialIdeal.from_json(source)
        out = {"ideal": ideal.to_json()}
        if d is not None:
            out["degree"], out["value"] = d, L.hilbert_function(ideal, d)
        else:
            out["t"], out["value"] = _fmt(t), L.hilbert_function_extended(ideal, t)
        if hp:
            out["hilbert_polynomial"] = str(L.hilbert_polynomial(ideal))
            out["regularity_index"] = L.regularity_index(ideal)
        return out
    fam = L.family_from_json(recipe[1])
    if cmd == "family-eval":
        return {"label": fam.label, "m": recipe[2], "ideal": fam.ideal(recipe[2]).to_json()}
    if cmd == "check-graded":
        rep = L.verify_graded(fam, recipe[2])
        return {"label": fam.label, "max_m": rep.max_m, "checked_pairs": rep.checked_pairs, "ok": rep.ok,
                "violations": [{"p": v.p, "q": v.q, "witness": list(v.witness)} for v in rep.violations]}
    if cmd in ("waldschmidt", "areg"):
        if fam.exact_shape is not None:
            shape = L.limiting_shape(fam, max(x + y for x, y in fam.exact_shape.vertices) + 1)
            read = L.waldschmidt_from_shape if cmd == "waldschmidt" else L.areg_from_shape
            return {"label": fam.label, "method": "shape", "value": _fmt(read(shape))}
        if cmd == "waldschmidt":
            est = L.waldschmidt_estimate(fam, recipe[2])
            return {"label": fam.label, "method": "estimate", "value": _fmt(est.inf_value),
                    "max_m": recipe[2], "values": [[m, _fmt(v)] for m, v in est.values]}
        est = L.areg_estimate(fam, recipe[2])
        out = {"label": fam.label, "method": "estimate", "max_m": recipe[2], "liminf": _fmt(est.liminf),
               "limsup": _fmt(est.limsup), "oscillating": est.oscillating, "diverging": est.diverging,
               "tolerance": _fmt(est.tolerance)}
        if est.residue_values:
            out["residue_values"] = [[r, _fmt(v)] for r, v in est.residue_values]
        return out
    if cmd == "shape":
        t, max_m = recipe[2], recipe[3]
        delta, gamma = L.limiting_shape(fam, t, max_m), L.gamma_limit(fam, t, max_m)
        out = {"label": fam.label, "t": _fmt(t), "exact": delta.exact,
               "delta_vertices": _points(delta.polygon.vertices) if delta.polygon else [],
               "gamma_vertices": _points(gamma.polygon.vertices) if gamma.polygon else [],
               "gamma_area": _fmt(gamma.area)}
        if delta.exact:
            out["staircase_vertices"] = _points(delta.staircase_vertices)
            out["waldschmidt"] = _fmt(L.waldschmidt_from_shape(delta))
            out["areg"] = _fmt(L.areg_from_shape(delta))
        return out
    if cmd == "ahf":
        res = L.ahf(fam, recipe[2], recipe[3])
        return {"label": fam.label, "t": _fmt(res.t), "value": _fmt(res.value), "exact": res.exact,
                "samples": [[m, c, _fmt(r)] for m, c, r in res.samples]}
    raise ValueError(f"no expected payload for {cmd!r}")


WORKLOADS = {
    "hilbert-ri": HilbertRI(),
    "family-shapes": FamilyShapes(),
    "planar-sweep": PlanarSweep(),
    "cli-mix": CliMix(),
}
