import re
import time
from fractions import Fraction
from itertools import permutations, product
from math import comb, factorial, floor, lcm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from limshape import (
    ExactShape,
    GradedFamily,
    MonomialIdeal,
    PLGraph,
    ShapePolygon,
    ShapeResult,
    UnsupportedDimensionError,
    WorkBudgetError,
    ComplementRegion,
    ahf,
    areg,
    areg_estimate,
    areg_from_shape,
    convex_hull,
    family_from_json,
    format_rational,
    gamma_lattice_count,
    gamma_limit,
    gamma_region,
    hilbert_function,
    hilbert_function_extended,
    lattice_count,
    limiting_shape,
    make_ceiling_family,
    make_chain_family,
    make_doubling_family,
    make_halfplane_family,
    make_oscillating_family,
    make_power_family,
    region_volume,
    ri_estimate,
    shape_json,
    staircase_region,
    verify_graded,
    waldschmidt,
    waldschmidt_estimate,
    waldschmidt_from_shape,
)
from limshape.geometry import (
    StaircaseRegion,
    _corner_count,
    _exact_pair,
    _inner_pair,
    _monotone_chain,
)
from limshape.work import BUDGETS

from conftest import (
    assert_vertices_read_once,
    brute_hf,
    clip_halfplane,
    family_specs,
    fraction_exact_pair,
    fraction_polygon_make,
    fraction_signed_area,
    is_convex,
    merge_intervals,
    padded_inner_hull,
    random_chain,
    slicing_lattice_count,
    sweep_area,
    volume_by_inclusion_exclusion,
)

_small_fractions = st.fractions(-20, 20, max_denominator=12)
DOUBLING_1 = MonomialIdeal.from_gens(2, [(2, 0), (1, 2)])
CHAIN_POINTS = [(4, 0), (3, 1), (1, 4), (0, 7)]


def builtin_families():
    return [
        make_power_family(DOUBLING_1),
        make_doubling_family(),
        make_doubling_family(extra_vars=1),
        make_halfplane_family(2, 3),
        make_ceiling_family(Fraction(22, 7)),
        make_chain_family(CHAIN_POINTS),
        make_oscillating_family(1, 2, 2),
    ]


def test_staircase_region_corners():
    region = staircase_region(DOUBLING_1, 1, 3)
    assert set(region.corners) == {((2,), Fraction(3)), ((1,), Fraction(1))}
    assert staircase_region(MonomialIdeal.zero(2), 1, 3).corners == ()
    # corner with empty truncated box is dropped
    region = staircase_region(DOUBLING_1, 1, 2)
    assert set(region.corners) == {((2,), Fraction(2))}


def test_staircase_region_four_corner_example():
    I = MonomialIdeal.from_gens(3, [(1, 6, 0), (3, 5, 1), (2, 1, 3), (4, 0, 1)])
    region = staircase_region(I, 1, 9)
    assert set(region.corners) == {
        ((1, 6), Fraction(9)),
        ((3, 5), Fraction(8)),
        ((2, 1), Fraction(6)),
        ((4, 0), Fraction(8)),
    }


def test_gamma_lattice_counts():
    assert gamma_lattice_count(DOUBLING_1, 1, 3) == 1
    assert gamma_lattice_count(DOUBLING_1, 1, 2) == 2
    assert gamma_lattice_count(DOUBLING_1.padded(3), 1, 1) == 3
    empty = StaircaseRegion(2, Fraction(-1), ())
    assert lattice_count(empty) == 0


def test_staircase_region_refuses_a_box_outside_its_simplex():
    for corner in [((0, 0), 5),  # would count 18 points against the simplex's 10
                   ((1, 0), Fraction(7, 2)),
                   ((-2, 1), 3),  # a negative prefix reaches outside the simplex
                   ((0,), 2), ((0, 0, 1), 2)]:  # a prefix of the wrong length
        with pytest.raises(ValueError, match="leaves the simplex"):
            StaircaseRegion(2, Fraction(3), (corner,))
    whole = ComplementRegion(StaircaseRegion(2, Fraction(3), (((0, 0), 3),)))
    assert lattice_count(whole) == 0 and region_volume(whole) == 0


@settings(max_examples=300)
@given(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), min_size=1, max_size=5),
       st.integers(0, 14))
def test_padded_plane_lattice_count_matches_brute_hf(gens, d):
    # d runs from below the first corner's degree to past every corner's
    I = MonomialIdeal.from_gens(2, gens).padded(3)
    assert gamma_lattice_count(I, 1, d) == brute_hf(I, d)


def test_lattice_count_over_budget_is_refused():
    # counts read the Hilbert-series numerator and walk no columns: the
    # staircase beta >= (1, 0) below 10^6 answers exactly
    plane = MonomialIdeal.from_gens(3, [(1, 0, 0)])
    assert lattice_count(staircase_region(plane, 1, 10**6)) == comb(10**6 + 1, 2)
    assert gamma_lattice_count(plane, 1, 10**6) == hilbert_function(plane, 10**6) == 10**6 + 1
    # two members and two corner counts, however large t is
    family = make_halfplane_family(1, 2)
    result = ahf(family, 10**12, max_m=2)
    assert result.value == 1 and result.exact
    assert [count for _, count, _ in result.samples] == [
        gamma_lattice_count(family.ideal(m).padded(3), m, 10**12) for m in (1, 2)]
    # a region lifts to dim + 1 variables, refused above the Hilbert series' limit
    with pytest.raises(WorkBudgetError, match="1201 variables"):
        lattice_count(StaircaseRegion(1200, 0, (((0,) * 1200, 0),)))
    # one dimension is charged no columns
    line = MonomialIdeal.from_gens(2, [(1, 0)])
    assert lattice_count(staircase_region(line, 1, 10**12)) == 10**12
    assert gamma_lattice_count(line, 1, 10**12) == 1


def test_volumes():
    assert region_volume(ComplementRegion(StaircaseRegion(2, Fraction(3), ()))) == Fraction(9, 2)
    # the slack-truncated staircase [1,1] u [2,3] has length 1, and its
    # complement [0,1) u (1,2) has length 2; they tile the interval [0,3]
    region = staircase_region(DOUBLING_1, 1, 3)
    assert region_volume(region) == 1
    assert region_volume(gamma_region(DOUBLING_1, 1, 3)) == 2
    assert region_volume(ComplementRegion(StaircaseRegion(3, Fraction(1), ()))) == Fraction(1, 6)


def test_complement_identity_exact():
    # vol(L) + vol(Gamma) = bound^n / n! for every built-in family
    for fam in builtin_families():
        for m in (1, 2, 3):
            for twice_t in range(1, 9):
                t = Fraction(twice_t, 2)
                I = fam.ideal(m)
                stair = staircase_region(I, m, t)
                total = region_volume(stair) + region_volume(gamma_region(I, m, t))
                n = I.nvars - 1
                bound = Fraction(m * t)
                expected = (
                    Fraction(1)
                    if n == 0
                    else (bound if n == 1 else bound * bound / 2)
                )
                assert total == expected, (fam.label, m, t)


def test_staircase_area_matches_inclusion_exclusion(rng):
    for _ in range(80):
        corners = []
        for _ in range(rng.randint(1, 6)):
            p = (rng.randint(0, 6), rng.randint(0, 6))
            # slack denominators up to 7; a zero numerator is a zero-area box
            s = sum(p) + Fraction(rng.choice([0, rng.randint(0, 17)]), rng.randint(1, 7))
            corners.append((p, s))
        region = StaircaseRegion(2, max(s for _, s in corners), tuple(corners))
        assert region_volume(region) == volume_by_inclusion_exclusion(corners)


def test_lattice_count_bridge_all_families():
    # complement lattice points = extended Hilbert function at m*t
    for fam in builtin_families():
        for m in range(1, 7):
            I = fam.ideal(m)
            for twice_t in range(1, 13):
                t = Fraction(twice_t, 2)
                assert gamma_lattice_count(I, m, t) == hilbert_function_extended(
                    I, m * t
                ), (fam.label, m, t)


def test_minkowski_monotonicity_sampled(rng):
    # lattice points of L_p + lattice points of L_q land inside L_{p+q}
    def member(region, point):
        return any(
            all(point[i] >= p[i] for i in range(len(p))) and sum(point) <= s
            for p, s in region.corners
        )

    def sample_points(region, limit):
        pts = []
        top = int(region.bound) + 1
        for p, s in region.corners:
            for _ in range(limit):
                cand = tuple(
                    rng.randint(p[i], min(top, p[i] + 3)) for i in range(len(p))
                )
                if sum(cand) <= s:
                    pts.append(cand)
        return pts

    for fam in (make_halfplane_family(2, 3), make_doubling_family(extra_vars=1)):
        t = Fraction(4)
        for p, q in [(1, 1), (1, 2), (2, 2)]:
            Lp = staircase_region(fam.ideal(p), p, t)
            Lq = staircase_region(fam.ideal(q), q, t)
            Lpq = staircase_region(fam.ideal(p + q), p + q, t)
            for a in sample_points(Lp, 4):
                for b in sample_points(Lq, 4):
                    s = tuple(x + y for x, y in zip(a, b))
                    assert member(Lpq, s), (fam.label, p, q, a, b)


def test_limiting_shape_halfplane():
    fam = make_halfplane_family(2, 3)
    delta = limiting_shape(fam, 10)
    assert delta.exact
    assert is_convex(delta.polygon.vertices)
    gamma = gamma_limit(fam, 10)
    assert set(gamma.polygon.vertices) == {
        (Fraction(0), Fraction(0)),
        (Fraction(2), Fraction(0)),
        (Fraction(0), Fraction(3)),
    }
    assert waldschmidt_from_shape(delta) == 2
    assert areg_from_shape(delta) == 3


def test_limiting_shape_chain():
    fam = make_chain_family(CHAIN_POINTS)
    delta = limiting_shape(fam, 12)
    assert delta.staircase_vertices == tuple(
        (Fraction(s), Fraction(t)) for s, t in CHAIN_POINTS
    )
    assert waldschmidt_from_shape(delta) == 4
    assert areg_from_shape(delta) == 7
    gamma = gamma_limit(fam, 12)
    assert gamma.area == 11  # area below the chain


def test_limiting_shape_ceiling():
    fam = make_ceiling_family(Fraction(22, 7))
    delta = limiting_shape(fam, 10)
    assert waldschmidt_from_shape(delta) == Fraction(22, 7)
    assert areg_from_shape(delta) == Fraction(22, 7)
    gamma = gamma_limit(fam, 10)
    # complement is the t-clipped strip left of x = 22/7
    assert gamma.area == Fraction(22, 7) * 10 - Fraction(22, 7) ** 2 / 2


def test_limiting_shape_small_t_clips():
    fam = make_halfplane_family(2, 3)
    delta = limiting_shape(fam, 1)
    assert not delta.polygon.vertices or delta.area == 0
    gamma = gamma_limit(fam, 1)
    assert gamma.area == Fraction(1, 2)


def test_inexact_shape_is_inner_approximation():
    fam = make_power_family(DOUBLING_1)
    t = Fraction(6)
    inner = limiting_shape(fam, t, max_m=4)
    outer = limiting_shape(fam, t, max_m=8)
    assert not inner.exact
    assert inner.area <= outer.area <= t * t / 2
    with pytest.raises(ValueError):
        waldschmidt_from_shape(inner)
    with pytest.raises(ValueError):
        areg_from_shape(inner)
    # hull contains the staircase sample points it was built from
    region = staircase_region(fam.ideal(3).padded(3), 3, t)
    poly = inner.polygon
    for (p0, p1), _ in region.corners:
        pt = (Fraction(p0, 3), Fraction(p1, 3))
        assert _point_in_convex(poly, pt)


def _point_in_convex(poly: ShapePolygon, pt) -> bool:
    v = poly.vertices
    for i in range(len(v)):
        a, b = v[i], v[(i + 1) % len(v)]
        cross = (b[0] - a[0]) * (pt[1] - a[1]) - (b[1] - a[1]) * (pt[0] - a[0])
        if cross < 0:
            return False
    return True


def test_degenerate_families():
    nothing = GradedFamily(2, lambda m: MonomialIdeal.zero(2), "nothing")
    shape = limiting_shape(nothing, 5, max_m=4)
    assert not shape.polygon.vertices and shape.area == 0
    everything = GradedFamily(2, lambda m: MonomialIdeal.unit(2), "everything")
    gamma = gamma_limit(everything, 5, max_m=4)
    assert gamma.area == 0


def test_shape_refused_above_three_variables():
    wide = MonomialIdeal.from_gens(4, [(2, 0, 0, 0), (1, 2, 0, 0)])
    fam = make_power_family(wide)
    with pytest.raises(UnsupportedDimensionError):
        limiting_shape(fam, 4)


# hand-built exact results whose chains no ExactShape would carry
_OFF_AXIS = ShapeResult(Fraction(3), True, ShapePolygon(()), Fraction(0), ((1, 1), (0, 3)))
_NO_CHAIN = ShapeResult(Fraction(3), True, ShapePolygon(()), Fraction(0), ())


@pytest.mark.parametrize("call, error, message", [
    (lambda: staircase_region(MonomialIdeal.unit(3), 0, 1), ValueError, "m must be >= 1"),
    (lambda: staircase_region(MonomialIdeal.unit(3), -2, 1), ValueError, "m must be >= 1"),
    (lambda: gamma_lattice_count(MonomialIdeal.unit(3), 0, 1), ValueError, "m must be >= 1"),
    (lambda: lattice_count(42), TypeError, "not a region: 42"),
    (lambda: waldschmidt_from_shape(_OFF_AXIS), ValueError, "staircase chain must start on the x-axis"),
    (lambda: areg_from_shape(_NO_CHAIN), ValueError, "shape has no extremal points below the simplex bound"),
])
def test_geometry_refusals_are_pinned(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message


# the closed forms and their invariants: (waldschmidt, areg)
_CLOSED_FORMS = [
    (lambda: make_halfplane_family(2, 3), ("2", "3")),
    (lambda: make_chain_family(CHAIN_POINTS), ("4", "7")),
    (lambda: make_ceiling_family(Fraction(5, 3)), ("5/3", "5/3")),
]


@pytest.mark.parametrize("build, values", _CLOSED_FORMS)
def test_waldschmidt_and_areg_read_closed_forms_off_the_shape(build, values):
    family = build()
    for builder, value in zip((waldschmidt, areg), values):
        assert builder(family, 20) == {"label": family.label, "method": "shape", "value": value}
    # the shape payload reads the same invariants, at any t
    for t in (1, Fraction(7, 2), 12):
        payload = shape_json(build(), t, 16)
        assert payload["exact"] and (payload["waldschmidt"], payload["areg"]) == values
        assert payload["waldschmidt"] == waldschmidt(family, 20)["value"]
        assert payload["areg"] == areg(family, 20)["value"]


def test_waldschmidt_and_areg_estimate_families_without_a_closed_form():
    family = make_oscillating_family(1, 2, 2)
    est = waldschmidt_estimate(family, 8)
    assert waldschmidt(family, 8) == {
        "label": family.label, "method": "estimate", "value": str(est.inf_value), "max_m": 8,
        "values": [[m, str(v)] for m, v in est.values],
    }
    est = areg_estimate(family, 8)
    payload = areg(family, 8)
    assert payload["method"] == "estimate" and payload["max_m"] == 8 and payload["oscillating"]
    assert (payload["liminf"], payload["limsup"]) == (str(est.liminf), str(est.limsup))
    assert payload["residue_values"] == [[r, str(v)] for r, v in est.residue_values]
    assert list(payload) == ["label", "method", "max_m", "liminf", "limsup", "oscillating",
                             "diverging", "tolerance", "residue_values"]
    # a family without a period prints no residues
    assert "residue_values" not in areg(make_doubling_family(), 8)


def test_ahf_chain_exact():
    fam = make_chain_family(CHAIN_POINTS)
    result = ahf(fam, 7, max_m=6)
    assert result.exact and result.value == 11
    result = ahf(fam, 12, max_m=4)
    assert result.value == 11  # complement saturates once t exceeds the chain
    assert ahf(fam, 0, max_m=2).value == 0


def test_ahf_doubling_diagnostics():
    # counts in the exponent plane follow 2d+1 below the jump, d+1+2^m above
    fam = make_doubling_family()
    result = ahf(fam, 5, max_m=8)
    for m, count, ratio in result.samples:
        d = 5 * m
        expected = 2 * d + 1 if d <= 2**m else d + 1 + 2**m
        assert count == expected
        assert ratio == Fraction(count, m * m)
    # exponent-plane counts of a padded ideal accumulate the planar ones
    I = fam.ideal(3)
    assert gamma_lattice_count(I.padded(3), 3, 5) == sum(
        hilbert_function(I, e) for e in range(16)
    )


def test_ahf_convergence_trend_halfplane():
    fam = make_halfplane_family(2, 3)
    result = ahf(fam, 4, max_m=24)
    assert result.value == 3
    errors = [abs(ratio - 3) for _, _, ratio in result.samples]
    assert all(err < Fraction(10, m) for (m, _, _), err in zip(result.samples, errors))
    head = sum(errors[:12]) / 12
    tail = sum(errors[12:]) / 12
    assert tail < head


def test_convex_hull_and_polygon_ops():
    pts = [(0, 0), (2, 0), (2, 2), (0, 2), (1, 1), (2, 0)]
    hull = convex_hull(pts)
    assert set(hull) == {
        (Fraction(0), Fraction(0)),
        (Fraction(2), Fraction(0)),
        (Fraction(2), Fraction(2)),
        (Fraction(0), Fraction(2)),
    }
    square = ShapePolygon.make(hull)
    assert square.area() == 4
    assert is_convex(square.vertices)
    clipped = ShapePolygon(clip_halfplane(square.vertices, 1, 1, 2))
    assert clipped.area() == 2
    merged = ShapePolygon.make([(0, 0), (1, 0), (2, 0), (2, 2), (0, 2)])
    assert len(merged.vertices) == 4


def test_convex_hull_runs_exact_on_ints_and_returns_fractions():
    pts = [(0, 0), (2, 0), (4, 0), (4, 2), (4, 4), (0, 4), (0, 4), (1, 1), (0, 2)]
    hull = convex_hull(pts)
    assert hull == [(0, 0), (4, 0), (4, 4), (0, 4)]  # CCW, collinear runs dropped
    assert all(type(v) is Fraction for p in hull for v in p)
    assert hull == convex_hull([(Fraction(x), Fraction(y)) for x, y in pts])
    # Fraction, float and string coordinates are taken exactly
    assert convex_hull([(0, 0), (Fraction(1, 2), 0), (0, 0.5), ("1/4", "1/4")]) == [
        (0, 0), (Fraction(1, 2), 0), (0, Fraction(1, 2))
    ]
    # at most two distinct points, collinear input included
    assert convex_hull([]) == []
    assert convex_hull([(1, 2), (1, 2)]) == [(Fraction(1), Fraction(2))]
    pair = convex_hull([(3, 1), (1, 2)])
    assert pair == [(1, 2), (3, 1)]
    assert all(type(v) is Fraction for p in pair for v in p)
    assert convex_hull([(2, 2), (0, 0), (1, 1)]) == [(0, 0), (2, 2)]


@st.composite
def inner_approximation_cases(draw):
    kind = draw(st.sampled_from(("oscillating", "power", "power")))
    if kind == "oscillating":
        a = draw(st.integers(1, 3))
        family = make_oscillating_family(a, draw(st.integers(a + 1, 5)), draw(st.integers(2, 4)))
    else:
        nvars = draw(st.integers(2, 3))
        exponent = st.tuples(*[st.integers(0, 3)] * nvars).filter(any)
        family = make_power_family(
            MonomialIdeal.from_gens(nvars, draw(st.lists(exponent, min_size=1, max_size=4)))
        )
    t = Fraction(draw(st.integers(0, 48)), draw(st.integers(1, 6)))
    return family, t, draw(st.integers(1, 10))


def _in_convex_polygon(vertices, p) -> bool:
    """p lies in the closed convex hull of CCW vertices (a point, a segment
    or a polygon)."""
    if len(vertices) <= 2:
        a, b = vertices[0], vertices[-1]
        on_line = (b[0] - a[0]) * (p[1] - a[1]) == (b[1] - a[1]) * (p[0] - a[0])
        return on_line and min(a, b) <= p <= max(a, b)
    return all(
        (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0]) >= 0
        for a, b in zip(vertices, vertices[1:] + vertices[:1])
    )


@settings(max_examples=150)
@given(inner_approximation_cases())
def test_inner_approximation_is_hull_of_scaled_staircases(case):
    family, t, max_m = case
    # the scaled staircase points, straight from the definition
    points = set()
    for m in range(1, max_m + 1):
        for (p0, p1), s in staircase_region(family.ideal(m).padded(3), m, t).corners:
            points |= {
                (Fraction(p0, m), Fraction(p1, m)),
                (Fraction(p0, m), (s - p0) / m),
                ((s - p1) / m, Fraction(p1, m)),
            }
    shape = limiting_shape(family, t, max_m)
    assert not shape.exact
    vertices = list(shape.polygon.vertices)
    assert bool(vertices) == bool(points)
    assert set(vertices) <= points
    assert all(_in_convex_polygon(vertices, p) for p in points)
    if max_m > 1:
        assert limiting_shape(family, t, max_m - 1).area <= shape.area


def test_gamma_region_vs_brute_force_random(rng):
    # complement counting agrees with direct membership over the simplex
    from conftest import compositions

    for nvars in (2, 3, 4):
        for _ in range(20):
            gens = [
                tuple(rng.randint(0, 3) for _ in range(nvars))
                for _ in range(rng.randint(1, 4))
            ]
            if all(sum(g) == 0 for g in gens):
                continue
            I = MonomialIdeal.from_gens(nvars, gens)
            m = rng.randint(1, 3)
            t = Fraction(rng.randint(1, 9), rng.choice([1, 2]))
            bound = int(m * t)
            direct = sum(
                1
                for d in range(bound + 1)
                for mono in compositions(d, nvars)
                if not I.contains(mono)
            )
            # padding by one variable turns degree-wise counts into the
            # cumulative count over the simplex
            assert gamma_lattice_count(I.padded(nvars + 1), m, t) == direct
            assert gamma_lattice_count(I, m, t) == hilbert_function_extended(I, m * t)
            # corners come sorted, and minimal generators make them an antichain
            corners = staircase_region(I, m, t).corners
            assert list(corners) == sorted(corners)
            assert not any(
                (q, r) != (p, s) and r >= s and all(a <= b for a, b in zip(q, p))
                for p, s in corners
                for q, r in corners
            )


def _triangle_clipped_by_halfplanes(shape, t):
    """The closed-form delta as the triangle cut by each half-plane in turn."""
    poly = fraction_polygon_make([(0, 0), (t, 0), (0, t)])
    for A, B, C in shape.halfplanes:
        poly = clip_halfplane(poly, -A, -B, -C)  # keep A*x + B*y >= C
    return poly


def _below_chain_clipped(shape, t):
    """The closed-form gamma as the region below the chain (closed upwards by
    a vertical ray when the chain ends off the y-axis) cut by x + y <= t."""
    chain = list(shape.vertices)
    big = max(t, max(y for _, y in chain)) + 1
    boundary = [(0, 0)] + chain
    if chain[-1][0] != 0:
        boundary += [(chain[-1][0], big), (0, big)]
    return clip_halfplane(fraction_polygon_make(boundary), 1, 1, t)


@settings(max_examples=120)
@given(family_specs(kinds=("halfplane", "ceiling", "chain")), st.fractions(0, 40, max_denominator=6))
def test_closed_form_walk_matches_clipping(spec, t_extra):
    family = family_from_json(spec)
    shape = family.exact_shape
    # t at 0, at every breakpoint's x + y, at every x-intercept, and near them
    ts = {Fraction(0), t_extra} | {x + y for x, y in shape.vertices}
    ts |= {C / A for A, _, C in shape.halfplanes if A}
    ts |= {t + d for t in list(ts) for d in (Fraction(-1, 7), Fraction(1, 7))}
    for t in sorted(t for t in ts if t >= 0):
        delta, gamma = limiting_shape(family, t), gamma_limit(family, t)
        clipped = _triangle_clipped_by_halfplanes(shape, t)
        assert delta.polygon.vertices == clipped, (spec, t)
        assert delta.area == abs(fraction_signed_area(clipped))
        below = _below_chain_clipped(shape, t)
        assert gamma.polygon.vertices == below, (spec, t)
        assert gamma.area == abs(fraction_signed_area(below)) == t * t / 2 - delta.area


def _exact_shapes(rng):
    """Chains of 2-5 breakpoints with denominators up to 12, the same chains
    ending off the y-axis (on a vertical ray), and halfplane and ceiling
    shapes (the ceiling is a lone vertex and its ray)."""
    def q():
        d = rng.randint(1, 12)
        return Fraction(rng.randint(1, 6 * d), d)

    shapes = []
    for n in range(2, 6):
        for _ in range(15):
            chain = random_chain(rng, n)
            shapes += [ExactShape(chain), ExactShape(chain[:-1])]
    for _ in range(15):
        shapes.append(make_halfplane_family(*sorted((q(), q()))).exact_shape)
        shapes.append(make_ceiling_family(q()).exact_shape)
    return shapes


def test_exact_pair_on_the_image_matches_the_fraction_walk(rng):
    for shape in _exact_shapes(rng):
        sums = [x + y for x, y in shape.vertices]
        # t at 0, at every vertex sum, between two sums, before the first and
        # past the last
        ts = {Fraction(0), *sums, sums[0] / 3, sums[-1] + Fraction(1, 7), sums[-1] + 5}
        ts |= {(a + b) / 2 for a, b in zip(sums, sums[1:])}
        for t in sorted(ts):
            delta, gamma = _exact_pair(shape, t)
            want = fraction_exact_pair(shape.vertices, t)
            assert (delta.polygon.vertices, delta.area, gamma.polygon.vertices, gamma.area) == want, (
                shape.vertices, t)
            assert delta.staircase_vertices is gamma.staircase_vertices is shape.vertices
            assert all(type(c) is Fraction for p in delta.polygon.vertices + gamma.polygon.vertices
                       for c in p)


def test_closed_form_polygons_hold_their_image_until_read():
    # the walk builds both polygons from integers; their areas read no vertex
    exact = [family for family in builtin_families() if family.exact_shape is not None]
    assert len(exact) == 3
    for family in exact:
        for t in (Fraction(0), Fraction(1, 2), Fraction(5, 2), Fraction(22, 3), Fraction(40)):
            delta, gamma = limiting_shape(family, t), gamma_limit(family, t)
            want = fraction_exact_pair(family.exact_shape.vertices, t)
            for poly in (delta.polygon, gamma.polygon):
                assert poly.area() == abs(poly.signed_area())
            assert (delta.area, gamma.area) == (want[1], want[3])
            assert_vertices_read_once(delta.polygon, want[0])
            assert_vertices_read_once(gamma.polygon, want[2])


def test_inner_approximation_holds_its_image_until_read():
    inexact = [family for family in builtin_families() if family.exact_shape is None]
    assert len(inexact) == 4
    for family in inexact:
        t, max_m = Fraction(5, 2), 4
        delta = limiting_shape(family, t, max_m)
        assert not delta.exact and gamma_limit(family, t, max_m).polygon is None
        poly = delta.polygon
        assert delta.area == poly.area() == abs(poly.signed_area())
        assert_vertices_read_once(poly, padded_inner_hull(family, t, max_m))


def test_inner_hulls_are_built_reduced():
    # the monotone chain is strictly convex (or at most two points), so the
    # polygon is built without `ShapePolygon._reduce`, which would keep it whole
    inexact = [family for family in builtin_families() if family.exact_shape is None]
    assert len(inexact) == 4
    for family in inexact:
        for t in (Fraction(0), Fraction(1, 3), Fraction(5, 2), Fraction(6), Fraction(40, 3)):
            for max_m in (1, 2, 5, 8, 12):
                delta = limiting_shape(family, t, max_m)
                ints = delta.polygon._image[0]
                assert ShapePolygon._reduce(ints) == list(range(len(ints))), (family.label, t, max_m)
                assert delta.area == delta.polygon.area() == abs(delta.polygon.signed_area())


@settings(max_examples=300)
@given(st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)), max_size=12))
def test_monotone_chain_is_kept_whole_by_the_polygon_reduction(points):
    hull = _monotone_chain(sorted(set(points)))
    assert ShapePolygon._reduce(hull) == list(range(len(hull)))
    assert ShapePolygon._of(hull, 1).area() == abs(fraction_signed_area(hull))


@settings(max_examples=150)
@given(st.lists(st.tuples(_small_fractions, _small_fractions), max_size=8))
def test_to_json_of_the_image_equals_the_formatted_vertices(points):
    for poly in (ShapePolygon.make(points), PLGraph.make(points), ShapePolygon(tuple(points))):
        assert poly.to_json() == [[format_rational(x), format_rational(y)] for x, y in poly.vertices]


def test_to_json_of_hand_built_vertices_reads_them_as_format_rational_does():
    # the image of a hand-built polygon reads each coordinate by `parse_rational`
    vertices = ((0.5, 0), ("1/3", 1), (Fraction(2, 4), "1e2"))
    for poly in (ShapePolygon(vertices), PLGraph(vertices)):
        assert poly.to_json() == [["1/2", "0"], ["1/3", "1"], ["1/2", "100"]]
        assert poly.to_json() == [[format_rational(x), format_rational(y)] for x, y in vertices]
    with pytest.raises(ValueError, match="a bool is not a number"):
        ShapePolygon(((True, 0),)).to_json()


def test_a_hand_built_integer_chain_gives_fraction_vertices_only():
    # delta and gamma keep no vertex of the chain itself, so the ints of a
    # hand-built chain never reach their vertices
    shape = ExactShape(((2, 0), (0, 3)))
    t = Fraction(5, 2)
    delta, gamma = _exact_pair(shape, t)
    assert delta.staircase_vertices is gamma.staircase_vertices is shape.vertices
    assert_vertices_read_once(delta.polygon, ((2, 0), (t, 0), (1, Fraction(3, 2))))
    assert_vertices_read_once(gamma.polygon, ((0, 0), (2, 0), (1, Fraction(3, 2)), (0, t)))


def test_inner_approximation_refuses_long_walks_before_any_member():
    plain = GradedFamily(2, make_halfplane_family(1, 2).ideal, "plain")
    start = time.perf_counter()
    with pytest.raises(WorkBudgetError, match="max_m"):
        limiting_shape(plain, 3, BUDGETS["walk"][0] + 1)
    assert time.perf_counter() - start < 1 and not plain._cache
    assert not limiting_shape(plain, 3, 4).exact
    # a closed form never reads max_m beyond its check
    assert limiting_shape(make_halfplane_family(1, 2), 3, 10**9).exact


@st.composite
def power_families_3(draw):
    """3-variable power families whose first member has generators of at
    least two z-degrees, so the staircase has several slacks."""
    exponent = st.tuples(*[st.integers(0, 3)] * 3).filter(any)
    ideal = MonomialIdeal.from_gens(3, draw(st.lists(exponent, min_size=2, max_size=5)))
    assume(len({g[2] for g in ideal.gens}) > 1)
    return make_power_family(ideal)


@settings(max_examples=40)
@given(power_families_3(), st.fractions(0, 6, max_denominator=5))
def test_ahf_samples_are_lattice_counts_and_hilbert_values(family, t):
    result = ahf(family, t, max_m=3)
    assert [m for m, _, _ in result.samples] == [1, 2, 3]
    for m, count, _ in result.samples:
        member = family.ideal(m).padded(3)
        assert count == lattice_count(gamma_region(member, m, t))
        assert count == hilbert_function_extended(member, m * t), (member, m, t)


@settings(max_examples=40)
@given(power_families_3(), st.fractions(0, 5, max_denominator=5))
def test_ahf_three_variable_samples_equal_brute_hf(family, t):
    for m, count, _ in ahf(family, t, max_m=3).samples:
        assert count == brute_hf(family.ideal(m), floor(m * t)), (family.ideal(m), m, t)


@st.composite
def staircase_regions(draw):
    """Regions of dimension 0-2 with int prefixes, int or Fraction slacks
    between |prefix| and the bound, zero and negative bounds, and possibly
    no corners."""
    dim = draw(st.integers(0, 2))
    bound = draw(st.integers(-2, 12) | st.fractions(-2, 12, max_denominator=6))
    corners = []
    for prefix in draw(st.lists(st.tuples(*[st.integers(0, 6)] * dim), max_size=6)):
        lo = sum(prefix)
        if lo <= bound:
            corners.append((prefix, draw(st.integers(lo, floor(bound))
                                         | st.fractions(lo, bound, max_denominator=7))))
    return StaircaseRegion(dim, bound, tuple(sorted(corners)))


@settings(max_examples=400)
@given(staircase_regions())
def test_region_counts_and_volumes_match_the_oracles(region):
    dim, bound, corners = region.dim, region.bound, region.corners
    d = floor(bound)
    inside = slicing_lattice_count([(p, floor(s)) for p, s in corners], dim, d)
    assert lattice_count(region) == inside
    assert lattice_count(ComplementRegion(region)) == (comb(d + dim, dim) if d >= 0 else 0) - inside
    if dim == 2:
        area = sweep_area(corners)
        assert area == volume_by_inclusion_exclusion(corners)
    elif dim == 1:
        area = sum((b - a for a, b in merge_intervals([(Fraction(p[0]), Fraction(s))
                                                       for p, s in corners])), Fraction(0))
    else:
        area = Fraction(1 if corners else 0)
    assert region_volume(region) == area
    simplex = Fraction(bound) ** dim / factorial(dim) if bound >= 0 else 0
    assert region_volume(ComplementRegion(region)) == simplex - area


@settings(max_examples=400)
@given(
    st.integers(3, 4),
    st.fractions(0, 12, max_denominator=4),
    st.lists(
        st.tuples(st.tuples(*[st.integers(0, 2)] * 4), st.fractions(0, 1, max_denominator=7)),
        min_size=1,
        max_size=6,
    ),
)
def test_region_volumes_in_dimensions_3_and_4_match_inclusion_exclusion(dim, bound, raw):
    # slacks between |prefix| and the bound, most of them non-integral
    corners = []
    for prefix, u in raw:
        prefix = prefix[:dim]
        if sum(prefix) <= bound:
            corners.append((prefix, sum(prefix) + u * (bound - sum(prefix))))
    region = StaircaseRegion(dim, bound, tuple(sorted(corners)))
    volume = volume_by_inclusion_exclusion(corners)
    assert region_volume(region) == volume
    assert region_volume(ComplementRegion(region)) == bound**dim / factorial(dim) - volume


@pytest.mark.parametrize("dim, prefix", [
    (1, (Fraction(1, 2),)),  # counted 7/2 points, its complement 1/2
    (1, (Fraction(1),)),
    (1, (1.0,)),
    (1, (True,)),  # read as 1
    (2, (Fraction(1, 2), 0)),  # counted 7 points where there are 6
    (2, (0, 2.5)),
    (2, (0, False)),
])
def test_staircase_region_refuses_a_prefix_entry_that_is_not_an_int(dim, prefix):
    with pytest.raises(ValueError, match="not an int"):
        StaircaseRegion(dim, Fraction(3), ((prefix, Fraction(3)),))


def _points_in_boxes(dim, bound, corners):
    """Lattice points of the simplex of the bound lying in some box, by
    enumeration."""
    top = int(bound)
    return sum(
        1
        for beta in product(range(top + 1), repeat=dim)
        if sum(beta) <= bound
        and any(all(b >= q for b, q in zip(beta, p)) and sum(beta) <= s for p, s in corners)
    )


@settings(max_examples=80)
@given(
    st.integers(1, 3),
    st.fractions(0, 9, max_denominator=4),
    st.lists(
        st.tuples(st.tuples(*[st.integers(0, 4)] * 3), st.fractions(0, 1, max_denominator=7)),
        max_size=5,
    ),
)
def test_lattice_count_on_fractional_slacks(dim, bound, raw):
    # slacks between |prefix| and the bound, most of them non-integral
    corners = []
    for prefix, u in raw:
        prefix = prefix[:dim]
        if sum(prefix) <= bound:
            corners.append((prefix, sum(prefix) + u * (bound - sum(prefix))))
    region = StaircaseRegion(dim, bound, tuple(sorted(corners)))
    inside = _points_in_boxes(dim, bound, corners)
    assert lattice_count(region) == inside
    simplex = lattice_count(ComplementRegion(StaircaseRegion(dim, bound, ())))
    assert lattice_count(ComplementRegion(region)) == simplex - inside


@settings(max_examples=80)
@given(
    st.lists(st.tuples(*[st.integers(0, 4)] * 3).filter(any), min_size=2, max_size=6),
    st.integers(1, 3),
    st.fractions(0, 8, max_denominator=6),
)
def test_staircase_area_matches_inclusion_exclusion_on_ideals(gens, m, t):
    ideal = MonomialIdeal.from_gens(3, gens)
    assume(len({g[2] for g in ideal.gens}) > 1)  # several slacks
    region = staircase_region(ideal, m, t)
    assert region_volume(region) == volume_by_inclusion_exclusion(region.corners)
    assert region_volume(gamma_region(ideal, m, t)) == (m * t) ** 2 / 2 - region_volume(region)


_coords = st.fractions(-6, 6, max_denominator=4)


@st.composite
def point_lists(draw):
    """Rational point lists with repeats, collinear runs, sometimes a closing
    repeat, or all on one line."""
    if draw(st.booleans()):
        base = draw(st.tuples(_coords, _coords))
        step = draw(st.tuples(_coords, _coords))
        scalars = draw(st.lists(st.fractions(-3, 3, max_denominator=3), max_size=7))
        return [(base[0] + s * step[0], base[1] + s * step[1]) for s in scalars]
    out = []
    for p in draw(st.lists(st.tuples(_coords, _coords), max_size=7)):
        if out and draw(st.booleans()):  # a collinear run towards p
            q = out[-1]
            out += [(q[0] + s * (p[0] - q[0]), q[1] + s * (p[1] - q[1]))
                    for s in draw(st.lists(st.fractions(0, 1, max_denominator=4), max_size=3))]
        out += [p] * draw(st.integers(1, 2))
    if out and draw(st.booleans()):
        out.append(out[0])
    return out


@settings(max_examples=400)
@given(point_lists())
def test_integer_polygon_kernels_match_fraction_oracle(points):
    poly = ShapePolygon.make(points)
    assert poly.vertices == fraction_polygon_make(points)
    assert all(type(c) is Fraction for p in poly.vertices for c in p)
    assert poly.signed_area() == fraction_signed_area(poly.vertices)
    raw = ShapePolygon(tuple((Fraction(x), Fraction(y)) for x, y in points))
    assert raw.signed_area() == fraction_signed_area(raw.vertices)


_MEMO_CASES = [
    (lambda: make_halfplane_family(Fraction(3, 2), Fraction(7, 3)), (4,)),
    (lambda: make_chain_family(CHAIN_POINTS), (4,)),
    (lambda: make_ceiling_family(Fraction(5, 3)), (4,)),
    # the halfplane rule without its closed form: the inner area grows with max_m
    (lambda: GradedFamily(2, make_halfplane_family(Fraction(5, 4), Fraction(9, 4)).ideal, "plain"),
     (3, 5)),
]


@pytest.mark.parametrize("build, max_ms", _MEMO_CASES)
def test_shape_memo_matches_fresh_families_in_every_order(build, max_ms):
    calls = (limiting_shape, gamma_limit, ahf)
    for t in (Fraction(5), Fraction(7, 2)):
        for order in permutations(calls):
            family = build()
            for max_m in max_ms:
                for call in order:
                    assert call(family, t, max_m) == call(build(), t, max_m), (call, t, max_m)
            assert len(family._shapes) == (len(max_ms) if family.exact_shape is None else 1)


@pytest.mark.parametrize("build, max_ms", _MEMO_CASES)
def test_int_and_fraction_t_share_a_memo_entry(build, max_ms):
    family = build()
    delta = limiting_shape(family, 5, max_ms[0])
    assert limiting_shape(family, Fraction(5), max_ms[0]) is delta
    assert gamma_limit(family, Fraction(5), max_ms[0]) is gamma_limit(family, 5, max_ms[0])
    assert len(family._shapes) == 1


@pytest.mark.parametrize("build, max_ms", _MEMO_CASES)
def test_max_m_below_1_is_refused_for_every_family(build, max_ms):
    # closed forms and inner approximations alike, before the memo is read
    family = build()
    shape_calls = (limiting_shape, gamma_limit, ahf, shape_json)
    # the payload builders refuse it for closed forms too, which never read it
    estimators = (waldschmidt_estimate, areg_estimate, ri_estimate, waldschmidt, areg)
    for max_m in (0, -5):
        for call in shape_calls:
            with pytest.raises(ValueError, match="max_m must be >= 1"):
                call(family, 5, max_m)
        for call in estimators:
            with pytest.raises(ValueError, match="max_m must be >= 1"):
                call(family, max_m)
    with pytest.raises(ValueError, match="max_m must be >= 2"):
        verify_graded(family, 1)
    # a non-integer is refused, not truncated or read as 1, on every path
    for max_m in (2.5, True, 6.0, "3"):
        expected = re.escape(f"max_m must be an integer, got {max_m!r}")
        for call in shape_calls:
            with pytest.raises(ValueError, match=expected):
                call(family, 5, max_m)
        for call in (*estimators, verify_graded):
            with pytest.raises(ValueError, match=expected):
                call(family, max_m)
    limiting_shape(family, 5, max_ms[0])
    with pytest.raises(ValueError, match="max_m must be >= 1"):
        gamma_limit(family, 5, 0)
    with pytest.raises(ValueError, match="max_m must be an integer"):
        limiting_shape(family, 5, float(max_ms[0]))


@settings(max_examples=300)
@given(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=6), st.integers(-2, 20))
def test_corner_count_matches_enumeration(gens, d):
    xs, ys = MonomialIdeal(2, tuple(gens))._staircase
    brute = sum(
        1
        for a in range(d + 1)
        for b in range(d - a + 1)
        if any(x <= a and y <= b for x, y in gens)
    )
    assert _corner_count(xs, ys, d) == brute


def _drawn_members(nvars):
    """The zero ideal, the unit ideal, or MonomialIdeal(nvars, gens) of drawn
    generators, redundant and repeated ones included."""
    gens = st.lists(st.tuples(*[st.integers(0, 9)] * nvars), max_size=6)
    return st.one_of(
        st.just(MonomialIdeal.zero(nvars)),
        st.just(MonomialIdeal.unit(nvars)),
        gens.map(lambda g: MonomialIdeal(nvars, tuple(g))),
    )


@st.composite
def plane_families(draw):
    """Families in one or two variables with one drawn member per m, or a
    built-in rule without its closed form; t often puts every corner of a
    member beyond x + y = m*t, and t = 0 is drawn too."""
    max_m = draw(st.integers(1, 6))
    if draw(st.booleans()):
        nvars = draw(st.integers(1, 2))
        members = draw(st.lists(_drawn_members(nvars), min_size=max_m, max_size=max_m))
        family = GradedFamily(nvars, lambda m: members[m - 1], "drawn")
    else:
        built = family_from_json(draw(family_specs()))
        family = GradedFamily(built.nvars, built.ideal, "plain " + built.label)
    t = draw(st.just(Fraction(0)) | st.fractions(0, 8, max_denominator=4))
    return family, t, max_m


@settings(max_examples=200)
@given(plane_families())
def test_ahf_samples_on_plane_members_are_padded_lattice_counts(case):
    family, t, max_m = case
    result = ahf(family, t, max_m)
    assert [m for m, _, _ in result.samples] == list(range(1, max_m + 1))
    for m, count, ratio in result.samples:
        member = family.ideal(m).padded(3)
        assert count == lattice_count(gamma_region(member, m, t)), (member, m, t)
        assert ratio == Fraction(count, m * m)


@settings(max_examples=200)
@given(plane_families())
def test_inner_hull_of_plane_families_matches_padded_oracle(case):
    family, t, max_m = case
    delta = limiting_shape(family, t, max_m)
    assert not delta.exact
    assert list(delta.polygon.vertices) == padded_inner_hull(family, t, max_m)
    assert delta.area == abs(fraction_signed_area(delta.polygon.vertices))
    assert gamma_limit(family, t, max_m).area == t * t / 2 - delta.area


def every_inner_point(family, t, max_m: int) -> tuple:
    """The hull of every point the definition names for members in one or
    two variables, on the integer scale D = lcm(1..max_m) * den(t): each
    generator (a, b) of member m, repeated and redundant ones included, with
    D/m * (a + b) <= tD, scaled by D/m, and both its projections onto
    x + y = tD.  It holds every point the hull took before the union
    staircase (each member's corners and the two ends of their projections).
    Returns (`_monotone_chain` of those points, D)."""
    D = lcm(*range(1, max_m + 1)) * t.denominator
    tD = t.numerator * (D // t.denominator)
    points = set()
    for m in range(1, max_m + 1):
        k = D // m
        for a, b in family.ideal(m).padded(2).gens:
            if k * (a + b) <= tD:
                points |= {(a * k, b * k), (a * k, tD - a * k), (tD - b * k, b * k)}
    return _monotone_chain(sorted(points)), D


@settings(max_examples=200)
@given(plane_families())
def test_inner_pair_of_plane_families_is_the_hull_of_every_point(case):
    family, t, max_m = case
    # the drawn t, t = 0, and when every member is proper a t below every
    # scaled corner, which keeps none
    alphas = [min(map(sum, family.ideal(m).gens), default=None) for m in range(1, max_m + 1)]
    ts = [t, Fraction(0)]
    if all(alphas):
        ts.append(min(Fraction(a, m) for m, a in enumerate(alphas, 1)) / 2)
    for s in ts:
        delta, gamma = _inner_pair(family, s, max_m)
        hull, D = every_inner_point(family, s, max_m)
        assert delta.polygon._image == (hull, D), (s, max_m)
        twice = sum(x0 * y1 - x1 * y0 for (x0, y0), (x1, y1) in zip(hull, hull[1:] + hull[:1]))
        assert delta.area == Fraction(abs(twice), 2 * D * D)
        assert gamma.area == s * s / 2 - delta.area
        assert gamma.polygon is None


def test_ahf_charges_every_sample_before_any_shape():
    # the walk over m = 1..5000 is charged before any member or hull
    plain = GradedFamily(2, make_halfplane_family(1, 2).ideal, "plain")
    start = time.perf_counter()
    with pytest.raises(WorkBudgetError):
        ahf(plain, Fraction(5, 2), max_m=5000)
    assert time.perf_counter() - start < 1
    assert not plain._shapes and not plain._cache  # no member built, no hull started
    # a closed form's walk is refused before its members' columns are summed
    with pytest.raises(WorkBudgetError, match="walking the members"):
        ahf(make_halfplane_family(1, 2), 0, max_m=10**6 + 1)
    # a closed form's members are charged their generators, 400m + 1 each here
    wide = make_halfplane_family(400, 400)
    with pytest.raises(WorkBudgetError, match="columns"):
        ahf(wide, 0, max_m=100)
    assert not wide._cache and not wide._shapes
    # t is checked first
    with pytest.raises(ValueError):
        ahf(plain, -1, max_m=5000)


@st.composite
def padded_plane_pairs(draw):
    """A 2-variable power or doubling family and the same family padded to
    three variables by a zero last column, a t and a max_m >= 2."""
    if draw(st.booleans()):
        pair = make_doubling_family(), make_doubling_family(extra_vars=1)
    else:
        exponent = st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(any)
        ideal = MonomialIdeal.from_gens(2, draw(st.lists(exponent, min_size=1, max_size=3)))
        pair = make_power_family(ideal), make_power_family(ideal.padded(3))
    return pair, draw(st.fractions(0, 6, max_denominator=4)), draw(st.integers(2, 4))


@settings(max_examples=150)
@given(padded_plane_pairs())
def test_padding_a_plane_family_leaves_every_payload_unchanged(case):
    # pins each 2-variable fast path (corner hull, staircase lookups, corner
    # counts) to the general path of the padded family
    (plain, padded), t, max_m = case

    def payloads(family):
        out = [shape_json(family, t, max_m), ahf(family, t, max_m).to_json(), waldschmidt(family, max_m),
               verify_graded(family, max_m).to_json()]
        if plain.claims_borel:  # the areg estimate needs a Borel-fixed family
            out.append(areg(family, max_m))
        if plain.label.startswith("doubling"):  # its label names the variables
            for payload in out:
                payload.pop("label", None)
        return out

    assert payloads(plain) == payloads(padded)
