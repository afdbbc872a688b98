import inspect
import re
from dataclasses import replace
from fractions import Fraction
from itertools import combinations
from math import lcm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from limshape import (
    ExactShape,
    PLGraph,
    WorkBudgetError,
    area_under_graph,
    dhf_envelope,
    dhf_vertices_closed_form,
    divisibility_modulus,
    gamma_vertices,
    reduction_vector,
    two_line_vertices,
    validate_configuration,
)
from limshape.geometry import _exact_pair
from limshape.planar import LineConfiguration, ReductionVector
from limshape.work import BUDGETS

from conftest import (
    assert_vertices_read_once,
    fraction_graph_area,
    fraction_graph_make,
    fraction_graph_truncate,
    fraction_graph_value,
    fraction_polygon_make,
    fraction_signed_area,
    harmonic_closed_form,
    is_convex,
    simulate_reduction,
)

FOUR_LINES = (10, 8, 5, 3)
FOUR_LINE_VERTICES = (
    (Fraction(0), Fraction(0)),
    (Fraction(4), Fraction(4)),
    (Fraction(189, 40), Fraction(69, 40)),
    (Fraction(47, 8), Fraction(7, 8)),
    (Fraction(41, 5), Fraction(1, 5)),
    (Fraction(10), Fraction(0)),
)


def test_validate_configuration():
    cfg = validate_configuration(FOUR_LINES)
    assert cfg.counts == FOUR_LINES and not cfg.shared_intersection
    with pytest.raises(ValueError):
        validate_configuration((3, 3))
    with pytest.raises(ValueError):
        validate_configuration((2, 2), shared_intersection=True)  # 4 <= 4
    shared = validate_configuration((3, 2), shared_intersection=True)
    assert shared.counts == (3, 2) and shared.shared_intersection
    with pytest.raises(ValueError):
        validate_configuration((3, 2, 1), shared_intersection=True)
    with pytest.raises(ValueError):
        validate_configuration(())


@pytest.mark.parametrize("call, bad", [
    (lambda: validate_configuration([2.7, 1]), "2.7"),
    (lambda: validate_configuration([True]), "True"),
    (lambda: validate_configuration(["3", 1]), "'3'"),
    (lambda: validate_configuration([3, Fraction(2)]), "Fraction(2, 1)"),
    (lambda: two_line_vertices(3.5, 3), "3.5"),
    (lambda: dhf_vertices_closed_form((5, 2.0)), "2.0"),
    (lambda: LineConfiguration((5, 2.0)), "2.0"),
])
def test_point_counts_are_refused_not_truncated(call, bad):
    # a count goes through the exponent rule: no int() truncation of 2.7 to 2
    with pytest.raises(ValueError, match=re.escape(f"point count must be an integer, got {bad}")):
        call()


@pytest.mark.parametrize("call, message", [
    (lambda: validate_configuration((3, 0)), "point counts must be positive: (3, 0)"),
    (lambda: validate_configuration((2, 3), shared_intersection=True), "counts must be non-increasing: (2, 3)"),
    # a configuration built by hand is checked as well: none reaches reduction_vector unchecked
    (lambda: LineConfiguration((3, 5)), "counts must be strictly decreasing: (3, 5)"),
    (lambda: LineConfiguration((5, 0)), "point counts must be positive: (5, 0)"),
    (lambda: LineConfiguration((5, 3, 2), True), "shared-intersection variant needs exactly two lines"),
    (lambda: LineConfiguration((2, 2), True), "need a1*a2 > a1+a2, got 2*2 = 4 <= 4"),
    (lambda: LineConfiguration(()), "configuration needs at least one line"),
    (lambda: replace(validate_configuration((5, 3)), counts=(3, 5)), "counts must be strictly decreasing: (3, 5)"),
    # the flag is True or False, not any truthy value
    (lambda: validate_configuration((5, 3), "no"), "shared_intersection must be True or False, got 'no'"),
    (lambda: validate_configuration((5, 3), 2), "shared_intersection must be True or False, got 2"),
    (lambda: LineConfiguration((5, 3), 1), "shared_intersection must be True or False, got 1"),
    (lambda: validate_configuration((5, 3), None), "shared_intersection must be True or False, got None"),
    (lambda: reduction_vector(validate_configuration((3, 2)), 0), "multiplicity m must be >= 1"),
    (lambda: reduction_vector(validate_configuration((3, 2)), -6, approximate=True), "multiplicity m must be >= 1"),
])
def test_configuration_refusals_are_pinned(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


@pytest.mark.parametrize("m, bad", [(True, "True"), (6.0, "6.0"), (2.5, "2.5"), ("6", "'6'")])
def test_multiplicity_is_refused_not_truncated(m, bad):
    # True is not read as 1, nor 6.0 as 6, even where approximate allows any m
    config = validate_configuration((3, 2))
    with pytest.raises(ValueError, match=re.escape(f"multiplicity m must be an integer, got {bad}")):
        reduction_vector(config, m, approximate=True)


def test_integer_like_point_counts_are_read_by_index():
    class Three:
        def __index__(self):
            return 3

    assert validate_configuration([Three(), 1]).counts == (3, 1)
    # built by hand from a list, a configuration holds the same checked tuple
    assert LineConfiguration([Three(), 1]) == validate_configuration((3, 1))
    assert hash(LineConfiguration([3, 1])) == hash(validate_configuration((3, 1)))


def test_divisibility_modulus():
    assert divisibility_modulus(validate_configuration(FOUR_LINES)) == lcm(10, 8, 5, 3)
    shared = validate_configuration((3, 2), shared_intersection=True)
    assert divisibility_modulus(shared) == 30


def test_reduction_vector_four_lines():
    cfg = validate_configuration(FOUR_LINES)
    vec = reduction_vector(cfg, 120)
    assert vec.exact
    # first phase: the largest line alone, weight dropping by 10 per pick
    assert vec.entries[:24] == tuple(1200 - 10 * k for k in range(24))
    assert vec.entries[24] == 960
    assert vec.entries[-1] == 0
    assert len(vec.entries) == 4 * 120 + 1


def test_reduction_vector_single_line():
    cfg = validate_configuration((4,))
    vec = reduction_vector(cfg, 4)
    assert vec.entries == (16, 12, 8, 4, 0)


def test_reduction_vector_shared_example():
    cfg = validate_configuration((3, 2), shared_intersection=True)
    vec = reduction_vector(cfg, 6)
    assert not vec.exact  # 6 is not divisible by lcm(3, 5)
    assert vec.entries[:2] == (24, 20)
    with pytest.raises(ValueError):
        reduction_vector(cfg, 5)
    assert reduction_vector(cfg, 5, approximate=True).exact is False


def test_reduction_entries_non_increasing(rng):
    for _ in range(20):
        n = rng.randint(1, 4)
        counts = tuple(sorted(rng.sample(range(1, 13), n), reverse=True))
        shared = n == 2 and counts[0] * counts[1] > sum(counts) and rng.random() < 0.5
        cfg = validate_configuration(counts, shared)
        m = lcm(*counts) * rng.randint(1, 2)
        vec = reduction_vector(cfg, m)
        assert all(a >= b for a, b in zip(vec.entries, vec.entries[1:]))


def test_greedy_merge_equals_step_simulation(rng):
    for _ in range(15):
        n = rng.randint(1, 3)
        counts = tuple(sorted(rng.sample(range(1, 9), n), reverse=True))
        cfg = validate_configuration(counts)
        m = rng.randint(1, 6)
        fast = reduction_vector(cfg, m, approximate=True).entries[:-1]
        stepped = tuple(simulate_reduction(cfg, m))
        assert fast == stepped


def test_shared_merge_equals_step_simulation():
    # the shared point weighs the same on both lines, so it never changes the pick
    for a1 in range(2, 14):
        for a2 in range(2, a1 + 1):
            if a1 * a2 <= a1 + a2:
                continue
            cfg = validate_configuration((a1, a2), shared_intersection=True)
            for m in range(1, 51):
                fast = reduction_vector(cfg, m, approximate=True).entries
                assert fast == (*simulate_reduction(cfg, m), 0), (a1, a2, m)


def test_entries_invariant_under_tie_breaking(rng):
    for _ in range(12):
        n = rng.randint(2, 3)
        counts = tuple(sorted(rng.sample(range(1, 9), n), reverse=True))
        shared = n == 2 and counts[0] * counts[1] > sum(counts)
        cfg = validate_configuration(counts, shared)
        m = rng.randint(1, 5)
        base = simulate_reduction(cfg, m)
        chaotic = simulate_reduction(cfg, m, pick=rng.choice)
        assert base == chaotic


def test_closed_form_four_lines():
    graph = dhf_vertices_closed_form(FOUR_LINES)
    assert graph.vertices == FOUR_LINE_VERTICES


def test_closed_form_single_line():
    graph = dhf_vertices_closed_form((5,))
    assert graph.vertices == (
        (Fraction(0), Fraction(0)),
        (Fraction(1), Fraction(1)),
        (Fraction(5), Fraction(0)),
    )


def test_envelope_matches_closed_form():
    cfg = validate_configuration(FOUR_LINES)
    env = dhf_envelope(reduction_vector(cfg, 120))
    assert env.vertices == FOUR_LINE_VERTICES
    # second sample configuration at geometric multiplicities
    base = lcm(7, 4, 2)
    closed = dhf_vertices_closed_form((7, 4, 2))
    for m in (base, 2 * base, 4 * base):
        env = dhf_envelope(reduction_vector(validate_configuration((7, 4, 2)), m))
        assert env.vertices == closed.vertices, m


def test_envelope_of_trivial_vector():
    vec = ReductionVector((0,), 3, True)
    assert dhf_envelope(vec).vertices == ((Fraction(0), Fraction(0)),)


def test_two_line_vertices():
    graph = two_line_vertices(3, 2)
    assert graph.vertices == (
        (Fraction(0), Fraction(0)),
        (Fraction(2), Fraction(2)),
        (Fraction(11, 5), Fraction(1)),
        (Fraction(3), Fraction(1, 3)),
        (Fraction(4), Fraction(0)),
    )
    equal = two_line_vertices(3, 3)
    assert equal.vertices == (
        (Fraction(0), Fraction(0)),
        (Fraction(2), Fraction(2)),
        (Fraction(5, 2), Fraction(1)),
        (Fraction(4), Fraction(0)),
    )
    assert area_under_graph(graph) == Fraction(3 + 2 + 1, 2)
    with pytest.raises(ValueError):
        two_line_vertices(2, 2)


def test_graphs_and_gamma_polygons_hold_their_image_until_read():
    # every graph here and every polygon cut from it is built from integers;
    # cuts, values and areas read no vertex
    config = validate_configuration(FOUR_LINES)
    vec = reduction_vector(config, divisibility_modulus(config))
    assert vec._trusted and not replace(vec)._trusted
    two_lines = tuple((Fraction(x), Fraction(y)) for x, y in
                      [(0, 0), (2, 2), (Fraction(11, 5), 1), (3, Fraction(1, 3)), (4, 0)])
    cases = [
        (dhf_vertices_closed_form(FOUR_LINES), FOUR_LINE_VERTICES),
        (two_line_vertices(3, 2), two_lines),
        (dhf_envelope(vec), FOUR_LINE_VERTICES),  # the closed form, trusted
        (dhf_envelope(replace(vec)), FOUR_LINE_VERTICES),  # the checked hull
        (PLGraph.make(FOUR_LINE_VERTICES), FOUR_LINE_VERTICES),
    ]
    t = Fraction(7, 2)
    for graph, want in cases:
        cut = fraction_graph_truncate(want, t)
        assert graph.is_function and graph.area() == fraction_graph_area(want)
        assert graph.area(t) == area_under_graph(graph, t) == fraction_graph_area(cut)
        assert graph.value_at(t) == fraction_graph_value(want, t)
        truncated, gamma, whole = graph.truncated(t), gamma_vertices(graph, t), gamma_vertices(graph)
        assert truncated.area() == fraction_graph_area(cut)
        for poly in (gamma, whole):
            assert poly.area() == abs(poly.signed_area())
        assert_vertices_read_once(truncated, cut)
        assert_vertices_read_once(gamma, fraction_polygon_make([(y, x - y) for x, y in cut] + [(0, t)]))
        assert_vertices_read_once(whole, fraction_polygon_make([(y, x - y) for x, y in want]))
        assert_vertices_read_once(graph, want)


def test_two_line_envelope_matches_closed_form():
    for a1, a2 in [(3, 2), (4, 2), (5, 3), (4, 4)]:
        cfg = validate_configuration((a1, a2), shared_intersection=True)
        m = divisibility_modulus(cfg)
        env = dhf_envelope(reduction_vector(cfg, m))
        assert env.vertices == two_line_vertices(a1, a2).vertices, (a1, a2)


def test_folded_chain_still_matches_envelope():
    # too few points per line folds the chain; the comparison still holds
    counts = (2, 1)
    closed = dhf_vertices_closed_form(counts)
    assert not closed.is_function
    env = dhf_envelope(reduction_vector(validate_configuration(counts), 2))
    assert env.vertices == closed.vertices


@pytest.mark.parametrize("counts", [(6, 4, 2, 1), (9, 6, 4, 2), (9, 6, 4, 2, 1)])
def test_folded_closed_form_equals_its_envelope_and_refuses_every_cut(counts):
    # the chain turns back in x, and the envelope at the modulus says the same
    config = validate_configuration(counts)
    closed = dhf_vertices_closed_form(counts)
    assert not closed.is_function
    assert dhf_envelope(reduction_vector(config, divisibility_modulus(config))).vertices == closed.vertices
    for cut in (closed.value_at, closed.truncated, closed.area, lambda t: gamma_vertices(closed, t)):
        with pytest.raises(ValueError, match="^graph is not x-monotone$"):
            cut(3)


def test_closed_form_folds_exactly_when_the_harmonic_sum_passes_one():
    # consecutive vertices differ in x by (a_i - a_(i+1)) * (1 - H_i), H_i the
    # sum of 1/a_j over the first i lines
    assert dhf_vertices_closed_form((6, 4, 2, 1)).vertices[1:3] == ((4, 4), (Fraction(37, 12), Fraction(25, 12)))
    for n in range(1, 5):
        for counts in combinations(range(12, 0, -1), n):
            harmonic = sum(Fraction(1, a) for a in counts)
            assert dhf_vertices_closed_form(counts).is_function == (harmonic <= 1), counts


# every disjoint configuration of 1-3 lines with counts <= 9, folded ones included
DISJOINT_SAMPLE = [counts for n in range(1, 4) for counts in combinations(range(9, 0, -1), n)]


def test_envelope_folds_exactly_when_the_harmonic_sum_passes_one():
    for counts in DISJOINT_SAMPLE:
        config = validate_configuration(counts)
        envelope = dhf_envelope(reduction_vector(config, divisibility_modulus(config)))
        assert envelope.is_function == (sum(Fraction(1, a) for a in counts) <= 1), counts


# every strictly decreasing configuration of at most 5 lines with counts <= 16,
# folded ones included, and every shared pair with a1 <= 29, a1 = a2 included
CLOSED_FORM_SWEEP = (
    [validate_configuration(counts) for n in range(1, 6) for counts in combinations(range(16, 0, -1), n)]
    + [validate_configuration((a1, a2), shared_intersection=True)
       for a1 in range(2, 30) for a2 in range(2, a1 + 1) if a1 * a2 > a1 + a2]
)


def _closed_form(config) -> PLGraph:
    if config.shared_intersection:
        return two_line_vertices(*config.counts)
    return dhf_vertices_closed_form(config.counts)


def _reduced_and_scanned(graph) -> tuple:
    """The graph's image through `PLGraph._reduce`, and whether x never
    decreases along it: what a closed form is built with, recomputed."""
    ints = graph._image[0]
    return [ints[i] for i in PLGraph._reduce(ints)], all(p[0] <= q[0] for p, q in zip(ints, ints[1:]))


def test_closed_forms_are_built_reduced_with_their_monotonicity_stored():
    # `_closed_graph` proves both, so neither is recomputed when built
    assert len(CLOSED_FORM_SWEEP) == 6884 + 405
    for config in CLOSED_FORM_SWEEP:
        graph = _closed_form(config)
        stored = graph.__dict__["is_function"]  # stored when built, not scanned
        assert _reduced_and_scanned(graph) == (graph._image[0], stored), config
    # an equal shared pair repeats its last point, which is dropped
    for a in (3, 4, 29):
        assert len(two_line_vertices(a, a).vertices) == 4
        assert len(two_line_vertices(a, a - 1).vertices) == 5


def test_trusted_envelopes_carry_the_closed_form_image_and_flag():
    for config in TRUSTED_SAMPLE:
        closed = _closed_form(config)
        envelope = dhf_envelope(reduction_vector(config, divisibility_modulus(config)))
        assert envelope._image == closed._image, config
        assert envelope.__dict__["is_function"] == closed.is_function, config
        assert _reduced_and_scanned(envelope) == (envelope._image[0], envelope.is_function), config


def test_gamma_polygon_areas_of_closed_forms_are_their_shoelace_areas():
    # every 7th configuration of the sweep, whole and cut at three t
    for config in CLOSED_FORM_SWEEP[::7]:
        graph = _closed_form(config)
        if not graph.is_function:
            continue
        top = graph.vertices[-1][0]
        for poly in [gamma_vertices(graph), *(gamma_vertices(graph, top * Fraction(j, 4)) for j in (1, 2, 3))]:
            assert poly.area() == abs(poly.signed_area()) == abs(fraction_signed_area(poly.vertices)), config


def test_graph_area():
    graph = dhf_vertices_closed_form(FOUR_LINES)
    assert area_under_graph(graph) == 13
    assert area_under_graph(graph, 2) == 2
    assert area_under_graph(graph, 4) == 8
    triangle = PLGraph.make([(0, 0), (1, 1), (1, 0)])
    assert area_under_graph(triangle) == Fraction(1, 2)


def test_graph_area_equals_half_total_points(rng):
    for _ in range(12):
        n = rng.randint(1, 4)
        counts = tuple(sorted(rng.sample(range(2, 13), n), reverse=True))
        if sum(Fraction(1, a) for a in counts) > 1:
            continue  # folded chain: not the graph of a function
        graph = dhf_vertices_closed_form(counts)
        assert area_under_graph(graph) == Fraction(sum(counts), 2)


def test_truncation_matches_rebuilt_chain():
    # truncated keeps the reduced prefix as it is; rebuilding the prefix and
    # the cut through make gives the same chain, vertical segments included
    graphs = [
        dhf_vertices_closed_form(FOUR_LINES),
        two_line_vertices(3, 2),
        PLGraph.make([(1, 2), (1, 1), (3, 0)]),  # opens with a vertical segment
        PLGraph.make([(0, 0), (2, 2), (2, 1), (4, 0)]),  # vertical segment inside
    ]
    for graph in graphs:
        xs = sorted({x for x, _ in graph.vertices})
        for t in xs + [(a + b) / 2 for a, b in zip(xs, xs[1:])]:
            kept = [p for p in graph.vertices if p[0] <= t]
            cut = (t, graph.value_at(t))
            rebuilt = PLGraph.make(kept + [cut] if kept[-1] != cut else kept)
            assert graph.truncated(t).vertices == rebuilt.vertices, (graph, t)


def test_gamma_vertices_four_lines():
    graph = dhf_vertices_closed_form(FOUR_LINES)
    poly = gamma_vertices(graph)
    assert poly.vertices == (
        (Fraction(0), Fraction(0)),
        (Fraction(4), Fraction(0)),
        (Fraction(69, 40), Fraction(3)),
        (Fraction(7, 8), Fraction(5)),
        (Fraction(1, 5), Fraction(8)),
        (Fraction(0), Fraction(10)),
    )
    assert poly.signed_area() > 0  # counterclockwise boundary
    assert not is_convex(poly.vertices)  # complements bulge towards the origin


def test_gamma_vertices_two_lines():
    poly = gamma_vertices(two_line_vertices(3, 2))
    assert poly.vertices == (
        (Fraction(0), Fraction(0)),
        (Fraction(2), Fraction(0)),
        (Fraction(1), Fraction(6, 5)),
        (Fraction(1, 3), Fraction(8, 3)),
        (Fraction(0), Fraction(4)),
    )


def test_gamma_vertices_single_line():
    poly = gamma_vertices(PLGraph.make([(0, 0), (1, 1), (6, 0)]))
    assert set(poly.vertices) == {
        (Fraction(0), Fraction(0)),
        (Fraction(1), Fraction(0)),
        (Fraction(0), Fraction(6)),
    }


def test_gamma_vertices_truncation():
    graph = dhf_vertices_closed_form(FOUR_LINES)
    poly = gamma_vertices(graph, 2)
    assert set(poly.vertices) == {
        (Fraction(0), Fraction(0)),
        (Fraction(2), Fraction(0)),
        (Fraction(0), Fraction(2)),
    }
    assert poly.area() == 2


def test_transform_inverts_back_to_graph():
    graph = dhf_vertices_closed_form(FOUR_LINES)
    poly = gamma_vertices(graph)
    recovered = [(x + y, x) for x, y in poly.vertices]
    assert tuple(recovered) == graph.vertices


def test_area_under_graph_equals_gamma_area_at_cuts():
    graph = dhf_vertices_closed_form(FOUR_LINES)
    for t in (Fraction(3), Fraction(9, 2), Fraction(47, 8), Fraction(10), Fraction(12)):
        assert area_under_graph(graph, t) == gamma_vertices(graph, t).area(), t


BRIDGE_CONFIGURATIONS = (
    [validate_configuration(c) for n in range(1, 5) for c in combinations(range(12, 0, -1), n)
     if sum(Fraction(1, a) for a in c) <= 1]
    + [validate_configuration((a1, a2), shared_intersection=True)
       for a1 in range(2, 13) for a2 in range(2, a1 + 1) if a1 * a2 > a1 + a2]
)


def test_closed_form_shape_of_the_mapped_chain_is_the_gamma_of_its_graph():
    # the chain (y, x - y) of a closed graph, origin dropped, is a closed-form
    # shape whose gamma at every t is the graph's gamma polygon, with its area
    assert len(BRIDGE_CONFIGURATIONS) == 509 + 65
    for config in BRIDGE_CONFIGURATIONS:
        graph = _closed_form(config)
        shape = ExactShape(tuple((y, x - y) for x, y in graph.vertices[1:]))
        for k in range(3 * (config.counts[0] + 2)):
            t = Fraction(k, 3)
            gamma = _exact_pair(shape, t)[1]
            assert gamma.polygon.to_json() == gamma_vertices(graph, t).to_json(), (config, t)
            assert gamma.area == area_under_graph(graph, t), (config, t)


def test_reduction_vector_refuses_work_over_budget():
    # each is refused before a single entry is allocated
    with pytest.raises(WorkBudgetError):
        reduction_vector(validate_configuration((3, 2)), 600_000_000_000)
    shared = validate_configuration((3, 2), shared_intersection=True)
    with pytest.raises(WorkBudgetError):
        reduction_vector(shared, 6 * (BUDGETS["entries"][0] // 18 + 1))
    with pytest.raises(WorkBudgetError):
        reduction_vector(validate_configuration((1,)), BUDGETS["entries"][0] + 1)
    # an invalid multiplicity is still a validation error, not a refusal
    with pytest.raises(ValueError):
        reduction_vector(validate_configuration((3, 2)), 600_000_000_001)


@st.composite
def line_configurations(draw):
    """Strictly decreasing counts (1-4 lines, each <= 12) or a shared pair,
    small enough that a reduction at twice the modulus stays cheap."""
    if draw(st.booleans()):
        a1 = draw(st.integers(2, 12))
        a2 = draw(st.integers(2, a1))
        assume(a1 * a2 > a1 + a2)
        config = validate_configuration((a1, a2), shared_intersection=True)
    else:
        counts = draw(st.sets(st.integers(1, 12), min_size=1, max_size=4))
        config = validate_configuration(sorted(counts, reverse=True))
    points = sum(config.counts) + config.shared_intersection
    assume(points * divisibility_modulus(config) <= 20000)
    return config


@settings(max_examples=60)
@given(line_configurations(), st.sampled_from([1, 2]))
def test_envelope_equals_closed_form_property(config, k):
    vec = reduction_vector(config, k * divisibility_modulus(config))
    assert vec.exact
    if config.shared_intersection:
        closed = two_line_vertices(*config.counts)
    else:
        closed = dhf_vertices_closed_form(config.counts)
    assert dhf_envelope(vec).vertices == closed.vertices


def _unfiltered_envelope(u: ReductionVector) -> tuple:
    """Reference: the integer monotone chain over every entry, no sampling."""
    entries = list(u.entries)
    while entries and entries[-1] == 0:
        entries.pop()
    m = u.multiplicity
    if not entries:
        return PLGraph.make([(0, 0)]).vertices
    entries.append(0)
    hull: list = []
    for k, e in enumerate(entries):
        x = k + e
        while len(hull) >= 2:
            (k1, x1), (k2, x2) = hull[-2], hull[-1]
            if (x2 - x1) * (k - k1) >= (x - x1) * (k2 - k1):
                hull.pop()
            else:
                break
        hull.append((k, x))
    verts = [(Fraction(0), Fraction(0))]
    verts.extend((Fraction(x, m), Fraction(k, m)) for k, x in reversed(hull))
    return PLGraph.make(verts).vertices


@st.composite
def entry_tuples(draw):
    """Entry tuples as drawn, non-increasing, tied, or in collinear runs,
    with up to three extra trailing zeros.  Up to 200 entries, so the hull
    of the sample (every SAMPLE_STRIDE-th index) has many edges to prune."""
    shape = draw(st.sampled_from(["drawn", "non-increasing", "tied", "collinear"]))
    if shape == "collinear":
        runs = draw(st.lists(st.tuples(st.integers(1, 60), st.integers(0, 12)), max_size=6))
        top = draw(st.integers(0, 400))
        entries = []
        for length, step in runs:
            entries.extend(max(top - step * i, 0) for i in range(length))
            top = entries[-1]
    else:
        values = st.sampled_from([0, 3, 6, 9]) if shape == "tied" else st.integers(0, 400)
        size = draw(st.integers(0, 200))  # drawn first: list draws favour short lists
        entries = draw(st.lists(values, min_size=size, max_size=size))
        if shape != "drawn":
            entries.sort(reverse=True)
    return tuple(entries) + (0,) * draw(st.integers(0, 3))


@st.composite
def small_configurations(draw):
    """A disjoint configuration of 1-4 lines or a shared pair, counts <= 12."""
    if draw(st.booleans()):
        a1 = draw(st.integers(3, 12))
        return validate_configuration((a1, draw(st.integers(2, a1))), shared_intersection=True)
    counts = draw(st.sets(st.integers(1, 12), min_size=1, max_size=4))
    return validate_configuration(sorted(counts, reverse=True))


@settings(max_examples=300, derandomize=True)
@given(entry_tuples(), st.integers(1, 80), small_configurations())
def test_envelope_equals_unfiltered_hull(entries, m, config):
    vec = ReductionVector(entries, m, False)
    assert dhf_envelope(vec).vertices == _unfiltered_envelope(vec)
    # a hand-built exact vector with a config is not trusted: whatever the
    # config, its hull is the entries' own
    exact = ReductionVector(entries, m, True, config)
    assert dhf_envelope(exact).vertices == _unfiltered_envelope(vec)


# the configurations of the trusted vectors checked below: the disjoint sample
# and every shared pair with a1 <= 10
TRUSTED_SAMPLE = [validate_configuration(counts) for counts in DISJOINT_SAMPLE] + [
    validate_configuration((a1, a2), shared_intersection=True)
    for a1 in range(3, 11) for a2 in range(2, a1 + 1) if a1 * a2 > a1 + a2]


def test_trusted_envelope_equals_unfiltered_hull():
    # the vectors whose envelope is the closed form, read off no entry, at
    # once and twice the modulus
    for config in TRUSTED_SAMPLE:
        for k in (1, 2):
            vec = reduction_vector(config, k * divisibility_modulus(config))
            assert vec._trusted
            assert dhf_envelope(vec).vertices == _unfiltered_envelope(vec), (config, k)


def test_trusted_envelope_is_the_checked_hull_at_every_cut():
    # the trusted envelope is the closed form, on its scale lcm(counts); the
    # same entries in a hand-built vector are hulled and checked on the scale
    # m, so equal vertices must also give equal values and areas at each cut
    for config in TRUSTED_SAMPLE:
        closed = two_line_vertices(*config.counts) if config.shared_intersection \
            else dhf_vertices_closed_form(config.counts)
        for k in (1, 2):
            vec = reduction_vector(config, k * divisibility_modulus(config))
            trusted = dhf_envelope(vec)
            checked = dhf_envelope(ReductionVector(vec.entries, vec.multiplicity, True, config))
            assert trusted.vertices == checked.vertices == closed.vertices, (config, k)
            assert trusted.to_json() == checked.to_json()
            if not closed.is_function:
                assert not trusted.is_function and not checked.is_function
                continue
            top = closed.vertices[-1][0]
            for t in (top * Fraction(j, 5) for j in range(1, 6)):
                assert trusted.value_at(t) == checked.value_at(t), (config, k, t)
                assert trusted.area(t) == checked.area(t), (config, k, t)
                assert gamma_vertices(trusted, t).area() == gamma_vertices(checked, t).area(), (config, k, t)


def test_reduction_vector_equals_step_simulation_at_and_off_the_modulus():
    # exact vectors at the modulus and approximate ones one off it
    for config in TRUSTED_SAMPLE:
        modulus = divisibility_modulus(config)
        for m in {modulus, modulus + 1, max(modulus - 1, 1)}:
            vec = reduction_vector(config, m, approximate=True)
            assert vec.exact == (m % modulus == 0)
            assert vec.entries == (*simulate_reduction(config, m), 0), (config, m)


GUESS_CONFIGS = [validate_configuration(FOUR_LINES), validate_configuration((5, 3), shared_intersection=True)]


@pytest.mark.parametrize("config", GUESS_CONFIGS)
def test_entry_below_the_closed_form_is_not_hidden_by_the_guess(config):
    m = divisibility_modulus(config)
    vec = reduction_vector(config, m)
    closed = two_line_vertices(*config.counts) if config.shared_intersection \
        else dhf_vertices_closed_form(config.counts)
    assert dhf_envelope(vec).vertices == closed.vertices
    # lower the entry midway between two picks of the closed form to one
    # below the chord of its guessed edge
    picks = sorted({int(y * m) for _, y in closed.vertices})
    k1, k2 = max(zip(picks, picks[1:]), key=lambda edge: edge[1] - edge[0])
    k = (k1 + k2) // 2
    e1, e2 = vec.entries[k1], vec.entries[k2]
    entries = list(vec.entries)
    entries[k] = (e1 * (k2 - k) + e2 * (k - k1)) // (k2 - k1) - 1
    lowered = ReductionVector(tuple(entries), m, True, config)
    envelope = dhf_envelope(lowered).vertices
    assert envelope == _unfiltered_envelope(lowered)
    assert envelope != closed.vertices


@pytest.mark.parametrize("config", GUESS_CONFIGS)
def test_reduction_vector_config_is_outside_equality_and_repr(config):
    m = divisibility_modulus(config)
    vec = reduction_vector(config, m)
    assert vec.config is config
    plain = ReductionVector(vec.entries, m, vec.exact)
    assert vec._trusted and not plain._trusted  # so the checks below show ==, hash and repr skip it
    assert vec == plain and hash(vec) == hash(plain)
    assert "config" not in repr(vec) and repr(vec) == repr(plain)
    assert "_trusted" not in inspect.signature(ReductionVector).parameters
    # a replaced vector is no longer the one reduction_vector built: its
    # envelope is checked, and is the new entries' own hull
    lowered = replace(vec, entries=(vec.entries[0], *(e // 2 for e in vec.entries[1:])))
    assert not lowered._trusted
    envelope = dhf_envelope(lowered).vertices
    assert envelope == _unfiltered_envelope(lowered) != dhf_envelope(vec).vertices


@st.composite
def graph_points(draw, monotone=False):
    """Points with Fraction coordinates (denominators up to 6), some given as
    ints, in runs: repeats of the previous point, collinear runs along one
    step, and vertical steps.  With `monotone`, x never decreases."""
    coord = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6))
    x, y = draw(coord), draw(coord)
    points = [(x, y)]
    moves = st.tuples(st.sampled_from(["repeat", "run", "vertical"]), coord, coord, st.integers(1, 4))
    for kind, dx, dy, length in draw(st.lists(moves, max_size=8)):
        dx = 0 if kind != "run" else abs(dx) if monotone else dx
        dy = 0 if kind == "repeat" else dy
        for _ in range(length):
            x, y = x + dx, y + dy
            points.append((x, y))
    if draw(st.booleans()):
        points = [tuple(int(c) if c.denominator == 1 else c for c in p) for p in points]
    return points


@settings(max_examples=300)
@given(graph_points())
def test_graph_make_equals_fraction_oracle(points):
    vertices = PLGraph.make(points).vertices
    assert vertices == fraction_graph_make(points)
    assert all(type(c) is Fraction for p in vertices for c in p)


@settings(max_examples=300)
@given(graph_points(monotone=True), st.fractions(-14, 60, max_denominator=6))
def test_graph_area_equals_fraction_oracle(points, t):
    graph = PLGraph.make(points)
    assert graph.is_function
    assert graph.area() == fraction_graph_area(graph.vertices)
    if t >= graph.vertices[0][0]:
        assert graph.area(t) == fraction_graph_area(fraction_graph_truncate(graph.vertices, t))


def _cut_points(vertices, lam, beyond) -> list:
    """Every vertex's x (vertical segments and the last x among them), a point
    at lam inside every segment that moves in x, and one past the last x."""
    xs = [x for x, _ in vertices]
    inside = [a + lam * (b - a) for a, b in zip(xs, xs[1:]) if a < b]
    return sorted(set(xs)) + inside + [xs[-1] + beyond]


@settings(max_examples=300)
@given(graph_points(monotone=True), st.fractions(0, 1, max_denominator=7).filter(lambda q: 0 < q < 1),
       st.fractions(1, 5, max_denominator=3))
def test_cuts_equal_fraction_oracle(points, lam, beyond):
    graph = PLGraph.make(points)
    v = graph.vertices
    for t in _cut_points(v, lam, beyond):
        ref = fraction_graph_truncate(v, t)
        truncated = graph.truncated(t)
        assert truncated.vertices == ref and truncated.area() == fraction_graph_area(ref)
        assert graph.area(t) == area_under_graph(graph, t) == fraction_graph_area(ref)
        if t <= v[-1][0]:
            assert graph.value_at(t) == fraction_graph_value(v, t)
        closing = [(0, t)] if t < v[-1][0] else []
        ref_gamma = fraction_polygon_make([(y, x - y) for x, y in ref] + closing)
        gamma = gamma_vertices(graph, t)
        assert gamma.vertices == ref_gamma, (v, t)
        assert gamma.area() == abs(fraction_signed_area(ref_gamma))
        assert all(type(c) is Fraction for p in truncated.vertices + gamma.vertices for c in p)
    # before the first x every cut is refused with the same message
    t = v[0][0] - beyond
    for cut in (graph.value_at, graph.truncated, graph.area, lambda t: gamma_vertices(graph, t)):
        with pytest.raises(ValueError, match=re.escape(f"x={t} outside graph range")):
            cut(t)


def test_an_empty_graph_refuses_every_cut():
    # as before the first x of any other graph: `_at`'s refusal, no IndexError
    for graph in (PLGraph(()), PLGraph.make([])):
        assert graph.vertices == () and graph.is_function and graph.area() == 0
        cuts = (graph.value_at, graph.truncated, graph.area,
                lambda t: area_under_graph(graph, t), lambda t: gamma_vertices(graph, t))
        for cut in cuts:
            with pytest.raises(ValueError, match=re.escape("x=1 outside graph range")):
                cut(1)


@settings(max_examples=200)
@given(graph_points())
def test_folded_graph_cuts_are_refused(points):
    graph = PLGraph.make(points)
    assume(not graph.is_function)
    v = graph.vertices
    last = v[-1][0]
    below = min(x for x, _ in v) - 1
    for cut in (graph.value_at, graph.truncated, graph.area, lambda t: gamma_vertices(graph, t)):
        with pytest.raises(ValueError, match="^graph is not x-monotone$"):
            cut(below)
    with pytest.raises(ValueError, match="^graph is not x-monotone$"):
        graph.value_at(last)
    # at or past the last x nothing is cut: the area still refuses the fold, in the same words
    for upto in (None, last, last + 1):
        with pytest.raises(ValueError, match="^graph is not x-monotone$"):
            graph.area(upto)
    assert graph.truncated(last + 1) is graph
    assert gamma_vertices(graph, last).vertices == fraction_polygon_make([(y, x - y) for x, y in v])


@settings(max_examples=300)
@given(st.sets(st.integers(1, 40), min_size=1, max_size=6))
def test_closed_form_equals_harmonic_fractions(counts):
    counts = sorted(counts, reverse=True)
    graph = dhf_vertices_closed_form(counts)
    assert graph.vertices == harmonic_closed_form(counts)
    if graph.is_function:
        assert graph.area() == fraction_graph_area(graph.vertices) == Fraction(sum(counts), 2)


def test_lines_over_budget_are_refused_before_any_count_is_read():
    # counts that are not even integers: the line count is refused first
    limit = BUDGETS["lines"][0]
    with pytest.raises(WorkBudgetError, match=f"over {limit}"):
        validate_configuration(["x"] * (limit + 1))
    with pytest.raises(WorkBudgetError):
        dhf_vertices_closed_form(range(2 * limit, 0, -1))
    assert len(validate_configuration(range(limit, 0, -1)).counts) == limit
