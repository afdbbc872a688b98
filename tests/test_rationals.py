import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from limshape import (
    IntegerPolynomial,
    MonomialIdeal,
    ShapePolygon,
    StaircaseRegion,
    ahf,
    area_under_graph,
    convex_hull,
    dhf_vertices_closed_form,
    gamma_lattice_count,
    gamma_limit,
    gamma_region,
    gamma_vertices,
    hilbert_function_extended,
    limiting_shape,
    format_rational,
    make_halfplane_family,
    parse_rational,
    shape_json,
    staircase_region,
)
from limshape.rationals import MAX_EXPONENT, _format_over

HUGE = "1e100000000"
IDEAL = MonomialIdeal.from_gens(3, [(2, 0, 0), (1, 1, 1), (0, 2, 0), (0, 0, 3)])
GRAPH = dhf_vertices_closed_form((3, 2))


@pytest.mark.parametrize("text, value", [
    ("1e3", Fraction(1000)),
    ("1e-3", Fraction(1, 1000)),
    ("2.5E+2", Fraction(250)),
    (" 7/4 ", Fraction(7, 4)),
    (f"1e{MAX_EXPONENT}", Fraction(10**MAX_EXPONENT)),
    (f"3e-{MAX_EXPONENT}", Fraction(3, 10**MAX_EXPONENT)),
])
def test_exponent_notation_up_to_the_limit_is_read(text, value):
    assert parse_rational(text) == value


@pytest.mark.parametrize("text", [
    f"1e{MAX_EXPONENT + 1}",
    f"1e-{MAX_EXPONENT + 1}",
    "1e10000000",
    "1e-10000000",
    "1e100000000",
    "1E+100000000",
    "1e" + "9" * 5000,  # an exponent too long to read as an int
])
def test_exponent_above_the_limit_is_refused_before_fraction_parses_it(text):
    start = time.perf_counter()
    with pytest.raises(ValueError, match="cannot parse rational"):
        parse_rational(text)
    assert time.perf_counter() - start < 1


def test_family_parameters_refuse_a_large_exponent():
    start = time.perf_counter()
    with pytest.raises(ValueError, match="exponent above 4300 in magnitude"):
        make_halfplane_family("1e100000000", 2)
    assert time.perf_counter() - start < 1
    assert make_halfplane_family("1e0", "2e0").label == "halfplane(q1=1, q2=2)"


# every library entry point that takes a caller's rational, given a huge one
_READERS = {
    "hilbert_function_extended": lambda t: hilbert_function_extended(IDEAL, t),
    "IntegerPolynomial.from_coeffs": lambda t: IntegerPolynomial.from_coeffs([1, t]),
    "IntegerPolynomial": lambda t: IntegerPolynomial((1, t)),
    "IntegerPolynomial.__call__": lambda t: IntegerPolynomial.from_coeffs([1, 2])(t),
    "staircase_region": lambda t: staircase_region(IDEAL, 2, t),
    "gamma_region": lambda t: gamma_region(IDEAL, 2, t),
    "gamma_lattice_count": lambda t: gamma_lattice_count(IDEAL, 2, t),
    "limiting_shape": lambda t: limiting_shape(make_halfplane_family(1, 2), t),
    "gamma_limit": lambda t: gamma_limit(make_halfplane_family(1, 2), t),
    "shape_json": lambda t: shape_json(make_halfplane_family(1, 2), t, 4),
    "ahf": lambda t: ahf(make_halfplane_family(1, 2), t, 2).to_json(),
    "ShapePolygon.make": lambda t: ShapePolygon.make([(0, 0), (t, 0), (0, 1)]),
    "convex_hull": lambda t: convex_hull([(0, 0), (t, 0), (0, 1)]),
    "StaircaseRegion bound": lambda t: StaircaseRegion(1, t, ()),
    "StaircaseRegion slack": lambda t: StaircaseRegion(1, 10, (((0,), t),)),
    "PLGraph.value_at": lambda t: GRAPH.value_at(t),
    "PLGraph.truncated": lambda t: GRAPH.truncated(t),
    "PLGraph.area": lambda t: GRAPH.area(t),
    "area_under_graph": lambda t: area_under_graph(GRAPH, t),
    "gamma_vertices": lambda t: gamma_vertices(GRAPH, t),
}


@pytest.mark.parametrize("read", _READERS.values(), ids=_READERS)
def test_library_readers_refuse_a_large_exponent(read):
    start = time.perf_counter()
    with pytest.raises(ValueError, match="exponent above 4300 in magnitude"):
        read(HUGE)
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("read", _READERS.values(), ids=_READERS)
def test_a_string_rational_answers_as_its_fraction(read):
    assert read("5/2") == read(Fraction(5, 2))
    assert read(0.5) == read(Fraction(1, 2))  # a float by its decimal string


@pytest.mark.parametrize("read", [staircase_region, gamma_region, gamma_lattice_count])
@pytest.mark.parametrize("m", [True, 1.5])
def test_region_readers_refuse_a_scale_that_is_not_an_int(read, m):
    with pytest.raises(ValueError, match=r"^m must be an integer"):
        read(IDEAL, m, 3)


@pytest.mark.parametrize("read", ["hilbert_function_extended", "staircase_region", "gamma_lattice_count",
                                  "limiting_shape", "ahf"])
def test_a_negative_t_is_refused_by_one_rule(read):
    with pytest.raises(ValueError, match=r"^t must be >= 0$"):
        _READERS[read](Fraction(-1, 2))


def test_format_rational_reads_what_is_not_a_number_by_the_same_rule():
    assert format_rational(0.1) == "1/10"
    assert format_rational("10/4") == "5/2"
    with pytest.raises(ValueError, match="a bool is not a number"):
        format_rational(True)


@given(st.integers(-10**30, 10**30), st.integers(1, 10**12))
def test_format_over_is_format_rational_of_the_fraction(n, d):
    assert _format_over(n, d) == format_rational(Fraction(n, d))
