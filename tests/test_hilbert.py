import gc
import time
from fractions import Fraction
from functools import partial
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from limshape import (
    IntegerPolynomial,
    MonomialIdeal,
    WorkBudgetError,
    hilbert_function,
    hilbert_function_extended,
    hilbert_polynomial,
    make_halfplane_family,
    regularity_index,
)
from limshape.hilbert import _numerator
from limshape.work import BUDGETS

from conftest import brute_hf, cyclic_gens, expanded_hilbert_polynomial, random_ideal, slicing_numerator

DOUBLING_1 = MonomialIdeal.from_gens(2, [(2, 0), (1, 2)])
WIDE = MonomialIdeal.from_gens(
    4, [(5, 0, 0, 0), (4, 1, 0, 0), (3, 3, 0, 0), (2, 5, 0, 0), (1, 7, 0, 0)]
)


def test_hilbert_function_values():
    assert hilbert_function(DOUBLING_1, 3) == 1
    assert hilbert_function(DOUBLING_1, 2) == 2
    zero3 = MonomialIdeal.zero(3)
    for d in range(8):
        assert hilbert_function(zero3, d) == (d + 1) * (d + 2) // 2
    assert hilbert_function(MonomialIdeal.unit(2), 0) == 0


def test_hilbert_function_matches_brute_enumeration(rng):
    for _ in range(30):
        I = random_ideal(rng, rng.randint(1, 4), maxdeg=5, ngens=4)
        for d in range(0, 8):
            assert hilbert_function(I, d) == brute_hf(I, d)


def test_hilbert_function_sweep_path_matches_brute():
    # halfplane ideals at larger m have many generators and many distinct
    # x-exponents: many staircase corners in 2 variables, and many slices of
    # the numerator recursion once padded to 3
    I = make_halfplane_family(2, 3).ideal(8)
    assert len(I.gens) > 12
    for d in range(0, 30, 3):
        assert hilbert_function(I, d) == brute_hf(I, d)
    J = I.padded(3)
    for d in range(0, 16, 2):
        assert hilbert_function(J, d) == brute_hf(J, d)


def test_hilbert_function_at_huge_degree():
    # work is bounded by the generators, not by the degree
    d = 2**40
    assert hilbert_function(MonomialIdeal.from_gens(2, [(2, 0), (1, 3)]), d) == 1
    assert hilbert_function(MonomialIdeal.from_gens(2, [(2, 3)]), d) == 5
    assert hilbert_function(MonomialIdeal.from_gens(3, [(2, 0, 0), (1, 1, 0)]), d) == d + 2
    principal = MonomialIdeal.from_gens(3, [(2, 3, 0)])
    assert hilbert_function(principal, d) == comb(d + 2, 2) - comb(d - 3, 2)


@st.composite
def generator_lists(draw):
    """Raw generator lists as `_numerator` may receive them: redundant,
    duplicated, in any order, possibly empty or holding the unit vector."""
    nvars = draw(st.integers(1, 4))
    exponent = st.tuples(*[st.integers(0, 5)] * nvars)
    gens = draw(st.lists(exponent, max_size=8))
    gens += draw(st.lists(st.sampled_from(gens), max_size=3)) if gens else []
    if draw(st.booleans()):
        gens.insert(draw(st.integers(0, len(gens))), (0,) * nvars)
    return nvars, draw(st.permutations(gens))


@settings(max_examples=400)
@given(generator_lists())
def test_numerator_equals_slicing_oracle(case):
    nvars, gens = case
    assert _numerator(gens, nvars) == slicing_numerator(gens, nvars)


@pytest.mark.parametrize("nvars, gens, numerator", [
    (2, [(3, 0), (1, 1), (0, 5)], {0: 1, 2: -1, 3: -1, 4: 1, 5: -1, 6: 1}),
    # a redundant and a duplicate generator change nothing
    (2, [(0, 5), (3, 0), (1, 1), (2, 4), (1, 1)], {0: 1, 2: -1, 3: -1, 4: 1, 5: -1, 6: 1}),
    (2, [(2, 3), (0, 0)], {}),
    (2, [], {0: 1}),
    (1, [(3,), (5,)], {0: 1, 3: -1}),
    (3, [(1, 0, 0), (0, 1, 0)], {0: 1, 1: -2, 2: 1}),
    # the zero vector sorts first: the unit ideal, not sliced
    (3, [(1, 2, 3), (0, 0, 0)], {}),
])
def test_numerator_pinned(nvars, gens, numerator):
    assert _numerator(gens, nvars) == slicing_numerator(gens, nvars) == numerator


@pytest.mark.parametrize("function, value", [
    (hilbert_function, True),
    (hilbert_function, 2.5),
    (hilbert_function, 3.0),
    (hilbert_function, "3"),
    (hilbert_function, None),
])
def test_degree_and_window_must_be_integers(function, value):
    with pytest.raises(ValueError, match="degree must be an integer"):
        function(DOUBLING_1, value)


def test_a_negative_degree_is_refused():
    with pytest.raises(ValueError, match="^degree must be non-negative$"):
        hilbert_function(DOUBLING_1, -1)


@st.composite
def small_ideals(draw):
    nvars = draw(st.integers(1, 4))
    exponent = st.tuples(*[st.integers(0, 4)] * nvars)
    return MonomialIdeal.from_gens(nvars, draw(st.lists(exponent, max_size=5)))


@settings(max_examples=80)
@given(small_ideals())
def test_hilbert_data_match_brute_enumeration(I):
    for d in range(11):
        assert hilbert_function(I, d) == brute_hf(I, d)
    poly, ri = hilbert_polynomial(I), regularity_index(I)
    for d in range(ri, ri + I.nvars + 2):
        assert poly(d) == brute_hf(I, d)
    if ri > 0:
        assert poly(ri - 1) != brute_hf(I, ri - 1)


def test_hilbert_function_extended():
    assert hilbert_function_extended(DOUBLING_1, Fraction(5, 2)) == 2
    assert hilbert_function_extended(DOUBLING_1, 3) == 1
    assert hilbert_function_extended(DOUBLING_1, 0) == 1
    with pytest.raises(ValueError):
        hilbert_function_extended(DOUBLING_1, Fraction(-1, 2))


def test_hilbert_polynomial_examples():
    assert str(hilbert_polynomial(DOUBLING_1)) == "1"
    three_var = DOUBLING_1.padded(3)
    poly = hilbert_polynomial(three_var)
    assert str(poly) == "t + 3"
    assert str(hilbert_polynomial(MonomialIdeal.zero(2))) == "t + 1"


def test_hilbert_polynomial_degree_bound(rng):
    for _ in range(10):
        I = random_ideal(rng, rng.randint(1, 3), maxdeg=4, ngens=3)
        assert hilbert_polynomial(I).degree <= I.nvars - 1


def test_hilbert_polynomial_integer_valued(rng):
    for _ in range(8):
        I = random_ideal(rng, rng.randint(2, 3))
        poly = hilbert_polynomial(I)
        for d in range(40, 52):
            assert poly(d).denominator == 1


def test_regularity_index_examples():
    assert regularity_index(WIDE) == 6
    assert regularity_index(DOUBLING_1) == 3
    assert regularity_index(MonomialIdeal.zero(2)) == 0


def test_regularity_index_below_borel_regularity(rng):
    # strict inequality witnessed by the wide 4-variable ideal: 6 < 8
    # (a strongly stable ideal's regularity is its largest generator degree)
    assert WIDE.is_borel_fixed()
    assert regularity_index(WIDE) < WIDE.max_generator_degree()
    from conftest import borel_closure

    for _ in range(8):
        I = borel_closure(random_ideal(rng, rng.randint(2, 3), maxdeg=4, ngens=2))
        assert I.is_borel_fixed()
        assert regularity_index(I) <= I.max_generator_degree()


def test_doubling_regularity_index_growth():
    # generator degree 2^m + 1 forces the agreement degree past the plateau
    for m in range(1, 6):
        I = MonomialIdeal.from_gens(2, [(2, 0), (1, 2**m)])
        assert regularity_index(I) == 2**m + 1


def test_too_many_variables_are_refused_before_the_recursion():
    # the numerator slices one variable per call: 1200 variables would pass
    # the interpreter's recursion limit; at the budget's own limit it still answers
    limit = BUDGETS["variables"][0]
    big = MonomialIdeal.from_gens(limit + 1, [(1,) * (limit + 1)])
    for call in (partial(hilbert_function, big, 1300), partial(hilbert_polynomial, big),
                 partial(regularity_index, big)):
        with pytest.raises(WorkBudgetError, match=f"over {limit}"):
            call()
    edge = MonomialIdeal.from_gens(limit, [(1,) * limit])
    assert regularity_index(edge) == 1
    assert hilbert_function(edge, limit) == comb(2 * limit - 1, limit - 1) - 1


def test_exponential_slicing_is_refused_mid_series():
    # at 20 variables the slicing recursion did not finish HF at degree 60
    # in 40 s; its slices are charged against one budget for the series
    I = MonomialIdeal.from_gens(20, cyclic_gens(20))
    for call in (partial(hilbert_function, I, 60), partial(hilbert_polynomial, I),
                 partial(regularity_index, I)):
        start = time.perf_counter()
        with pytest.raises(WorkBudgetError, match=f"over {BUDGETS['slices'][0]} generators"):
            call()
        assert time.perf_counter() - start < 1
    # the degree-2 generators alone slice cheaply: C(21, 2) monomials
    assert hilbert_function(I, 2) == comb(21, 2)
    # 12 variables take 96,730 slice generators, so a budget shared across
    # calls would refuse the second call
    small = MonomialIdeal.from_gens(12, cyclic_gens(12))
    assert _numerator(small.gens, 12) == _numerator(small.gens, 12) == slicing_numerator(small.gens, 12)


def test_a_hilbert_series_leaves_no_reference_cycle():
    # the slicing closure refers to itself; with the collector off, 100 series
    # of a 3-variable ideal must leave nothing for it to find
    I = MonomialIdeal.from_gens(3, [(2, 0, 1), (1, 1, 0), (0, 3, 1), (0, 0, 4)])
    gc.collect()
    gc.disable()
    try:
        for d in range(100):
            hilbert_function(I, d)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_unit_slices_are_not_sliced():
    # in the maximal ideal every slice from x_0^1 on holds the zero tail: the
    # unit ideal, whose numerator is 0 without slicing it further
    n = 150
    I = MonomialIdeal.from_gens(n, [tuple(int(i == j) for j in range(n)) for i in range(n)])
    start = time.perf_counter()
    assert regularity_index(I) == 1
    assert str(hilbert_polynomial(I)) == "0"
    assert (hilbert_function(I, 0), hilbert_function(I, 1)) == (1, 0)
    assert time.perf_counter() - start < 1


def test_integer_polynomial_str_and_eval():
    poly = IntegerPolynomial.from_coeffs([Fraction(3), Fraction(1)])
    assert str(poly) == "t + 3"
    assert poly(4) == 7
    quad = IntegerPolynomial.from_coeffs([0, 0, 1])
    assert str(quad) == "t^2"
    assert quad(Fraction(1, 2)) == Fraction(1, 4)
    half = IntegerPolynomial.from_coeffs([Fraction(0), Fraction(-3, 2)])
    assert str(half) == "-3/2*t"


def test_integer_polynomial_constructor_reads_like_from_coeffs():
    # each coefficient read as a rational, trailing zeros stripped
    one = IntegerPolynomial((1, 0))
    assert one.degree == 0
    assert one == IntegerPolynomial.from_coeffs([1]) and hash(one) == hash(IntegerPolynomial.from_coeffs([1]))
    assert IntegerPolynomial(("1/2", 0, "0")) == IntegerPolynomial.from_coeffs([Fraction(1, 2)])
    zero = IntegerPolynomial((0, 0))
    assert (zero.degree, str(zero), zero.coeffs) == (-1, "0", ())


@settings(max_examples=300)
@given(small_ideals())
def test_hilbert_polynomial_equals_the_expanded_sum(I):
    expanded = expanded_hilbert_polynomial(_numerator(I.gens, I.nvars), I.nvars)
    assert hilbert_polynomial(I) == expanded


def _unit_vectors(n: int, skip: int = 0) -> list:
    return [tuple(int(i == j) for j in range(n)) for i in range(skip, n)]


_MANY_VARIABLE_IDEALS = {
    "maximal": _unit_vectors,  # HP 0, with every moment up to n - 1 cancelling
    "all-but-x0": partial(_unit_vectors, skip=1),  # (x_1, ..., x_(n-1)): HP 1
    "one-generator": lambda n: [(2,) + (1,) * (n > 1) + (0,) * (n - 2)],  # degree n - 2
    "zero": lambda n: [],  # C(t + n - 1, n - 1)
}


@pytest.mark.parametrize("name, n", [
    *((name, n) for name in _MANY_VARIABLE_IDEALS for n in (1, 2, 3, 40, 150)),
    ("maximal", 300),  # the oracle alone takes seconds here
])
def test_hilbert_polynomial_in_many_variables_equals_the_expanded_sum(name, n):
    I = MonomialIdeal.from_gens(n, _MANY_VARIABLE_IDEALS[name](n))
    assert hilbert_polynomial(I) == expanded_hilbert_polynomial(_numerator(I.gens, n), n)
