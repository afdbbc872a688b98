import time
from fractions import Fraction

import pytest

from limshape import make_halfplane_family, parse_rational
from limshape.rationals import MAX_EXPONENT


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
