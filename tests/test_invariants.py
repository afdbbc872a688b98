"""The paper's identities between invariants, as one property test.

`waldschmidt`, `areg`, `ahf` and the estimators answer on different code
paths (a chain vertex, the closed-form walk, the inner hull, the Hilbert
series numerator), so each identity checks one path against another.
Everything goes through the public API.
"""

from fractions import Fraction

from hypothesis import event, given, settings
from hypothesis import strategies as st

from limshape import (
    ShapePolygon,
    ahf,
    areg,
    areg_estimate,
    family_from_json,
    parse_rational,
    regularity_index,
    ri_estimate,
    waldschmidt,
    waldschmidt_estimate,
)

from conftest import family_specs

KINDS = ("power", "doubling", "halfplane", "ceiling", "chain", "oscillating")
MAX_M = 8  # the members the inner shapes and the estimators walk
SUBADDITIVE_M = 64  # the members checked against an exact Waldschmidt constant


@st.composite
def power_specs_in_three_variables(draw):
    gens = draw(st.lists(st.lists(st.integers(0, 3), min_size=3, max_size=3).filter(any),
                         min_size=1, max_size=3))
    return {"kind": "power", "params": {"ideal": {"vars": 3, "gens": gens}}}


@settings(max_examples=300)
@given(st.one_of(*map(family_specs, zip(KINDS)), power_specs_in_three_variables()),
       st.integers(0, 5).map(lambda k: Fraction(k, 6)), st.fractions(0, 3, max_denominator=4))
def test_invariants_agree_with_one_another(spec, below, past):
    family = family_from_json(spec)
    shape = family.exact_shape
    event(f"{spec['kind']} in {family.nvars} variables")

    # subadditivity: alpha(I_m) >= m * alpha-hat for every m, and a closed
    # form's constant is exact; otherwise the estimate's inf over the first
    # MAX_M members bounds alpha(I_m)/m below on those members
    if shape is not None:
        alpha_hat = parse_rational(waldschmidt(family, MAX_M)["value"])
        for m in range(1, SUBADDITIVE_M + 1):
            assert family.ideal(m).alpha() >= m * alpha_hat, (spec, m)
    else:
        alpha_hat = waldschmidt_estimate(family, MAX_M).inf_value

    # below alpha-hat no point of the shape lies under x + y = t, so AHF is
    # the whole triangle, t^2/2, for the exact and the inner shape alike; in
    # at most two variables it counts every degree up to m*t and so also
    # holds at alpha-hat itself (see the test below for three variables)
    ts = [below * alpha_hat] + [alpha_hat] * (family.nvars < 3)
    for t in ts:
        assert ahf(family, t, MAX_M).value == t * t / 2, (spec, t)

    # past areg a chain ending on the y-axis lies under x + y = t, so AHF is
    # the area under the chain; a ceiling family's members are not m-primary
    if shape is not None and shape.vertices[-1][0] == 0:
        reg = parse_rational(areg(family, MAX_M)["value"])
        under = ShapePolygon.make([(0, 0), *shape.vertices]).area()
        for t in (reg, reg + past):
            assert ahf(family, t, MAX_M).value == under, (spec, t)

    # ri <= reg: HF equals HP from reg(S/I) + 1 on, and a Borel-fixed
    # member's reg(I) = reg(S/I) + 1 is its largest generator degree
    if family.claims_borel:
        for m in range(1, MAX_M + 1):
            member = family.ideal(m)
            assert regularity_index(member) <= member.max_generator_degree(), (spec, m)
        ri, reg = ri_estimate(family, MAX_M).values, areg_estimate(family, MAX_M).values
        assert all(r <= g for (_, r), (_, g) in zip(ri, reg)), spec
        assert [m for m, _ in ri] == [m for m, _ in reg] == list(range(1, MAX_M + 1))


def test_three_variable_ahf_drops_at_the_waldschmidt_constant():
    # a 3-variable sample is HF(R/I_m) in the one degree floor(m*t), so at
    # t = alpha-hat it loses the members' degree-m*t generators: for powers of
    # (x, y, z), HF(R/(x, y, z)^m, m) = 0, and AHF falls from 1/2 to 0 at t = 1
    maximal = {"vars": 3, "gens": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}
    family = family_from_json({"kind": "power", "params": {"ideal": maximal}})
    below = Fraction(99, 100)
    assert ahf(family, below, MAX_M).value == below * below / 2
    at = ahf(family, 1, MAX_M)
    assert at.value == 0 and all(count == 0 for _, count, _ in at.samples)


def test_the_identities_are_sharp_on_the_probed_families():
    # at t just past alpha-hat the shape dips under x + y = t: the first
    # identity says nothing beyond alpha-hat
    for spec in ({"kind": "oscillating", "params": {"a": 2, "b": 3, "d": 2}},
                 {"kind": "doubling", "params": {}},
                 {"kind": "halfplane", "params": {"q1": "1", "q2": "2"}}):
        family = family_from_json(spec)
        if family.exact_shape is not None:
            alpha_hat = parse_rational(waldschmidt(family, MAX_M)["value"])
        else:
            alpha_hat = waldschmidt_estimate(family, MAX_M).inf_value
        t = alpha_hat + Fraction(1, 2)
        assert ahf(family, t, MAX_M).value < t * t / 2, spec
