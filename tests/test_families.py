from fractions import Fraction
from math import ceil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from limshape import (
    ExactShape,
    FamilyRuleError,
    GradedFamily,
    GradednessReport,
    MonomialIdeal,
    WorkBudgetError,
    areg_estimate,
    family_from_json,
    family_to_json,
    make_ceiling_family,
    make_chain_family,
    make_doubling_family,
    make_halfplane_family,
    make_oscillating_family,
    make_power_family,
    ri_estimate,
    verify_graded,
    waldschmidt_estimate,
)
from limshape.families import (
    DEFAULT_TOLERANCE,
    GRADED_PRODUCT_FLOOR,
    GradednessViolation,
    _estimate_from_values,
)
from limshape.ideals import minimal_exponents
from limshape.work import BUDGETS

from conftest import divisible_by_a_generator, family_specs, fraction_estimate, random_chain

CHAIN_POINTS = [(4, 0), (3, 1), (1, 4), (0, 7)]


def builtin_families():
    return [
        make_power_family(MonomialIdeal.from_gens(2, [(2, 0), (1, 2)])),
        make_doubling_family(),
        make_halfplane_family(2, 3),
        make_ceiling_family(Fraction(22, 7)),
        make_chain_family(CHAIN_POINTS),
        make_oscillating_family(1, 2, 2),
    ]


def test_power_family():
    maximal = make_power_family(MonomialIdeal.from_gens(2, [(1, 0), (0, 1)]))
    assert set(maximal.ideal(2).gens) == {(2, 0), (1, 1), (0, 2)}
    fam = make_power_family(MonomialIdeal.from_gens(2, [(2, 0), (1, 2)]))
    assert set(fam.ideal(2).gens) == {(4, 0), (3, 2), (2, 4)}
    assert fam.ideal(1) == MonomialIdeal.from_gens(2, [(2, 0), (1, 2)])
    with pytest.raises(ValueError):
        make_power_family(MonomialIdeal.zero(2))
    with pytest.raises(ValueError):
        make_power_family(MonomialIdeal.unit(2))


def test_power_chain_shares_one_budget(monkeypatch):
    # forming I^k from I^(k-1) charges |G_(k-1)| * |G_1| = 2k pairs for (x, y),
    # so the members up to I^m take m(m + 1) - 2 pairs in all: 88 at m = 9
    monkeypatch.setitem(BUDGETS, "power", (100, BUDGETS["power"][1]))
    maximal = MonomialIdeal.from_gens(2, [(1, 0), (0, 1)])
    fam = make_power_family(maximal)
    assert len(fam.ideal(9).gens) == 10
    with pytest.raises(WorkBudgetError, match="108 generator pairs"):
        fam.ideal(10)
    assert len(fam.ideal(9).gens) == 10  # a refusal keeps the members made
    split = make_power_family(maximal)  # a fresh family starts from zero
    split.ideal(5)
    with pytest.raises(WorkBudgetError):
        split.ideal(10)
    monkeypatch.setitem(BUDGETS, "power", (108, BUDGETS["power"][1]))
    assert len(make_power_family(maximal).ideal(10).gens) == 11


def test_doubling_family():
    fam = make_doubling_family()
    assert set(fam.ideal(1).gens) == {(2, 0), (1, 2)}
    assert set(fam.ideal(3).gens) == {(2, 0), (1, 8)}
    prod = fam.ideal(1).product(fam.ideal(1))
    assert all(fam.ideal(2).contains(g) for g in prod.gens)
    padded = make_doubling_family(extra_vars=1)
    assert padded.ideal(1).nvars == 3
    limit = BUDGETS["doubling"][0]
    assert fam.ideal(limit).gens[-1] == (1, 2**limit)
    with pytest.raises(WorkBudgetError):
        fam.ideal(limit + 1)


def test_halfplane_family():
    fam = make_halfplane_family(2, 3)
    I1 = fam.ideal(1)
    assert I1.contains((2, 0))
    assert not I1.contains((1, 0))
    for m in range(1, 7):
        assert fam.ideal(m).is_borel_fixed()
    with pytest.raises(ValueError):
        make_halfplane_family(3, 2)
    with pytest.raises(TypeError, match="degree_cap"):
        make_halfplane_family(2, 3, degree_cap=1)
    assert repr(fam) == "GradedFamily('halfplane(q1=2, q2=3)', nvars=2)"


@pytest.mark.parametrize("m, message", [
    (True, "family index m must be an integer, got True"),
    (1.5, "family index m must be an integer, got 1.5"),
    ("2", "family index m must be an integer, got '2'"),
    (0, "family index m must be >= 1"),
    (-3, "family index m must be >= 1"),
])
def test_member_index_is_refused_not_truncated(m, message):
    fam = make_halfplane_family(1, 2)
    fam.ideal(1)  # True equals 1 and hashes alike, but must not hit member 1
    with pytest.raises(ValueError) as exc:
        fam.ideal(m)
    assert str(exc.value) == message


def test_halfplane_membership_matches_inequality():
    q1, q2 = Fraction(7, 5), Fraction(9, 4)
    fam = make_halfplane_family(q1, q2)
    for m in (1, 3):
        I = fam.ideal(m)
        for a in range(0, 12):
            for b in range(0, 12):
                assert I.contains((a, b)) == (a * q2 + b * q1 >= m * q1 * q2)


def test_ceiling_family():
    fam = make_ceiling_family(Fraction(22, 7))
    assert fam.ideal(7).gens == ((22,),)
    assert fam.ideal(1).gens == ((4,),)
    with pytest.raises(ValueError):
        make_ceiling_family(0)


def test_chain_family_validation():
    fam = make_chain_family(CHAIN_POINTS)
    for m in range(1, 5):
        assert fam.ideal(m).is_borel_fixed()
    with pytest.raises(ValueError, match="slope"):
        make_chain_family([(4, 0), (2, 1), (0, 7)])
    with pytest.raises(ValueError, match="steepen"):
        make_chain_family([(4, 0), (3, 1), (2, 2), (0, 7)])
    with pytest.raises(ValueError):
        make_chain_family([(4, 1), (0, 7)])


@pytest.mark.parametrize("call, message", [
    (lambda: make_doubling_family(2), "extra_vars must be 0 or 1"),
    (lambda: make_chain_family([(4, 0)]), "need at least two breakpoints"),
    (lambda: make_chain_family([(4, 0), (3, 1)]), "last breakpoint must lie on the y-axis (s_n = 0)"),
    # every other chain rule is ExactShape's, in its words
    (lambda: make_chain_family([(4, 1), (0, 7)]),
     "chain must start on the x-axis, x strictly decreasing: [(4,1);(0,7)]"),
    (lambda: make_chain_family([(4, 0), (4, 3), (0, 7)]),
     "chain must start on the x-axis, x strictly decreasing: [(4,0);(4,3);(0,7)]"),
    (lambda: make_chain_family([(4, 0), (3, 0), (0, 7)]),
     "first slope 0 exceeds -1: chain must start at -1 or steeper"),
    (lambda: waldschmidt_estimate(GradedFamily(2, lambda m: MonomialIdeal.zero(2), "nothing"), 3),
     "nothing: rule(1) is the zero ideal"),
    (lambda: family_from_json({"kind": "ceiling", "params": [["q", "2"]]}), "family 'params' must be an object"),
    (lambda: family_to_json(GradedFamily(1, lambda m: MonomialIdeal.unit(1), "unit")), "unit has no JSON form"),
    (lambda: verify_graded(make_doubling_family(), 1), "max_m must be >= 2"),
    (lambda: ri_estimate(make_doubling_family(), 0), "max_m must be >= 1"),
])
def test_family_refusals_are_pinned(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


def test_exact_shape_refuses_chains_the_walk_cannot_read():
    ExactShape(((2, 0), (0, 4)))
    ExactShape(((3, 0),))
    bad = [
        ((4, 0), (0, 2)),  # slope -1/2: the line x + y = 3 meets the chain twice
        ((4, 1), (0, 7)),
        (),
        ((4, 0), (4, 3)),
        ((4, 0), (3, 1), (2, 2), (0, 7)),
    ]
    for vertices, match in zip(bad, ("slope", "x-axis", "x-axis", "x-axis", "steepen")):
        with pytest.raises(ValueError, match=match):
            ExactShape(vertices)


F = Fraction


@pytest.mark.parametrize("vertices, message", [
    (((4, 1), (0, 7)), "chain must start on the x-axis, x strictly decreasing: [(4,1);(0,7)]"),
    ((), "chain must start on the x-axis, x strictly decreasing: []"),
    (((F(7, 2), 0), (F(7, 2), 3)), "chain must start on the x-axis, x strictly decreasing: [(7/2,0);(7/2,3)]"),
    (((4, 0), (0, 2)), "first slope -1/2 exceeds -1: chain must start at -1 or steeper"),
    (((F(9, 2), 0), (F(3, 2), F(5, 2))), "first slope -5/6 exceeds -1: chain must start at -1 or steeper"),
    (((4, 0), (3, 1), (2, 2), (0, 7)), "slopes must strictly steepen: segment 1 has slope -1, previous -1"),
    (((5, 0), (F(7, 2), F(3, 2)), (2, 4), (0, 7)),
     "slopes must strictly steepen: segment 2 has slope -3/2, previous -5/3"),
])
def test_exact_shape_error_messages_are_pinned(vertices, message):
    # decided on the integer image; the slopes are Fractions only in the message
    with pytest.raises(ValueError) as exc:
        ExactShape(vertices)
    assert str(exc.value) == message


@pytest.mark.parametrize("vertices", [((2.5, 0),), (("5/2", 0),), ((4, 0), (0, True))])
def test_exact_shape_refuses_coordinates_that_are_not_int_or_fraction(vertices):
    with pytest.raises(ValueError) as exc:
        ExactShape(vertices)
    assert str(exc.value) == f"vertex coordinates must be ints or Fractions: {vertices!r}"


def test_exact_shape_halfplanes_read_off_the_image(rng):
    # the line through each two consecutive vertices, then the vertical ray
    # of a chain ending off the y-axis: A, B >= 0 and A*x + B*y = C on both ends
    chains = [random_chain(rng, n) for n in range(2, 6) for _ in range(10)]
    for chain in chains + [c[:-1] for c in chains]:
        shape = ExactShape(chain)
        x, y = chain[-1]
        lines = list(zip(chain, chain[1:])) + [((x, y), (x, y + 1))] * (x != 0)
        assert len(shape.halfplanes) == len(lines)
        for (A, B, C), ends in zip(shape.halfplanes, lines):
            assert A >= 0 and B >= 0 and all(A * x + B * y == C for x, y in ends)
    assert make_ceiling_family(F(22, 7)).exact_shape.halfplanes == ((1, 0, F(22, 7)),)
    (A, B, C), = make_halfplane_family(2, 3).exact_shape.halfplanes
    assert (C / A, C / B) == (2, 3)


def test_chain_membership_matches_inequalities():
    fam = make_chain_family(CHAIN_POINTS)
    planes = fam.exact_shape.halfplanes
    for m in (1, 2):
        I = fam.ideal(m)
        for a in range(0, 10):
            for b in range(0, 16):
                expected = all(A * a + B * b >= m * C for A, B, C in planes)
                assert I.contains((a, b)) == expected


def test_oscillating_family():
    fam = make_oscillating_family(1, 2, 2)
    assert fam.ideal(1).gens == ((1, 0),)
    assert set(fam.ideal(2).gens) == {(2, 0), (1, 2)}
    assert fam.ideal(3).gens == ((2, 0),)
    with pytest.raises(ValueError):
        make_oscillating_family(2, 2, 2)
    with pytest.raises(ValueError):
        make_oscillating_family(1, 2, 1)


def test_family_claims_checked():
    bad = GradedFamily(
        2, lambda m: MonomialIdeal.from_gens(2, [(0, m)]), "bad", claims_borel=True
    )
    with pytest.raises(FamilyRuleError):
        bad.ideal(1)
    wrong_vars = GradedFamily(3, lambda m: MonomialIdeal.from_gens(2, [(m, 0)]), "bad")
    with pytest.raises(FamilyRuleError):
        wrong_vars.ideal(1)


def test_verify_graded_builtins():
    # passing at M implies every smaller bound passes too
    for fam in builtin_families():
        report = verify_graded(fam, 12)
        assert report.ok, (fam.label, report.violations)


POWER3 = MonomialIdeal.from_gens(3, [(2, 0, 0), (1, 1, 1), (0, 2, 0), (0, 0, 3)])


def test_verify_graded_work_budget(monkeypatch):
    # every p <= q with p + q <= max_m is charged |G_p| * |G_q| pairs, and at
    # least the floor
    def pairs(family, max_m):
        sizes = [len(family.ideal(m).gens) for m in range(max_m + 1) if m]
        return sum(
            max(sizes[p - 1] * sizes[q - 1], GRADED_PRODUCT_FLOOR)
            for p in range(1, max_m // 2 + 1)
            for q in range(p, max_m - p + 1)
        )

    power = make_power_family(POWER3)
    assert pairs(power, 12) <= BUDGETS["graded pairs"][0]
    assert verify_graded(power, 12).ok
    for family, max_m in ((make_halfplane_family(1, 2), 100), (power, 24), (power, 400)):
        with pytest.raises(WorkBudgetError, match="generator pairs"):
            verify_graded(family, max_m)
    # the total may reach the budget but not pass it
    halfplane = make_halfplane_family(2, 3)
    message = BUDGETS["graded pairs"][1]
    monkeypatch.setitem(BUDGETS, "graded pairs", (pairs(halfplane, 6), message))
    assert verify_graded(halfplane, 6).ok
    monkeypatch.setitem(BUDGETS, "graded pairs", (pairs(halfplane, 6) - 1, message))
    with pytest.raises(WorkBudgetError):
        verify_graded(halfplane, 6)


def test_verify_graded_catches_corruption():
    def rule(m):
        return MonomialIdeal.from_gens(1, [(5,) if m == 2 else (2 * m,)])

    broken = GradedFamily(1, rule, "broken")
    report = verify_graded(broken, 4)
    assert not report.ok
    first = report.violations[0]
    assert (first.p, first.q) == (1, 1)
    assert first.witness == (4,)


def test_waldschmidt_estimates():
    est = waldschmidt_estimate(make_halfplane_family(2, 3), 20)
    assert est.inf_value == 2
    est = waldschmidt_estimate(make_ceiling_family(Fraction(22, 7)), 21)
    assert est.inf_value == Fraction(22, 7)
    maximal = make_power_family(MonomialIdeal.from_gens(2, [(1, 0), (0, 1)]))
    est = waldschmidt_estimate(maximal, 8)
    assert all(v == 1 for _, v in est.values)


def test_fekete_subadditivity_small():
    for fam in builtin_families():
        alphas = {m: fam.ideal(m).alpha() for m in range(1, 9)}
        for p in range(1, 5):
            for q in range(p, 9 - p):
                assert alphas[p + q] <= alphas[p] + alphas[q], (fam.label, p, q)


def test_areg_estimate_constant_family():
    est = areg_estimate(make_halfplane_family(2, 3), 12)
    assert est.liminf == est.limsup == 3
    assert not est.oscillating and not est.diverging


def test_areg_estimate_oscillating():
    est = areg_estimate(make_oscillating_family(1, 2, 2), 40)
    assert est.oscillating and not est.diverging
    assert abs(est.liminf - Fraction(1, 2)) <= Fraction(1, 20)
    assert est.limsup == Fraction(3, 2)
    residues = dict(est.residue_values)
    assert abs(residues[1] - Fraction(1, 2)) <= Fraction(1, 20)
    assert abs(residues[0] - Fraction(3, 2)) <= Fraction(1, 20)


def test_areg_estimate_divergence():
    est = areg_estimate(make_doubling_family(), 12)
    assert est.diverging and not est.oscillating
    assert est.limsup == Fraction(2**12 + 1, 12)


def test_areg_estimate_requires_borel_claim():
    anon = GradedFamily(2, lambda m: MonomialIdeal.from_gens(2, [(0, m)]), "anon")
    with pytest.raises(ValueError):
        areg_estimate(anon, 4)


def test_ri_estimate_linear_family():
    est = ri_estimate(make_halfplane_family(2, 3), 6)
    assert not est.oscillating
    assert all(v > 0 for _, v in est.values)


def test_doubling_breaks_any_linear_regularity_bound():
    fam = make_doubling_family()
    ris = [2**m + 1 for m in range(1, 9)]  # agreement degrees of the rules
    slope = max(b - a for a, b in zip(ris[:4], ris[1:5]))
    intercept = max(ris[:4])
    assert any(ris[m - 1] > slope * m + intercept for m in range(5, 9))


def test_halfplane_regularity_linear_sandwich():
    # reg(I_m) = 3m exactly, so the estimate equals the fitted slope
    fam = make_halfplane_family(2, 3)
    regs = [(m, fam.ideal(m).max_generator_degree()) for m in range(1, 13)]
    assert all(r == 3 * m for m, r in regs)
    est = areg_estimate(fam, 12)
    assert not est.oscillating and est.limsup == 3


def test_family_json_round_trip():
    for fam in builtin_families():
        clone = family_from_json(family_to_json(fam))
        for m in (1, 2, 3, 4):
            assert clone.ideal(m) == fam.ideal(m), fam.label
        assert clone.label == fam.label


def test_family_json_errors():
    with pytest.raises(ValueError):
        family_from_json({"params": {}})
    with pytest.raises(ValueError):
        family_from_json({"kind": "nope"})
    with pytest.raises(ValueError):
        family_from_json({"kind": "halfplane", "params": {"q1": "2"}})
    with pytest.raises(ValueError, match="no parameter 'q'"):
        family_from_json({"kind": "halfplane", "params": {"q1": "2", "q2": "3", "q": "1"}})
    with pytest.raises(ValueError, match="no parameter 'extra_vars'"):
        family_from_json({"kind": "ceiling", "params": {"q": "2", "extra_vars": 0}})
    for cap in (30, 30.5):
        with pytest.raises(ValueError, match="no parameter 'degree_cap'"):
            family_from_json({"kind": "halfplane", "params": {"q1": "2", "q2": "3", "degree_cap": cap}})
    # a JSON true or false is not a rational
    for spec in ({"kind": "halfplane", "params": {"q1": True, "q2": 2}},
                 {"kind": "halfplane", "params": {"q1": 1, "q2": False}},
                 {"kind": "ceiling", "params": {"q": True}},
                 {"kind": "chain", "params": {"breakpoints": [[4, 0], [3, True], [1, 4], [0, 7]]}}):
        with pytest.raises(ValueError, match="cannot parse rational (True|False)"):
            family_from_json(spec)


@pytest.mark.parametrize("params, named", [
    ({"a": 1.9, "b": "3", "d": 2.5}, "'a'"),
    ({"a": 1, "b": "3", "d": 2}, "'b'"),
    ({"a": 1, "b": 3, "d": 2.5}, "'d'"),
    ({"a": True, "b": 3, "d": 2}, "'a'"),
])
def test_oscillating_parameters_are_refused_not_truncated(params, named):
    message = f"parameter {named} must be an integer"
    with pytest.raises(ValueError, match=message):
        family_from_json({"kind": "oscillating", "params": params})
    with pytest.raises(ValueError, match=message):
        make_oscillating_family(params["a"], params["b"], params["d"])


@pytest.mark.parametrize("spec, named", [
    ({"kind": "doubling", "params": {"extra_vars": 0.5}}, "'extra_vars'"),
    ({"kind": "doubling", "params": {"extra_vars": False}}, "'extra_vars'"),
    ({"kind": "doubling", "params": {"extra_vars": "1"}}, "'extra_vars'"),
])
def test_integer_family_parameters_are_refused_not_truncated(spec, named):
    with pytest.raises(ValueError, match=f"parameter {named} must be an integer"):
        family_from_json(spec)


@settings(max_examples=80)
@given(family_specs())
def test_builtin_families_graded_and_round_trip_property(spec):
    family = family_from_json(spec)
    assert verify_graded(family, 6).ok
    clone = family_from_json(family_to_json(family))
    for m in (1, 2, 3, 4):
        assert clone.ideal(m) == family.ideal(m)


def _staircase_by_fractions(a_top, b_of):
    gens, prev_b = [], None
    for a in range(a_top + 1):
        b = b_of(a)
        if prev_b is None or b < prev_b:
            gens.append((a, b))
            prev_b = b
        if b == 0:
            break
    return MonomialIdeal.from_gens(2, gens)


def halfplane_gens_by_fractions(q1, q2, m):
    """Generators of the halfplane member from Fraction ceilings per column."""
    def b_of(a):
        need = m * q1 * q2 - a * q2
        return max(0, ceil(need / q1)) if need > 0 else 0

    return _staircase_by_fractions(ceil(m * q1), b_of)


def chain_gens_by_fractions(halfplanes, s0, m):
    """Generators of the chain member from Fraction ceilings per column."""
    def b_of(a):
        need = [m * C - a * A for A, B, C in halfplanes]
        return max([0] + [ceil(n / B) for n, (_, B, _) in zip(need, halfplanes) if n > 0])

    return _staircase_by_fractions(ceil(m * s0), b_of)


@settings(max_examples=60)
@given(family_specs(kinds=("halfplane", "chain")))
def test_integer_rules_match_fraction_formulas(spec):
    family = family_from_json(spec)
    shape = family.exact_shape
    for m in range(1, 13):
        if spec["kind"] == "halfplane":
            q1, q2 = (Fraction(spec["params"][k]) for k in ("q1", "q2"))
            expected = halfplane_gens_by_fractions(q1, q2, m)
        else:
            expected = chain_gens_by_fractions(shape.halfplanes, shape.vertices[0][0], m)
        assert family.ideal(m) == expected, (spec, m)


def graded_by_products(family, max_m):
    """verify_graded the long way: form every product I_p * I_q and report
    its first generator, in (degree, vector) order, outside I_{p+q}."""
    checked, violations = 0, []
    for p in range(1, max_m // 2 + 1):
        for q in range(p, max_m - p + 1):
            target = family.ideal(p + q)
            checked += 1
            for g in family.ideal(p).product(family.ideal(q)).gens:
                if not divisible_by_a_generator(target, g):
                    violations.append(GradednessViolation(p, q, g))
                    break
    return GradednessReport(max_m, checked, tuple(violations))


@st.composite
def two_variable_families(draw):
    """A 2-variable built-in family with up to three members replaced by the
    zero ideal, the unit ideal or a random ideal, and a bound max_m."""
    base = family_from_json(draw(family_specs(kinds=("halfplane", "chain", "oscillating"))))
    members = {m: base.ideal(m) for m in range(1, 9)}
    small = st.integers(0, 12)
    for m in draw(st.lists(st.integers(1, 8), max_size=3, unique=True)):
        gens = draw(st.one_of(
            st.just([]), st.just([(0, 0)]), st.lists(st.tuples(small, small), min_size=1, max_size=4)
        ))
        members[m] = MonomialIdeal.from_gens(2, gens)
    return GradedFamily(2, members.__getitem__, "drawn"), draw(st.integers(2, 8))


@settings(max_examples=200)
@given(two_variable_families())
def test_verify_graded_matches_products_in_two_variables(drawn):
    family, max_m = drawn
    assert verify_graded(family, max_m) == graded_by_products(family, max_m)


@settings(max_examples=60)
@given(family_specs(kinds=("halfplane", "chain")))
def test_seeded_staircase_equals_the_computed_one(spec):
    # the rule sets each member's corners; every column is a generator
    family = family_from_json(spec)
    for m in range(1, 13):
        I = family.ideal(m)
        assert "_staircase" in I.__dict__
        assert I._staircase == MonomialIdeal(2, I.gens)._staircase, (spec, m)
        assert len(I.gens) == family.exact_shape.columns(m) == ceil(m * family.exact_shape.vertices[0][0]) + 1


DRIFT = [(m, 2 * m + max(m - 10, 0)) for m in range(1, 21)]


def _estimate_cases(rng):
    """(m, n) sequences of v_m = n/m, m = 1 .. max_m, with a tolerance and a
    period: ties, period residues, a gap or a drift exactly equal to the
    tolerance, and random ones with negative values."""
    tol = DEFAULT_TOLERANCE
    cases = [
        ([(m, 2 * m) for m in range(1, 13)], tol, None),  # every value ties
        ([(m, 3 * m + (m % 2)) for m in range(1, 13)], tol, 2),  # ties within each residue
        ([(m, 3 * m - (m % 3 == 0)) for m in range(1, 16)], Fraction(1, 3), 3),
        # tail values 1 and 21/20 at m = 20: the gap equals the tolerance
        ([(m, m + (m == 20)) for m in range(1, 21)], tol, None),
        ([(m, m + (m == 20)) for m in range(1, 21)], Fraction(1, 21), 4),
        # the increasing tail 2 + (m - 10)/m over m = 11 .. 20 drifts by 9/22
        (DRIFT, Fraction(9, 22), None),
        (DRIFT, Fraction(9, 23), 2),
        ([(1, 5)], tol, 2),  # one value
        ([(m, 7) for m in range(1, 9)], 0, None),  # strictly decreasing, tolerance 0
    ]
    for _ in range(150):
        max_m = rng.randint(1, 16)
        cases.append(([(m, rng.randint(-3, 4 * m)) for m in range(1, max_m + 1)],
                      rng.choice([tol, Fraction(0), Fraction(1, 3), Fraction(rng.randint(0, 9), 7)]),
                      rng.choice([None, 2, 3, 5])))
    return cases


def test_estimates_match_fraction_oracle(rng):
    for pairs, tolerance, period in _estimate_cases(rng):
        got = _estimate_from_values(pairs, tolerance, period)
        want = fraction_estimate([(m, Fraction(n, m)) for m, n in pairs], tolerance, period)
        assert got == want, (pairs, tolerance, period)
        assert all(type(v) is Fraction for _, v in got.values)


def test_estimators_refuse_long_walks_before_any_member():
    built = []

    def rule(m):
        built.append(m)
        return MonomialIdeal.from_gens(2, [(m, 0)])

    family = GradedFamily(2, rule, "counted", claims_borel=True)
    for estimator in (waldschmidt_estimate, areg_estimate, ri_estimate):
        with pytest.raises(WorkBudgetError, match="max_m"):
            estimator(family, BUDGETS["walk"][0] + 1)
    assert not built
    assert waldschmidt_estimate(family, 3).inf_value == 1 and built == [1, 2, 3]


@settings(max_examples=80)
@given(family_specs(kinds=("halfplane", "chain")), st.integers(1, 8))
def test_staircase_members_are_their_own_minimal_generators(spec, m):
    # the rule emits a strictly ascending and b strictly dropping: an antichain,
    # listed in minimal_exponents' (degree, vector) order
    gens = family_from_json(spec).ideal(m).gens
    assert gens == minimal_exponents(reversed(gens))
