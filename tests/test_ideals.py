import dataclasses
import json
import random
import re
from math import comb, isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import limshape.planar
from limshape import MonomialIdeal, WorkBudgetError, family_from_json, format_monomial, hilbert_function
from limshape.families import BUILTIN_KINDS, _member
from limshape.hilbert import _numerator
from limshape.ideals import _degree_key, minimal_exponents
from limshape.work import BUDGETS

from conftest import (
    borel_by_full_scan,
    borel_closure,
    divisible_by_a_generator,
    family_specs,
    random_ideal,
)


def test_ideal_contains():
    I = MonomialIdeal.from_gens(2, [(2, 0), (1, 2)])
    assert I.contains((2, 1))  # x^2*y is a multiple of x^2
    assert not I.contains((0, 3))
    assert not MonomialIdeal.zero(2).contains((0, 3))


@settings(max_examples=200)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.lists(st.tuples(*[st.integers(0, 5)] * n), max_size=8),
    st.lists(st.tuples(*[st.integers(0, 7)] * n), min_size=1, max_size=12),
)))
def test_contains_matches_divisibility(case):
    gens, monos = case
    I = MonomialIdeal.from_gens(len(monos[0]), gens)
    for mono in monos:
        # divisibility by any of the raw, unminimalized generators
        assert I.contains(mono) == any(all(a <= b for a, b in zip(g, mono)) for g in gens)


def test_contains_dimension_mismatch():
    I = MonomialIdeal.from_gens(2, [(2, 0)])
    with pytest.raises(ValueError):
        I.contains((2, 0, 0))


def test_minimal_generators():
    I = MonomialIdeal.from_gens(2, [(2, 0), (3, 0), (1, 2)])
    assert set(I.gens) == {(2, 0), (1, 2)}
    assert MonomialIdeal.from_gens(2, []).is_zero
    # duplicated middle generators collapse to the antichain
    J = MonomialIdeal.from_gens(2, [(4, 0), (3, 2), (3, 2), (2, 4)])
    assert set(J.gens) == {(4, 0), (3, 2), (2, 4)}


def test_minimal_generators_idempotent_and_order_independent(rng):
    for _ in range(40):
        nv = rng.randint(1, 4)
        I = random_ideal(rng, nv)
        again = MonomialIdeal.from_gens(nv, I.gens)
        assert again == I
        shuffled = list(I.gens)
        rng.shuffle(shuffled)
        assert MonomialIdeal.from_gens(nv, shuffled) == I


exponent_lists = st.integers(1, 3).flatmap(
    lambda n: st.lists(st.tuples(*[st.integers(0, 6)] * n), max_size=14)
)


def _seeded_3var_list(seed: int, size: int) -> list:
    rnd = random.Random(seed)
    return [tuple(rnd.randint(0, 9) for _ in range(3)) for _ in range(size)]


# long 3-variable sets reach deep into the bisected staircase; they come from
# a seeded generator because Hypothesis takes seconds to draw hundreds of vectors
long_3var_lists = st.builds(_seeded_3var_list, st.integers(0, 2**32), st.integers(50, 200))


@settings(max_examples=300)
@given(st.one_of(exponent_lists, long_3var_lists))
def test_minimal_exponents_match_quadratic_definition(vectors):
    # v is minimal iff no other vector of the set divides it
    minimal = {
        v for v in vectors
        if not any(u != v and all(a <= b for a, b in zip(u, v)) for u in vectors)
    }
    assert minimal_exponents(vectors) == tuple(sorted(minimal, key=lambda v: (sum(v), v)))


@pytest.mark.parametrize("nvars", [2.7, True, "2", None])
def test_ideal_json_variable_count_is_refused_not_truncated(nvars):
    with pytest.raises(ValueError, match=re.escape(f"ideal 'vars' must be an integer, got {nvars!r}")):
        MonomialIdeal.from_json({"vars": nvars, "gens": [[1, 0]]})


@pytest.mark.parametrize("gens, named", [
    ([(1, -1)], "negative exponent in (1, -1)"),
    ([(1.5, 0)], "exponent 1.5 in"),
    ([(True, 0)], "exponent True in"),
    ([("3", 0)], "exponent '3' in"),
    ([()], "non-empty"),
    ([(1, 0), (1, 0, 0)], "mixed exponent-vector lengths"),
])
def test_malformed_exponent_vectors_are_refused(gens, named):
    with pytest.raises(ValueError, match=re.escape(named)):
        minimal_exponents(gens)
    with pytest.raises(ValueError, match=re.escape(named)):
        MonomialIdeal.from_gens(2, gens)
    with pytest.raises(ValueError, match=re.escape(named)):
        MonomialIdeal(2, tuple(gens))
    with pytest.raises(ValueError, match=re.escape(named)):
        MonomialIdeal.from_json({"vars": 2, "gens": [list(g) for g in gens]})
    if len(gens) == 1:
        with pytest.raises(ValueError, match=re.escape(named)):
            MonomialIdeal.unit(2).contains(gens[0])


ideal_pairs = st.integers(1, 4).flatmap(lambda n: st.tuples(*[st.one_of(
    st.lists(st.tuples(*[st.integers(0, 5)] * n), max_size=6),  # empty: the zero ideal
    st.just([(0,) * n]),  # the unit ideal
)] * 2).map(lambda gens: (n, *gens)))


@settings(max_examples=300)
@given(ideal_pairs)
def test_product_equals_checked_minimalization_of_sums(case):
    n, gens_a, gens_b = case
    I, J = MonomialIdeal.from_gens(n, gens_a), MonomialIdeal.from_gens(n, gens_b)
    sums = [tuple(x + y for x, y in zip(a, b)) for a in I.gens for b in J.gens]
    assert I.product(J).gens == minimal_exponents(sums)


def test_ideal_product_examples():
    I = MonomialIdeal.from_gens(2, [(2, 0), (1, 2)])
    sq = I.product(I)
    assert set(sq.gens) == {(4, 0), (3, 2), (2, 4)}
    assert I.product(MonomialIdeal.unit(2)) == I
    assert I.product(MonomialIdeal.zero(2)).is_zero


def test_product_over_budget_is_refused():
    n = isqrt(BUDGETS["product"][0]) + 1  # n * n generator pairs, over the budget
    I = MonomialIdeal.from_gens(2, [(i, n - i) for i in range(n)])
    assert len(I.gens) == n
    with pytest.raises(WorkBudgetError):
        I.product(I)
    assert WorkBudgetError is limshape.planar.WorkBudgetError is limshape.WorkBudgetError
    assert WorkBudgetError is limshape.ideals.WorkBudgetError is limshape.work.WorkBudgetError


def test_ideal_product_commutative_associative(rng):
    for _ in range(15):
        nv = rng.randint(2, 3)
        A, B, C = (random_ideal(rng, nv, maxdeg=4, ngens=3) for _ in range(3))
        assert A.product(B) == B.product(A)
        assert A.product(B).product(C) == A.product(B.product(C))


def test_is_borel_fixed_examples():
    assert MonomialIdeal.from_gens(2, [(2, 0), (1, 2)]).is_borel_fixed()
    assert not MonomialIdeal.from_gens(2, [(0, 1)]).is_borel_fixed()
    wide = MonomialIdeal.from_gens(
        4, [(5, 0, 0, 0), (4, 1, 0, 0), (3, 3, 0, 0), (2, 5, 0, 0), (1, 7, 0, 0)]
    )
    assert wide.is_borel_fixed()


def test_is_borel_fixed_rejects_zero_ideal():
    with pytest.raises(ValueError):
        MonomialIdeal.zero(2).is_borel_fixed()


def test_borel_generator_check_matches_full_scan(rng):
    # generator-level exchange test agrees with scanning all monomials
    for _ in range(25):
        I = random_ideal(rng, rng.randint(2, 3), maxdeg=4, ngens=3)
        assert I.is_borel_fixed() == borel_by_full_scan(I)


@st.composite
def small_ideals(draw):
    """Ideals in 1-4 variables; half are replaced by their Borel closure, so
    both verdicts occur."""
    nvars = draw(st.integers(1, 4))
    top = 4 if nvars < 4 else 2
    gens = draw(st.lists(st.tuples(*[st.integers(0, top)] * nvars), min_size=1, max_size=4))
    I = MonomialIdeal.from_gens(nvars, gens)
    return borel_closure(I) if draw(st.booleans()) else I


@settings(max_examples=200)
@given(small_ideals())
def test_is_borel_fixed_matches_full_scan_property(I):
    assert I.is_borel_fixed() == borel_by_full_scan(I)


def borel_by_adjacent_moves(I: MonomialIdeal) -> bool:
    """The generic generator test: every move x_j -> x_(j-1) of a generator
    stays in the ideal."""
    for g in I.gens:
        for j in range(1, I.nvars):
            if g[j]:
                moved = list(g)
                moved[j] -= 1
                moved[j - 1] += 1
                if not divisible_by_a_generator(I, moved):
                    return False
    return True


pairs = st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=1, max_size=6)


@settings(max_examples=300)
@given(pairs, st.booleans())
def test_two_variable_borel_test_matches_adjacent_moves(gens, close):
    # the drawn generators, redundant ones included, go through the
    # constructor; the closure's generators added to them make the verdict true
    if close:
        gens = gens + list(borel_closure(MonomialIdeal.from_gens(2, gens)).gens)
    I = MonomialIdeal(2, tuple(gens))
    assert I.is_borel_fixed() == borel_by_adjacent_moves(I)
    assert MonomialIdeal.from_gens(2, gens).is_borel_fixed() == I.is_borel_fixed()


def test_borel_closed_under_products(rng):
    for _ in range(20):
        I = borel_closure(random_ideal(rng, rng.randint(2, 3), maxdeg=4, ngens=2))
        J = borel_closure(random_ideal(rng, I.nvars, maxdeg=4, ngens=2))
        assert I.is_borel_fixed() and J.is_borel_fixed()
        assert I.product(J).is_borel_fixed()


def test_borel_ideal_contains_pure_powers_of_first_variable(rng):
    # each generator degree yields a pure power x_0^deg inside the ideal
    for _ in range(20):
        I = borel_closure(random_ideal(rng, rng.randint(2, 4), maxdeg=4, ngens=3))
        for g in I.gens:
            pure = (sum(g),) + (0,) * (I.nvars - 1)
            assert I.contains(pure)


def test_alpha():
    assert MonomialIdeal.from_gens(2, [(2, 0), (1, 2)]).alpha() == 2
    assert MonomialIdeal.from_gens(2, [(5, 0), (4, 3)]).alpha() == 5
    assert MonomialIdeal.unit(2).alpha() == 0
    with pytest.raises(ValueError):
        MonomialIdeal.zero(2).alpha()


def test_borel_regularity():
    # a strongly stable ideal's regularity is its largest generator degree
    for gens, reg in [([(2, 0), (1, 2)], 3), ([(1, 0)], 1),
                      ([(5, 0, 0, 0), (4, 1, 0, 0), (3, 3, 0, 0), (2, 5, 0, 0), (1, 7, 0, 0)], 8)]:
        I = MonomialIdeal.from_gens(len(gens[0]), gens)
        assert I.is_borel_fixed()
        assert I.max_generator_degree() == reg
    assert not MonomialIdeal.from_gens(2, [(0, 1)]).is_borel_fixed()


def test_padding():
    I = MonomialIdeal.from_gens(2, [(2, 0), (1, 2)])
    J = I.padded(3)
    assert J.nvars == 3
    assert set(J.gens) == {(2, 0, 0), (1, 2, 0)}
    with pytest.raises(ValueError):
        J.padded(2)


def test_format_monomial():
    assert format_monomial((2, 0, 1)) == "x0^2*x2"
    assert format_monomial((0, 0)) == "1"
    assert str(MonomialIdeal.from_gens(3, [(2, 0, 1), (0, 1, 0)])) == "(x1, x0^2*x2)"
    assert str(MonomialIdeal.zero(2)) == "(0)"


@pytest.mark.parametrize("call, message", [
    (lambda: minimal_exponents([5]), "exponent vector must hold integers, got 5"),
    (lambda: MonomialIdeal.from_gens(0, []), "need at least one variable"),
    (lambda: MonomialIdeal.from_gens(True, [(2,)]), "nvars must be an integer, got True"),
    (lambda: MonomialIdeal.from_gens(2.0, [(1, 2)]), "nvars must be an integer, got 2.0"),
    (lambda: MonomialIdeal.from_gens("2", [(1, 2)]), "nvars must be an integer, got '2'"),
    (lambda: MonomialIdeal.from_gens(3, [(1, 0)]), "generators have 2 exponents, expected 3"),
    (lambda: MonomialIdeal.zero(True), "nvars must be an integer, got True"),
    (lambda: MonomialIdeal.zero(0), "need at least one variable"),
    (lambda: MonomialIdeal.unit(2.0), "nvars must be an integer, got 2.0"),
    (lambda: MonomialIdeal.unit(-1), "need at least one variable"),
    (lambda: MonomialIdeal.unit(2).padded(3.0), "nvars must be an integer, got 3.0"),
    (lambda: MonomialIdeal.unit(2).product(MonomialIdeal.unit(3)), "ideal product across different variable counts"),
    (lambda: MonomialIdeal.zero(2).max_generator_degree(), "zero ideal has no generators"),
])
def test_ideal_refusals_are_pinned(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


def test_json_round_trip():
    I = MonomialIdeal.from_gens(3, [(2, 0, 0), (1, 2, 0)])
    blob = json.dumps(I.to_json())
    assert MonomialIdeal.from_json(json.loads(blob)) == I
    with pytest.raises(ValueError):
        MonomialIdeal.from_json({"gens": [[1]]})


def assert_degree_ordered(I: MonomialIdeal) -> None:
    """The (degree, vector) contract and its readers: generators strictly
    increasing by `_degree_key`, `alpha` and `max_generator_degree` the least
    and largest generator degree, and `hilbert_function` at d = 0 .. top + 2
    the numerator sum over a filtered copy of the generators of degree <= d."""
    keys = [_degree_key(g) for g in I.gens]
    assert all(a < b for a, b in zip(keys, keys[1:])), I.gens
    degrees = [sum(g) for g in I.gens]
    if degrees:
        assert I.alpha() == min(degrees)
        assert I.max_generator_degree() == max(degrees)
    n = I.nvars
    for d in range(max(degrees, default=0) + 3):
        N = _numerator([g for g in I.gens if sum(g) <= d], n)
        assert hilbert_function(I, d) == sum(c * comb(d - e + n - 1, n - 1) for e, c in N.items() if e <= d)


@st.composite
def built_ideals(draw):
    """An ideal from one of the library's constructors: the dataclass
    constructor itself, `from_gens`, `from_json`, `product`, `padded`,
    `zero`, `unit` or a rule's `_member`, on drawn generators with repeated
    and redundant ones."""
    n = draw(st.integers(1, 4))
    vectors = st.lists(st.tuples(*[st.integers(0, 5)] * n), max_size=8)
    gens = draw(vectors)
    how = draw(st.sampled_from(["constructor", "from_gens", "from_json", "product", "padded", "zero", "unit",
                                "member"]))
    if how == "constructor":
        return MonomialIdeal(n, tuple(gens))
    if how == "from_json":
        return MonomialIdeal.from_json({"vars": n, "gens": [list(g) for g in gens]})
    if how == "product":
        return MonomialIdeal.from_gens(n, gens).product(MonomialIdeal.from_gens(n, draw(vectors)))
    if how == "padded":
        return MonomialIdeal.from_gens(n, gens).padded(n + draw(st.integers(0, 2)))
    if how == "zero":
        return MonomialIdeal.zero(n)
    if how == "unit":
        return MonomialIdeal.unit(n)
    if how == "member":
        return _member(n, set(gens))
    return MonomialIdeal.from_gens(n, gens)


@settings(max_examples=300)
@given(built_ideals())
def test_built_ideals_keep_degree_order(I):
    assert_degree_ordered(I)


def test_the_constructor_orders_and_minimalizes_like_from_gens():
    # generators out of (degree, vector) order, a repeat and a redundant one
    I = MonomialIdeal(2, ((0, 5), (1, 0), (0, 5), (2, 3)))
    J = MonomialIdeal.from_gens(2, [(1, 0), (0, 5)])
    assert I.gens == ((1, 0), (0, 5))
    assert (I.alpha(), I.max_generator_degree()) == (1, 5)
    assert I == J and hash(I) == hash(J)
    assert dataclasses.replace(J, gens=[(2, 3), (0, 5), (1, 0)]) == J
    assert MonomialIdeal(2, [(0, 0), (3, 1)]).is_unit
    with pytest.raises(ValueError, match="generators have 2 exponents, expected 3"):
        MonomialIdeal(3, ((1, 0),))
    with pytest.raises(ValueError, match="need at least one variable"):
        MonomialIdeal(0, ())


@settings(max_examples=120)
@given(family_specs(kinds=BUILTIN_KINDS))
def test_family_members_keep_degree_order(spec):
    # staircase rules (chain, halfplane, ceiling), power chains and the
    # remaining rules, members m <= 8
    family = family_from_json(spec)
    for m in range(1, 9):
        assert_degree_ordered(family.ideal(m))
