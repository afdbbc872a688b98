import re
import time
from pathlib import Path

import pytest

import limshape
from limshape import (
    GradedFamily,
    MonomialIdeal,
    WorkBudgetError,
    ahf,
    hilbert_function,
    make_doubling_family,
    make_halfplane_family,
    make_power_family,
    reduction_vector,
    validate_configuration,
    verify_graded,
    waldschmidt_estimate,
)
from limshape.svgfig import render_staircase
from limshape.work import BUDGETS

from conftest import cyclic_gens

XY = MonomialIdeal.from_gens(2, [(1, 0), (0, 1)])


def _power_exact():
    family = make_power_family(XY)
    family.ideal(9)  # 88 pairs: forming I^10 takes 20 more
    family.ideal(10)


def _wide(n):
    """The ideal of the n minimal generators x^i * y^(n - i), i < n."""
    return MonomialIdeal.from_gens(2, [(i, n - i) for i in range(n)])


def _plain(m):
    return MonomialIdeal.from_gens(2, [(m, 0)])


# (kind, lowered limit or None, the call, its full message)
ROWS = [
    ("product", None, lambda: _wide(1002).product(_wide(1002)),
     "product of 1002 by 1002 generators needs 1004004 sums, over 1000000"),
    ("power", None, lambda: make_power_family(XY).ideal(10000),
     "power I^10000 would take the chain's products to at least 100009998 generator pairs, over 1000000"),
    ("power", 100, _power_exact,
     "power I^10 would take the chain's products to 108 generator pairs, over 100"),
    ("doubling", None, lambda: make_doubling_family().ideal(10001), "doubling member m=10001 is over 10000"),
    ("columns", None, lambda: make_halfplane_family(10**6, 10**6).ideal(1000),
     "staircase member m=1000 walks 1000000001 columns, over 1000000"),
    ("ahf columns", None, lambda: ahf(make_halfplane_family(400, 400), 0, max_m=100),
     "ahf samples up to m=100 build members of 2020100 columns, over 1000000"),
    ("graded pairs", 100, lambda: verify_graded(make_halfplane_family(2, 3), 12),
     "halfplane(q1=2, q2=3): gradedness up to max_m=12 is charged over 100 generator pairs "
     "(|G_p|*|G_q|, at least 8 per pair; reached at p=1, q=5)"),
    ("walk", None, lambda: waldschmidt_estimate(GradedFamily(2, _plain, "plain"), 2001),
     "plain: walking the members up to max_m=2001 is over 2000"),
    ("variables", None, lambda: hilbert_function(MonomialIdeal.from_gens(501, [(1,) * 501]), 1),
     "Hilbert series in 501 variables, over 500"),
    ("slices", None, lambda: hilbert_function(MonomialIdeal.from_gens(20, cyclic_gens(20)), 60),
     "Hilbert series slices over 100000 generators"),
    ("lines", None, lambda: validate_configuration(range(1001, 0, -1)), "1001 lines, over 1000"),
    ("entries", None, lambda: reduction_vector(validate_configuration((3, 2)), 600_000_000_000),
     "m=600000000000 needs 1200000000000 entries, over 1000000"),
    ("triangles", None, lambda: render_staircase(
        MonomialIdeal.from_gens(3, [(i, 10000 - i, 0) for i in range(10001)]), 1, 3),
     "10001 generators to draw, over 10000"),
]


def test_rows_cover_every_budget():
    assert {kind for kind, *_ in ROWS} == set(BUDGETS)


@pytest.mark.parametrize("kind, limit, call, message", ROWS, ids=[f"{row[0]}-{i}" for i, row in enumerate(ROWS)])
def test_each_budget_refuses_with_its_message(monkeypatch, kind, limit, call, message):
    if limit is not None:
        monkeypatch.setitem(BUDGETS, kind, (limit, BUDGETS[kind][1]))
    start = time.perf_counter()
    with pytest.raises(WorkBudgetError) as exc:
        call()
    assert time.perf_counter() - start < 1
    assert str(exc.value) == message


def test_power_bound_refuses_before_any_product(monkeypatch):
    products = []
    product = MonomialIdeal.product
    monkeypatch.setattr(MonomialIdeal, "product", lambda a, b: products.append(1) or product(a, b))
    family = make_power_family(XY)
    with pytest.raises(WorkBudgetError, match="at least"):
        family.ideal(10000)
    assert products == [] and list(family._cache) == []
    # a principal ideal's powers have one generator each: the bound is m - 1 pairs
    line = make_power_family(MonomialIdeal.from_gens(2, [(1, 1)]))
    assert line.ideal(10000).gens == ((10000, 10000),)
    with pytest.raises(WorkBudgetError, match="at least 1000001 generator pairs"):
        make_power_family(MonomialIdeal.from_gens(2, [(1, 1)])).ideal(1000002)


def test_only_the_ledger_raises_work_budget_errors():
    src = Path(limshape.__file__).parent
    raising = sorted(p.name for p in src.glob("*.py") if re.search(r"raise WorkBudgetError", p.read_text()))
    assert raising == ["work.py"]
