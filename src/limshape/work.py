"""Every fixed work budget in one table, and the one check against it.

Most entry points walk a chain of members I_m that keeps growing; only these
budgets keep a call bounded.  Each site hands `charge` its kind and the work
it is about to do, or the running total it would reach, before doing it:
`total = charge(kind, total + step, ...)`.
"""

from __future__ import annotations

__all__ = ["BUDGETS", "WorkBudgetError", "charge"]


class WorkBudgetError(RuntimeError):
    """Refused: the computation would pass a budget of `BUDGETS`.  Raised only
    by `charge`; re-exported by `limshape.ideals`, `limshape.planar` and
    `limshape`."""


# kind -> (limit, message); the message's {} fields take the site's values
BUDGETS = {
    "product": (10**6, "product of {} by {} generators needs {n} sums, over {limit}"),
    "power": (10**6, "power I^{} would take the chain's products to {}{n} generator pairs, over {limit}"),
    # 2^m must print in fewer than Python's 4300-digit limit (m < 14284)
    "doubling": (10**4, "doubling member m={n} is over {limit}"),
    "columns": (10**6, "staircase member m={} walks {n} columns, over {limit}"),
    "ahf columns": (10**6, "ahf samples up to m={} build members of {n} columns, over {limit}"),
    "graded pairs": (10**5, "{}: gradedness up to max_m={} is charged over {limit} generator pairs "
                            "(|G_p|*|G_q|, at least {} per pair; reached at p={}, q={})"),
    # the inner shape of the oscillating family (2, 3, 2) at t = 3 takes about
    # 0.2 s at max_m 2000 and 0.6 s at 3000 (Python 3.11, 2-CPU Linux container)
    "walk": (2000, "{}: walking the members up to max_m={n} is over {limit}"),
    # the slicing recurses nvars - 1 calls deep, well below the recursion limit
    "variables": (500, "Hilbert series in {n} variables, over {limit}"),
    "slices": (10**5, "Hilbert series slices over {limit} generators"),
    # the closed form's scale lcm(counts) grows with every line
    "lines": (1000, "{n} lines, over {limit}"),
    "entries": (10**6, "m={} needs {n} entries, over {limit}"),
    "triangles": (10**4, "{n} generators to draw, over {limit}"),
}


def charge(kind: str, n: int, *values) -> int:
    """n, or WorkBudgetError with the message of `kind` when n passes its
    limit; `values` fill the message's {} fields in order."""
    limit, message = BUDGETS[kind]
    if n > limit:
        raise WorkBudgetError(message.format(*values, n=n, limit=limit))
    return n
