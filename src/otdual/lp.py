"""A small dense simplex for LPs in the form max c*x, A x <= b, x >= 0.

Requires b >= 0 so the slack basis is feasible (every use in this package
arranges that).  Pivots with Bland's rule, so it terminates without any
perturbation.  Kept dependency-free and separate from the network simplex:
it is the second, independent route used for Lipschitz-dual values.

Both modes run one tableau of plain ``int``s.  Each row is read exactly
onto its own lattice with :func:`numeric.to_lattice` (a finite float is a
dyadic rational) and is kept only up to a positive factor: a pivot
replaces a row by ``row*p - row[e]*pivot_row``, where ``p = pivot_row[e] >
0``, and divides it by its gcd.  A positive factor keeps every sign and
every ratio rhs/coefficient, so Bland's rule makes the same choices as on
the Fraction tableau, and each basic value is read back exactly as rhs
over the coefficient of its basic column.  Float mode rounds each returned
number once, correctly; the tolerance steers no pivot.
"""
from __future__ import annotations

import math

from .errors import DualityError, InvariantViolation
from .numeric import Context, Number, from_ratios, read_arguments, to_lattice


def simplex_maximize(objective, lhs, rhs, ctx: Context | None = None) -> tuple[Number, tuple[Number, ...]]:
    """Return (optimal value, argmax vector).

    ``objective``: length-k vector; ``lhs``: rows of length k; ``rhs``:
    nonnegative right-hand sides.  A float rhs within the tolerance below
    0 is read as 0.
    """
    ctx, c, a, b = read_arguments(
        ctx, (objective, "objective", ("k",)), (lhs, "lhs", ("r", "k")), (rhs, "rhs", ("r",))
    )
    if any(x < -ctx.atol for x in b):
        raise DualityError("simplex_maximize requires b >= 0")
    value, *x = from_ratios(_lattice_simplex(c, a, b), ctx.mode)
    return value, tuple(x)


def _reduced(row: list[int]) -> list[int]:
    """``row`` divided by the gcd of its entries."""
    g = math.gcd(*row)
    return row if g == 1 else [x // g for x in row]


def _eliminate(row: list[int], entering: int, p: int, support) -> list[int]:
    """``row*p - row[entering]*pivot_row`` up to a positive factor: zero in
    the entering column.  ``p > 0`` is the pivot and ``support`` lists the
    pivot row's nonzero entries as (column, value) pairs."""
    g = math.gcd(p, row[entering])
    scale, factor = p // g, row[entering] // g
    row = list(row) if scale == 1 else [x * scale for x in row]
    for col, y in support:
        row[col] -= factor * y
    return _reduced(row)


def _lattice_simplex(c, a, b) -> list[tuple[int, int]]:
    """The optimal value and then each coordinate of the argmax, as exact
    (numerator, positive denominator) pairs."""
    nvars = len(c)
    nrows = len(a)
    ncols = nvars + nrows
    rhs = ncols
    # Rows: [x coefficients | slack coefficients | rhs | objective factor].
    # The last entry is 1 in the objective row and 0 elsewhere, so it
    # follows the objective row's positive factor through every pivot and
    # rhs over it is the objective value.
    rows = []
    for r in range(nrows):
        scale, (coefs,) = to_lattice(a[r] + (max(b[r], 0),))
        row = list(coefs[:-1]) + [0] * nrows + [coefs[-1], 0]
        row[nvars + r] = scale
        rows.append(_reduced(row))
    scale, (coefs,) = to_lattice(c)
    obj = _reduced([-x for x in coefs] + [0] * (nrows + 1) + [scale])
    basis = [nvars + r for r in range(nrows)]

    max_pivots = 2000 * (ncols + 1)
    pivots = 0
    # Bland's entering column: the first negative reduced cost.
    while (entering := next((col for col in range(ncols) if obj[col] < 0), None)) is not None:
        pivots += 1
        if pivots > max_pivots:
            raise InvariantViolation("simplex pivot limit exceeded")
        # Least ratio rhs/coef over positive coefs, compared by
        # cross-multiplying; ties go to the smallest basis index.
        leaving_row = None
        for r, row in enumerate(rows):
            coef = row[entering]
            if coef > 0:
                if leaving_row is None:
                    leaving_row, best_rhs, best_coef = r, row[rhs], coef
                    continue
                left, right = row[rhs] * best_coef, best_rhs * coef
                if left < right or (left == right and basis[r] < basis[leaving_row]):
                    leaving_row, best_rhs, best_coef = r, row[rhs], coef
        if leaving_row is None:
            raise DualityError("LP is unbounded")
        pivot_row = rows[leaving_row]
        support = [(col, y) for col, y in enumerate(pivot_row) if y]
        for r, row in enumerate(rows):
            if r != leaving_row and row[entering] != 0:
                rows[r] = _eliminate(row, entering, pivot_row[entering], support)
        if obj[entering] != 0:
            obj = _eliminate(obj, entering, pivot_row[entering], support)
        basis[leaving_row] = entering

    x = [(0, 1)] * nvars
    for r, var in enumerate(basis):
        if var < nvars:
            x[var] = (rows[r][rhs], rows[r][var])
    return [(obj[rhs], obj[-1])] + x
