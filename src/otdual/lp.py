"""A small dense simplex for LPs in the form max c*x, A x <= b, x >= 0.

Requires b >= 0 so the slack basis is feasible (every use in this package
arranges that).  Pivots with Bland's rule, so it terminates without any
perturbation, and runs on Fractions in rational mode for exact optima.
Kept dependency-free and separate from the network simplex: it is the
second, independent route used for Lipschitz-dual values.
"""
from __future__ import annotations

from .errors import DualityError, InvariantViolation
from .numeric import Context, Number, as_rows, as_tuple, resolve_context


def simplex_maximize(objective, lhs, rhs, ctx: Context | None = None) -> tuple[Number, tuple[Number, ...]]:
    """Return (optimal value, argmax vector).

    ``objective``: length-k vector; ``lhs``: rows of length k; ``rhs``:
    nonnegative right-hand sides.
    """
    objective, lhs, rhs = as_tuple(objective, "objective"), as_rows(lhs, "lhs"), as_tuple(rhs, "rhs")
    ctx = resolve_context(ctx, objective, lhs, rhs)
    c = ctx.vector(objective)
    a = [ctx.vector(row) for row in lhs]
    b = ctx.vector(rhs)
    nvars = len(c)
    nrows = len(a)
    if any(len(row) != nvars for row in a) or len(b) != nrows:
        raise DualityError("LP shapes do not line up")
    if any(x < -ctx.atol for x in b):
        raise DualityError("simplex_maximize requires b >= 0")
    zero = ctx.number(0)
    one = ctx.number(1)

    # Tableau rows: [x coefficients | slack coefficients | rhs].
    rows = []
    for r in range(nrows):
        row = list(a[r]) + [zero] * nrows + [max(b[r], zero)]
        row[nvars + r] = one
        rows.append(row)
    # Objective row starts as -c; its rhs accumulates the objective value.
    obj = [-x for x in c] + [zero] * (nrows + 1)
    basis = [nvars + r for r in range(nrows)]
    width = nvars + nrows + 1

    max_pivots = 2000 * (nrows + nvars + 1)
    pivots = 0
    while True:
        entering = None
        for col in range(nvars + nrows):
            if ctx.lt(obj[col], 0):
                entering = col
                break
        if entering is None:
            break
        pivots += 1
        if pivots > max_pivots:
            raise InvariantViolation("simplex pivot limit exceeded")
        leaving_row = None
        best_ratio = None
        for r in range(nrows):
            coef = rows[r][entering]
            if coef > ctx.atol:
                ratio = rows[r][width - 1] / coef
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[r] < basis[leaving_row])
                ):
                    best_ratio = ratio
                    leaving_row = r
        if leaving_row is None:
            raise DualityError("LP is unbounded")
        pivot_row = rows[leaving_row]
        pivot = pivot_row[entering]
        for col in range(width):
            pivot_row[col] /= pivot
        for r in range(nrows):
            if r == leaving_row:
                continue
            factor = rows[r][entering]
            if factor == 0:
                continue
            row = rows[r]
            for col in range(width):
                row[col] -= factor * pivot_row[col]
        factor = obj[entering]
        if factor != 0:
            for col in range(width):
                obj[col] -= factor * pivot_row[col]
        basis[leaving_row] = entering

    x = [zero] * nvars
    for r, var in enumerate(basis):
        if var < nvars:
            x[var] = rows[r][width - 1]
    return obj[width - 1], tuple(x)
