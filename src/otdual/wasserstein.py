"""Wasserstein-1 on a finite metric space, computed along both dual routes.

The primal route treats the metric as a transport cost and minimizes over
couplings (network simplex).  The dual route maximizes mu(f) - nu(f) over
1-Lipschitz vectors f, i.e. the LP with constraints f(x) - f(z) <= d(x, z)
on every ordered pair, solved by the dense simplex after pinning f at the
first point.  On finite spaces the two values agree exactly, in both modes;
both are reported so the agreement stays checkable.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .lp import simplex_maximize
from .numeric import RATIONAL, Context, Number, fold_sum, from_ratios, read_arguments
from .spaces import Matrix, Vector
from .transport import Coupling, _lattice_marginals, solve_alpha


@dataclass(frozen=True)
class WassersteinReport:
    primal_value: Number
    dual_value: Number
    lipschitz_witness: Vector
    coupling: Coupling

    @property
    def gap(self) -> Number:
        return self.primal_value - self.dual_value


def lipschitz_dual(metric: Matrix, mu, nu, ctx: Context | None = None) -> tuple[Number, Vector]:
    """sup of |mu(f) - nu(f)| over 1-Lipschitz f, with a maximizing f.

    The feasible set is symmetric under f -> -f, so the absolute value is
    the plain maximum of (mu - nu)(f).  Adding constants changes nothing,
    so f is pinned to 0 at point 0 and shifted into the box
    0 <= f_i + d(i,0) <= 2 d(i,0), which makes the origin feasible for the
    slack-basis simplex (the right-hand sides are nonnegative exactly by
    the triangle inequality).  mu and nu are checked as the solvers check
    them, the objective is their difference on the solve's lattice, and the
    metric is read exactly, a finite float as the dyadic rational it is.  The
    LP is solved exactly; float mode rounds the value, alpha, and each f_i once.
    """
    ctx, d, mu, nu = read_arguments(
        ctx, (metric, "metric", ("n", "n")), (mu, "mu", ("n",)), (nu, "nu", ("n",))
    )
    scale, mass_mu, mass_nu = _lattice_marginals(mu, nu, ctx)
    n = len(mu)
    zero, one = Fraction(0), Fraction(1)
    d = [tuple(map(Fraction, row)) for row in d]
    p = [a - b for a, b in zip(mass_mu, mass_nu)]

    lhs = []
    rhs = []
    for i in range(1, n):
        for j in range(1, n):
            if i == j:
                continue
            row = [zero] * (n - 1)
            row[i - 1] = one
            row[j - 1] = -one
            lhs.append(row)
            rhs.append(max(d[i][j] + d[i][0] - d[j][0], zero))
    for i in range(1, n):
        row = [zero] * (n - 1)
        row[i - 1] = one
        lhs.append(row)
        rhs.append(2 * d[i][0])
    _, g = simplex_maximize(p[1:], lhs, rhs, RATIONAL)
    f = (zero,) + tuple(g[i - 1] - d[i][0] for i in range(1, n))
    value = fold_sum(pi * fi for pi, fi in zip(p, f)) / scale
    value, *f = from_ratios((x.as_integer_ratio() for x in (value, *f)), ctx.mode)
    return value, tuple(f)


def wasserstein1(metric: Matrix, mu, nu, ctx: Context | None = None) -> WassersteinReport:
    ctx, metric, mu, nu = read_arguments(
        ctx, (metric, "metric", ("n", "n")), (mu, "mu", ("n",)), (nu, "nu", ("n",))
    )
    primal = solve_alpha(metric, mu, nu, ctx)
    dual_value, witness = lipschitz_dual(metric, mu, nu, ctx)
    return WassersteinReport(
        primal_value=primal.value,
        dual_value=dual_value,
        lipschitz_witness=witness,
        coupling=primal.coupling,
    )


def lipschitz_violations(metric: Matrix, f, ctx: Context | None = None) -> tuple[tuple[int, int], ...]:
    """Pairs (i, j) where |f_i - f_j| exceeds d(i, j)."""
    ctx, d, f = read_arguments(ctx, (metric, "metric", ("n", "n")), (f, "f", ("n",)))
    bad = []
    for i in range(len(f)):
        for j in range(len(f)):
            if i != j and not ctx.leq(abs(f[i] - f[j]), d[i][j]):
                bad.append((i, j))
    return tuple(bad)
