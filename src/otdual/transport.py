"""Exact transport values on finite spaces: alpha, alpha*, beta, beta*.

alpha(c) is the minimum of sum P*c over couplings P with marginals mu, nu;
alpha*(c) the maximum.  beta(c) is the best separable lower bound
sup{mu(f)+nu(g) : f+g <= c} and beta*(c) the best separable upper bound.
On finite spaces the LP duals close both gaps, so beta and beta* are read
off the same solve as the primal.

The primal algorithm is a network simplex specialized to the bipartite
transportation structure, pivoting with Bland's rule (smallest cell in
lexicographic order enters; smallest tying cell leaves) so it cannot cycle
even on degenerate instances.  Dual potentials are the node potentials at
optimality.  In rational mode every quantity is exact: flows live in the
lattice generated by the marginals and potentials are signed sums of cost
entries.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

from .costs import LOWER, UPPER, PotentialPair, as_cost, negate_matrix
from .errors import DimensionMismatch, InfeasibleMarginals, InvariantViolation
from .numeric import Context, Number, resolve_context
from .spaces import Matrix, Vector

ALPHA = "alpha"
ALPHA_STAR = "alpha_star"


@dataclass(frozen=True)
class Coupling:
    """A joint matrix over X x Y claiming marginals mu and nu."""

    matrix: Matrix
    mu: Vector
    nu: Vector

    def __post_init__(self) -> None:
        object.__setattr__(self, "matrix", tuple(tuple(r) for r in self.matrix))
        object.__setattr__(self, "mu", tuple(self.mu))
        object.__setattr__(self, "nu", tuple(self.nu))

    def row_sums(self) -> Vector:
        return tuple(sum(row) for row in self.matrix)

    def col_sums(self) -> Vector:
        if not self.matrix:
            return ()
        return tuple(sum(col) for col in zip(*self.matrix))


@dataclass(frozen=True)
class CouplingDefects:
    ok: bool
    max_row_defect: Number
    max_col_defect: Number
    min_entry: Number
    total_mass: Number


def coupling_defects(coupling: Coupling, ctx: Context | None = None) -> CouplingDefects:
    ctx = resolve_context(ctx, coupling.matrix, coupling.mu, coupling.nu)
    rows = coupling.row_sums()
    cols = coupling.col_sums()
    row_defect = max((abs(r - m) for r, m in zip(rows, coupling.mu)), default=0)
    col_defect = max((abs(c - n) for c, n in zip(cols, coupling.nu)), default=0)
    min_entry = min((x for row in coupling.matrix for x in row), default=0)
    total = sum(rows)
    ok = (
        ctx.is_zero(row_defect)
        and ctx.is_zero(col_defect)
        and ctx.nonneg(min_entry)
        and ctx.eq(total, 1)
        and len(rows) == len(coupling.mu)
        and len(cols) == len(coupling.nu)
    )
    return CouplingDefects(ok, row_defect, col_defect, min_entry, total)


def transport_value(coupling_or_matrix, values: Matrix) -> Number:
    matrix = (
        coupling_or_matrix.matrix
        if isinstance(coupling_or_matrix, Coupling)
        else coupling_or_matrix
    )
    if len(matrix) != len(values) or any(
        len(r) != len(v) for r, v in zip(matrix, values)
    ):
        raise DimensionMismatch("coupling and cost have different shapes")
    return sum(p * c for prow, crow in zip(matrix, values) for p, c in zip(prow, crow))


@dataclass(frozen=True)
class SolveReport:
    value: Number
    arithmetic_mode: str
    coupling: Coupling | None = None
    potentials: PotentialPair | None = None


@dataclass(frozen=True)
class ChainReport:
    beta: Number
    alpha: Number
    alpha_star: Number
    beta_star: Number
    ok: bool

    def as_tuple(self) -> tuple[Number, Number, Number, Number]:
        return (self.beta, self.alpha, self.alpha_star, self.beta_star)


# ---------------------------------------------------------------------------
# Network simplex
# ---------------------------------------------------------------------------

def _validated_inputs(c, mu, nu, ctx):
    cost = as_cost(c)
    ctx = resolve_context(ctx, cost.values, tuple(mu), tuple(nu))
    values = ctx.matrix(cost.values)
    mu = ctx.vector(mu)
    nu = ctx.vector(nu)
    m, n = len(mu), len(nu)
    if len(values) != m or any(len(row) != n for row in values):
        raise DimensionMismatch(
            f"cost is {len(values)}x{len(values[0]) if values else 0}, marginals are {m} and {n}"
        )
    for name, w in (("mu", mu), ("nu", nu)):
        for i, x in enumerate(w):
            if not ctx.nonneg(x):
                raise InfeasibleMarginals(f"{name}[{i}] = {x} is negative")
        if not ctx.eq(sum(w), 1):
            raise InfeasibleMarginals(f"{name} sums to {sum(w)}, not 1")
    return values, mu, nu, ctx


def _northwest_basis(mu, nu, ctx):
    """Northwest-corner start: flows on m+n-1 basic cells forming a spanning tree."""
    m, n = len(mu), len(nu)
    s = list(mu)
    d = list(nu)
    if ctx.mode == "float":
        d[-1] += sum(s) - sum(d)  # absorb roundoff so the corner rule closes
    flow: dict[tuple[int, int], Number] = {}
    i = j = 0
    while True:
        q = s[i] if s[i] <= d[j] else d[j]
        if q < 0:
            q = ctx.number(0)
        flow[(i, j)] = q
        s[i] -= q
        d[j] -= q
        if i == m - 1 and j == n - 1:
            break
        if s[i] == 0 and i < m - 1:
            i += 1
        elif j < n - 1:
            j += 1
        else:
            i += 1
    return flow


def _walk_tree(basis, values, m, n, ctx):
    """One walk of the basis tree from row node 0.

    Nodes 0..m-1 are the rows and m..m+n-1 the columns.  Returns the node
    potentials, solving u_i + v_j = c_ij on basic cells with u[0] = 0, and
    each node's parent and depth in the tree rooted at row 0.
    """
    adj: list[list[int]] = [[] for _ in range(m + n)]
    for (i, j) in basis:
        adj[i].append(m + j)
        adj[m + j].append(i)
    potential: list[Number | None] = [None] * (m + n)
    parent = [-1] * (m + n)
    depth = [0] * (m + n)
    potential[0] = ctx.number(0)
    stack = [0]
    while stack:
        node = stack.pop()
        for nxt in adj[node]:
            if potential[nxt] is None:
                i, j = (node, nxt - m) if node < m else (nxt, node - m)
                potential[nxt] = values[i][j] - potential[node]
                parent[nxt] = node
                depth[nxt] = depth[node] + 1
                stack.append(nxt)
    if any(x is None for x in potential):
        raise InvariantViolation("basis does not span the bipartite node set")
    return potential, parent, depth


def _pivot_cycle(entering, parent, depth, m):
    """The basic cells losing and gaining flow when ``entering`` enters.

    The cycle is the entering cell plus the tree path between its row and
    its column.  Along the path, counted from either end, the cells
    alternate between losing and gaining, starting with losing.
    """
    minus: list[tuple[int, int]] = []
    plus: list[tuple[int, int]] = []
    ends = [entering[0], m + entering[1]]
    steps = [0, 0]
    while ends[0] != ends[1]:
        side = 0 if depth[ends[0]] >= depth[ends[1]] else 1
        node = ends[side]
        up = parent[node]
        cell = (node, up - m) if node < m else (up, node - m)
        (plus if steps[side] % 2 else minus).append(cell)
        steps[side] += 1
        ends[side] = up
    return minus, plus


def _network_simplex(values, mu, nu, ctx):
    """Minimize sum P*c over the transportation polytope.

    Returns (value, coupling matrix, u, v) with u, v optimal dual potentials.
    The keys of ``flow`` are the basic cells.
    """
    m, n = len(mu), len(nu)
    flow = _northwest_basis(mu, nu, ctx)
    max_pivots = 1000 * (m + n) * max(m * n, 1)
    pivots = 0
    while True:
        potential, parent, depth = _walk_tree(flow, values, m, n, ctx)
        u, v = potential[:m], potential[m:]
        entering = None
        for i in range(m):
            ui = u[i]
            row = values[i]
            for j in range(n):
                if (i, j) in flow:
                    continue
                if ctx.lt(row[j] - ui - v[j], 0):
                    entering = (i, j)
                    break
            if entering is not None:
                break
        if entering is None:
            break
        pivots += 1
        if pivots > max_pivots:
            raise InvariantViolation("pivot limit exceeded; this should be unreachable")
        minus, plus = _pivot_cycle(entering, parent, depth, m)
        theta = None
        leaving = None
        for arc in minus:
            f = flow[arc]
            if theta is None or f < theta or (f == theta and arc < leaving):
                theta = f
                leaving = arc
        for arc in minus:
            flow[arc] -= theta
        for arc in plus:
            flow[arc] += theta
        flow[entering] = theta
        del flow[leaving]
    zero = ctx.number(0)
    coupling = [[zero] * n for _ in range(m)]
    for (i, j), f in flow.items():
        coupling[i][j] = f if f > 0 else zero
    value = sum(values[i][j] * f for (i, j), f in flow.items())
    return value, tuple(tuple(r) for r in coupling), tuple(u), tuple(v)


# ---------------------------------------------------------------------------
# Public solvers
# ---------------------------------------------------------------------------

def _solve(c, mu, nu, side, ctx):
    """One simplex run for one side: the primal report and the context used.

    The lower side minimizes sum P*c.  The upper side maximizes it as
    -alpha(-c), so its value and potentials are negated back here.
    """
    values, mu, nu, ctx = _validated_inputs(c, mu, nu, ctx)
    upper = side == UPPER
    value, matrix, u, v = _network_simplex(
        negate_matrix(values) if upper else values, mu, nu, ctx
    )
    if upper:
        value, u, v = -value, tuple(-x for x in u), tuple(-x for x in v)
    report = SolveReport(
        value=value,
        arithmetic_mode=ctx.mode,
        coupling=Coupling(matrix=matrix, mu=mu, nu=nu),
        potentials=PotentialPair(f=u, g=v, side=side),
    )
    return report, ctx


def _dual_value(report: SolveReport) -> Number:
    return report.potentials.dual_value(report.coupling.mu, report.coupling.nu)


def solve_alpha(c, mu, nu, ctx: Context | None = None) -> SolveReport:
    """Exact minimum of sum P*c over couplings, with both optimality witnesses."""
    return _solve(c, mu, nu, LOWER, ctx)[0]


def solve_alpha_star(c, mu, nu, ctx: Context | None = None) -> SolveReport:
    """Exact maximum of sum P*c, computed as -alpha(-c)."""
    return _solve(c, mu, nu, UPPER, ctx)[0]


def solve_beta(c, mu, nu, ctx: Context | None = None) -> SolveReport:
    """Best separable lower bound sup{mu(f)+nu(g) : f+g <= c}.

    Read off the LP dual of alpha; on finite spaces the value matches
    alpha(c) (exactly in rational mode).
    """
    report = _solve(c, mu, nu, LOWER, ctx)[0]
    return replace(report, value=_dual_value(report))


def solve_beta_star(c, mu, nu, ctx: Context | None = None) -> SolveReport:
    """Best separable upper bound, computed as -beta(-c)."""
    report = _solve(c, mu, nu, UPPER, ctx)[0]
    return replace(report, value=_dual_value(report))


def check_chain(c, mu, nu, ctx: Context | None = None) -> ChainReport:
    """All four values in the order (beta, alpha, alpha*, beta*).

    ``ok`` states whether the chain beta <= alpha <= alpha* <= beta* holds
    within the mode tolerance; with exact arithmetic it cannot fail.
    """
    low, ctx = _solve(c, mu, nu, LOWER, ctx)
    high, _ = _solve(c, mu, nu, UPPER, ctx)
    beta, beta_star = _dual_value(low), _dual_value(high)
    ok = (
        ctx.leq(beta, low.value)
        and ctx.leq(low.value, high.value)
        and ctx.leq(high.value, beta_star)
    )
    return ChainReport(
        beta=beta, alpha=low.value, alpha_star=high.value, beta_star=beta_star, ok=ok
    )
