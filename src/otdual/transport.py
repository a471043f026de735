"""Exact transport values on finite spaces: alpha, alpha*, beta, beta*.

alpha(c) is the minimum of sum P*c over couplings P with marginals mu, nu;
alpha*(c) the maximum.  beta(c) is the best separable lower bound
sup{mu(f)+nu(g) : f+g <= c} and beta*(c) the best separable upper bound.
On finite spaces the LP duals close both gaps, so beta and beta* are the
certified values of the alpha and alpha* solves, rounded once.

The primal algorithm is a network simplex specialized to the bipartite
transportation structure, pivoting with Bland's rule (smallest cell in
lexicographic order enters; smallest tying cell leaves) so it cannot cycle
even on degenerate instances.  Dual potentials are the node potentials at
optimality.  Both arithmetic modes share one exact solve on plain
``int``s.  Every entry is read exactly, a finite float as the dyadic
rational it is, and the costs are scaled by L, the least common multiple of
their denominators, and the marginals by D, that of theirs.  The value is
mapped back as v / (L*D), potentials as x / L and flows as f / D: exactly
in rational mode, rounded once in float mode.  Positive scales keep every
sign and order the pivot rules compare, so the pivots are those of the same
solve on ``Fraction``s, and the mode's tolerance never steers a pivot.
Before anything is mapped back, a check sharing nothing with the simplex
certifies the optimum on the lattice; a failure raises ``InvariantViolation``.
"""
from __future__ import annotations

from dataclasses import dataclass
from operator import mul

from .costs import LOWER, UPPER, PotentialPair, as_cost, negate_matrix
from .errors import InfeasibleMarginals, InvariantViolation
from .numeric import (
    Context, Number, fold_sum, from_lattice, read_arguments, take_arguments, to_lattice,
)
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
        taken = take_arguments(
            (self.matrix, "matrix", ("m", "n")), (self.mu, "mu", ("m",)), (self.nu, "nu", ("n",))
        )
        for name, value in zip(("matrix", "mu", "nu"), taken):
            object.__setattr__(self, name, value)

    def row_sums(self) -> Vector:
        return tuple(fold_sum(row) for row in self.matrix)

    def col_sums(self) -> Vector:
        return tuple(fold_sum(col) for col in zip(*self.matrix))


@dataclass(frozen=True)
class CouplingDefects:
    ok: bool
    max_row_defect: Number
    max_col_defect: Number
    min_entry: Number
    total_mass: Number


def coupling_defects(coupling: Coupling, ctx: Context | None = None) -> CouplingDefects:
    ctx, matrix, mu, nu = read_arguments(
        ctx, (coupling.matrix, "coupling.matrix", ("m", "n")),
        (coupling.mu, "coupling.mu", ("m",)), (coupling.nu, "coupling.nu", ("n",)),
    )
    rows = tuple(fold_sum(row) for row in matrix)
    cols = tuple(fold_sum(col) for col in zip(*matrix))
    row_defect = max((abs(r - m) for r, m in zip(rows, mu)), default=0)
    col_defect = max((abs(c - n) for c, n in zip(cols, nu)), default=0)
    min_entry = min((x for row in matrix for x in row), default=0)
    total = fold_sum(rows)
    ok = (
        ctx.is_zero(row_defect)
        and ctx.is_zero(col_defect)
        and ctx.nonneg(min_entry)
        and ctx.eq(total, 1)
    )
    return CouplingDefects(ok, row_defect, col_defect, min_entry, total)


def transport_value(coupling_or_matrix, values: Matrix) -> Number:
    if isinstance(coupling_or_matrix, Coupling):
        coupling_or_matrix = coupling_or_matrix.matrix
    _, matrix, values = read_arguments(
        None, (coupling_or_matrix, "coupling_or_matrix", ("m", "n")), (values, "values", ("m", "n"))
    )
    return fold_sum(p * c for prow, crow in zip(matrix, values) for p, c in zip(prow, crow))


@dataclass(frozen=True)
class SolveReport:
    value: Number
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

def _lattice_marginals(mu, nu, ctx):
    """Marginals as every route reads them: ``(scale, mass_mu, mass_nu)`` on
    one integer lattice, after checking that each is a probability vector
    within the tolerance (else ``InfeasibleMarginals``).  A float weight
    within the tolerance below 0 is read as 0, and the exact gap between
    float totals goes to nu's largest entry (a pushforward nu often ends in
    0), so the totals agree."""
    for name, w in (("mu", mu), ("nu", nu)):
        for i, x in enumerate(w):
            if not ctx.nonneg(x):
                raise InfeasibleMarginals(f"{name}[{i}] = {x} is negative")
        total = fold_sum(w)
        if not ctx.eq(total, 1):
            raise InfeasibleMarginals(f"{name} sums to {total}, not 1")
    scale, masses = to_lattice(mu, nu)
    mass_mu, mass_nu = (tuple(max(x, 0) for x in w) for w in masses)
    total_mu, total_nu = fold_sum(mass_mu), fold_sum(mass_nu)
    largest = max(range(len(mass_nu)), key=mass_nu.__getitem__)
    closed = mass_nu[largest] + total_mu - total_nu
    if closed < 0:
        raise InfeasibleMarginals(f"the totals of mu and nu, {total_mu} and {total_nu}"
                                  f" on one scale, differ by more than nu[{largest}]")
    return scale, mass_mu, (*mass_nu[:largest], closed, *mass_nu[largest + 1:])


def _northwest_basis(mu, nu):
    """Northwest-corner start: flows on m+n-1 basic cells forming a spanning tree."""
    m, n = len(mu), len(nu)
    s = list(mu)
    d = list(nu)
    flow: dict[tuple[int, int], Number] = {}
    i = j = 0
    while True:
        q = s[i] if s[i] <= d[j] else d[j]
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


def _walk_tree(basis, values, m, n):
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
    potential[0] = 0
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


def _network_simplex(values, mu, nu):
    """Minimize sum P*c over the transportation polytope.

    Returns (value, coupling matrix, u, v) with u, v optimal dual potentials.
    The keys of ``flow`` are the basic cells.
    """
    m, n = len(mu), len(nu)
    flow = _northwest_basis(mu, nu)
    max_pivots = 1000 * (m + n) * max(m * n, 1)
    pivots = 0
    while True:
        potential, parent, depth = _walk_tree(flow, values, m, n)
        u, v = potential[:m], potential[m:]
        entering = None
        for i in range(m):
            ui = u[i]
            row = values[i]
            for j in range(n):
                # A basic cell has reduced cost 0 exactly, so it never enters.
                if row[j] - ui - v[j] < 0:
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
    coupling = tuple(tuple(flow.get((i, j), 0) for j in range(n)) for i in range(m))
    value = fold_sum(values[i][j] * f for (i, j), f in flow.items())
    return value, coupling, tuple(u), tuple(v)


def _certify(cost, mu, nu, value, flow, u, v):
    """Prove a lattice optimum of min sum P*c without trusting the simplex.

    The flow is a coupling of mu and nu, u_i + v_j <= c_ij holds on every
    cell with equality wherever the flow is positive, and the value is
    mu.u + nu.v: so sum P*c = mu.u + nu.v = value, and both are optimal.
    """
    def fail(what):
        raise InvariantViolation(f"optimality certificate fails: {what}; unreachable")

    for i, (row, crow, ui) in enumerate(zip(flow, cost, u)):
        if fold_sum(row) != mu[i]:
            fail(f"row {i} of the flow does not sum to mu[{i}]")
        for j, (p, cij, vj) in enumerate(zip(row, crow, v)):
            slack = cij - ui - vj
            if p < 0 or slack < 0 or (p and slack):
                fail(f"cell ({i}, {j}) has flow {p} and reduced cost {slack}")
    for j, col in enumerate(zip(*flow)):
        if fold_sum(col) != nu[j]:
            fail(f"column {j} of the flow does not sum to nu[{j}]")
    if value != fold_sum(map(mul, mu, u)) + fold_sum(map(mul, nu, v)):
        fail("the value differs from mu.u + nu.v")


# ---------------------------------------------------------------------------
# Public solvers
# ---------------------------------------------------------------------------

def _solve(c, mu, nu, side, ctx):
    """One certified simplex run for one side, as a primal report.

    The lower side minimizes sum P*c.  The upper side maximizes it as
    -alpha(-c), so its value and potentials are negated back here.  The
    simplex runs on the integer lattice described in the module docstring,
    and ``_certify`` proves its optimum there, so no caller re-checks the
    coupling, the potentials or the value.
    """
    ctx, values, mu, nu = read_arguments(
        ctx, (as_cost(c).values, "cost", ("m", "n")), (mu, "mu", ("m",)), (nu, "nu", ("n",))
    )
    cost_scale, cost = to_lattice(*values)
    mass_scale, mass_mu, mass_nu = _lattice_marginals(mu, nu, ctx)
    upper = side == UPPER
    if upper:
        cost = negate_matrix(cost)
    value, matrix, u, v = _network_simplex(cost, mass_mu, mass_nu)
    _certify(cost, mass_mu, mass_nu, value, matrix, u, v)
    if upper:
        value, u, v = -value, tuple(-x for x in u), tuple(-x for x in v)
    (value,) = from_lattice((value,), cost_scale * mass_scale, ctx.mode)
    matrix = tuple(from_lattice(row, mass_scale, ctx.mode) for row in matrix)
    u, v = from_lattice(u, cost_scale, ctx.mode), from_lattice(v, cost_scale, ctx.mode)
    return SolveReport(
        value=value,
        coupling=Coupling(matrix=matrix, mu=mu, nu=nu),
        potentials=PotentialPair(f=u, g=v, side=side),
    )


def solve_alpha(c, mu, nu, ctx: Context | None = None) -> SolveReport:
    """Exact minimum of sum P*c over couplings, with both optimality witnesses."""
    return _solve(c, mu, nu, LOWER, ctx)


def solve_alpha_star(c, mu, nu, ctx: Context | None = None) -> SolveReport:
    """Exact maximum of sum P*c, computed as -alpha(-c)."""
    return _solve(c, mu, nu, UPPER, ctx)


def solve_beta(c, mu, nu, ctx: Context | None = None) -> SolveReport:
    """Best separable lower bound sup{mu(f)+nu(g) : f+g <= c}.

    The certified alpha solve, whose potentials attain it: beta = alpha.
    """
    return _solve(c, mu, nu, LOWER, ctx)


def solve_beta_star(c, mu, nu, ctx: Context | None = None) -> SolveReport:
    """Best separable upper bound, the certified alpha* solve (= -beta(-c))."""
    return _solve(c, mu, nu, UPPER, ctx)


def check_chain(c, mu, nu, ctx: Context | None = None) -> ChainReport:
    """All four values in the order (beta, alpha, alpha*, beta*).

    beta and beta* are the certified alpha and alpha*.  Both are optima over
    one lattice polytope, each rounded once by a monotone rounding, so
    ``ok``, alpha <= alpha*, is exact in both modes.
    """
    low = _solve(c, mu, nu, LOWER, ctx)
    high = _solve(c, mu, nu, UPPER, ctx)
    return ChainReport(beta=low.value, alpha=low.value, alpha_star=high.value,
                       beta_star=high.value, ok=low.value <= high.value)
