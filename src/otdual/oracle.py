"""Independent brute-force oracle for the transport solvers.

Enumerates every basic solution of the transportation polytope by walking
all spanning trees of the complete bipartite support (every subset of
m+n-1 cells that is acyclic), solving the unique tree flow by leaf
stripping, and keeping the nonnegative ones.  Degenerate bases are
included; distinct extreme couplings are deduplicated by matrix.

It runs on ``int``s: the cost read by ``to_lattice`` and the marginals as
every solve reads them, so it rounds the simplex's exact optimum once.
Beyond that reading it shares nothing with the network simplex it checks.
"""
from __future__ import annotations

from collections import deque
from itertools import combinations

from .costs import as_cost
from .errors import InstanceTooLarge, UnknownObjective
from .numeric import Context, Number, fold_sum, from_lattice, read_arguments, to_lattice
from .spaces import Matrix
from .transport import ALPHA, ALPHA_STAR, _lattice_marginals

DEFAULT_CELL_CAP = 16


def _tree_flow(cells, mu, nu):
    """Unique flow on a spanning tree, or None if some flow is negative."""
    m, n = len(mu), len(nu)
    degree = [0] * (m + n)
    incident: dict[int, list[tuple[int, int]]] = {k: [] for k in range(m + n)}
    for (i, j) in cells:
        degree[i] += 1
        degree[m + j] += 1
        incident[i].append((i, j))
        incident[m + j].append((i, j))
    s = list(mu)
    d = list(nu)
    used = set()
    flow = {}
    leaves = deque(k for k in range(m + n) if degree[k] == 1)
    while leaves:
        node = leaves.popleft()
        arc = next(((i, j) for (i, j) in incident[node] if (i, j) not in used), None)
        if arc is None:
            continue
        i, j = arc
        q = s[i] if node < m else d[j]
        if q < 0:
            return None
        flow[arc] = q
        s[i] -= q
        d[j] -= q
        used.add(arc)
        for end in (i, m + j):
            degree[end] -= 1
            if degree[end] == 1:
                leaves.append(end)
    # A spanning tree strips to its last cell, so every cell has its flow.
    return flow


def _lattice_vertices(mu, nu, cap):
    """Each basic feasible flow for integer marginals mu, nu, as a matrix."""
    m, n = len(mu), len(nu)
    if m * n > cap:
        raise InstanceTooLarge(f"{m}x{n} = {m * n} cells exceeds the cap of {cap}")
    cells = [(i, j) for i in range(m) for j in range(n)]
    for subset in combinations(cells, m + n - 1):
        parent = list(range(m + n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        acyclic = True
        for (i, j) in subset:
            ri, rj = find(i), find(m + j)
            if ri == rj:
                acyclic = False
                break
            parent[ri] = rj
        if not acyclic:
            continue
        flow = _tree_flow(subset, mu, nu)
        if flow is not None:
            yield tuple(tuple(flow.get((i, j), 0) for j in range(n)) for i in range(m))


def transport_polytope_vertices(
    mu, nu, cap: int = DEFAULT_CELL_CAP, ctx: Context | None = None
) -> tuple[Matrix, ...]:
    """All distinct extreme couplings of the polytope with marginals mu, nu,
    read and checked as every solve reads them."""
    ctx, mu, nu = read_arguments(ctx, (mu, "mu", ("m",)), (nu, "nu", ("n",)))
    scale, mass_mu, mass_nu = _lattice_marginals(mu, nu, ctx)
    vertices = _lattice_vertices(mass_mu, mass_nu, cap)
    return tuple(dict.fromkeys(tuple(from_lattice(r, scale, ctx.mode) for r in v) for v in vertices))


def oracle_enumerate(
    c, mu, nu, objective: str, cap: int = DEFAULT_CELL_CAP, ctx: Context | None = None
) -> Number:
    """Extreme of sum P*c over all enumerated basic feasible couplings."""
    if objective not in (ALPHA, ALPHA_STAR):
        raise UnknownObjective(f"objective must be 'alpha' or 'alpha_star', got {objective!r}")
    ctx, values, mu, nu = read_arguments(
        ctx, (as_cost(c).values, "cost", ("m", "n")), (mu, "mu", ("m",)), (nu, "nu", ("n",))
    )
    cost_scale, cost = to_lattice(*values)
    mass_scale, mass_mu, mass_nu = _lattice_marginals(mu, nu, ctx)
    totals = (
        fold_sum(p * x for prow, crow in zip(v, cost) for p, x in zip(prow, crow))
        for v in _lattice_vertices(mass_mu, mass_nu, cap)
    )
    best = min(totals) if objective == ALPHA else max(totals)
    return from_lattice((best,), cost_scale * mass_scale, ctx.mode)[0]
