"""Rectangle families, indicator costs, minimal covers, and the
truncation bound for unions.

The minimal cover is computed by max-flow / min-cut on the bipartite
network (source -> x with capacity mu(x), y -> sink with capacity nu(y),
arcs of effectively infinite capacity across every pair in H).  The cut
reachable from the source yields the cover; on finite spaces its value
equals both the best separable upper bound and the largest coupling mass
of H, so the cover is an exact certificate.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .costs import CostMatrix
from .errors import IndexOutOfRange, InvariantViolation, ValidationError
from .numeric import (
    Context, Number, fold_sum, from_lattice, read_arguments, take_arguments, to_lattice,
)
from .spaces import (
    Mask,
    Matrix,
    empty_mask,
    mask_mass,
    mask_union,
)
from .transport import Coupling, solve_alpha, solve_alpha_star

UNION = "union"
INTERSECTION = "intersection"


@dataclass(frozen=True)
class RectangleFamily:
    """A finite list of products A_k x B_k of point subsets."""

    nx: int
    ny: int
    rects: tuple[tuple[Mask, Mask], ...]

    def __post_init__(self) -> None:
        (rects,) = take_arguments((self.rects, "rects", ("k", 2)))
        # Each rectangle is a pair of masks, sized nx and ny.
        masks = take_arguments(*(
            (mask, f"rects[{k}][{side}]", (size,))
            for k, rect in enumerate(rects)
            for side, (mask, size) in enumerate(zip(rect, (self.nx, self.ny)))
        ))
        object.__setattr__(self, "rects", tuple(zip(masks[::2], masks[1::2])))

    def union_matrix(self) -> Matrix:
        rows = [[0] * self.ny for _ in range(self.nx)]
        for a, b in self.rects:
            for i, ai in enumerate(a):
                if not ai:
                    continue
                row = rows[i]
                for j, bj in enumerate(b):
                    if bj:
                        row[j] = 1
        return tuple(tuple(r) for r in rows)

    def intersection_matrix(self) -> Matrix:
        # The intersection over an empty index set is the whole space.
        rows = [[1] * self.ny for _ in range(self.nx)]
        for a, b in self.rects:
            for i in range(self.nx):
                row = rows[i]
                for j in range(self.ny):
                    if row[j] and not (a[i] and b[j]):
                        row[j] = 0
        return tuple(tuple(r) for r in rows)

    def head(self, count: int) -> "RectangleFamily":
        return RectangleFamily(nx=self.nx, ny=self.ny, rects=self.rects[:count])


def indicator_cost(family: RectangleFamily, mode: str = UNION) -> CostMatrix:
    """0/1 cost of membership in the union (or intersection) of the family."""
    if mode == UNION:
        return CostMatrix(values=family.union_matrix())
    if mode == INTERSECTION:
        return CostMatrix(values=family.intersection_matrix())
    raise ValidationError(f"mode must be 'union' or 'intersection', got {mode!r}")


@dataclass(frozen=True)
class Cover:
    """Sets a on X and b on Y with H inside (a x Y) union (X x b)."""

    a: Mask
    b: Mask
    value: Number


def covers(family: RectangleFamily, a: Mask, b: Mask) -> bool:
    a, b = take_arguments((a, "a", (family.nx,)), (b, "b", (family.ny,)))
    h = family.union_matrix()
    for i, row in enumerate(h):
        if a[i]:
            continue
        for j, hit in enumerate(row):
            if hit and not b[j]:
                return False
    return True


def _max_flow_cut(h: Matrix, mu: tuple[int, ...], nu: tuple[int, ...]):
    """Edmonds-Karp on the cover network with integer capacities; returns
    (flow value, source side)."""
    m, n = len(mu), len(nu)
    source, sink = 0, 1 + m + n
    big = fold_sum(mu) + 1  # exceeds any possible flow
    cap: dict[tuple[int, int], int] = {}
    adj: dict[int, list[int]] = {k: [] for k in range(m + n + 2)}

    def add_edge(u, v, c):
        cap[(u, v)] = c
        cap[(v, u)] = 0
        adj[u].append(v)
        adj[v].append(u)

    for i in range(m):
        add_edge(source, 1 + i, mu[i])
    for j in range(n):
        add_edge(1 + m + j, sink, nu[j])
    for i in range(m):
        for j in range(n):
            if h[i][j]:
                add_edge(1 + i, 1 + m + j, big)

    total = 0
    while True:
        parent = {source: source}
        queue = deque([source])
        while queue and sink not in parent:
            u = queue.popleft()
            for v in adj[u]:
                if v not in parent and cap[(u, v)] > 0:
                    parent[v] = u
                    queue.append(v)
        if sink not in parent:
            # This search ran to exhaustion: its keys are the source side.
            return total, set(parent)
        bottleneck = None
        v = sink
        while v != source:
            u = parent[v]
            c = cap[(u, v)]
            if bottleneck is None or c < bottleneck:
                bottleneck = c
            v = u
        v = sink
        while v != source:
            u = parent[v]
            cap[(u, v)] -= bottleneck
            cap[(v, u)] += bottleneck
            v = u
        total += bottleneck


def min_cover(family: RectangleFamily, mu, nu, ctx: Context | None = None) -> Cover:
    """A cover (a, b) of the family's union minimizing mu(a) + nu(b).

    Extracted from the min cut: a is the rows unreachable from the source in
    the residual network, b the reachable columns.  The containment is
    re-verified entrywise before returning.  The flow runs on mu and nu
    scaled onto one integer lattice, so the cut is exact in both modes.
    """
    ctx, mu, nu = read_arguments(ctx, (mu, "mu", (family.nx,)), (nu, "nu", (family.ny,)))
    scale, (mass_mu, mass_nu) = to_lattice(mu, nu)
    flow, reachable = _max_flow_cut(family.union_matrix(), mass_mu, mass_nu)
    (flow,) = from_lattice((flow,), scale, ctx.mode)
    a = tuple((1 + i) not in reachable for i in range(family.nx))
    b = tuple((1 + family.nx + j) in reachable for j in range(family.ny))
    value = mask_mass(mu, a) + mask_mass(nu, b)
    if not ctx.eq(value, flow):
        raise InvariantViolation("min cut does not match the max flow; unreachable")
    if not covers(family, a, b):
        raise InvariantViolation("extracted cut fails to cover the family; unreachable")
    return Cover(a=a, b=b, value=value)


@dataclass(frozen=True)
class NotNullReport:
    """Counter-evidence that some coupling charges the union."""

    alpha_star: Number
    coupling: Coupling


def arveson_witness(family: RectangleFamily, mu, nu, ctx: Context | None = None):
    """Either a cover with mu(a) = nu(b) = 0, or proof that none exists.

    A union of rectangles is null under every coupling exactly when its
    minimal cover has value 0; in that case the cover itself is the witness.
    Otherwise the returned report carries the positive maximal coupling mass
    together with a maximizing coupling.
    """
    ctx, mu, nu = read_arguments(ctx, (mu, "mu", (family.nx,)), (nu, "nu", (family.ny,)))
    cover = min_cover(family, mu, nu, ctx)
    if ctx.is_zero(cover.value):
        return cover
    best = solve_alpha_star(indicator_cost(family, UNION), mu, nu, ctx)
    return NotNullReport(alpha_star=best.value, coupling=best.coupling)


@dataclass(frozen=True)
class TruncationReport:
    head_count: int
    head_alpha: Number
    head_beta: Number
    duality_gap: Number
    tail_mass: Number
    tail_below_eps: bool
    full_alpha: Number
    certified_bound: Number
    bound_holds: bool


def truncation_duality(
    family: RectangleFamily, mu, nu, n: int, eps: Number, ctx: Context | None = None
) -> TruncationReport:
    """Bound the full union's minimal coupling mass through a finite head.

    With V the union of rectangles 0..n and the tail the rows of the
    remaining rectangles, every coupling P satisfies
    P(H) <= P(V) + mu(tail rows), so
    alpha(H) <= alpha(V) + tail mass = beta(V) + gap + tail mass.
    The report states the certified bound, whether the tail mass is below
    eps, and the directly solved alpha(H) for comparison.
    """
    ctx, mu, nu, eps = read_arguments(
        ctx, (mu, "mu", (family.nx,)), (nu, "nu", (family.ny,)), (eps, "eps", ())
    )
    if not 0 <= n < len(family.rects):
        raise IndexOutOfRange(f"truncation index {n} outside 0..{len(family.rects) - 1}")
    head = solve_alpha(indicator_cost(family.head(n + 1), UNION), mu, nu, ctx)
    head_alpha = head.value
    head_beta = head.potentials.dual_value(mu, nu)
    tail_rows = [a for a, _ in family.rects[n + 1 :]]
    tail_union = mask_union(*tail_rows) if tail_rows else empty_mask(family.nx)
    tail_mass = mask_mass(mu, tail_union)
    full_alpha = solve_alpha(indicator_cost(family, UNION), mu, nu, ctx).value
    gap = head_alpha - head_beta
    certified = head_beta + gap + tail_mass
    return TruncationReport(
        head_count=n + 1,
        head_alpha=head_alpha,
        head_beta=head_beta,
        duality_gap=gap,
        tail_mass=tail_mass,
        tail_below_eps=tail_mass < eps,
        full_alpha=full_alpha,
        certified_bound=certified,
        bound_holds=ctx.leq(full_alpha, certified),
    )
