"""Rectangle families, indicator costs, minimal covers, and the
truncation bound for unions.

For the indicator cost 1_H of a union H of rectangles, alpha*(1_H), the
largest coupling mass of H, equals the least mu(a) + nu(b) over covers
H inside (a x Y) union (X x b).  The minimal cover is the beta* witness of
the one alpha* solve, rounded to 0/1 (see ``_rounded_cover``), so the cover
is an exact certificate of the solved value.  The truncation bound adds
the tail's mass to alpha of a finite head, whose dual value beta is the
same certified number.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import IndexOutOfRange, InvariantViolation
from .numeric import Context, Number, fold_sum, from_lattice, read_arguments, take_arguments
from .spaces import (
    Mask,
    Matrix,
    empty_mask,
    mask_mass,
    mask_union,
)
from .transport import Coupling, SolveReport, _lattice_marginals, solve_alpha, solve_alpha_star


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

    def head(self, count: int) -> "RectangleFamily":
        return RectangleFamily(nx=self.nx, ny=self.ny, rects=self.rects[:count])


def indicator_cost(family: RectangleFamily) -> Matrix:
    """0/1 cost of membership in the union of the family."""
    return family.union_matrix()


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


def _rounded_cover(family: RectangleFamily, best: SolveReport, ctx: Context) -> Cover:
    """The minimal cover rounded off ``best``, the solve_alpha_star report
    on indicator_cost(family) in ``ctx``.

    The 0/1 cost has lattice scale 1, so the upper potentials (f, g) are
    integers with f + g >= 1_H >= 0 on every cell.  With F = min f, the sets
    a = {f - F >= 1} and b = {g + F >= 1} cover H, and 1_a <= f - F,
    1_b <= g + F, so mu(a) + nu(b) <= mu(f) + nu(g) = alpha*(1_H); weak
    duality gives equality.  Both facts are re-verified before returning; the
    value, the solve's lattice mass of a and b rounded once, equals alpha*.
    """
    f, g = best.potentials.f, best.potentials.g
    low = min(f)
    a = tuple(x - low >= 1 for x in f)
    b = tuple(y + low >= 1 for y in g)
    if not covers(family, a, b):
        raise InvariantViolation("rounded potentials fail to cover the family; unreachable")
    scale, mass_mu, mass_nu = _lattice_marginals(best.coupling.mu, best.coupling.nu, ctx)
    mass = fold_sum(w for w, inside in zip(mass_mu + mass_nu, a + b) if inside)
    (value,) = from_lattice((mass,), scale, ctx.mode)
    if value != best.value:
        raise InvariantViolation("rounded cover's value differs from alpha*; unreachable")
    return Cover(a=a, b=b, value=value)


def min_cover(family: RectangleFamily, mu, nu, ctx: Context | None = None) -> Cover:
    """A cover (a, b) of the family's union minimizing mu(a) + nu(b),
    rounded off one alpha* solve of its indicator cost."""
    ctx, mu, nu = read_arguments(ctx, (mu, "mu", (family.nx,)), (nu, "nu", (family.ny,)))
    return _rounded_cover(family, solve_alpha_star(indicator_cost(family), mu, nu, ctx), ctx)


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
    best = solve_alpha_star(indicator_cost(family), mu, nu, ctx)
    cover = _rounded_cover(family, best, ctx)
    if cover.value == 0:
        return cover
    return NotNullReport(alpha_star=best.value, coupling=best.coupling)


@dataclass(frozen=True)
class TruncationReport:
    head_alpha: Number
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
    P(H) <= P(V) + mu(tail rows), so alpha(H) <= alpha(V) + tail mass.
    alpha(V) is certified on the lattice and equals beta(V), so the bound
    has no duality gap.  The report states the bound, whether the tail mass
    is below eps, and the directly solved alpha(H) for comparison.
    """
    ctx, mu, nu, eps = read_arguments(
        ctx, (mu, "mu", (family.nx,)), (nu, "nu", (family.ny,)), (eps, "eps", ())
    )
    if not 0 <= n < len(family.rects):
        raise IndexOutOfRange(f"truncation index {n} outside 0..{len(family.rects) - 1}")
    head = indicator_cost(family.head(n + 1))
    head_alpha = solve_alpha(head, mu, nu, ctx).value
    tail_rows = [a for a, _ in family.rects[n + 1 :]]
    tail_union = mask_union(*tail_rows) if tail_rows else empty_mask(family.nx)
    tail_mass = mask_mass(mu, tail_union)
    full_alpha = solve_alpha(indicator_cost(family), mu, nu, ctx).value
    certified = head_alpha + tail_mass
    return TruncationReport(
        head_alpha=head_alpha,
        tail_mass=tail_mass,
        tail_below_eps=tail_mass < eps,
        full_alpha=full_alpha,
        certified_bound=certified,
        bound_holds=ctx.leq(full_alpha, certified),
    )
