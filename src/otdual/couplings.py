"""Coupling constructions: partition extension, Monge maps, product and
diagonal couplings."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import MarginalMismatch, NotMeasurePreserving, SpaceMismatch
from .numeric import Context, as_tuple, read_arguments, take_arguments
from .spaces import Matrix, Partition, ProbabilitySpace, Vector, mask_indices, pushforward
from .transport import Coupling, coupling_defects


@dataclass(frozen=True)
class CoarseCoupling:
    """A coupling between the cells of a partition of X and the points of Y.

    Row k is the mass the coarse plan sends from cell k; row sums must equal
    the cell masses and column sums the target marginal nu.
    """

    partition: Partition
    matrix: Matrix
    nu: Vector

    def __post_init__(self) -> None:
        matrix, nu = take_arguments(
            (self.matrix, "matrix", (len(self.partition.cells), "n")), (self.nu, "nu", ("n",))
        )
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "nu", nu)


def extend_coupling(coarse: CoarseCoupling, mu, ctx: Context | None = None) -> Coupling:
    """Extend a coarse plan to the full space: the mass a cell sends to y is
    spread over the cell's points proportionally to their conditional weight.

    The result has marginals exactly mu and nu and agrees with the coarse
    plan on every (union of cells) x (subset of Y) rectangle.  Cells of mass
    zero are skipped; their points receive zero rows.
    """
    partition = coarse.partition
    ctx, mu, t, nu = read_arguments(
        ctx, (mu, "mu", (partition.size,)), (coarse.matrix, "coarse.matrix", ("k", "n")),
        (coarse.nu, "coarse.nu", ("n",)),
    )
    masses = partition.cell_masses(mu)
    defects = coupling_defects(Coupling(matrix=t, mu=masses, nu=nu), ctx)
    if not defects.ok:
        raise MarginalMismatch(
            f"the coarse plan is not a coupling of the cell masses and nu: row defect"
            f" {defects.max_row_defect}, column defect {defects.max_col_defect}, least entry"
            f" {defects.min_entry}, total mass {defects.total_mass}"
        )
    zero = ctx.number(0)
    rows = [[zero] * len(nu) for _ in range(len(mu))]
    for k, cell in enumerate(partition.cells):
        if ctx.is_zero(masses[k]):
            continue
        for x in mask_indices(cell):
            share = mu[x] / masses[k]
            rows[x] = [share * v for v in t[k]]
    return Coupling(matrix=tuple(tuple(r) for r in rows), mu=mu, nu=nu)


def monge_coupling(
    space_x: ProbabilitySpace, mapping: Sequence[int], nu, ctx: Context | None = None
) -> Coupling:
    """The coupling concentrated on the graph of a measure-preserving map."""
    mapping = as_tuple(mapping, "mapping")
    ctx, mu, nu = read_arguments(
        ctx, (space_x.weights, "space_x.weights", ("m",)), (nu, "nu", ("n",))
    )
    image = pushforward(space_x, mapping, len(nu), ctx)
    defect = tuple(b - a for a, b in zip(image, nu))
    if any(not ctx.is_zero(x) for x in defect):
        raise NotMeasurePreserving(
            f"pushforward of mu differs from nu; defect vector {defect}",
            defect=defect,
        )
    zero = ctx.number(0)
    rows = [[zero] * len(nu) for _ in range(len(mu))]
    for i, t in enumerate(mapping):
        rows[i][t] = mu[i]
    return Coupling(matrix=tuple(tuple(r) for r in rows), mu=mu, nu=nu)


def product_coupling(mu, nu, ctx: Context | None = None) -> Coupling:
    ctx, mu, nu = read_arguments(ctx, (mu, "mu", ("m",)), (nu, "nu", ("n",)))
    return Coupling(
        matrix=tuple(tuple(a * b for b in nu) for a in mu), mu=mu, nu=nu
    )


def diagonal_coupling(space, target=None, ctx: Context | None = None) -> Coupling:
    """diag(mu) on a common point set; both marginals are mu.

    Accepts a ProbabilitySpace or a bare weight vector.  ``target`` is None
    or a ProbabilitySpace; when both are spaces their point sets must
    coincide.
    """
    if target is not None and not isinstance(target, ProbabilitySpace):
        raise SpaceMismatch(f"target is a {type(target).__name__}, not a ProbabilitySpace")
    if isinstance(space, ProbabilitySpace):
        ctx, mu = read_arguments(ctx, (space.weights, "space.weights", ("n",)))
        if target is not None and target.points != space.points:
            raise SpaceMismatch("diagonal coupling needs X and Y to share points")
    else:
        ctx, mu = read_arguments(ctx, (space, "space", ("n",)))
        if target is not None and len(target.points) != len(mu):
            raise SpaceMismatch("diagonal coupling needs equal point counts")
    zero = ctx.number(0)
    n = len(mu)
    matrix = tuple(
        tuple(mu[i] if i == j else zero for j in range(n)) for i in range(n)
    )
    return Coupling(matrix=matrix, mu=mu, nu=mu)
