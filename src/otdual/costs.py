"""Cost matrices and separable potential pairs."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import ValidationError
from .numeric import Context, Number, as_rows, fold_sum, resolve_context
from .spaces import Matrix, Vector

LOWER = "lower"
UPPER = "upper"


@dataclass(frozen=True)
class PotentialPair:
    """Vectors f on X and g on Y representing the separable function f+g.

    ``side`` records which dual the pair is meant for: a lower pair is
    feasible when f(x)+g(y) <= c(x,y) everywhere, an upper pair when >=.
    Feasibility is checked by :func:`potential_defect`, never assumed.
    """

    f: Vector
    g: Vector
    side: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "f", tuple(self.f))
        object.__setattr__(self, "g", tuple(self.g))
        if self.side not in (LOWER, UPPER):
            raise ValidationError(f"side must be 'lower' or 'upper', got {self.side!r}")

    def dual_value(self, mu: Sequence[Number], nu: Sequence[Number]) -> Number:
        if len(mu) != len(self.f) or len(nu) != len(self.g):
            raise ValidationError("marginal lengths differ from potential lengths")
        return fold_sum(w * x for w, x in zip(mu, self.f)) + fold_sum(
            w * x for w, x in zip(nu, self.g)
        )


def potential_defect(pair: PotentialPair, values: Matrix, ctx: Context | None = None) -> Number:
    """Largest violation of the pair's side constraint; 0 when feasible."""
    ctx = resolve_context(ctx, values, pair.f, pair.g)
    if len(values) != len(pair.f) or any(len(row) != len(pair.g) for row in values):
        raise ValidationError("potential pair does not match the cost shape")
    worst = ctx.number(0)
    for i, fi in enumerate(pair.f):
        row = values[i]
        for j, gj in enumerate(pair.g):
            gap = fi + gj - row[j] if pair.side == LOWER else row[j] - fi - gj
            if gap > worst:
                worst = gap
    return worst


@dataclass(frozen=True)
class CostMatrix:
    """A real cost matrix over X x Y.

    Optional bounding pairs witness that the cost sits between two separable
    functions; they are metadata and are validated whenever present.
    """

    values: Matrix
    lower_potential: PotentialPair | None = None
    upper_potential: PotentialPair | None = None

    def __post_init__(self) -> None:
        values = tuple(tuple(row) for row in self.values)
        object.__setattr__(self, "values", values)
        if values and any(len(row) != len(values[0]) for row in values):
            raise ValidationError("cost matrix rows have unequal lengths")
        for pair, side in ((self.lower_potential, LOWER), (self.upper_potential, UPPER)):
            if pair is None:
                continue
            if pair.side != side:
                raise ValidationError(f"{side} witness has side {pair.side!r}")
            defect = potential_defect(pair, values)
            ctx = resolve_context(None, values, pair.f, pair.g)
            if not ctx.leq(defect, 0):
                raise ValidationError(
                    f"{side} bounding pair violates its inequality by {defect}"
                )

    @property
    def shape(self) -> tuple[int, int]:
        m = len(self.values)
        return (m, len(self.values[0]) if m else 0)


def as_cost(c) -> CostMatrix:
    if isinstance(c, CostMatrix):
        return c
    return CostMatrix(values=as_rows(c, "cost"))


def negate_matrix(values: Matrix) -> Matrix:
    return tuple(tuple(-x for x in row) for row in values)
