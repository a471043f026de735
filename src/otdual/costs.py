"""Separable potential pairs.  A cost on X x Y is a plain m x n matrix,
read and shape-checked as ``cost`` by each entry that takes one."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import ValidationError
from .numeric import Context, Number, as_tuple, fold_sum, read_arguments
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
        object.__setattr__(self, "f", as_tuple(self.f, "f"))
        object.__setattr__(self, "g", as_tuple(self.g, "g"))
        if self.side not in (LOWER, UPPER):
            raise ValidationError(f"side must be 'lower' or 'upper', got {self.side!r}")

    def dual_value(self, mu: Sequence[Number], nu: Sequence[Number]) -> Number:
        _, mu, nu, f, g = read_arguments(
            None, (mu, "mu", ("m",)), (nu, "nu", ("n",)), (self.f, "f", ("m",)),
            (self.g, "g", ("n",)),
        )
        return fold_sum(w * x for w, x in zip(mu, f)) + fold_sum(w * x for w, x in zip(nu, g))


def potential_defect(pair: PotentialPair, values: Matrix, ctx: Context | None = None) -> Number:
    """Largest violation of the pair's side constraint; 0 when feasible."""
    ctx, values, f, g = read_arguments(
        ctx, (values, "values", ("m", "n")), (pair.f, "pair.f", ("m",)), (pair.g, "pair.g", ("n",))
    )
    worst = ctx.number(0)
    for fi, row in zip(f, values):
        for gj, x in zip(g, row):
            gap = fi + gj - x if pair.side == LOWER else x - fi - gj
            if gap > worst:
                worst = gap
    return worst


def negate_matrix(values: Matrix) -> Matrix:
    return tuple(tuple(-x for x in row) for row in values)
