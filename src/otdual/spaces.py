"""Finite probability spaces, subset masks, partitions, and measure primitives.

All types are immutable after construction; every operation is a pure
function, so values can be shared freely between concurrent workers.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import IndexOutOfRange, ValidationError, ZeroMassCell
from .numeric import (
    Context, Number, as_tuple, fold_sum, from_lattice, read_arguments, take_arguments, to_lattice,
)

Mask = tuple[bool, ...]
Vector = tuple[Number, ...]
Matrix = tuple[tuple[Number, ...], ...]


# ---------------------------------------------------------------------------
# Subset masks
# ---------------------------------------------------------------------------

def empty_mask(n: int) -> Mask:
    return (False,) * n


def mask_from_indices(n: int, indices) -> Mask:
    bits = [False] * n
    for i in indices:
        if not 0 <= i < n:
            raise IndexOutOfRange(f"point index {i} outside space of size {n}")
        bits[i] = True
    return tuple(bits)


def mask_indices(mask: Mask) -> tuple[int, ...]:
    return tuple(i for i, b in enumerate(mask) if b)


def mask_union(*masks: Mask) -> Mask:
    (masks,) = take_arguments((masks, "masks", ("k", "n")))
    if not masks:
        raise ValidationError("union of zero masks has no length")
    return tuple(any(bits) for bits in zip(*masks))


def mask_mass(weights: Sequence[Number], mask: Mask) -> Number:
    _, weights = read_arguments(None, (weights, "weights", ("n",)))
    (mask,) = take_arguments((mask, "mask", (len(weights),)))
    return fold_sum(w for w, b in zip(weights, mask) if b)


# ---------------------------------------------------------------------------
# Probability spaces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProbabilitySpace:
    """A finite point set with a weight vector and an optional metric.

    Construction only checks shapes; numeric invariants (weights summing
    to 1, metric axioms) are reported by :func:`validate_space` so that
    deliberately broken spaces can be built and diagnosed.
    """

    points: tuple
    weights: Vector
    metric: Matrix | None = None

    def __post_init__(self) -> None:
        fields = [("weights", ("n",)), ("points", ("n",))]
        if self.metric is not None:
            fields.append(("metric", ("n", "n")))
        taken = take_arguments(*((getattr(self, name), name, shape) for name, shape in fields))
        for (name, _), value in zip(fields, taken):
            object.__setattr__(self, name, value)

    @property
    def size(self) -> int:
        return len(self.points)


def make_space(weights, metric=None, points=None, prefix: str = "x") -> ProbabilitySpace:
    weights = as_tuple(weights, "weights")
    if points is None:
        points = tuple(f"{prefix}{i}" for i in range(len(weights)))
    return ProbabilitySpace(points=points, weights=weights, metric=metric)


@dataclass(frozen=True)
class SpaceValidation:
    """Diagnostic report from :func:`validate_space`."""

    ok: bool
    normalization_defect: Number
    negative_weights: tuple[int, ...]
    symmetry_violations: tuple[tuple[int, int], ...]
    diagonal_violations: tuple[int, ...]
    negative_distances: tuple[tuple[int, int], ...]
    triangle_violations: tuple[tuple[int, int, int], ...]


def validate_space(space: ProbabilitySpace, ctx: Context | None = None) -> SpaceValidation:
    """Report the normalization defect and any metric axiom violation.

    A triangle violation is recorded as (i, k, j) meaning
    d(i, j) > d(i, k) + d(k, j).
    """
    # A space without a metric has no metric axioms to check.
    ctx, w, d = read_arguments(
        ctx, (space.weights, "space.weights", ("n",)),
        (space.metric or (), "space.metric", ("d", "d")),
    )
    defect = abs(fold_sum(w) - 1)
    negative = tuple(i for i, x in enumerate(w) if not ctx.nonneg(x))

    sym: list[tuple[int, int]] = []
    diag: list[int] = []
    negd: list[tuple[int, int]] = []
    tri: list[tuple[int, int, int]] = []
    n = len(d)
    for i in range(n):
        if not ctx.is_zero(d[i][i]):
            diag.append(i)
        for j in range(n):
            if d[i][j] < -ctx.atol:
                negd.append((i, j))
            if i < j and not ctx.eq(d[i][j], d[j][i]):
                sym.append((i, j))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if not ctx.leq(d[i][j], d[i][k] + d[k][j]):
                    tri.append((i, k, j))
    ok = (
        ctx.is_zero(defect)
        and not negative
        and not sym
        and not diag
        and not negd
        and not tri
    )
    return SpaceValidation(
        ok=ok,
        normalization_defect=defect,
        negative_weights=negative,
        symmetry_violations=tuple(sym),
        diagonal_violations=tuple(diag),
        negative_distances=tuple(negd),
        triangle_violations=tuple(tri),
    )


def conditional_measure(space: ProbabilitySpace, cell: Mask, ctx: Context | None = None) -> Vector:
    """Weights conditioned on ``cell``: restricted, renormalized, zero outside."""
    ctx, w = read_arguments(ctx, (space.weights, "space.weights", ("n",)))
    (cell,) = take_arguments((cell, "cell", (len(w),)))
    total = mask_mass(w, cell)
    if ctx.is_zero(total):
        raise ZeroMassCell("cannot condition on a cell of mass 0")
    zero = ctx.number(0)
    return tuple(x / total if b else zero for x, b in zip(w, cell))


def pushforward(
    space: ProbabilitySpace, mapping: Sequence[int], target_size: int, ctx: Context | None = None
) -> Vector:
    """Image weights under a total point map into a space of ``target_size``."""
    ctx, w = read_arguments(ctx, (space.weights, "space.weights", ("n",)))
    # The map must be total: one target index per point.
    (mapping,) = take_arguments((mapping, "mapping", (len(w),)))
    out = [ctx.number(0)] * target_size
    for i, t in enumerate(mapping):
        if not 0 <= t < target_size:
            raise IndexOutOfRange(f"map sends point {i} to {t}, outside the target space")
        out[t] += w[i]
    return tuple(out)


def limsup_mass(
    space: ProbabilitySpace, sets: Sequence[Mask], from_index: int, ctx: Context | None = None
) -> Number:
    """Mass of the tail union of a finite set sequence.

    With the sequence numbered A_1, A_2, ... this is mu(union of A_j for
    j > from_index), i.e. the union of ``sets[from_index:]``.  It is the
    finite-truncation surrogate of a tail union: the true limsup
    (intersection over n of the unions past n) needs the infinite sequence
    and cannot be represented here.
    """
    _, w = read_arguments(ctx, (space.weights, "space.weights", ("n",)))
    (sets,) = take_arguments((sets, "sets", ("k", len(w))))
    if not 0 <= from_index < len(sets):
        raise IndexOutOfRange(f"from_index {from_index} outside 0..{len(sets) - 1}")
    tail = sets[from_index:]
    union = mask_union(*tail) if tail else empty_mask(space.size)
    return mask_mass(w, union)


def metric_repair(matrix, ctx: Context | None = None) -> Matrix:
    """Shortest-path closure of a nonnegative symmetric generator matrix.

    Symmetrizes by the smaller of the two directions, zeroes the diagonal,
    then closes under the triangle inequality (Floyd-Warshall).  The entries
    are read exactly onto one integer lattice and closed there, so in float
    mode each distance is the exact shortest path of the given floats,
    rounded once.  Never applied silently by any other operation.
    """
    ctx, d = read_arguments(ctx, (matrix, "matrix", ("n", "n")))
    n = len(d)
    scale, d = to_lattice(*d)
    d = [list(r) for r in d]
    for i in range(n):
        for j in range(n):
            if d[i][j] < 0:
                raise ValidationError(f"negative generator entry at ({i}, {j})")
    for i in range(n):
        d[i][i] = 0
        for j in range(i + 1, n):
            m = min(d[i][j], d[j][i])
            d[i][j] = m
            d[j][i] = m
    _close_paths(d)
    return tuple(from_lattice(r, scale, ctx.mode) for r in d)


def _close_paths(d: list[list[int]]) -> None:
    """Close the square integer matrix ``d`` in place under the triangle
    inequality (Floyd-Warshall); ``otdual gen`` closes its generator here too."""
    n = len(d)
    for k in range(n):
        dk = d[k]
        for i in range(n):
            dik = d[i][k]
            row = d[i]
            for j in range(n):
                alt = dik + dk[j]
                if alt < row[j]:
                    row[j] = alt


# ---------------------------------------------------------------------------
# Partitions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Partition:
    """Disjoint cells covering a space, with an optional designated null cell.

    The null cell plays the role of the exceptional cell A_0 of a countable
    partition; a finite artifact models the mass-0 case by a cell whose mass
    is 0 (or exactly the leftover mass, which callers can report).
    ``representatives`` is aligned with ``cells``; entries may be None (in
    particular at the null cell).
    """

    cells: tuple[Mask, ...]
    null_cell_index: int | None = None
    representatives: tuple[int | None, ...] | None = None

    def __post_init__(self) -> None:
        cells = as_tuple(self.cells, "cells")
        reps = (None,) * len(cells) if self.representatives is None else self.representatives
        cells, reps = take_arguments(
            (cells, "cells", ("k", "n")), (reps, "representatives", ("k",))
        )
        object.__setattr__(self, "cells", cells)
        if not cells:
            raise ValidationError("a partition needs at least one cell")
        n = len(cells[0])
        counts = [0] * n
        for c in cells:
            for i, b in enumerate(c):
                if b:
                    counts[i] += 1
        if any(k != 1 for k in counts):
            bad = [i for i, k in enumerate(counts) if k != 1]
            raise ValidationError(
                f"cells must partition the point set; points {bad} are not covered exactly once"
            )
        if self.null_cell_index is not None and not 0 <= self.null_cell_index < len(cells):
            raise ValidationError("null cell index outside the cell list")
        for k, r in enumerate(reps):
            if r is None:
                continue
            if not 0 <= r < n or not cells[k][r]:
                raise ValidationError(f"representative {r} does not belong to cell {k}")
        object.__setattr__(self, "representatives", reps)

    @property
    def size(self) -> int:
        return len(self.cells[0])

    def cell_masses(self, weights: Sequence[Number]) -> Vector:
        return tuple(mask_mass(weights, c) for c in self.cells)

    def non_null_cells(self) -> tuple[int, ...]:
        return tuple(k for k in range(len(self.cells)) if k != self.null_cell_index)


def singleton_partition(n: int) -> Partition:
    cells = tuple(mask_from_indices(n, [i]) for i in range(n))
    return Partition(cells=cells, representatives=tuple(range(n)))
