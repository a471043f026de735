"""Approximation operators: Lipschitz infimal convolution, partition
discretization, oscillation control, cost normalization, and the monotone
beta* limit check."""
from __future__ import annotations

from dataclasses import dataclass

from .costs import CostMatrix, PotentialPair, as_cost, potential_defect
from .errors import (
    EmptyAnchorSet,
    InfeasibleWitness,
    LipschitzBoundViolated,
    MissingRepresentative,
    NotMonotone,
    ValidationError,
)
from .numeric import Context, Number, as_tuple, read_arguments, take_arguments
from .spaces import (
    Mask,
    Matrix,
    Partition,
    ProbabilitySpace,
    Vector,
    mask_from_indices,
    mask_indices,
)
from .transport import solve_beta_star


def lipschitz_infconv(
    c,
    n: Number,
    space_x: ProbabilitySpace,
    anchor_set: Mask | None = None,
    ctx: Context | None = None,
) -> CostMatrix:
    """Entrywise infimal convolution min over anchors z of n*d(x,z) + c(z,y).

    The output is n-Lipschitz in x (uniformly in y) for any nonempty anchor
    set, and sits below c wherever x is itself an anchor.  With the full
    anchor set it is the largest n-Lipschitz-in-x function below c.
    """
    if space_x.metric is None:
        raise ValidationError("infimal convolution needs a metric on X")
    ctx, n, values, d = read_arguments(
        ctx, (n, "n", ()), (as_cost(c).values, "cost", ("x", "y")),
        (space_x.metric, "space_x.metric", ("x", "x")),
    )
    if n <= 0:
        raise ValidationError("the Lipschitz parameter must be positive")
    m = len(values)
    anchors = range(m) if anchor_set is None else mask_indices(anchor_set)
    anchors = tuple(anchors)
    if not anchors:
        raise EmptyAnchorSet("the anchor set is empty")
    ny = len(values[0]) if values else 0
    out = []
    for x in range(m):
        dx = d[x]
        row = []
        for y in range(ny):
            row.append(min(n * dx[z] + values[z][y] for z in anchors))
        out.append(tuple(row))
    return CostMatrix(values=tuple(out))


def shifted_infconv(
    c,
    n: Number,
    space_x: ProbabilitySpace,
    f,
    ctx: Context | None = None,
) -> CostMatrix:
    """min over all z of n*d(x,z) + c(z,y) - f(z): the infimal convolution of
    the shifted cost c - f."""
    # n and the metric are read by lipschitz_infconv; they are passed here
    # too so that the inferred mode counts every argument.
    ctx, values, f, _, _ = read_arguments(
        ctx, (as_cost(c).values, "cost", ("x", "y")), (f, "f", ("x",)), (n, "n", ()),
        (space_x.metric, "space_x.metric", ("x", "x")),
    )
    shifted = tuple(tuple(x - fz for x in row) for row, fz in zip(values, f))
    return lipschitz_infconv(shifted, n, space_x, ctx=ctx)


def row_min_potential(c, g=None) -> Vector:
    """f(x) = min over y of c(x,y) - g(y); the tight lower potential for g."""
    values = as_cost(c).values
    if g is None:
        g = (0,) * (len(values[0]) if values else 0)
    _, values, g = read_arguments(None, (values, "cost", ("m", "n")), (g, "g", ("n",)))
    return tuple(min(x - gy for x, gy in zip(row, g)) for row in values)


def partition_discretize(c, partition: Partition, ctx: Context | None = None) -> CostMatrix:
    """Replace each row by its cell representative's row; the null cell keeps c."""
    _, values = read_arguments(ctx, (as_cost(c).values, "cost", (partition.size, "n")))
    rows = list(values)
    for k in partition.non_null_cells():
        members = mask_indices(partition.cells[k])
        if not members:
            continue
        rep = partition.representatives[k]
        if rep is None:
            raise MissingRepresentative(f"cell {k} has no representative")
        for x in members:
            rows[x] = values[rep]
    return CostMatrix(values=tuple(rows))


def _row_spread(a, b) -> Number:
    """sup over y of |a(y) - b(y)|, the distance of two cost rows; 0 for empty rows."""
    return max((abs(x - z) for x, z in zip(a, b)), default=0)


def oscillation(c, partition: Partition, ctx: Context | None = None) -> tuple[Number | None, ...]:
    """Per cell, the worst sup over y of |c(x,y) - c(z,y)| for x, z in the cell.

    The null cell's entry is None: its oscillation is never constrained.
    """
    ctx, values = read_arguments(ctx, (as_cost(c).values, "cost", (partition.size, "n")))
    out: list[Number | None] = []
    for k, cell in enumerate(partition.cells):
        if k == partition.null_cell_index:
            out.append(None)
            continue
        members = mask_indices(cell)
        worst = ctx.number(0)
        for a in range(len(members)):
            for b in range(a + 1, len(members)):
                spread = _row_spread(values[members[a]], values[members[b]])
                if spread > worst:
                    worst = spread
        out.append(worst)
    return tuple(out)


def oscillation_partition(
    c,
    eps: Number,
    space_x: ProbabilitySpace,
    lipschitz_bound: Number,
    ctx: Context | None = None,
) -> Partition:
    """Greedy diameter clustering into cells on which c oscillates by <= eps.

    Verifies first that sup over y of |c(x,y) - c(z,y)| <= u*d(x,z) on every
    pair (raising with the witnessing pair otherwise), then grows cells of
    diameter < eps/u, seeding each new cell at the unassigned point farthest
    from the seeds already chosen.
    """
    if space_x.metric is None:
        raise ValidationError("partitioning needs a metric on X")
    ctx, eps, u, values, d = read_arguments(
        ctx, (eps, "eps", ()), (lipschitz_bound, "lipschitz_bound", ()),
        (as_cost(c).values, "cost", ("x", "y")), (space_x.metric, "space_x.metric", ("x", "x")),
    )
    if eps <= 0 or u <= 0:
        raise ValidationError("eps and the Lipschitz bound must be positive")
    m = len(values)
    for x in range(m):
        for z in range(x + 1, m):
            spread = _row_spread(values[x], values[z])
            if not ctx.leq(spread, u * d[x][z]):
                raise LipschitzBoundViolated(
                    f"|c({x},.) - c({z},.)| reaches {spread} > {u} * d = {u * d[x][z]}",
                    pair=(x, z),
                )
    threshold = eps / u
    unassigned = set(range(m))
    seeds: list[int] = []
    cells: list[list[int]] = []
    while unassigned:
        if not seeds:
            seed = min(unassigned)
        else:
            seed = max(
                unassigned,
                key=lambda p: (min(d[p][s] for s in seeds), -p),
            )
        seeds.append(seed)
        members = [seed]
        unassigned.discard(seed)
        for z in sorted(unassigned):
            if all(d[w][z] < threshold for w in members):
                members.append(z)
                unassigned.discard(z)
        cells.append(sorted(members))
    masks = tuple(mask_from_indices(m, members) for members in cells)
    return Partition(cells=masks, representatives=tuple(seeds))


def normalize_cost(c, lower: PotentialPair, ctx: Context | None = None) -> CostMatrix:
    """Subtract a feasible lower pair: h = c - (f+g), nonnegative entrywise."""
    if lower.side != "lower":
        raise InfeasibleWitness("normalization needs a lower-side pair")
    ctx, values, f, g = read_arguments(
        ctx, (as_cost(c).values, "cost", ("m", "n")), (lower.f, "lower.f", ("m",)),
        (lower.g, "lower.g", ("n",)),
    )
    defect = potential_defect(lower, values, ctx)
    if not ctx.leq(defect, 0):
        raise InfeasibleWitness(f"pair exceeds the cost by {defect} somewhere")
    zero = ctx.number(0)
    rows = []
    for row, fi in zip(values, f):
        out = []
        for x, gj in zip(row, g):
            h = x - fi - gj
            out.append(h if h > 0 else zero if ctx.nonneg(h) else h)
        rows.append(tuple(out))
    return CostMatrix(values=tuple(rows))


def lipschitz_modulus(c, metric: Matrix, ctx: Context | None = None) -> Number | None:
    """Smallest u with sup_y |c(x,y) - c(z,y)| <= u*d(x,z) for all pairs.

    Returns None when no finite u works (distinct rows at distance 0).
    """
    ctx, values, metric = read_arguments(
        ctx, (as_cost(c).values, "cost", ("x", "y")), (metric, "metric", ("x", "x"))
    )
    worst = ctx.number(0)
    for x in range(len(values)):
        for z in range(x + 1, len(values)):
            spread = _row_spread(values[x], values[z])
            dist = metric[x][z]
            if ctx.is_zero(dist):
                if not ctx.is_zero(spread):
                    return None
                continue
            ratio = spread / dist
            if ratio > worst:
                worst = ratio
    return worst


@dataclass(frozen=True)
class ApproximantSequence:
    """A base cost with staged approximants expected to increase toward it."""

    base_cost: CostMatrix
    stages: tuple[tuple[Number, CostMatrix], ...]

    def __post_init__(self) -> None:
        base = as_cost(self.base_cost)
        (stages,) = take_arguments((self.stages, "stages", ("k", 2)))
        stages = tuple((param, as_cost(stage)) for param, stage in stages)
        take_arguments(
            (base.values, "base_cost", ("m", "n")),
            *((stage.values, f"stages[{k}]", ("m", "n")) for k, (_, stage) in enumerate(stages)),
        )
        object.__setattr__(self, "base_cost", base)
        object.__setattr__(self, "stages", stages)


def infconv_sequence(
    c,
    space_x: ProbabilitySpace,
    n_values,
    anchor_set: Mask | None = None,
    ctx: Context | None = None,
) -> ApproximantSequence:
    """The stages lipschitz_infconv(c, n) for each n of ``n_values``, all
    read in one arithmetic mode: ``ctx``, or the mode inferred from
    ``n_values``, the cost and the metric together."""
    base = as_cost(c)
    # lipschitz_infconv names each n and checks the metric, absent or not.
    ctx, _, _, *n_values = read_arguments(
        ctx, (base.values, "cost", ("m", "n")),
        (space_x.metric or (), "space_x.metric", ("d", "d")),
        *((n, "n", ()) for n in as_tuple(n_values, "n_values")),
    )
    stages = tuple(
        (n, lipschitz_infconv(base, n, space_x, anchor_set=anchor_set, ctx=ctx))
        for n in n_values
    )
    return ApproximantSequence(base_cost=base, stages=stages)


@dataclass(frozen=True)
class BetaStarLimitReport:
    stage_values: tuple[Number, ...]
    base_value: Number
    final_gap: Number


def beta_star_limit_check(
    sequence: ApproximantSequence, mu, nu, ctx: Context | None = None
) -> BetaStarLimitReport:
    """beta* along a nondecreasing stage sequence, with the gap to the base.

    Raises NotMonotone when the stages fail to increase entrywise toward the
    base, or (float-mode pathology only) when the beta* values themselves
    fail to be nondecreasing.
    """
    ctx, mu, nu, base, *stages = read_arguments(
        ctx, (mu, "mu", ("m",)), (nu, "nu", ("n",)),
        (sequence.base_cost.values, "sequence.base_cost", ("m", "n")),
        *((stage.values, f"sequence.stages[{k}]", ("m", "n"))
          for k, (_, stage) in enumerate(sequence.stages)),
    )
    previous = None
    for (param, _), stage in zip(sequence.stages, stages):
        if previous is not None:
            for row_a, row_b in zip(previous, stage):
                for a, b in zip(row_a, row_b):
                    if not ctx.leq(a, b):
                        raise NotMonotone(f"stage {param} drops below its predecessor")
        for row_s, row_c in zip(stage, base):
            for s, x in zip(row_s, row_c):
                if not ctx.leq(s, x):
                    raise NotMonotone(f"stage {param} exceeds the base cost")
        previous = stage
    stage_values = tuple(solve_beta_star(stage, mu, nu, ctx).value for stage in stages)
    for a, b in zip(stage_values, stage_values[1:]):
        if not ctx.leq(a, b):
            raise NotMonotone("beta* values decreased along the stages")
    # Once the stages reach the Lipschitz modulus the last stage is the base
    # cost itself, and its value is already known.
    if stages and stages[-1] == base:
        base_value = stage_values[-1]
    else:
        base_value = solve_beta_star(base, mu, nu, ctx).value
    final_gap = base_value - stage_values[-1] if stage_values else base_value
    return BetaStarLimitReport(
        stage_values=stage_values, base_value=base_value, final_gap=final_gap
    )
