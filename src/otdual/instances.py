"""Instance files: the JSON schema shared by the CLI, plus seeded random
instance generators used by ``otdual gen`` and the test suite.

Numbers are encoded as exact "p/q" strings (or plain integers) in rational
mode and as decimal literals in float mode; see the README for the full
schema.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from random import Random

from .costs import CostMatrix
from .errors import DualityError, ParseError, ValidationError
from .numeric import Context, format_number, read_arguments
from .rectangles import RectangleFamily
from .spaces import (
    Matrix,
    Partition,
    ProbabilitySpace,
    Vector,
    _close_paths,
    make_space,
    mask_from_indices,
    mask_indices,
    pushforward,
    validate_space,
)

FORMULAS = ("absolute-difference", "squared-difference", "equality-indicator")


@dataclass(frozen=True)
class Instance:
    ctx: Context
    space_x: ProbabilitySpace
    space_y: ProbabilitySpace
    cost: CostMatrix | None = None
    rectangles: RectangleFamily | None = None
    partition: Partition | None = None


def _need(data, key, kind, where, optional=False):
    if key not in data or data[key] is None:
        if optional:
            return None
        raise ParseError(f"missing field {key!r} in {where}")
    value = data[key]
    if not isinstance(value, kind):
        raise ParseError(f"field {key!r} in {where} has the wrong type")
    return value


def _parse_index(value, size: int, where: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ParseError(f"{where} is not an integer index")
    if not 0 <= value < size:
        raise ValidationError(f"{where} is {value}, outside 0..{size - 1}")
    return value


def _parse_indices(values, size: int, where: str) -> tuple[int, ...]:
    if not isinstance(values, list):
        raise ParseError(f"{where} must be a list")
    return tuple(_parse_index(v, size, f"{where}[{i}]") for i, v in enumerate(values))


def _parse_numbers(values, ctx, where, shape):
    """A vector or matrix of ``shape`` read from JSON lists."""
    matrix = len(shape) == 2
    if not isinstance(values, list) or matrix and not all(isinstance(r, list) for r in values):
        raise ParseError(f"{where} must be a list" + (" of lists" if matrix else ""))
    return read_arguments(ctx, (values, where, shape))[1]


def _parse_space(data, ctx, where) -> ProbabilitySpace:
    weights = _parse_numbers(_need(data, "weights", list, where), ctx, f"{where}.weights", ("n",))
    points = _need(data, "points", list, where, optional=True)
    metric = data.get("metric")
    if metric is not None:
        metric = _parse_numbers(metric, ctx, f"{where}.metric", ("n", "n"))
    try:
        return make_space(weights, metric, points, prefix=where[-1])
    except DualityError as exc:
        raise type(exc)(f"{where}: {exc}") from None


def _coords(data, ctx, where, size) -> Vector:
    """A space's ``coords``, read only for a formula cost; point indices by default."""
    coords = data.get("coords")
    if coords is None:
        return tuple(ctx.number(i) for i in range(size))
    return _parse_numbers(coords, ctx, f"{where}.coords", (size,))


def _formula_cost(formula, data, m, n, ctx) -> CostMatrix:
    cx = _coords(data["space_x"], ctx, "space_x", m)
    cy = _coords(data["space_y"], ctx, "space_y", n)
    one, zero = ctx.number(1), ctx.number(0)
    if formula == "absolute-difference":
        rows = [[abs(a - b) for b in cy] for a in cx]
    elif formula == "squared-difference":
        rows = [[(a - b) * (a - b) for b in cy] for a in cx]
    elif formula == "equality-indicator":
        rows = [[one if a == b else zero for b in cy] for a in cx]
    else:
        raise ParseError(f"unknown cost formula {formula!r}; known: {FORMULAS}")
    return CostMatrix(values=tuple(tuple(r) for r in rows))


def parse_instance(data: dict, mode_override: str | None = None, tolerance: float | None = None) -> Instance:
    if not isinstance(data, dict):
        raise ParseError("instance document must be a JSON object")
    arithmetic = data.get("arithmetic", "rational")
    if arithmetic not in ("rational", "float"):
        raise ParseError(f"arithmetic must be 'rational' or 'float', got {arithmetic!r}")
    if mode_override is not None:
        arithmetic = mode_override
    ctx = Context(arithmetic) if tolerance is None else Context(arithmetic, tolerance)

    space_x = _parse_space(_need(data, "space_x", dict, "instance"), ctx, "space_x")
    space_y = _parse_space(_need(data, "space_y", dict, "instance"), ctx, "space_y")
    m, n = space_x.size, space_y.size

    for name, space in (("space_x", space_x), ("space_y", space_y)):
        report = validate_space(space, ctx)
        if not report.ok:
            raise ValidationError(
                f"{name} is invalid: normalization defect {report.normalization_defect}, "
                f"negative weights {report.negative_weights}, "
                f"metric violations (symmetry {report.symmetry_violations}, "
                f"diagonal {report.diagonal_violations}, "
                f"negative {report.negative_distances}, "
                f"triangle {report.triangle_violations})"
            )

    cost = None
    raw_cost = _need(data, "cost", dict, "instance", optional=True)
    if raw_cost is not None:
        if "matrix" in raw_cost:
            values = _parse_numbers(raw_cost["matrix"], ctx, "cost.matrix", (m, n))
            cost = CostMatrix(values=values)
        elif "formula" in raw_cost:
            cost = _formula_cost(raw_cost["formula"], data, m, n, ctx)
        else:
            raise ParseError("cost needs either 'matrix' or 'formula'")

    rectangles = None
    raw_rects = _need(data, "rectangles", list, "instance", optional=True)
    if raw_rects is not None:
        rects = []
        for k, r in enumerate(raw_rects):
            where = f"rectangles[{k}]"
            if not isinstance(r, dict):
                raise ParseError(f"{where} must be an object")
            xs = _parse_indices(_need(r, "x", list, where), m, f"{where}.x")
            ys = _parse_indices(_need(r, "y", list, where), n, f"{where}.y")
            rects.append((mask_from_indices(m, xs), mask_from_indices(n, ys)))
        rectangles = RectangleFamily(nx=m, ny=n, rects=tuple(rects))

    partition = None
    raw_partition = _need(data, "partition", dict, "instance", optional=True)
    if raw_partition is not None:
        raw_cells = _need(raw_partition, "cells", list, "partition")
        cells = tuple(
            mask_from_indices(m, _parse_indices(cell, m, f"partition.cells[{k}]"))
            for k, cell in enumerate(raw_cells)
        )
        null = raw_partition.get("null_cell_index")
        if null is not None:
            null = _parse_index(null, len(cells), "partition.null_cell_index")
        reps = _need(raw_partition, "representatives", list, "partition", optional=True)
        if reps is not None:
            reps = tuple(
                None if r is None else _parse_index(r, m, f"partition.representatives[{k}]")
                for k, r in enumerate(reps)
            )
        try:
            partition = Partition(cells=cells, null_cell_index=null, representatives=reps)
        except DualityError as exc:
            raise type(exc)(f"partition: {exc}") from None

    return Instance(
        ctx=ctx,
        space_x=space_x,
        space_y=space_y,
        cost=cost,
        rectangles=rectangles,
        partition=partition,
    )


def load_instance(path, mode_override: str | None = None, tolerance: float | None = None) -> Instance:
    """Parse and fully validate an instance file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from None
    return parse_instance(data, mode_override=mode_override, tolerance=tolerance)


def instance_to_jsonable(instance: Instance) -> dict:
    """The instance as a JSON document, its numbers rendered in one pass."""
    mode = instance.ctx.mode

    def space_doc(space: ProbabilitySpace):
        doc = {"points": list(space.points), "weights": space.weights, "metric": space.metric}
        return {key: value for key, value in doc.items() if value is not None}

    doc = {
        "arithmetic": mode,
        "space_x": space_doc(instance.space_x),
        "space_y": space_doc(instance.space_y),
    }
    if instance.cost is not None:
        doc["cost"] = {"matrix": instance.cost.values}
    doc = format_number(doc, mode)
    # The fields below hold indices, not numbers, and the scalar
    # null_cell_index would be rendered as one.
    if instance.rectangles is not None:
        doc["rectangles"] = [
            {"x": list(mask_indices(a)), "y": list(mask_indices(b))}
            for a, b in instance.rectangles.rects
        ]
    if instance.partition is not None:
        doc["partition"] = {
            "cells": [list(mask_indices(c)) for c in instance.partition.cells],
            "null_cell_index": instance.partition.null_cell_index,
            "representatives": list(instance.partition.representatives),
        }
    return doc


def save_instance(instance: Instance, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(instance_to_jsonable(instance), handle, indent=2)
        handle.write("\n")


# ---------------------------------------------------------------------------
# Seeded random generation (exact rationals; float instances are converted)
# ---------------------------------------------------------------------------

# Metric and cost entries are whole quarters k/4, drawn and closed as the
# ints k and written from this table: _QUARTERS[k + _OFFSET] == Fraction(k, 4)
# for the cost's k in -12..12 (a closed metric's k lies in 0..8).
_OFFSET = 12
_QUARTERS = tuple(Fraction(k, 4) for k in range(-_OFFSET, _OFFSET + 1))


def random_weights(rng: Random, n: int, zeros: bool = False) -> Vector:
    """A random rational weight vector summing exactly to 1."""
    if n == 1:
        return (Fraction(1),)
    d = max(24, n)
    if zeros:
        cuts = sorted(rng.randrange(0, d + 1) for _ in range(n - 1))
    else:
        cuts = sorted(rng.sample(range(1, d), n - 1))
    bounds = [0, *cuts, d]
    return tuple(Fraction(b - a, d) for a, b in zip(bounds, bounds[1:]))


def random_cost_matrix(rng: Random, m: int, n: int) -> Matrix:
    """Uniform whole quarters from -3 to 3."""
    return tuple(
        tuple(_QUARTERS[rng.randint(-12, 12) + _OFFSET] for _ in range(n)) for _ in range(m)
    )


def random_metric(rng: Random, n: int) -> Matrix:
    """A valid rational metric: a random generator of 1 to 8 quarters, closed
    on the quarter lattice as :func:`metric_repair` closes its lattice."""
    gen = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            gen[i][j] = gen[j][i] = rng.randint(1, 8)
    _close_paths(gen)
    return tuple(tuple(_QUARTERS[k + _OFFSET] for k in row) for row in gen)


def random_rectangles(rng: Random, nx: int, ny: int, count: int = 3) -> RectangleFamily:
    rects = []
    for _ in range(count):
        xs = [i for i in range(nx) if rng.random() < 0.5]
        ys = [j for j in range(ny) if rng.random() < 0.5]
        rects.append((mask_from_indices(nx, xs), mask_from_indices(ny, ys)))
    return RectangleFamily(nx=nx, ny=ny, rects=tuple(rects))


def random_partition(rng: Random, n: int) -> Partition:
    k = (n + 1) // 2
    owner = list(range(k)) + [rng.randrange(k) for _ in range(n - k)]
    rng.shuffle(owner)
    members: dict[int, list[int]] = {c: [] for c in range(k)}
    for i, c in enumerate(owner):
        members[c].append(i)
    masks = tuple(mask_from_indices(n, members[c]) for c in range(k))
    reps = tuple(rng.choice(members[c]) for c in range(k))
    return Partition(cells=masks, representatives=reps)


def generate_instance(seed: int, m: int, n: int, mode: str = "rational") -> Instance:
    """A deterministic random instance exercising every CLI verb.

    nu is the pushforward of mu under a random map; this can make some nu
    entries zero, which the solvers support.
    """
    if m < 1 or n < 1:
        raise ValidationError("instance sizes must be at least 1x1")
    rng = Random(seed)
    mu = random_weights(rng, m)
    mapping = tuple(rng.randrange(n) for _ in range(m))
    nu = pushforward(make_space(mu), mapping, n)
    metric = random_metric(rng, m)
    cost = random_cost_matrix(rng, m, n)
    rectangles = random_rectangles(rng, m, n)
    partition = random_partition(rng, m)
    ctx, mu, nu, metric, cost = read_arguments(
        Context(mode), (mu, "mu", ("m",)), (nu, "nu", ("n",)), (metric, "metric", ("m", "m")),
        (cost, "cost", ("m", "n")),
    )
    return Instance(
        ctx=ctx,
        space_x=make_space(mu, metric),
        space_y=make_space(nu, prefix="y"),
        cost=CostMatrix(values=cost),
        rectangles=rectangles,
        partition=partition,
    )
