"""Arithmetic modes shared by every solver.

Two modes exist: ``rational`` (exact ``fractions.Fraction`` arithmetic, all
comparisons exact) and ``float`` (IEEE doubles with a single global absolute
tolerance, default 1e-9).  Every operation in the package takes an optional
:class:`Context`; when omitted, the mode is inferred from the input data
(any float anywhere selects float mode).

:meth:`Context.number` and :func:`format_number` are the one number
boundary: every number read, from an instance file, a CLI flag or a library
call, goes through the first, and every number written goes through the
second, once per document: it renders dicts and tuples entry by entry and
passes lists through, so index lists stay as they are.  Both refuse
non-finite values, which lie outside the real-valued costs and measures the
transport values are defined for.
:func:`read_arguments` is the one library boundary: every public entry
reads its numbers, vectors and matrices through it, each declared once with
its shape, so a bad entry raises ``ParseError`` naming the parameter
(``cost[0][1]``, ``mu[2]``, ``eps``) and a wrong length ``DimensionMismatch``
naming it.  Constructors take their fields through its first half,
:func:`take_arguments`.  :func:`fold_sum` is the one summation rule.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import repeat, starmap
from operator import add, truediv
from typing import Union

from .errors import DimensionMismatch, ParseError, ValidationError

Number = Union[int, Fraction, float]

RATIONAL_MODE = "rational"
FLOAT_MODE = "float"
DEFAULT_TOLERANCE = 1e-9


@dataclass(frozen=True)
class Context:
    mode: str = RATIONAL_MODE
    tolerance: float = DEFAULT_TOLERANCE

    def __post_init__(self) -> None:
        if self.mode not in (RATIONAL_MODE, FLOAT_MODE):
            raise ValidationError(f"unknown arithmetic mode: {self.mode!r}")
        if not (math.isfinite(self.tolerance) and self.tolerance >= 0):
            raise ValidationError(
                f"tolerance must be a finite number >= 0, got {self.tolerance!r}"
            )

    @property
    def atol(self) -> Number:
        """Absolute comparison slack: exactly 0 in rational mode."""
        return 0 if self.mode == RATIONAL_MODE else self.tolerance

    def number(self, value, where: str = "value") -> Number:
        """Read ``value`` as this mode's number type, naming it ``where``.

        Strings are read exactly ("3/4", "0.25", "2").  In rational mode a
        bare float is read through its shortest decimal representation, so
        0.1 becomes 1/10, matching the decimal literal in an instance file,
        and a ``Fraction`` is returned as it is.  A ``bool``, any other
        type, an unreadable string and a non-finite value raise
        ``ParseError``.
        """
        rational = self.mode == RATIONAL_MODE
        # The common cases first: each is already its mode's number.
        if rational:
            if isinstance(value, Fraction):
                return value
        elif type(value) is float and math.isfinite(value):
            return value
        if isinstance(value, bool) or not isinstance(value, (int, float, str, Fraction)):
            raise ParseError(f"{where} is not a number or 'p/q' string")
        try:
            if not rational:
                number = float(Fraction(value) if isinstance(value, str) else value)
            elif isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"non-finite value {value!r} in rational mode")
            else:
                return Fraction(str(value) if isinstance(value, float) else value)
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise ParseError(f"cannot read number {value!r} in {where}: {exc}") from None
        # float() passes NaN and the infinities through.
        if not math.isfinite(number):
            raise ParseError(f"{where} is {value!r}, not a finite number")
        return number

    def eq(self, a, b) -> bool:
        return abs(a - b) <= self.atol

    def leq(self, a, b) -> bool:
        return a <= b + self.atol

    def is_zero(self, a) -> bool:
        return abs(a) <= self.atol

    def nonneg(self, a) -> bool:
        return a >= -self.atol


RATIONAL = Context(RATIONAL_MODE)
FLOAT = Context(FLOAT_MODE)


def as_tuple(values, where: str) -> tuple:
    """``values`` as a tuple; ``ParseError`` naming ``where`` if it is not a sequence."""
    try:
        return tuple(values)
    except TypeError:
        raise ParseError(f"{where} is not a sequence") from None


def as_rows(rows, where: str) -> tuple[tuple, ...]:
    """``rows`` as a tuple of tuples; ``ParseError`` naming ``where`` or a row."""
    rows = as_tuple(rows, where)
    try:
        return tuple(map(tuple, rows))
    except TypeError:
        # Label only on failure, as the readers below do.
        for i, row in enumerate(rows):
            as_tuple(row, f"{where}[{i}]")
        raise


def resolve_context(ctx: Context | None, *objects) -> Context:
    """``ctx``; when it is None, RATIONAL unless a float is found anywhere in
    the (nested) ``objects``."""
    if ctx is not None:
        return ctx
    stack = list(objects)
    while stack:
        obj = stack.pop()
        if isinstance(obj, float):
            return FLOAT
        if isinstance(obj, (tuple, list)):
            stack.extend(obj)
    return RATIONAL


def _read_vector(ctx: Context, values: tuple, where: str) -> tuple[Number, ...]:
    try:
        return tuple(map(ctx.number, values))
    except ParseError:
        # Label only on failure: building every label costs more than
        # reading the entries.
        for i, value in enumerate(values):
            ctx.number(value, f"{where}[{i}]")
        raise


def _read_matrix(ctx: Context, rows: tuple, where: str) -> tuple[tuple[Number, ...], ...]:
    try:
        return tuple(tuple(map(ctx.number, row)) for row in rows)
    except ParseError:
        for i, row in enumerate(rows):
            _read_vector(ctx, row, f"{where}[{i}]")
        raise


def _fit(bound: dict, dim, size: int, where: str, unit: str, source: tuple) -> None:
    """Check ``size`` against ``dim``; a name not yet in ``bound`` is bound to
    ``size`` and to ``source``, the (extent, argument) that fixed it."""
    if isinstance(dim, int):
        expected, source = dim, None
    else:
        expected, source = bound.setdefault(dim, (size, source))
    if size != expected:
        units = unit if size == 1 else "entries" if unit == "entry" else f"{unit}s"
        fixed_by = f" (the {source[0]} of {source[1]})" if source else ""
        raise DimensionMismatch(f"{where} has {size} {units}, expected {expected}{fixed_by}")


def take_arguments(*arguments) -> tuple:
    """The values of ``(value, where, shape)`` arguments, taken once, no entry read.

    ``shape`` is ``()`` for a number, ``(d,)`` for a vector (taken as a
    tuple) and ``(d, e)`` for a matrix (a tuple of tuples); a non-sequence
    raises ``ParseError`` naming ``where``.  A dimension is an ``int`` or a
    name such as ``"m"``, bound by the first argument that has it; a matrix
    with no rows binds no row length.  A wrong length raises
    ``DimensionMismatch`` naming the argument and the one that fixed the
    dimension: ``mu has 3 entries, expected 2 (the rows of cost)``.
    """
    bound: dict = {}
    taken = []
    for value, where, shape in arguments:
        if len(shape) == 1:
            value = as_tuple(value, where)
            _fit(bound, shape[0], len(value), where, "entry", ("length", where))
        elif shape:
            value = as_rows(value, where)
            _fit(bound, shape[0], len(value), where, "row", ("rows", where))
            # Row 0 fixes the row length; a ragged matrix names the first row that differs.
            rows = value if len(set(map(len, value))) > 1 else value[:1]
            for i, row in enumerate(rows):
                _fit(bound, shape[1], len(row), f"{where}[{i}]", "entry", ("columns", where))
        taken.append(value)
    return tuple(taken)


# By rank: how to read a taken argument.
_READ = (Context.number, _read_vector, _read_matrix)


def read_arguments(ctx: Context | None, *arguments) -> tuple:
    """``(ctx, *values)`` for ``(value, where, shape)`` arguments, read once.

    The values are taken and shape-checked by :func:`take_arguments`.  The
    context is ``ctx``, or when it is None is inferred from every argument.
    Each entry is then read by :meth:`Context.number`, so a bad one is named
    ``where``, ``where[i]`` or ``where[i][j]``.
    """
    taken = take_arguments(*arguments)
    ctx = resolve_context(ctx, *taken)
    return (ctx, *(
        _READ[len(shape)](ctx, value, where) for value, (_, where, shape) in zip(taken, arguments)
    ))


def fold_sum(values) -> Number:
    """``values`` added left to right from the int 0, as the built-in ``sum``
    did before Python 3.12 began to compensate float rounding."""
    return reduce(add, values, 0)


def to_lattice(*vectors) -> tuple[int, list[tuple[int, ...]]]:
    """Scale vectors of numbers onto one integer lattice.

    Each entry is read exactly by ``as_integer_ratio()``: an ``int``, a
    ``Fraction`` and every finite ``float``, which is a dyadic rational.
    Returns the scale, the least common multiple of every denominator, and
    each vector multiplied by it as plain ``int``s.  A positive scale keeps
    every sign and every order between entries.
    """
    ratios = [[x.as_integer_ratio() for x in vector] for vector in vectors]
    scale = math.lcm(*(q for vector in ratios for _, q in vector))
    return scale, [tuple(p * (scale // q) for p, q in vector) for vector in ratios]


def from_lattice(vector, scale: int, mode: str) -> tuple[Number, ...]:
    """x / scale for integer lattice points x, as :func:`from_ratios` reads them."""
    return from_ratios(zip(vector, repeat(scale)), mode)


def from_ratios(pairs, mode: str) -> tuple[Number, ...]:
    """p / q for integer pairs (p, q) with q > 0: exact ``Fraction``s in
    rational mode, and in float mode floats rounded once, correctly."""
    if mode == RATIONAL_MODE:
        return tuple(starmap(Fraction, pairs))
    try:
        return tuple(starmap(truediv, pairs))
    except OverflowError:
        raise ValidationError("a result is beyond the float range: float arithmetic overflowed") from None


def format_number(value, mode: str):
    """Render a value, or a whole document of them, for a report or an instance file.

    Numbers become exact "p/q" strings in rational mode and floats in float
    mode.  Dicts and tuples are rendered entry by entry, a tuple as a list.
    A ``bool``, a ``str``, ``None`` and a ``list`` come back unchanged, so a
    document carries its flags, names and JSON-ready index lists through.
    A non-finite float, left by an overflow in float arithmetic, raises
    ``ValidationError``: JSON has no such number.
    """
    if value is None or isinstance(value, (bool, str, list)):
        return value
    if isinstance(value, dict):
        return {key: format_number(x, mode) for key, x in value.items()}
    if isinstance(value, tuple):
        return [format_number(x, mode) for x in value]
    if mode == RATIONAL_MODE:
        return str(Fraction(value))
    number = float(value)
    if not math.isfinite(number):
        raise ValidationError(
            f"cannot report the non-finite value {number!r}; float arithmetic overflowed"
        )
    return number
