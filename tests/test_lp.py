from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otdual.errors import DualityError, ValidationError
from otdual.lp import simplex_maximize
from otdual.numeric import FLOAT


def _det(rows):
    if len(rows) == 1:
        return rows[0][0]
    return sum(
        (-1) ** j * rows[0][j] * _det([row[:j] + row[j + 1:] for row in rows[1:]])
        for j in range(len(rows))
    )


def _vertices(lhs, rhs):
    """Every vertex of {x : lhs x <= rhs}, by Cramer's rule on each k-subset."""
    k = len(lhs[0])
    found = []
    for subset in combinations(range(len(lhs)), k):
        a = [list(lhs[i]) for i in subset]
        det = _det(a)
        if det == 0:
            continue
        x = []
        for j in range(k):
            swapped = [row[:j] + [rhs[i]] + row[j + 1:] for row, i in zip(a, subset)]
            x.append(F(_det(swapped), det))
        if all(sum(r * v for r, v in zip(row, x)) <= bound for row, bound in zip(lhs, rhs)):
            found.append(x)
    return found


def brute_maximize(objective, lhs, rhs):
    """max c*x over A x <= b, x >= 0 by vertex enumeration; None if unbounded.

    The origin is feasible, so the polytope has a vertex and a bounded
    optimum sits at one.  Adding sum(x) <= M, with M above every vertex's
    sum, raises the best value exactly when some ray improves it.
    """
    k = len(objective)
    rows = [list(row) for row in lhs] + [[-int(i == j) for j in range(k)] for i in range(k)]
    bounds = list(rhs) + [0] * k
    vertices = _vertices(rows, bounds)
    best = max(sum(c * v for c, v in zip(objective, x)) for x in vertices)
    cap = max(sum(x) for x in vertices) + 1
    boxed = _vertices(rows + [[1] * k], bounds + [cap])
    if max(sum(c * v for c, v in zip(objective, x)) for x in boxed) > best:
        return None
    return best


_entries = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def _small_lps(draw):
    """max c*x, A x <= b, x >= 0: up to 3 variables, 5 rows and b >= 0."""
    k = draw(st.integers(1, 3))
    m = draw(st.integers(0, 5))
    objective = draw(st.lists(_entries, min_size=k, max_size=k))
    lhs = draw(st.lists(st.lists(_entries, min_size=k, max_size=k), min_size=m, max_size=m))
    rhs = draw(st.lists(st.fractions(min_value=0, max_value=3, max_denominator=4), min_size=m, max_size=m))
    return objective, lhs, rhs


@settings(max_examples=300, deadline=None)
@given(_small_lps())
def test_integer_tableau_matches_vertex_enumeration(lp):
    objective, lhs, rhs = lp
    best = brute_maximize(objective, lhs, rhs)
    if best is None:
        with pytest.raises(DualityError, match="unbounded"):
            simplex_maximize(objective, lhs, rhs)
        return
    value, x = simplex_maximize(objective, lhs, rhs)
    assert all(type(v) is F for v in (value, *x))
    assert value == best
    assert all(v >= 0 for v in x)
    assert all(sum(a * v for a, v in zip(row, x)) <= b for row, b in zip(lhs, rhs))
    assert sum(c * v for c, v in zip(objective, x)) == value


@settings(max_examples=300, deadline=None)
@given(_small_lps())
def test_float_mode_rounds_the_exact_solve_once(lp):
    def each(read, lp):
        objective, lhs, rhs = lp
        return [read(v) for v in objective], [[read(v) for v in row] for row in lhs], [read(v) for v in rhs]

    floats = each(float, lp)
    try:
        value, x = simplex_maximize(*each(F, floats))
    except DualityError as exc:
        with pytest.raises(DualityError, match=str(exc)):
            simplex_maximize(*floats, FLOAT)
        return
    found = simplex_maximize(*floats, FLOAT)
    assert all(type(v) is float for v in (found[0], *found[1]))
    assert found == (float(value), tuple(map(float, x)))


@pytest.mark.parametrize("objective, lhs, rhs, expected", [
    ([1e-12], [[1.0]], [1.0], (1e-12, (1.0,))),
    ([1.0], [[1e-12]], [1.0], (1e12, (1e12,))),
], ids=["tiny-objective", "tiny-coefficient"])
def test_float_mode_leaves_no_entry_to_the_tolerance(objective, lhs, rhs, expected):
    assert simplex_maximize(objective, lhs, rhs) == expected


def test_float_mode_names_an_overflowed_result():
    with pytest.raises(ValidationError, match="overflowed"):
        simplex_maximize([1.0], [[1e-300]], [1e300])


def test_float_rhs_within_the_tolerance_below_zero_reads_as_zero():
    assert simplex_maximize([1.0], [[1.0]], [-1e-12]) == (0.0, (0.0,))
    with pytest.raises(DualityError, match="b >= 0"):
        simplex_maximize([1.0], [[1.0]], [-1e-6])
