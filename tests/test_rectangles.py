from fractions import Fraction as F
from random import Random

import pytest
from conftest import brute_min_cover_value

import otdual as ot
from otdual.errors import IndexOutOfRange, ValidationError
from otdual.instances import random_rectangles, random_weights


def diag_family(n):
    return ot.RectangleFamily(
        nx=n,
        ny=n,
        rects=tuple(
            (ot.mask_from_indices(n, [i]), ot.mask_from_indices(n, [i])) for i in range(n)
        ),
    )


def empty_family(nx, ny):
    return ot.RectangleFamily(nx=nx, ny=ny, rects=())


# --- indicator costs ---------------------------------------------------------

def test_empty_union_is_zero_matrix():
    cost = ot.indicator_cost(empty_family(2, 3))
    assert cost.values == ((0, 0, 0), (0, 0, 0))


def test_diagonal_rectangles_give_identity():
    cost = ot.indicator_cost(diag_family(2))
    assert cost.values == ((1, 0), (0, 1))


def test_rectangle_masks_sized():
    with pytest.raises(ValidationError):
        ot.RectangleFamily(nx=2, ny=2, rects=(((True,), (True, True)),))


# --- min_cover ---------------------------------------------------------------

def test_full_space_needs_value_one():
    family = ot.RectangleFamily(
        nx=2, ny=2, rects=((ot.mask_from_indices(2, [0, 1]), ot.mask_from_indices(2, [0, 1])),)
    )
    mu = (F(1, 3), F(2, 3))
    nu = (F(1, 4), F(3, 4))
    cover = ot.min_cover(family, mu, nu)
    assert cover.value == 1
    assert ot.covers(family, cover.a, cover.b)


def test_empty_family_cover_is_free():
    cover = ot.min_cover(empty_family(2, 2), (F(1, 2),) * 2, (F(1, 2),) * 2)
    assert cover.value == 0
    assert cover.a == (False, False) and cover.b == (False, False)


def test_uniform_diagonal_cover_value_one():
    mu = (F(1, 2), F(1, 2))
    cover = ot.min_cover(diag_family(2), mu, mu)
    assert cover.value == brute_min_cover_value(diag_family(2), mu, mu) == 1
    assert ot.covers(diag_family(2), cover.a, cover.b)


def test_cover_matches_brute_force_and_alpha_star():
    rng = Random(16)
    for trial in range(60):
        nx, ny = rng.randint(1, 6), rng.randint(1, 6)
        mu = random_weights(rng, nx, zeros=(trial % 3 == 0))
        nu = random_weights(rng, ny, zeros=(trial % 5 == 0))
        family = random_rectangles(rng, nx, ny, rng.randint(0, 4))
        brute = brute_min_cover_value(family, mu, nu)
        cost = ot.indicator_cost(family)
        # The cover value rounds the solve's exact optimum once, so it equals
        # alpha* in both modes; the brute force sums the Fractions, so float
        # mode matches it within the tolerance.
        for ctx in (ot.Context("rational"), ot.Context("float")):
            cover = ot.min_cover(family, mu, nu, ctx)
            assert ctx.eq(cover.value, brute)
            assert cover.value == ot.solve_alpha_star(cost, mu, nu, ctx).value
            assert cover.value == ot.solve_beta_star(cost, mu, nu, ctx).value
            assert ot.covers(family, cover.a, cover.b)
            outcome = ot.arveson_witness(family, mu, nu, ctx)
            if brute == 0:
                assert isinstance(outcome, ot.Cover)
            else:
                assert isinstance(outcome, ot.NotNullReport)
                assert ctx.eq(outcome.alpha_star, brute)


# --- arveson_witness -----------------------------------------------------------

def test_union_inside_null_rows_gets_null_cover():
    mu = (0, F(1, 2), F(1, 2))
    nu = (F(1, 3),) * 3
    family = ot.RectangleFamily(
        nx=3, ny=3, rects=((ot.mask_from_indices(3, [0]), ot.mask_from_indices(3, [0, 1, 2])),)
    )
    outcome = ot.arveson_witness(family, mu, nu)
    assert isinstance(outcome, ot.Cover)
    assert ot.mask_mass(mu, outcome.a) == 0
    assert ot.mask_mass(nu, outcome.b) == 0
    assert ot.covers(family, outcome.a, outcome.b)


def test_full_space_is_not_null():
    mu = (F(1, 2), F(1, 2))
    family = ot.RectangleFamily(
        nx=2, ny=2, rects=((ot.mask_from_indices(2, [0, 1]), ot.mask_from_indices(2, [0, 1])),)
    )
    outcome = ot.arveson_witness(family, mu, mu)
    assert isinstance(outcome, ot.NotNullReport)
    assert outcome.alpha_star == 1
    assert ot.coupling_defects(outcome.coupling).ok


def test_mixed_null_cover():
    mu = (0, F(1, 2), F(1, 2))
    nu = (F(1, 2), F(1, 2), 0)
    family = ot.RectangleFamily(
        nx=3,
        ny=3,
        rects=(
            (ot.mask_from_indices(3, [0]), ot.mask_from_indices(3, [0, 1, 2])),
            (ot.mask_from_indices(3, [0, 1, 2]), ot.mask_from_indices(3, [2])),
        ),
    )
    outcome = ot.arveson_witness(family, mu, nu)
    assert isinstance(outcome, ot.Cover)
    assert outcome.value == 0
    assert ot.mask_indices(outcome.a) == (0,)
    assert ot.mask_indices(outcome.b) == (2,)


# --- truncation_duality ---------------------------------------------------------

def test_empty_tail_makes_the_bound_an_equality():
    rng = Random(17)
    mu = random_weights(rng, 4)
    nu = random_weights(rng, 4)
    family = random_rectangles(rng, 4, 4, 3)
    report = ot.truncation_duality(family, mu, nu, len(family.rects) - 1, F(1, 100))
    assert report.tail_mass == 0
    assert report.full_alpha == report.head_alpha
    assert report.bound_holds


def test_single_rectangle_head_is_tight():
    family = ot.RectangleFamily(
        nx=2, ny=2, rects=((ot.mask_from_indices(2, [0]), ot.mask_from_indices(2, [0])),)
    )
    mu = (F(1, 2), F(1, 2))
    report = ot.truncation_duality(family, mu, mu, 0, F(1, 10))
    assert report.tail_mass == 0
    assert report.full_alpha == report.certified_bound


def test_geometric_tails_certify_within_two_eps():
    # disjoint rows with geometrically shrinking masses
    n = 6
    weights = [F(1, 2 ** (i + 1)) for i in range(n - 1)]
    weights.append(1 - sum(weights))
    mu = tuple(weights)
    nu = tuple(weights)
    rects = tuple(
        (ot.mask_from_indices(n, [i]), ot.mask_from_indices(n, [i])) for i in range(n)
    )
    family = ot.RectangleFamily(nx=n, ny=n, rects=rects)
    for cut in range(1, n - 1):
        eps = F(1, 2 ** (cut + 1))
        report = ot.truncation_duality(family, mu, nu, cut, 2 * eps)
        assert report.tail_below_eps
        assert report.bound_holds
        assert report.full_alpha <= report.head_alpha + 2 * eps


def test_truncation_solves_head_and_full_union_once_each(simplex_runs):
    rng = Random(19)
    mu = random_weights(rng, 4)
    nu = random_weights(rng, 4)
    family = random_rectangles(rng, 4, 4, 3)
    report = ot.truncation_duality(family, mu, nu, 0, F(1, 10))
    assert len(simplex_runs) == 2
    assert report.certified_bound == report.head_alpha + report.tail_mass


def test_truncation_index_checked():
    family = diag_family(2)
    with pytest.raises(IndexOutOfRange):
        ot.truncation_duality(family, (F(1, 2),) * 2, (F(1, 2),) * 2, 5, 1)


# --- structural dualities ---------------------------------------------------------

def test_complementation_identity():
    rng = Random(18)
    for _ in range(20):
        nx, ny = rng.randint(1, 5), rng.randint(1, 5)
        mu = random_weights(rng, nx)
        nu = random_weights(rng, ny)
        family = random_rectangles(rng, nx, ny, rng.randint(0, 3))
        k = family.union_matrix()
        k_complement = tuple(tuple(1 - x for x in row) for row in k)
        lhs = ot.solve_alpha(k, mu, nu).value
        rhs = 1 - ot.solve_alpha_star(k_complement, mu, nu).value
        assert lhs == rhs


def test_monotone_union_reaches_the_full_value():
    rng = Random(19)
    for _ in range(10):
        nx, ny = rng.randint(2, 5), rng.randint(2, 5)
        mu = random_weights(rng, nx)
        nu = random_weights(rng, ny)
        family = random_rectangles(rng, nx, ny, 4)
        values = [
            ot.solve_alpha_star(ot.indicator_cost(family.head(k)), mu, nu).value
            for k in range(1, len(family.rects) + 1)
        ]
        assert all(a <= b for a, b in zip(values, values[1:]))
        full = ot.solve_alpha_star(ot.indicator_cost(family), mu, nu).value
        assert values[-1] == full
