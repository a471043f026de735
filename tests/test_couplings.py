from fractions import Fraction as F
from random import Random

import pytest
from conftest import mask_intersection, random_coupling

import otdual as ot
from otdual.errors import (
    MarginalMismatch,
    NotMeasurePreserving,
    SpaceMismatch,
    ValidationError,
)
from otdual.instances import (
    random_cost_matrix,
    random_partition,
    random_rectangles,
    random_weights,
)


def two_cell_partition():
    return ot.Partition(
        cells=(ot.mask_from_indices(4, [0, 1]), ot.mask_from_indices(4, [2, 3])),
        representatives=(0, 2),
    )


# --- extend_coupling ---------------------------------------------------------

def test_singleton_partition_extension_is_identity():
    mu = (F(1, 4), F(3, 4))
    nu = (F(1, 2), F(1, 2))
    t = ((F(1, 8), F(1, 8)), (F(3, 8), F(3, 8)))
    coarse = ot.CoarseCoupling(partition=ot.singleton_partition(2), matrix=t, nu=nu)
    fine = ot.extend_coupling(coarse, mu)
    assert fine.matrix == t


def test_one_cell_extension_is_the_product():
    mu = (F(1, 4), F(3, 4))
    nu = (F(1, 3), F(2, 3))
    part = ot.Partition(cells=(ot.mask_from_indices(2, [0, 1]),), representatives=(0,))
    coarse = ot.CoarseCoupling(partition=part, matrix=(nu,), nu=nu)
    fine = ot.extend_coupling(coarse, mu)
    assert fine.matrix == ot.product_coupling(mu, nu).matrix


def test_two_cell_extension_matches_hand_computation():
    mu = (F(1, 4),) * 4
    nu = (F(1, 2), F(1, 2))
    t = ((F(3, 8), F(1, 8)), (F(1, 8), F(3, 8)))
    coarse = ot.CoarseCoupling(partition=two_cell_partition(), matrix=t, nu=nu)
    fine = ot.extend_coupling(coarse, mu)
    assert fine.matrix == (
        (F(3, 16), F(1, 16)),
        (F(3, 16), F(1, 16)),
        (F(1, 16), F(3, 16)),
        (F(1, 16), F(3, 16)),
    )
    assert fine.row_sums() == mu
    assert fine.col_sums() == nu
    # coarse agreement on cell x column rectangles
    for k, cell in enumerate(coarse.partition.cells):
        for y in range(2):
            assert sum(fine.matrix[x][y] for x in ot.mask_indices(cell)) == t[k][y]


def test_extension_marginals_exact_on_random_pairs():
    rng = Random(12)
    for trial in range(60):
        m = rng.randint(1, 7)
        ny = rng.randint(1, 5)
        mu = random_weights(rng, m, zeros=(trial % 4 == 0))
        nu = random_weights(rng, ny)
        part = random_partition(rng, m)
        t = random_coupling(rng, part.cell_masses(mu), nu)
        fine = ot.extend_coupling(
            ot.CoarseCoupling(partition=part, matrix=t, nu=nu), mu
        )
        assert fine.row_sums() == tuple(mu)
        assert fine.col_sums() == tuple(nu)
        # agreement extends to arbitrary unions of cells by additivity
        union = [k for k in range(len(part.cells)) if k % 2 == 0]
        points = [x for k in union for x in ot.mask_indices(part.cells[k])]
        for y in range(ny):
            assert sum(fine.matrix[x][y] for x in points) == sum(t[k][y] for k in union)


def test_extension_rejects_bad_coarse_rows():
    mu = (F(1, 2), F(1, 2))
    nu = (F(1, 2), F(1, 2))
    part = ot.singleton_partition(2)
    bad = ((F(1, 2), 0), (F(1, 4), F(1, 4)))  # row 1 sums to 1/2 but col sums wrong
    with pytest.raises(MarginalMismatch):
        ot.extend_coupling(ot.CoarseCoupling(partition=part, matrix=bad, nu=(1, 0)), mu)


HALVES = (F(1, 2), F(1, 2))
QUARTERS = (F(1, 4), F(1, 4))


@pytest.mark.parametrize("mu, t, nu, defect", [
    (HALVES, ((F(1, 2), 0), QUARTERS), HALVES, "column defect 1/4"),
    (HALVES, ((F(1, 2), F(1, 4)), (0, F(1, 4))), HALVES, "row defect 1/4"),
    (HALVES, ((F(3, 4), F(-1, 4)), (F(-1, 4), F(3, 4))), HALVES, "least entry -1/4"),
    (QUARTERS, ((F(1, 4), 0), (0, F(1, 4))), QUARTERS, "total mass 1/2"),
], ids=["columns-miss-nu", "rows-miss-masses", "negative-entry", "mass-not-1"])
def test_extension_names_the_coarse_plan_defect(mu, t, nu, defect):
    coarse = ot.CoarseCoupling(partition=ot.singleton_partition(2), matrix=t, nu=nu)
    with pytest.raises(MarginalMismatch, match=defect):
        ot.extend_coupling(coarse, mu)


def test_coarse_shape_checked():
    with pytest.raises(ValidationError):
        ot.CoarseCoupling(
            partition=ot.singleton_partition(2), matrix=((1,),), nu=(1,)
        )


# --- monge_coupling ----------------------------------------------------------

def test_identity_map_gives_diagonal():
    space = ot.make_space([F(1, 3), F(2, 3)])
    plan = ot.monge_coupling(space, (0, 1), space.weights)
    assert plan.matrix == ((F(1, 3), 0), (0, F(2, 3)))


def test_constant_map_gives_single_column():
    space = ot.make_space([F(1, 3), F(2, 3)])
    plan = ot.monge_coupling(space, (0, 0), (1, 0))
    assert plan.matrix == ((F(1, 3), 0), (F(2, 3), 0))


def test_swap_map_gives_antidiagonal():
    space = ot.make_space([F(1, 2), F(1, 2)])
    plan = ot.monge_coupling(space, (1, 0), space.weights)
    assert plan.matrix == ((0, F(1, 2)), (F(1, 2), 0))


def test_non_preserving_map_reports_defect_vector():
    space = ot.make_space([F(1, 3), F(2, 3)])
    with pytest.raises(NotMeasurePreserving) as info:
        ot.monge_coupling(space, (0, 0), (F(1, 2), F(1, 2)))
    assert info.value.defect == (F(-1, 2), F(1, 2))


def test_monge_objective_identity():
    rng = Random(13)
    for _ in range(20):
        m, n = rng.randint(1, 6), rng.randint(1, 5)
        mu = random_weights(rng, m)
        mapping = tuple(rng.randrange(n) for _ in range(m))
        space = ot.make_space(mu)
        nu = ot.pushforward(space, mapping, n)
        plan = ot.monge_coupling(space, mapping, nu)
        c = random_cost_matrix(rng, m, n)
        direct = sum(mu[i] * c[i][mapping[i]] for i in range(m))
        assert ot.transport_value(plan, c) == direct


def test_monge_mass_of_rectangles_counts_graph_points():
    rng = Random(14)
    m = 5
    mu = random_weights(rng, m)
    mapping = tuple(rng.randrange(m) for _ in range(m))
    space = ot.make_space(mu)
    nu = ot.pushforward(space, mapping, m)
    plan = ot.monge_coupling(space, mapping, nu)
    family = random_rectangles(rng, m, m, 3)
    h = family.union_matrix()
    expected = sum(mu[i] for i in range(m) if h[i][mapping[i]])
    assert ot.transport_value(plan, h) == expected


# --- product and diagonal ------------------------------------------------------

def test_product_and_diagonal_on_uniform_pair():
    mu = (F(1, 2), F(1, 2))
    assert ot.product_coupling(mu, mu).matrix == ((F(1, 4),) * 2,) * 2
    assert ot.diagonal_coupling(mu).matrix == ((F(1, 2), 0), (0, F(1, 2)))


def test_product_marginals_always_correct():
    rng = Random(15)
    for _ in range(10):
        mu = random_weights(rng, rng.randint(1, 6), zeros=True)
        nu = random_weights(rng, rng.randint(1, 6))
        plan = ot.product_coupling(mu, nu)
        assert plan.row_sums() == tuple(mu)
        assert plan.col_sums() == tuple(nu)


def test_diagonal_requires_shared_points():
    x = ot.make_space([F(1, 2), F(1, 2)], prefix="x")
    y = ot.make_space([F(1, 2), F(1, 2)], prefix="y")
    with pytest.raises(SpaceMismatch):
        ot.diagonal_coupling(x, y)
    assert ot.diagonal_coupling(x, x).matrix == ((F(1, 2), 0), (0, F(1, 2)))


def test_diagonal_mass_of_rectangle_union_is_mass_of_intersections():
    # 4-point example: the diagonal plan charges H exactly on the set where
    # a rectangle's two sides intersect.
    mu = (F(1, 4),) * 4
    family = ot.RectangleFamily(
        nx=4,
        ny=4,
        rects=(
            (ot.mask_from_indices(4, [0, 1]), ot.mask_from_indices(4, [1, 2])),
            (ot.mask_from_indices(4, [2]), ot.mask_from_indices(4, [0, 2])),
        ),
    )
    h = family.union_matrix()
    plan = ot.diagonal_coupling(mu)
    overlap = ot.mask_union(
        *[mask_intersection(a, b) for a, b in family.rects]
    )
    assert ot.transport_value(plan, h) == ot.mask_mass(mu, overlap) == F(1, 2)
