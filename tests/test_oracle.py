from fractions import Fraction as F
from random import Random

import pytest

import otdual as ot
from otdual.errors import InfeasibleMarginals, InstanceTooLarge
from otdual.instances import random_cost_matrix, random_weights

HALF = (F(1, 2), F(1, 2))


def test_single_cell_has_unique_coupling():
    vertices = ot.transport_polytope_vertices((1,), (1,))
    assert vertices == (((1,),),)


def test_two_by_two_has_exactly_two_extremes():
    vertices = ot.transport_polytope_vertices(HALF, HALF)
    assert len(vertices) == 2
    assert set(vertices) == {
        ((F(1, 2), 0), (0, F(1, 2))),
        ((0, F(1, 2)), (F(1, 2), 0)),
    }


def test_vertices_read_the_marginals_as_the_solvers_do():
    # -1e-13 is within the float tolerance of 0, so it is read as 0 and the
    # polytope is that of the 2x2 case with an empty third row.
    vertices = ot.transport_polytope_vertices((0.5 + 1e-13, 0.5, -1e-13), (0.5, 0.5))
    assert len(vertices) == 2
    assert all(v[2] == (0.0, 0.0) for v in vertices)


@pytest.mark.parametrize("mu, nu", [
    ((F(1, 2), F(1, 4)), HALF),
    (HALF, (F(1, 2), F(3, 4))),
    ((F(3, 2), F(-1, 2)), HALF),
    ((0.5, 0.25), (0.5, 0.5)),
], ids=["mu-short", "nu-long", "negative", "float-short"])
def test_vertices_reject_marginals_that_are_not_probabilities(mu, nu):
    with pytest.raises(InfeasibleMarginals):
        ot.transport_polytope_vertices(mu, nu)


def test_cap_is_enforced():
    with pytest.raises(InstanceTooLarge):
        ot.transport_polytope_vertices((F(1, 5),) * 5, (F(1, 4),) * 4)
    assert ot.oracle_enumerate([[1] * 4] * 4, (F(1, 4),) * 4, (F(1, 4),) * 4, "alpha") == 1


def test_objective_names_checked():
    with pytest.raises(ValueError):
        ot.oracle_enumerate([[1]], (1,), (1,), "beta")


def test_oracle_agrees_with_solver_on_random_3x3():
    rng = Random(4)
    for _ in range(50):
        mu = random_weights(rng, 3)
        nu = random_weights(rng, 3)
        c = random_cost_matrix(rng, 3, 3)
        assert ot.solve_alpha(c, mu, nu).value == ot.oracle_enumerate(c, mu, nu, "alpha")
        assert ot.solve_alpha_star(c, mu, nu).value == ot.oracle_enumerate(
            c, mu, nu, "alpha_star"
        )


def test_every_vertex_is_a_valid_coupling():
    rng = Random(5)
    mu = random_weights(rng, 3, zeros=True)
    nu = random_weights(rng, 4)
    for matrix in ot.transport_polytope_vertices(mu, nu):
        defects = ot.coupling_defects(ot.Coupling(matrix=matrix, mu=mu, nu=nu))
        assert defects.ok


def test_unknown_objective_is_a_duality_error():
    with pytest.raises(ot.DualityError, match="'beta'"):
        ot.oracle_enumerate([[1]], (1,), (1,), "beta")
