from fractions import Fraction as F

import pytest
from conftest import is_feasible_potential, separable_cost

import otdual as ot
from otdual.errors import ValidationError


def test_cost_matrix_rejects_ragged_rows():
    with pytest.raises(ValidationError):
        ot.CostMatrix(values=((1, 2), (3,)))


def test_separable_cost_and_witness():
    f = (F(1), F(-2))
    g = (F(0), F(3))
    cost = separable_cost(f, g)
    assert cost.values == ((1, 4), (-2, 1))
    pair = ot.PotentialPair(f=f, g=g, side="lower")
    assert ot.potential_defect(pair, cost.values) == 0
    assert is_feasible_potential(pair, cost.values)


def test_potential_defect_measures_worst_gap():
    pair = ot.PotentialPair(f=(0, 0), g=(0,), side="lower")
    assert ot.potential_defect(pair, ((-1,), (-3,))) == 3
    upper = ot.PotentialPair(f=(0, 0), g=(0,), side="upper")
    assert ot.potential_defect(upper, ((5,), (2,))) == 5


def test_potential_pair_side_names():
    with pytest.raises(ValidationError):
        ot.PotentialPair(f=(0,), g=(0,), side="middle")


def test_dual_value():
    pair = ot.PotentialPair(f=(F(1), F(3)), g=(F(2),), side="lower")
    assert pair.dual_value((F(1, 2), F(1, 2)), (F(1),)) == 4
