from fractions import Fraction as F
from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st
from conftest import constant_cost, separable_cost, shift_matrix

import otdual as ot
from otdual.errors import (
    EmptyAnchorSet,
    InfeasibleWitness,
    LipschitzBoundViolated,
    MissingRepresentative,
    NotMonotone,
    ValidationError,
)
from otdual.instances import random_cost_matrix, random_metric, random_weights

LINE3 = ((0, 1, 2), (1, 0, 1), (2, 1, 0))
PROFILE = ((0, 0), (10, 10), (0, 0))  # x-profile (0, 10, 0), constant in y


def line_space(n=3):
    metric = tuple(tuple(abs(i - j) for j in range(n)) for i in range(n))
    return ot.make_space([F(1, n)] * n, metric=metric)


# --- lipschitz_infconv -----------------------------------------------------

def test_constant_cost_is_a_fixed_point():
    space = line_space()
    c = constant_cost(3, 2, F(9, 4))
    for n in (F(1, 2), 1, 7):
        assert ot.lipschitz_infconv(c, n, space).values == c.values


def test_one_lipschitz_cost_is_fixed_for_n_at_least_one():
    space = line_space()
    c = tuple((space.metric[i][0],) for i in range(3))  # c(x, y) = d(x, x0)
    for n in (1, 2, 10):
        assert ot.lipschitz_infconv(c, n, space).values == ot.as_cost(c).values


def test_profile_smoothed_to_0_1_0():
    space = line_space()
    out = ot.lipschitz_infconv(PROFILE, 1, space)
    assert out.values == ((0, 0), (1, 1), (0, 0))


def test_anchor_subset_changes_the_infimum():
    space = line_space()
    anchors = ot.mask_from_indices(3, [1])
    out = ot.lipschitz_infconv(PROFILE, 1, space, anchor_set=anchors)
    # only z = 1 available: n*d(x,1) + 10
    assert out.values == ((11, 11), (10, 10), (11, 11))


def test_empty_anchor_set_rejected():
    with pytest.raises(EmptyAnchorSet):
        ot.lipschitz_infconv(PROFILE, 1, line_space(), anchor_set=ot.mask_from_indices(3, []))


def test_modulus_bound_holds_for_anchor_subsets():
    rng = Random(23)
    for _ in range(15):
        k = rng.randint(2, 5)
        d = random_metric(rng, k)
        space = ot.make_space(random_weights(rng, k), metric=d)
        c = random_cost_matrix(rng, k, 2)
        anchors = ot.mask_from_indices(k, [i for i in range(k) if rng.random() < 0.6] or [0])
        n = F(rng.randint(1, 6), 2)
        out = ot.lipschitz_infconv(c, n, space, anchor_set=anchors).values
        for x in range(k):
            for z in range(k):
                spread = max(abs(a - b) for a, b in zip(out[x], out[z]))
                assert spread <= n * d[x][z]


def test_infconv_needs_metric_and_positive_n():
    no_metric = ot.make_space([F(1, 3)] * 3)
    with pytest.raises(ValidationError):
        ot.lipschitz_infconv(PROFILE, 1, no_metric)
    with pytest.raises(ValidationError):
        ot.lipschitz_infconv(PROFILE, 0, line_space())


def test_modulus_bound_monotonicity_and_fixed_point_random():
    rng = Random(6)
    for _ in range(25):
        k = rng.randint(2, 5)
        ny = rng.randint(1, 4)
        d = random_metric(rng, k)
        space = ot.make_space(random_weights(rng, k), metric=d)
        c = random_cost_matrix(rng, k, ny)
        modulus = ot.lipschitz_modulus(c, d)
        assert modulus is not None
        previous = None
        n = F(1)
        while True:
            out = ot.lipschitz_infconv(c, n, space).values
            for x in range(k):
                for z in range(k):
                    spread = max(abs(a - b) for a, b in zip(out[x], out[z]))
                    assert spread <= n * d[x][z]
            for row_out, row_c in zip(out, c):
                assert all(a <= b for a, b in zip(row_out, row_c))
            if previous is not None:
                for row_prev, row_now in zip(previous, out):
                    assert all(a <= b for a, b in zip(row_prev, row_now))
            previous = out
            if n >= modulus:
                assert out == tuple(tuple(F(x) for x in row) for row in c)
                break
            n *= 2


# --- shifted variant -------------------------------------------------------

def test_zero_shift_matches_plain_infconv():
    space = line_space()
    plain = ot.lipschitz_infconv(PROFILE, 2, space)
    shifted = ot.shifted_infconv(PROFILE, 2, space, (0, 0, 0))
    assert plain.values == shifted.values


def test_row_min_potential_gives_nonnegative_shifted_cost():
    c = ((1, 5), (-2, 0), (3, 3))
    f = ot.row_min_potential(c)
    assert f == (1, -2, 3)
    shifted = tuple(tuple(x - fi for x in row) for row, fi in zip(c, f))
    assert all(x >= 0 for row in shifted for x in row)
    assert all(min(row) == 0 for row in shifted)


def test_shifted_stages_increase_to_shifted_cost():
    space = line_space()
    f = ot.row_min_potential(PROFILE)
    target = tuple(
        tuple(x - fi for x in row) for row, fi in zip(ot.as_cost(PROFILE).values, f)
    )
    modulus = ot.lipschitz_modulus(target, space.metric)
    previous = None
    n = F(1)
    while True:
        out = ot.shifted_infconv(PROFILE, n, space, f).values
        assert all(a >= 0 for row in out for a in row)
        if previous is not None:
            for row_prev, row_now in zip(previous, out):
                assert all(a <= b for a, b in zip(row_prev, row_now))
        previous = out
        if n >= modulus:
            assert out == tuple(tuple(F(x) for x in row) for row in target)
            break
        n *= 2


# --- partition discretization ----------------------------------------------

def test_singleton_partition_discretizes_to_itself():
    c = random_cost_matrix(Random(7), 4, 3)
    part = ot.singleton_partition(4)
    assert ot.partition_discretize(c, part).values == c


def test_single_cell_collapses_every_row():
    c = ((1, 2), (3, 4), (5, 6))
    part = ot.Partition(cells=(ot.mask_from_indices(3, [0, 1, 2]),), representatives=(0,))
    assert ot.partition_discretize(c, part).values == ((1, 2),) * 3


def test_missing_representative_raises():
    part = ot.Partition(cells=(ot.mask_from_indices(2, [0, 1]),))
    with pytest.raises(MissingRepresentative):
        ot.partition_discretize(((1,), (2,)), part)


def test_discretization_error_bounded_by_oscillation():
    c = ((0, 1), (F(1, 5), 1), (1, 0))
    part = ot.Partition(
        cells=(ot.mask_from_indices(3, [0, 1]), ot.mask_from_indices(3, [2])),
        representatives=(0, 2),
    )
    osc = ot.oscillation(c, part)
    assert osc == (F(1, 5), 0)
    c0 = ot.partition_discretize(c, part).values
    worst = max(abs(a - b) for ra, rb in zip(c, c0) for a, b in zip(ra, rb))
    assert worst <= F(1, 5)


# --- oscillation -----------------------------------------------------------

def test_oscillation_zero_for_singletons_and_constants():
    c = random_cost_matrix(Random(8), 3, 2)
    assert ot.oscillation(c, ot.singleton_partition(3)) == (0, 0, 0)
    const = constant_cost(3, 2, 5)
    one_cell = ot.Partition(cells=(ot.mask_from_indices(3, [0, 1, 2]),), representatives=(0,))
    assert ot.oscillation(const, one_cell) == (0,)


def test_oscillation_of_profile_cells():
    part = ot.Partition(
        cells=(ot.mask_from_indices(3, [0, 2]), ot.mask_from_indices(3, [1])),
        representatives=(0, 1),
    )
    assert ot.oscillation(PROFILE, part) == (0, 0)
    part2 = ot.Partition(
        cells=(ot.mask_from_indices(3, [0, 1]), ot.mask_from_indices(3, [2])),
        representatives=(0, 2),
    )
    assert ot.oscillation(PROFILE, part2) == (10, 0)


def test_null_cell_oscillation_is_unconstrained():
    part = ot.Partition(
        cells=(ot.mask_from_indices(3, [0, 1]), ot.mask_from_indices(3, [2])),
        null_cell_index=0,
        representatives=(None, 2),
    )
    assert ot.oscillation(PROFILE, part) == (None, 0)


# --- oscillation_partition ---------------------------------------------------

def test_partition_forced_to_singletons():
    space = line_space()
    c = tuple((space.metric[i][0],) for i in range(3))
    part = ot.oscillation_partition(c, F(1, 2), space, 1)  # eps/u below min distance
    assert len(part.cells) == 3


def test_partition_single_cell_when_diameter_small():
    metric = ((0, F(1, 10)), (F(1, 10), 0))
    space = ot.make_space([F(1, 2)] * 2, metric=metric)
    c = ((0,), (F(1, 100),))
    part = ot.oscillation_partition(c, 1, space, 1)
    assert len(part.cells) == 1


def test_partition_colinear_example():
    positions = (0, F(1, 10), 5, F(51, 10))
    metric = tuple(tuple(abs(a - b) for b in positions) for a in positions)
    space = ot.make_space([F(1, 4)] * 4, metric=metric)
    c = tuple((p,) for p in positions)  # 1-Lipschitz in x
    part = ot.oscillation_partition(c, 1, space, 1)
    cells = {ot.mask_indices(cell) for cell in part.cells}
    assert cells == {(0, 1), (2, 3)}
    osc = ot.oscillation(c, part)
    assert all(x <= 1 for x in osc)


def test_lipschitz_bound_violation_reports_pair():
    space = line_space()
    with pytest.raises(LipschitzBoundViolated) as info:
        ot.oscillation_partition(PROFILE, 1, space, 1)
    assert info.value.pair == (0, 1)


# --- normalize_cost ----------------------------------------------------------

def test_normalize_with_optimal_potentials_kills_alpha():
    rng = Random(9)
    mu = random_weights(rng, 3)
    nu = random_weights(rng, 3)
    c = random_cost_matrix(rng, 3, 3)
    beta = ot.solve_beta(c, mu, nu)
    h = ot.normalize_cost(c, beta.potentials)
    assert all(x >= 0 for row in h.values for x in row)
    alpha_h = ot.solve_alpha(h, mu, nu).value
    alpha_c = ot.solve_alpha(c, mu, nu).value
    assert alpha_h == alpha_c - beta.value
    assert alpha_h == 0  # strong duality at desk scale


def test_normalize_separable_gives_zero():
    f = (F(1), F(2))
    g = (F(3), F(-1))
    pair = ot.PotentialPair(f=f, g=g, side="lower")
    h = ot.normalize_cost(separable_cost(f, g), pair)
    assert h.values == ((0, 0), (0, 0))


def test_normalize_with_row_minima_leaves_zero_per_row():
    c = ((1, 5), (-2, 0))
    pair = ot.PotentialPair(f=ot.row_min_potential(c), g=(0, 0), side="lower")
    h = ot.normalize_cost(c, pair)
    assert all(min(row) == 0 for row in h.values)
    assert all(x >= 0 for row in h.values for x in row)


def test_normalize_rejects_infeasible_pair():
    pair = ot.PotentialPair(f=(10, 10), g=(0, 0), side="lower")
    with pytest.raises(InfeasibleWitness):
        ot.normalize_cost(((0, 0), (0, 0)), pair)


# --- beta* limit check -------------------------------------------------------

def test_constant_shift_stages():
    rng = Random(10)
    mu = random_weights(rng, 3)
    nu = random_weights(rng, 2)
    c = random_cost_matrix(rng, 3, 2)
    base_value = ot.solve_beta_star(c, mu, nu).value
    stages = tuple(
        (n, ot.CostMatrix(values=shift_matrix(ot.as_cost(c).values, -F(1, n))))
        for n in (1, 2, 4)
    )
    seq = ot.ApproximantSequence(base_cost=ot.as_cost(c), stages=stages)
    report = ot.beta_star_limit_check(seq, mu, nu)
    assert report.stage_values == tuple(base_value - F(1, n) for n in (1, 2, 4))
    assert report.final_gap == F(1, 4)


def test_doubling_infconv_stages_reach_beta_star_exactly():
    rng = Random(11)
    k = 4
    d = random_metric(rng, k)
    space = ot.make_space(random_weights(rng, k), metric=d)
    c = random_cost_matrix(rng, k, 3)
    nu = random_weights(rng, 3)
    modulus = ot.lipschitz_modulus(c, d)
    ns = [F(1)]
    while ns[-1] < modulus:
        ns.append(ns[-1] * 2)
    seq = ot.infconv_sequence(c, space, ns)
    report = ot.beta_star_limit_check(seq, space.weights, nu)
    assert report.final_gap == 0
    assert all(a <= b for a, b in zip(report.stage_values, report.stage_values[1:]))


def test_constant_sequence_is_flat():
    c = constant_cost(2, 2, F(3, 2))
    seq = ot.ApproximantSequence(base_cost=c, stages=((1, c), (2, c)))
    report = ot.beta_star_limit_check(seq, (F(1, 2),) * 2, (F(1, 2),) * 2)
    assert report.stage_values == (F(3, 2), F(3, 2))
    assert report.final_gap == 0


def test_non_monotone_stages_rejected():
    lowered = constant_cost(2, 2, 0)
    raised = constant_cost(2, 2, 1)
    seq = ot.ApproximantSequence(base_cost=raised, stages=((1, raised), (2, lowered)))
    with pytest.raises(NotMonotone):
        ot.beta_star_limit_check(seq, (F(1, 2),) * 2, (F(1, 2),) * 2)
    above = ot.ApproximantSequence(base_cost=lowered, stages=((1, raised),))
    with pytest.raises(NotMonotone):
        ot.beta_star_limit_check(above, (F(1, 2),) * 2, (F(1, 2),) * 2)


# --- tail truncation inequality ----------------------------------------------

@given(
    f=st.floats(-1e6, 1e6),
    g=st.floats(-1e6, 1e6),
    k=st.floats(0, 1e6),
)
def test_tail_indicator_inequality_floats(f, g, k):
    lhs = f * (1 if g > k else 0)
    rhs = g * (1 if g > k else 0) + f * (1 if f > k else 0)
    assert lhs <= rhs


@given(
    f=st.fractions(min_value=-100, max_value=100),
    g=st.fractions(min_value=-100, max_value=100),
    k=st.fractions(min_value=0, max_value=100),
)
def test_tail_indicator_inequality_exact(f, g, k):
    lhs = f * (1 if g > k else 0)
    rhs = g * (1 if g > k else 0) + f * (1 if f > k else 0)
    assert lhs <= rhs
