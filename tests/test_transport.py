import hashlib
import re
from fractions import Fraction as F
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import (
    constant_cost,
    is_feasible_potential,
    random_coupling,
    separable_cost,
    shift_matrix,
)

import otdual as ot
from otdual import transport
from otdual.errors import DimensionMismatch, InfeasibleMarginals, InvariantViolation
from otdual.instances import (
    generate_instance,
    random_cost_matrix,
    random_weights,
)
from otdual.lp import simplex_maximize

HALF = (F(1, 2), F(1, 2))
SWAP_COST = ((0, 1), (1, 0))


def test_single_cell_instance():
    report = ot.solve_alpha([[7]], [1], [1])
    assert report.value == 7
    assert report.coupling.matrix == ((1,),)


def test_swap_cost_alpha_is_diagonal():
    report = ot.solve_alpha(SWAP_COST, HALF, HALF)
    assert report.value == 0
    assert report.coupling.matrix == ((F(1, 2), 0), (0, F(1, 2)))


def test_swap_cost_alpha_star_is_antidiagonal():
    report = ot.solve_alpha_star(SWAP_COST, HALF, HALF)
    assert report.value == 1
    assert report.coupling.matrix == ((0, F(1, 2)), (F(1, 2), 0))


def test_swap_cost_beta_values_and_witnesses():
    beta = ot.solve_beta(SWAP_COST, HALF, HALF)
    assert beta.value == 0
    assert is_feasible_potential(beta.potentials, SWAP_COST)
    # (0, 0) is feasible and already optimal for the lower dual
    zero_pair = ot.PotentialPair(f=(0, 0), g=(0, 0), side="lower")
    assert zero_pair.dual_value(HALF, HALF) == beta.value

    beta_star = ot.solve_beta_star(SWAP_COST, HALF, HALF)
    assert beta_star.value == 1
    assert is_feasible_potential(beta_star.potentials, SWAP_COST)
    half_pair = ot.PotentialPair(f=HALF, g=HALF, side="upper")
    assert is_feasible_potential(half_pair, SWAP_COST)
    assert half_pair.dual_value(HALF, HALF) == beta_star.value


def test_chain_on_swap_cost():
    chain = ot.check_chain(SWAP_COST, HALF, HALF)
    assert chain.as_tuple() == (0, 0, 1, 1)
    assert chain.ok


def test_chain_degenerates_on_single_cell():
    chain = ot.check_chain([[F(5, 3)]], [1], [1])
    assert chain.as_tuple() == (F(5, 3),) * 4


def test_separable_cost_closes_every_gap():
    f = (F(1, 3), F(-1), F(2))
    g = (F(0), F(5, 2))
    mu = (F(1, 4), F(1, 4), F(1, 2))
    nu = (F(2, 3), F(1, 3))
    expected = sum(a * b for a, b in zip(mu, f)) + sum(a * b for a, b in zip(nu, g))
    chain = ot.check_chain(separable_cost(f, g), mu, nu)
    assert chain.as_tuple() == (expected,) * 4


def test_point_mass_row_gives_expectation():
    nu = (F(1, 6), F(1, 3), F(1, 2))
    c = ((2, -4, 6),)
    expected = sum(w * x for w, x in zip(nu, c[0]))
    assert ot.solve_alpha_star(c, (1,), nu).value == expected
    assert ot.solve_alpha(c, (1,), nu).value == expected


def test_constant_cost_is_constant():
    c = constant_cost(2, 3, F(7, 2))
    chain = ot.check_chain(c, HALF, (F(1, 3),) * 3)
    assert chain.as_tuple() == (F(7, 2),) * 4


def test_shift_identity_for_beta():
    rng = Random(0)
    mu = random_weights(rng, 3)
    nu = random_weights(rng, 4)
    c = random_cost_matrix(rng, 3, 4)
    t = F(9, 7)
    base = ot.solve_beta(c, mu, nu).value
    shifted = ot.solve_beta(shift_matrix(c, t), mu, nu).value
    assert shifted == base + t


def test_negation_symmetry_exact():
    rng = Random(1)
    for _ in range(10):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        mu = random_weights(rng, m)
        nu = random_weights(rng, n)
        c = random_cost_matrix(rng, m, n)
        neg = tuple(tuple(-x for x in row) for row in c)
        assert ot.solve_alpha_star(c, mu, nu).value == -ot.solve_alpha(neg, mu, nu).value
        assert ot.solve_beta_star(c, mu, nu).value == -ot.solve_beta(neg, mu, nu).value


def test_alpha_report_satisfies_complementary_slackness():
    rng = Random(6)
    for _ in range(10):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        mu = random_weights(rng, m)
        nu = random_weights(rng, n)
        c = random_cost_matrix(rng, m, n)
        report = ot.solve_alpha(c, mu, nu)
        assert is_feasible_potential(report.potentials, c)
        assert report.potentials.dual_value(mu, nu) == report.value
        for i in range(m):
            for j in range(n):
                if report.coupling.matrix[i][j] > 0:
                    assert c[i][j] == report.potentials.f[i] + report.potentials.g[j]


def test_weak_duality_against_random_witnesses():
    rng = Random(2)
    for _ in range(30):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        mu = random_weights(rng, m)
        nu = random_weights(rng, n)
        c = random_cost_matrix(rng, m, n)
        # random feasible lower pair: shift g down by the worst violation
        f = tuple(F(rng.randint(-8, 8), 3) for _ in range(m))
        g_raw = [F(rng.randint(-8, 8), 3) for _ in range(n)]
        slack = min(
            c[i][j] - f[i] - g_raw[j] for i in range(m) for j in range(n)
        )
        g = tuple(x + slack for x in g_raw)
        pair = ot.PotentialPair(f=f, g=g, side="lower")
        assert is_feasible_potential(pair, c)
        plan = random_coupling(rng, mu, nu)
        assert pair.dual_value(mu, nu) <= ot.transport_value(plan, c)


def test_permuting_labels_preserves_values_and_optimality():
    rng = Random(3)
    for _ in range(15):
        m, n = rng.randint(2, 5), rng.randint(2, 5)
        mu = random_weights(rng, m)
        nu = random_weights(rng, n)
        c = random_cost_matrix(rng, m, n)
        sigma = list(range(m))
        tau = list(range(n))
        rng.shuffle(sigma)
        rng.shuffle(tau)
        cp = tuple(tuple(c[sigma[i]][tau[j]] for j in range(n)) for i in range(m))
        mup = tuple(mu[sigma[i]] for i in range(m))
        nup = tuple(nu[tau[j]] for j in range(n))
        original = ot.check_chain(c, mu, nu)
        permuted = ot.check_chain(cp, mup, nup)
        assert original.as_tuple() == permuted.as_tuple()
        # the permuted optimal coupling is optimal for the permuted instance
        plan = ot.solve_alpha(c, mu, nu).coupling.matrix
        plan_p = tuple(
            tuple(plan[sigma[i]][tau[j]] for j in range(n)) for i in range(m)
        )
        assert ot.transport_value(plan_p, cp) == permuted.alpha


def test_degenerate_zero_weight_points_are_kept():
    mu = (F(1, 2), 0, F(1, 2))
    nu = (0, 1)
    c = ((1, 2), (100, 100), (3, 0))
    chain = ot.check_chain(c, mu, nu)
    assert chain.ok
    report = ot.solve_alpha(c, mu, nu)
    assert report.coupling.matrix[1] == (0, 0)
    assert all(row[0] == 0 for row in report.coupling.matrix)
    assert report.value == F(1, 2) * 2 + F(1, 2) * 0


def test_infeasible_marginals_rejected():
    with pytest.raises(InfeasibleMarginals):
        ot.solve_alpha([[1]], [F(1, 2)], [1])
    with pytest.raises(InfeasibleMarginals):
        ot.solve_alpha([[1, 0]], [1], [F(3, 2), F(-1, 2)])


def test_dimension_mismatch_rejected():
    with pytest.raises(DimensionMismatch):
        ot.solve_alpha([[1, 2]], [1], [1])


def test_float_mode_agrees_within_tolerance():
    mu = (0.5, 0.5)
    nu = (0.25, 0.75)
    c = ((0.0, 1.0), (1.0, 0.0))
    chain = ot.check_chain(c, mu, nu)
    assert chain.ok
    assert abs(chain.alpha - chain.beta) <= 1e-9
    assert abs(chain.alpha - 0.25) <= 1e-9
    report = ot.solve_alpha(c, mu, nu)
    defects = ot.coupling_defects(report.coupling)
    assert defects.ok


def test_float_pricing_has_no_tolerance_floor():
    # Reduced costs of 1e-12 lie below the 1e-9 tolerance, yet decide the optimum.
    c = ((2e-12, 1e-12), (1e-12, 2e-12))
    assert ot.solve_alpha(c, (0.5, 0.5), (0.5, 0.5)).value == 1e-12


def _wide_cost(rng):
    return tuple(
        tuple(rng.choice((1e-300, 1.0, 1e300)) * rng.randint(1, 9) for _ in range(4))
        for _ in range(4)
    )


def test_float_costs_of_wide_exponents_match_the_oracle():
    # gen's float nu ends in 0, and its total misses mu's by a rounding.
    inst = generate_instance(2, 4, 4, mode="float")
    mu, nu = inst.space_x.weights, inst.space_y.weights
    # The enumeration oracle_enumerate runs, done once for the fixed marginals.
    vertices = ot.transport_polytope_vertices(mu, nu)
    for seed in range(40):
        c = _wide_cost(Random(seed))
        want = min(ot.transport_value(v, c) for v in vertices)
        got = ot.solve_alpha(c, mu, nu).value
        assert abs(got - want) <= 1e-12 * abs(want), seed


def test_float_marginals_too_far_apart_for_one_coupling_are_rejected():
    # Each total is within the tolerance 0.6 of 1, but no coupling has both.
    ctx = ot.Context("float", 0.6)
    with pytest.raises(InfeasibleMarginals, match="total"):
        ot.solve_alpha(((0.0, 1.0), (1.0, 0.0)), (0.25, 0.25), (0.75, 0.75), ctx)


@st.composite
def _decimal_instances(draw):
    """Weights in hundredths summing to 1 and costs in hundredths, up to 5x5."""

    def weights(k):
        cuts = sorted(draw(st.lists(st.integers(0, 100), min_size=k - 1, max_size=k - 1)))
        return [b - a for a, b in zip([0, *cuts], [*cuts, 100])]

    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    row = st.lists(st.integers(-999, 999), min_size=n, max_size=n)
    cost = draw(st.lists(row, min_size=m, max_size=m))
    return weights(m), weights(n), cost


@settings(max_examples=60, deadline=None)
@given(_decimal_instances())
def test_float_mode_agrees_with_rational_mode(instance):
    mu, nu, cost = instance
    exact = ot.check_chain(
        [[F(x, 100) for x in row] for row in cost], [F(w, 100) for w in mu], [F(w, 100) for w in nu]
    )
    args = ([[x / 100 for x in row] for row in cost], [w / 100 for w in mu], [w / 100 for w in nu])
    floats = ot.check_chain(*args)
    assert floats.ok
    for a, b in zip(floats.as_tuple(), exact.as_tuple()):
        assert abs(a - b) <= 1e-9
    for solver in (ot.solve_alpha, ot.solve_alpha_star):
        assert ot.coupling_defects(solver(*args).coupling).ok


@st.composite
def _dyadic_instances(draw, size=6):
    """Weights in sixteenths summing to 1 and a cost in quarters, up to size x size,
    with f on X, g on Y and an entrywise raise >= 0 of the cost, in quarters.

    Every sum and product below is exact in floats and the float totals are
    exactly 1, so no marginal gap is repaired and each identity holds with ==.
    """

    def weights(k):
        cuts = sorted(draw(st.lists(st.integers(0, 16), min_size=k - 1, max_size=k - 1)))
        return [b - a for a, b in zip([0, *cuts], [*cuts, 16])]

    def quarters(k, low=-12):
        return draw(st.lists(st.integers(low, 12), min_size=k, max_size=k))

    m, n = draw(st.integers(1, size)), draw(st.integers(1, size))
    return (weights(m), weights(n), [quarters(n) for _ in range(m)], quarters(m), quarters(n),
            [quarters(n, 0) for _ in range(m)])


def _in_mode(instance, mode):
    """(mu, nu, c, f, g, raise) as Fractions in rational mode, floats in float mode."""
    def scaled(values, q):
        if isinstance(values, list):
            return tuple(scaled(v, q) for v in values)
        return F(values, q) if mode == "rational" else values / q

    mu, nu, *quartered = instance
    return (scaled(mu, 16), scaled(nu, 16), *(scaled(v, 4) for v in quartered))


SIDES = (ot.solve_alpha, ot.solve_alpha_star)


@pytest.mark.parametrize("mode", ["rational", "float"])
@settings(max_examples=60, deadline=None)
@given(_dyadic_instances())
def test_transposing_the_cost_swaps_the_marginals(mode, instance):
    mu, nu, c, *_ = _in_mode(instance, mode)
    ctx = ot.Context(mode)
    for solver in SIDES:
        assert solver(tuple(zip(*c)), nu, mu, ctx).value == solver(c, mu, nu, ctx).value


@pytest.mark.parametrize("mode", ["rational", "float"])
@settings(max_examples=60, deadline=None)
@given(_dyadic_instances())
def test_a_separable_shift_adds_its_integral(mode, instance):
    mu, nu, c, f, g, _ = _in_mode(instance, mode)
    ctx = ot.Context(mode)
    shifted = tuple(tuple(x + fi + gj for x, gj in zip(row, g)) for row, fi in zip(c, f))
    offset = sum(w * x for w, x in zip(mu, f)) + sum(w * x for w, x in zip(nu, g))
    for solver in SIDES:
        assert solver(shifted, mu, nu, ctx).value == solver(c, mu, nu, ctx).value + offset


@pytest.mark.parametrize("mode", ["rational", "float"])
@settings(max_examples=60, deadline=None)
@given(_dyadic_instances())
def test_raising_the_cost_raises_both_values(mode, instance):
    mu, nu, c, _, _, lift = _in_mode(instance, mode)
    ctx = ot.Context(mode)
    raised = tuple(tuple(x + d for x, d in zip(row, drow)) for row, drow in zip(c, lift))
    for solver in SIDES:
        assert solver(c, mu, nu, ctx).value <= solver(raised, mu, nu, ctx).value


def _lp_alpha_star(c, mu, nu, ctx):
    """alpha*(c) by the dense LP: maximize sum (c+K)x over x >= 0 with row
    sums <= mu and column sums <= nu, K = 1 - min c.  Every weight c+K is at
    least 1, so a flow short of full mass can still gain, and the optimum is
    a coupling worth alpha*(c) + K."""
    m, n = len(mu), len(nu)
    shift = 1 - min(x for row in c for x in row)
    lhs = [[int(k // n == i) for k in range(m * n)] for i in range(m)]
    lhs += [[int(k % n == j) for k in range(m * n)] for j in range(n)]
    value, _ = simplex_maximize([x + shift for row in c for x in row], lhs, [*mu, *nu], ctx)
    return value - shift


@pytest.mark.parametrize("mode", ["rational", "float"])
@settings(max_examples=60, deadline=None)
@given(_dyadic_instances(4))
def test_the_simplex_agrees_with_the_oracle_and_the_dense_lp(mode, instance):
    mu, nu, c, *_ = _in_mode(instance, mode)
    ctx = ot.Context(mode)
    negated = tuple(tuple(-x for x in row) for row in c)
    assert (
        ot.solve_alpha(c, mu, nu, ctx).value
        == ot.oracle_enumerate(c, mu, nu, "alpha", ctx=ctx)
        == -_lp_alpha_star(negated, mu, nu, ctx)
    )
    assert (
        ot.solve_alpha_star(c, mu, nu, ctx).value
        == ot.oracle_enumerate(c, mu, nu, "alpha_star", ctx=ctx)
        == _lp_alpha_star(c, mu, nu, ctx)
    )


def test_a_float_weight_just_below_0_is_read_as_0():
    # -1e-13 is within the float tolerance of 0, so the marginals load; the
    # lattice solve reads that weight as 0 and certifies.
    mu = (-1e-13, 0.5 + 1e-13, 0.5)
    low = ot.solve_alpha(((0, 1), (1, 0), (2, 3)), mu, (0.25, 0.75))
    high = ot.solve_alpha_star(((0, 1), (1, 0), (2, 3)), mu, (0.25, 0.75))
    assert (low.value, high.value) == (1.25, 1.75)
    assert low.coupling.matrix[0] == high.coupling.matrix[0] == (0.0, 0.0)


def test_coupling_defects_flags_bad_marginals():
    bad = ot.Coupling(matrix=((F(1, 2), 0), (0, F(1, 4))), mu=HALF, nu=HALF)
    defects = ot.coupling_defects(bad)
    assert not defects.ok
    assert defects.max_row_defect == F(1, 4)


@pytest.mark.parametrize("mode, kind", [("rational", F), ("float", float)])
def test_solvers_report_the_mode_number_type(mode, kind):
    # Rational solves run on ints; none may leak into a report, and float
    # mode must not pick up an int zero either.
    inst = generate_instance(0, 5, 4, mode=mode)
    args = (inst.cost, inst.space_x.weights, inst.space_y.weights, inst.ctx)
    for solver in (ot.solve_alpha, ot.solve_alpha_star, ot.solve_beta, ot.solve_beta_star):
        report = solver(*args)
        numbers = [
            report.value,
            *report.potentials.f,
            *report.potentials.g,
            *(x for row in report.coupling.matrix for x in row),
        ]
        assert all(type(x) is kind for x in numbers), solver.__name__
    assert all(type(x) is kind for x in ot.check_chain(*args).as_tuple())


def _lattice_weights(rng, n, denominator):
    cuts = sorted(rng.randrange(denominator + 1) for _ in range(n - 1))
    bounds = [0, *cuts, denominator]
    return tuple(F(b - a, denominator) for a, b in zip(bounds, bounds[1:]))


def test_lattice_solves_match_the_oracle_and_the_fraction_simplex():
    rng = Random(11)
    for _ in range(30):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        mu = _lattice_weights(rng, m, rng.choice((3, 7, 9)))
        nu = _lattice_weights(rng, n, rng.choice((3, 7, 9)))
        c = tuple(
            tuple(F(rng.randint(-9, 9), rng.choice((1, 2, 3, 5, 7, 11, 13))) for _ in range(n))
            for _ in range(m)
        )
        neg = tuple(tuple(-x for x in row) for row in c)
        for solver, objective, signed in (
            (ot.solve_alpha, "alpha", c),
            (ot.solve_alpha_star, "alpha_star", neg),
        ):
            report = solver(c, mu, nu)
            assert report.value == ot.oracle_enumerate(c, mu, nu, objective)
            pair, plan = report.potentials, report.coupling.matrix
            for i in range(m):
                for j in range(n):
                    gap = c[i][j] - pair.f[i] - pair.g[j]
                    assert gap >= 0 if objective == "alpha" else gap <= 0
                    assert plan[i][j] == 0 or gap == 0
            # The same simplex on Fractions ends on the same basis.
            value, matrix, u, v = transport._network_simplex(signed, mu, nu)
            sign = 1 if objective == "alpha" else -1
            assert (sign * value, matrix) == (report.value, plan)
            assert tuple(sign * x for x in u + v) == pair.f + pair.g


# The swap instance on the lattice (marginal scale 2): its optimum is the
# diagonal flow with value 0 and zero potentials.
DIAGONAL = ((1, 0), (0, 1))


@pytest.mark.parametrize("value, flow, u, v, defect", [
    (0, DIAGONAL, (0, 0), (0, 0), None),
    (0, ((2, -1), (-1, 2)), (0, -1), (0, 1), "cell (0, 1) has flow -1 and reduced cost 0"),
    (0, ((1, 0), (0, 0)), (0, 0), (0, 0), "row 1 of the flow"),
    (0, ((1, 0), (1, 0)), (0, 1), (0, -1), "column 0 of the flow"),
    (0, DIAGONAL, (0, 0), (0, 2), "cell (0, 1) has flow 0 and reduced cost -1"),
    (-1, DIAGONAL, (-1, 0), (0, 0), "cell (0, 0) has flow 1 and reduced cost 1"),
    (1, DIAGONAL, (0, 0), (0, 0), "the value differs"),
], ids=["optimum", "negative-flow", "row-sum", "column-sum", "infeasible", "slack", "value"])
def test_the_certificate_refuses_each_defect(value, flow, u, v, defect):
    args = (SWAP_COST, (1, 1), (1, 1), value, flow, u, v)
    if defect is None:
        transport._certify(*args)
    else:
        with pytest.raises(InvariantViolation, match=re.escape(defect)):
            transport._certify(*args)


# The entering cells of every pivot, in order, of solve_alpha and
# solve_alpha_star on these gen instances.  A change of the pricing rule or of
# the start basis moves this digest; update it with a note of why the pivots
# changed.
PIVOT_INSTANCES = ((12, 12, 0), (12, 12, 1), (32, 32, 0), (32, 32, 1), (9, 3, 0), (9, 3, 1))
PIVOT_COUNT = 6707
PIVOT_DIGEST = "67427d46d8300cb376b854e7da0a8af240a8260b7f8fee6a1e9908e9b0d8c045"


def test_the_pivot_sequence_is_pinned(monkeypatch):
    entering = []
    cycle = transport._pivot_cycle

    def recording(cell, *args):
        entering.append(cell)
        return cycle(cell, *args)

    monkeypatch.setattr(transport, "_pivot_cycle", recording)
    for m, n, seed in PIVOT_INSTANCES:
        inst = generate_instance(seed, m, n)
        for solver in (ot.solve_alpha, ot.solve_alpha_star):
            solver(inst.cost, inst.space_x.weights, inst.space_y.weights)
    assert len(entering) == PIVOT_COUNT
    assert hashlib.sha256(repr(entering).encode()).hexdigest() == PIVOT_DIGEST
