"""Acceptance gates. One test per criterion; each prints a PASS/FAIL line
(visible with ``pytest -s``) and pins its tolerance: exact equality in
rational mode, 1e-9 in float mode, and the stated runtime budgets.

These run after the rest of the suite (see conftest) so the final gate can
check the whole run's wall time.
"""
import time
from fractions import Fraction as F
from random import Random

from conftest import brute_min_cover_value, random_coupling, session_elapsed

import otdual as ot
from otdual.instances import (
    random_cost_matrix,
    random_metric,
    random_partition,
    random_rectangles,
    random_weights,
)

FLOAT_TOL = 1e-9


def gate(name, ok):
    print(f"{'PASS' if ok else 'FAIL'}  {name}")
    assert ok, name


# ---------------------------------------------------------------------------
# Strong duality and the chain
# ---------------------------------------------------------------------------

def test_strong_duality_exact_on_200_random_instances():
    rng = Random(100)
    started = time.perf_counter()
    ok = True
    for trial in range(200):
        m, n = rng.randint(1, 8), rng.randint(1, 8)
        mu = random_weights(rng, m, zeros=(trial % 4 == 0))
        nu = random_weights(rng, n, zeros=(trial % 6 == 0))
        c = random_cost_matrix(rng, m, n)
        chain = ot.check_chain(c, mu, nu)
        ok = ok and chain.beta == chain.alpha and chain.alpha_star == chain.beta_star
        ok = ok and chain.ok
    elapsed = time.perf_counter() - started
    gate("strong duality: beta == alpha and alpha* == beta* exactly, 200 x <=8x8", ok)
    gate(f"strong duality runtime {elapsed:.2f}s < 10s", elapsed < 10.0)


def test_strong_duality_float_within_1e9():
    rng = Random(101)
    ok = True
    for _ in range(60):
        m, n = rng.randint(1, 8), rng.randint(1, 8)
        mu = tuple(float(x) for x in random_weights(rng, m))
        nu = tuple(float(x) for x in random_weights(rng, n))
        c = tuple(tuple(float(x) for x in row) for row in random_cost_matrix(rng, m, n))
        chain = ot.check_chain(c, mu, nu)
        ok = ok and abs(chain.beta - chain.alpha) <= FLOAT_TOL
        ok = ok and abs(chain.alpha_star - chain.beta_star) <= FLOAT_TOL
        ok = ok and chain.ok
    gate("strong duality: float mode gaps within 1e-9, 60 instances", ok)


def test_chain_inequality_including_degenerate_marginals():
    rng = Random(102)
    ok = True
    for _ in range(40):
        m, n = rng.randint(2, 6), rng.randint(2, 6)
        mu = list(random_weights(rng, m - 1, zeros=True)) + [F(0)]
        nu = [F(0)] + list(random_weights(rng, n - 1, zeros=True))
        rng.shuffle(mu)
        c = random_cost_matrix(rng, m, n)
        chain = ot.check_chain(c, mu, nu)
        quad = chain.as_tuple()
        ok = ok and quad[0] <= quad[1] <= quad[2] <= quad[3]
        report = ot.solve_alpha(c, mu, nu)
        for i, w in enumerate(mu):
            ok = ok and (w > 0 or all(x == 0 for x in report.coupling.matrix[i]))
    gate("chain inequality holds with zero-weight points kept", ok)


# ---------------------------------------------------------------------------
# Oracle equivalence
# ---------------------------------------------------------------------------

def test_oracle_equivalence_up_to_4x4():
    rng = Random(103)
    started = time.perf_counter()
    ok = True
    for trial in range(100):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        mu = random_weights(rng, m, zeros=(trial % 5 == 0))
        nu = random_weights(rng, n)
        c = random_cost_matrix(rng, m, n)
        ok = ok and ot.solve_alpha(c, mu, nu).value == ot.oracle_enumerate(c, mu, nu, "alpha")
        ok = ok and ot.solve_alpha_star(c, mu, nu).value == ot.oracle_enumerate(
            c, mu, nu, "alpha_star"
        )
    elapsed = time.perf_counter() - started
    gate("oracle equivalence: solver == enumeration exactly, 100 x <=4x4", ok)
    gate(f"oracle equivalence runtime {elapsed:.2f}s < 10s", elapsed < 10.0)


# ---------------------------------------------------------------------------
# Infimal convolution suite and the beta* limit
# ---------------------------------------------------------------------------

def test_infimal_convolution_suite():
    rng = Random(104)
    ok = True
    for _ in range(50):
        k = rng.randint(2, 6)
        ny = rng.randint(1, 4)
        d = random_metric(rng, k)
        space = ot.make_space(random_weights(rng, k), metric=d)
        c = random_cost_matrix(rng, k, ny)
        modulus = ot.lipschitz_modulus(c, d)
        previous = None
        n = F(1)
        while True:
            out = ot.lipschitz_infconv(c, n, space).values
            for x in range(k):
                for z in range(k):
                    spread = max(abs(a - b) for a, b in zip(out[x], out[z]))
                    ok = ok and spread <= n * d[x][z]
            ok = ok and all(
                a <= b for ra, rb in zip(out, c) for a, b in zip(ra, rb)
            )
            if previous is not None:
                ok = ok and all(
                    a <= b for ra, rb in zip(previous, out) for a, b in zip(ra, rb)
                )
            previous = out
            if n >= modulus:
                ok = ok and out == tuple(tuple(F(x) for x in row) for row in c)
                break
            n *= 2
    gate("infimal convolution: modulus bound, monotone, below c, exact fixed point, 50 instances", ok)


def test_beta_star_limit_terminates_exactly():
    rng = Random(105)
    ok = True
    for _ in range(25):
        k = rng.randint(2, 5)
        ny = rng.randint(1, 4)
        d = random_metric(rng, k)
        space = ot.make_space(random_weights(rng, k), metric=d)
        c = random_cost_matrix(rng, k, ny)
        nu = random_weights(rng, ny)
        modulus = max(ot.lipschitz_modulus(c, d), F(1))
        ns = [F(1)]
        while ns[-1] < modulus:
            ns.append(ns[-1] * 2)
        seq = ot.infconv_sequence(c, space, ns)
        report = ot.beta_star_limit_check(seq, space.weights, nu)
        ok = ok and all(
            a <= b for a, b in zip(report.stage_values, report.stage_values[1:])
        )
        ok = ok and report.final_gap == 0
    gate("beta* limit: doubling stages nondecreasing, final gap exactly 0", ok)


# ---------------------------------------------------------------------------
# Partition pipeline
# ---------------------------------------------------------------------------

def _uniformly_lipschitz_cost(rng, d, ny, bound):
    # Each column is bound*d(., anchor) + shift, so the uniform Lipschitz
    # bound holds by the triangle inequality, independently of the operator
    # under test.
    k = len(d)
    cols = []
    for _ in range(ny):
        anchor = rng.randrange(k)
        shift = F(rng.randint(-8, 8), 4)
        cols.append([bound * d[x][anchor] + shift for x in range(k)])
    return tuple(tuple(cols[y][x] for y in range(ny)) for x in range(k))


def test_partition_pipeline_transfers_duality():
    rng = Random(106)
    started = time.perf_counter()
    ok = True
    u = F(2)
    for _ in range(50):
        k = rng.randint(2, 6)
        ny = rng.randint(1, 4)
        d = random_metric(rng, k)
        space = ot.make_space(random_weights(rng, k), metric=d)
        c = _uniformly_lipschitz_cost(rng, d, ny, u)
        nu = random_weights(rng, ny)
        eps = F(rng.choice((1, 2, 4)), 2)
        part = ot.oscillation_partition(c, eps, space, u)
        osc = [x for x in ot.oscillation(c, part) if x is not None]
        actual = max(osc) if osc else F(0)
        ok = ok and actual <= eps
        c0 = ot.partition_discretize(c, part)
        alpha = ot.solve_alpha(c, space.weights, nu).value
        alpha0 = ot.solve_alpha(c0, space.weights, nu).value
        beta = ot.solve_beta(c, space.weights, nu).value
        beta0 = ot.solve_beta(c0, space.weights, nu).value
        ok = ok and abs(alpha - alpha0) <= eps and abs(beta - beta0) <= eps
        ok = ok and alpha <= beta + 3 * actual
    elapsed = time.perf_counter() - started
    gate("partition pipeline: oscillation <= eps, |alpha - alpha0| <= eps, alpha <= beta + 3 eps", ok)
    gate(f"partition pipeline runtime {elapsed:.2f}s < 10s", elapsed < 10.0)


# ---------------------------------------------------------------------------
# Coupling extension
# ---------------------------------------------------------------------------

def test_coupling_extension_exact_on_100_pairs():
    rng = Random(107)
    ok = True
    for trial in range(100):
        m = rng.randint(1, 7)
        ny = rng.randint(1, 5)
        mu = random_weights(rng, m, zeros=(trial % 3 == 0))
        nu = random_weights(rng, ny)
        part = random_partition(rng, m)
        t = random_coupling(rng, part.cell_masses(mu), nu)
        fine = ot.extend_coupling(ot.CoarseCoupling(partition=part, matrix=t, nu=nu), mu)
        ok = ok and fine.row_sums() == tuple(mu) and fine.col_sums() == tuple(nu)
        for cell_index, cell in enumerate(part.cells):
            members = ot.mask_indices(cell)
            for y in range(ny):
                ok = ok and sum(fine.matrix[x][y] for x in members) == t[cell_index][y]
    gate("coupling extension: marginals and coarse agreement exact, 100 pairs", ok)


# ---------------------------------------------------------------------------
# Rectangle duality and Arveson witnesses
# ---------------------------------------------------------------------------

def test_rectangle_duality_and_null_covers():
    rng = Random(108)
    ok = True
    null_cases = 0
    for trial in range(100):
        nx, ny = rng.randint(1, 6), rng.randint(1, 6)
        mu = random_weights(rng, nx, zeros=(trial % 2 == 0))
        nu = random_weights(rng, ny, zeros=(trial % 3 == 0))
        if trial % 5 == 0:
            # engineered null instances: rectangles stay inside null rows/columns
            null_rows = [i for i, w in enumerate(mu) if w == 0]
            null_cols = [j for j, w in enumerate(nu) if w == 0]
            rects = []
            if null_rows:
                rects.append((ot.mask_from_indices(nx, null_rows), ot.mask_from_indices(ny, range(ny))))
            if null_cols:
                rects.append((ot.mask_from_indices(nx, range(nx)), ot.mask_from_indices(ny, null_cols)))
            family = ot.RectangleFamily(nx=nx, ny=ny, rects=tuple(rects))
        else:
            family = random_rectangles(rng, nx, ny, rng.randint(0, 4))
        cover = ot.min_cover(family, mu, nu)
        alpha_star = ot.solve_alpha_star(ot.indicator_cost(family), mu, nu).value
        ok = ok and cover.value == alpha_star == brute_min_cover_value(family, mu, nu)
        ok = ok and ot.covers(family, cover.a, cover.b)
        if alpha_star == 0:
            null_cases += 1
            outcome = ot.arveson_witness(family, mu, nu)
            ok = ok and isinstance(outcome, ot.Cover)
            ok = ok and ot.mask_mass(mu, outcome.a) == 0
            ok = ok and ot.mask_mass(nu, outcome.b) == 0
            ok = ok and ot.covers(family, outcome.a, outcome.b)
    ok = ok and null_cases >= 10
    gate(f"rectangle duality: alpha* == min cover == brute force, 100 families ({null_cases} null covers)", ok)


# ---------------------------------------------------------------------------
# Wasserstein through both dual routes
# ---------------------------------------------------------------------------

def test_wasserstein_dual_routes_agree():
    rng = Random(109)
    ok = True
    from otdual.wasserstein import lipschitz_violations

    for _ in range(50):
        n = rng.randint(2, 10)
        metric = random_metric(rng, n)
        mu = random_weights(rng, n)
        nu = random_weights(rng, n)
        report = ot.wasserstein1(metric, mu, nu)
        ok = ok and report.primal_value == report.dual_value
        ok = ok and not lipschitz_violations(metric, report.lipschitz_witness)
    for _ in range(10):
        n = rng.randint(2, 8)
        metric = tuple(tuple(float(x) for x in row) for row in random_metric(rng, n))
        mu = tuple(float(x) for x in random_weights(rng, n))
        nu = tuple(float(x) for x in random_weights(rng, n))
        report = ot.wasserstein1(metric, mu, nu)
        ok = ok and abs(report.gap) <= FLOAT_TOL
        ok = ok and not lipschitz_violations(metric, report.lipschitz_witness)
    gate("wasserstein: alpha(d) == lipschitz dual exactly (float within 1e-9), 50 + 10 spaces", ok)


# ---------------------------------------------------------------------------
# Diagonal surrogate
# ---------------------------------------------------------------------------

def test_diagonal_surrogate_bounds():
    rng = Random(110)
    ok = True
    for m in (4, 8, 16):
        mu = tuple(F(1, m) for _ in range(m))
        for _ in range(3):
            family = random_rectangles(rng, m, m, rng.randint(1, 4))
            h = family.union_matrix()
            h_diag = tuple(
                tuple(h[i][j] if i == j else 0 for j in range(m)) for i in range(m)
            )
            product_mass = ot.transport_value(ot.product_coupling(mu, mu), h_diag)
            diagonal_mass = ot.transport_value(ot.diagonal_coupling(mu), h_diag)
            alpha = ot.solve_alpha(h_diag, mu, mu).value
            alpha_star = ot.solve_alpha_star(h_diag, mu, mu).value
            ok = ok and alpha <= product_mass <= F(1, m)
            ok = ok and alpha_star == diagonal_mass
    gate("diagonal surrogate: alpha <= product mass <= 1/m and alpha* == diagonal mass, m in {4, 8, 16}", ok)


# ---------------------------------------------------------------------------
# Suite budget (runs last)
# ---------------------------------------------------------------------------

def test_full_suite_runtime_budget():
    elapsed = session_elapsed()
    gate(f"full suite wall time {elapsed:.1f}s < 60s", elapsed < 60.0)
