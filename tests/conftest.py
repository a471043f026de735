import time
from fractions import Fraction

import pytest

from otdual import transport
from otdual.costs import CostMatrix, potential_defect
from otdual.numeric import resolve_context
from otdual.spaces import make_space

SESSION_START = time.perf_counter()


def pytest_collection_modifyitems(session, config, items):
    # Acceptance gates run last so the suite-budget criterion sees the
    # whole run.
    items.sort(key=lambda item: item.path.name == "test_acceptance.py")


def session_elapsed() -> float:
    return time.perf_counter() - SESSION_START


@pytest.fixture
def simplex_runs(monkeypatch):
    """A list that gains one entry, the cost matrix, per network-simplex run.

    The matrix is recorded as passed to the simplex: side-signed and
    scaled onto the integer lattice.
    """
    runs = []
    solve = transport._network_simplex

    def counted(values, mu, nu):
        runs.append(values)
        return solve(values, mu, nu)

    monkeypatch.setattr(transport, "_network_simplex", counted)
    return runs


def brute_min_cover_value(family, mu, nu):
    """Exhaustive cover oracle: every subset of X, columns forced minimally.

    For a fixed row set a, the cheapest completion is exactly the columns
    hit by uncovered rows (weights are nonnegative), so scanning all 2^|X|
    row subsets enumerates a superset of the optimal covers.
    """
    h = family.union_matrix()
    nx, ny = family.nx, family.ny
    best = None
    for bits in range(1 << nx):
        in_a = [(bits >> i) & 1 for i in range(nx)]
        forced = [False] * ny
        for i in range(nx):
            if in_a[i]:
                continue
            for j in range(ny):
                if h[i][j]:
                    forced[j] = True
        value = sum(m for m, x in zip(mu, in_a) if x) + sum(
            m for m, x in zip(nu, forced) if x
        )
        if best is None or value < best:
            best = value
    return best


# Small builders that only the tests need.

def separable_cost(f, g):
    """The cost f(x) + g(y)."""
    return CostMatrix(values=tuple(tuple(fi + gj for gj in g) for fi in f))


def constant_cost(m, n, value):
    return CostMatrix(values=tuple((value,) * n for _ in range(m)))


def shift_matrix(values, t):
    return tuple(tuple(x + t for x in row) for row in values)


def uniform_space(n):
    return make_space([Fraction(1, n)] * n)


def mask_intersection(*masks):
    return tuple(all(bits) for bits in zip(*masks))


def is_feasible_potential(pair, values):
    """Whether the pair meets its side's inequality everywhere."""
    ctx = resolve_context(None, values, pair.f, pair.g)
    return ctx.leq(potential_defect(pair, values, ctx), 0)


def random_coupling(rng, mu, nu):
    """A random exact coupling: a convex mix of permuted corner solutions."""
    mu = tuple(Fraction(x) for x in mu)
    nu = tuple(Fraction(x) for x in nu)
    m, n = len(mu), len(nu)
    lam_raw = [rng.randint(1, 6) for _ in range(3)]
    total = sum(lam_raw)
    out = [[Fraction(0)] * n for _ in range(m)]
    for weight in lam_raw:
        sigma = list(range(m))
        tau = list(range(n))
        rng.shuffle(sigma)
        rng.shuffle(tau)
        base = transport._northwest_basis([mu[i] for i in sigma], [nu[j] for j in tau])
        lam = Fraction(weight, total)
        for (a, b), q in base.items():
            out[sigma[a]][tau[b]] += lam * q
    return tuple(tuple(r) for r in out)
