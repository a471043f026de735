import hashlib
import json
from fractions import Fraction as F
from random import Random

import pytest

import otdual as ot
from otdual.instances import generate_instance, random_metric, random_weights
from otdual.numeric import format_number
from otdual.wasserstein import lipschitz_dual, lipschitz_violations


def test_two_points_full_move():
    metric = ((0, 1), (1, 0))
    report = ot.wasserstein1(metric, (1, 0), (0, 1))
    assert report.primal_value == 1
    assert report.dual_value == 1
    assert not lipschitz_violations(metric, report.lipschitz_witness)


def test_equal_marginals_give_zero():
    metric = ((0, F(3, 4)), (F(3, 4), 0))
    mu = (F(1, 3), F(2, 3))
    report = ot.wasserstein1(metric, mu, mu)
    assert report.primal_value == 0 and report.dual_value == 0


def test_single_point_space():
    report = ot.wasserstein1(((0,),), (1,), (1,))
    assert report.primal_value == 0 and report.dual_value == 0
    assert report.lipschitz_witness == (0,)


def test_dual_routes_agree_exactly_on_random_spaces():
    rng = Random(20)
    for _ in range(20):
        n = rng.randint(2, 8)
        metric = random_metric(rng, n)
        mu = random_weights(rng, n)
        nu = random_weights(rng, n)
        report = ot.wasserstein1(metric, mu, nu)
        assert report.primal_value == report.dual_value
        assert not lipschitz_violations(metric, report.lipschitz_witness)
        diff = sum(
            (a - b) * f for a, b, f in zip(mu, nu, report.lipschitz_witness)
        )
        assert diff == report.dual_value


def test_float_mode_within_tolerance():
    rng = Random(21)
    for _ in range(5):
        n = rng.randint(2, 6)
        metric = tuple(tuple(float(x) for x in row) for row in random_metric(rng, n))
        mu = tuple(float(x) for x in random_weights(rng, n))
        nu = tuple(float(x) for x in random_weights(rng, n))
        report = ot.wasserstein1(metric, mu, nu)
        # Both routes read one lattice problem and round its optimum once.
        assert report.gap == 0
        assert not lipschitz_violations(metric, report.lipschitz_witness)


@pytest.mark.parametrize("mu, nu", [
    ((F(1, 2), F(1, 2)), (F(1, 2), F(1, 4))),
    ((0.5, 0.5), (0.75, 0.5)),
    ((F(3, 2), F(-1, 2)), (F(1, 2), F(1, 2))),
])
def test_lipschitz_dual_rejects_unbalanced_marginals(mu, nu):
    # The solvers' check, not the lattice's gap repair, judges the input.
    with pytest.raises(ot.InfeasibleMarginals):
        lipschitz_dual(((0, 1), (1, 0)), mu, nu)


# The sha256 of format_number((value, f), mode) from lipschitz_dual on the
# gen n x n instances at seeds 0, 1 and 2, fed to one hash in seed order.
# The dense simplex's pivot order decides which optimal vertex f is, so a
# change to the pivot rule or to its arithmetic shows here first.
GOLDEN_WITNESSES = {
    ("rational", 5): "5233925845464bf3eda5f99a831d5e366340edca987839181706bd109e772248",
    ("rational", 6): "9f0173c8e607ec7a153ce03dddcfde9bc885b542685ab0a00ecdc2d2646ac62d",
    ("rational", 7): "c331a0301e0383620cecb7323f20dffd55be9e859255d0731b0c7df9bcaaa43e",
    ("rational", 8): "c9c4b0d1d13bc1e5cec42c0fb0e081f450ff9465238b6cc84c79cb0004f712d7",
    ("rational", 9): "b5d74245ac2a5b0dd1e5a64da027306c87b808aa046d6dd70fee63d9708ec3e3",
    ("rational", 10): "ef340a579d1f015c973b1ee7d4c6a1b7bd0ac8553c205b10e7f044b3a071e0d9",
    ("rational", 11): "ec76b0616db7acb71648ef6c1ac17f41a531d7e21d940b2230aa081f53734aeb",
    ("rational", 12): "ed0595a7e08a8ef570a8370c0bd58af8d811cdfc9646d085061abcfc009353f7",
    ("float", 5): "02ce03c2580444766230ca8889ee11502f74a10f2458e14db0dee0c481027173",
    ("float", 6): "48056980d62a02850266347155e22395468bb22b9f8965e2b0af04dfc3f0e1cf",
    ("float", 7): "8546152d636eb73736ab1010f09f7d303e745cbb094292d0bed8c1af00d4ee6e",
    ("float", 8): "598c094b55cf3029154ac85bcf499785cc10ba0b93ecc18af40cf554ff06ba6d",
    ("float", 9): "d969f94dca4fcc5b2495668b657af1e70e6535edfc231edc53cd4c74ff0abba3",
    ("float", 10): "c204398acb5b7d83567c8bd4dd4e30d1074addf7fb380ffcd6e2fbbb701dc25d",
    ("float", 11): "6856c07cce06d50f6072d269d7120c0ab04f69426e70a461328ad0acb7f9815e",
    ("float", 12): "6c8ef7510e5a5a231341741c1ea1de5994d73851449fdedd339e39f162528a5d",
}


@pytest.mark.parametrize("mode, n", sorted(GOLDEN_WITNESSES))
def test_lipschitz_dual_matches_golden_witnesses(mode, n):
    digest = hashlib.sha256()
    for seed in range(3):
        inst = generate_instance(seed, n, n, mode)
        found = lipschitz_dual(inst.space_x.metric, inst.space_x.weights, inst.space_y.weights, inst.ctx)
        digest.update(json.dumps(format_number(found, mode)).encode())
    assert digest.hexdigest() == GOLDEN_WITNESSES[mode, n]
