import re
from fractions import Fraction as F
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import uniform_space

import otdual as ot
from otdual.errors import IndexOutOfRange, ValidationError, ZeroMassCell


def test_single_point_space_is_valid():
    report = ot.validate_space(ot.make_space([1]))
    assert report.ok
    assert report.normalization_defect == 0


def test_normalization_defect_reported():
    report = ot.validate_space(ot.make_space([0.5, 0.6]))
    assert not report.ok
    assert report.normalization_defect == pytest.approx(0.1)


def test_metric_symmetry_violation_located():
    space = ot.make_space([F(1, 2), F(1, 2)], metric=[[0, 1], [2, 0]])
    report = ot.validate_space(space)
    assert not report.ok
    assert (0, 1) in report.symmetry_violations


def test_metric_triangle_violation_located():
    space = ot.make_space([F(1, 3)] * 3, metric=[[0, 1, 5], [1, 0, 1], [5, 1, 0]])
    report = ot.validate_space(space)
    assert (0, 1, 2) in report.triangle_violations


def test_space_shape_mismatch_rejected():
    with pytest.raises(ValidationError):
        ot.ProbabilitySpace(points=("a",), weights=(F(1, 2), F(1, 2)))
    with pytest.raises(ValidationError):
        ot.make_space([1], metric=[[0, 0], [0, 0]])


# --- conditional_measure ---------------------------------------------------

def test_conditional_uniform_pair():
    space = uniform_space(4)
    cell = ot.mask_from_indices(4, [0, 1])
    assert ot.conditional_measure(space, cell) == (F(1, 2), F(1, 2), 0, 0)


def test_conditional_point_mass():
    space = ot.make_space([F(1, 5), F(4, 5)])
    assert ot.conditional_measure(space, ot.mask_from_indices(2, [1])) == (0, 1)


def test_conditional_renormalizes():
    space = ot.make_space([F(1, 10), F(3, 10), F(6, 10)])
    cell = ot.mask_from_indices(3, [0, 2])
    assert ot.conditional_measure(space, cell) == (F(1, 7), 0, F(6, 7))


def test_conditional_zero_mass_cell():
    space = ot.make_space([0, 1])
    with pytest.raises(ZeroMassCell):
        ot.conditional_measure(space, ot.mask_from_indices(2, [0]))


# --- pushforward -----------------------------------------------------------

def test_pushforward_identity():
    space = ot.make_space([F(1, 4), F(3, 4)])
    assert ot.pushforward(space, [0, 1], 2) == space.weights


def test_pushforward_collapse():
    space = ot.make_space([F(1, 4), F(3, 4)])
    assert ot.pushforward(space, [0, 0], 2) == (1, 0)


def test_pushforward_additivity():
    space = ot.make_space([F(3, 10), F(3, 10), F(2, 5)])
    assert ot.pushforward(space, [0, 1, 0], 2) == (F(7, 10), F(3, 10))


def test_pushforward_range_checked():
    space = ot.make_space([1])
    with pytest.raises(IndexOutOfRange):
        ot.pushforward(space, [3], 2)


@given(
    weights=st.lists(st.integers(0, 9), min_size=1, max_size=7).filter(
        lambda xs: sum(xs) > 0
    ),
    data=st.data(),
)
def test_pushforward_preserves_total_mass(weights, data):
    total = sum(weights)
    space = ot.make_space([F(w, total) for w in weights])
    target = data.draw(st.integers(1, 5))
    mapping = data.draw(
        st.lists(st.integers(0, target - 1), min_size=len(weights), max_size=len(weights))
    )
    assert sum(ot.pushforward(space, mapping, target)) == 1


# --- limsup_mass -----------------------------------------------------------

def test_limsup_empty_sets():
    space = uniform_space(3)
    sets = [ot.mask_from_indices(3, [])] * 4
    assert ot.limsup_mass(space, sets, 0) == 0


def test_limsup_full_space():
    space = uniform_space(2)
    sets = [ot.mask_from_indices(2, [0, 1])] * 3
    assert ot.limsup_mass(space, sets, 0) == 1


def test_limsup_tail_union():
    space = uniform_space(4)
    sets = [ot.mask_from_indices(4, [i]) for i in range(3)]
    assert ot.limsup_mass(space, sets, 1) == F(1, 2)


def test_limsup_from_index_checked():
    space = uniform_space(2)
    with pytest.raises(IndexOutOfRange):
        ot.limsup_mass(space, [ot.mask_from_indices(2, [0])], 1)


# --- metric repair ---------------------------------------------------------

def test_metric_repair_closes_triangle():
    repaired = ot.metric_repair([[0, 1, 5], [1, 0, 1], [5, 1, 0]])
    assert repaired[0][2] == 2
    space = ot.make_space([F(1, 3)] * 3, metric=repaired)
    assert ot.validate_space(space).ok


def test_metric_repair_rejects_negative():
    with pytest.raises(ValidationError):
        ot.metric_repair([[0, -1], [1, 0]])


def reference_repair(rows):
    """The Fraction Floyd-Warshall: the reference metric_repair must equal."""
    d = [[F(x) for x in row] for row in rows]
    n = len(d)
    for i in range(n):
        d[i][i] = F(0)
        for j in range(i + 1, n):
            d[i][j] = d[j][i] = min(d[i][j], d[j][i])
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if d[i][k] + d[k][j] < d[i][j]:
                    d[i][j] = d[i][k] + d[k][j]
    return tuple(map(tuple, d))


# Asymmetric generators of up to 12 points with zero entries and mixed
# denominators, drawn entry by entry.
entries = st.one_of(
    st.just(0), st.builds(F, st.integers(0, 40), st.sampled_from((1, 3, 4, 7, 10)))
)
generators = st.integers(1, 12).flatmap(
    lambda n: st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)
)


@settings(max_examples=60)
@given(rows=generators)
def test_metric_repair_output_always_validates(rows):
    n = len(rows)
    repaired = ot.metric_repair(rows)
    assert repaired == reference_repair(rows)
    assert all(type(x) is F for row in repaired for x in row)
    space = ot.make_space([F(1, n)] * n, metric=repaired)
    assert ot.validate_space(space).ok


def test_float_metric_repair_rounds_the_exact_closure_once():
    # Entries spread over orders of magnitude, so that many shortest paths
    # take three or more edges.  Summed in float arithmetic, such a path
    # rounds more than once: that misses the correctly rounded length on 53
    # of these 100 generators.
    rng = Random(5)
    for _ in range(100):
        n = rng.randint(1, 12)
        rows = [[rng.lognormvariate(0, 2) for _ in range(n)] for _ in range(n)]
        repaired = ot.metric_repair(rows)
        assert repaired == tuple(tuple(map(float, row)) for row in reference_repair(rows))
        assert all(type(x) is float for row in repaired for x in row)


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_metric_repair_names_the_first_negative_entry(mode):
    rows = [[0, 1, 2], [1, 0, -0.5], [F(-1, 3), 1, 0]]
    with pytest.raises(ValidationError, match=re.escape("negative generator entry at (1, 2)")):
        ot.metric_repair(rows, ot.Context(mode))


# --- partitions ------------------------------------------------------------

def test_partition_rejects_overlap_and_gap():
    with pytest.raises(ValidationError):
        ot.Partition(cells=(ot.mask_from_indices(2, [0]), ot.mask_from_indices(2, [0, 1])))
    with pytest.raises(ValidationError):
        ot.Partition(cells=(ot.mask_from_indices(2, [0]),))


def test_partition_representative_membership():
    with pytest.raises(ValidationError):
        ot.Partition(
            cells=(ot.mask_from_indices(2, [0]), ot.mask_from_indices(2, [1])),
            representatives=(1, 0),
        )


def test_partition_cell_masses_sum_to_one():
    from otdual.instances import random_partition, random_weights
    from random import Random

    rng = Random(2)
    for _ in range(25):
        n = rng.randint(1, 8)
        weights = random_weights(rng, n, zeros=True)
        part = random_partition(rng, n)
        masses = part.cell_masses(weights)
        assert sum(masses) == 1
        # conditional measures live exactly on their cells
        for mask, mass in zip(part.cells, masses):
            if mass == 0:
                continue
            cond = ot.conditional_measure(ot.make_space(weights), mask)
            assert sum(cond) == 1
            assert all(x == 0 for x, b in zip(cond, mask) if not b)


def test_singleton_partition():
    part = ot.singleton_partition(3)
    assert len(part.cells) == 3
    assert part.representatives == (0, 1, 2)
