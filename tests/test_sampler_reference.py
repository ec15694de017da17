"""The integer samplers against the ``Fraction`` reference samplers of
``sampler_reference``: the same points, and the same region membership
on and off every constraint's boundary."""

import random
from fractions import Fraction

import pytest

from cefai.instances import NAMED_INSTANCES, random_generic_incomes, stratified_incomes
from cefai.market import IncomeRegion, IncomeVector
from cefai.solver import range_labels

from sampler_reference import (
    reference_contains,
    reference_random_generic_incomes,
    reference_region_sample,
    reference_stratified_incomes,
)

SEEDS = range(20)
REGIONS = {
    **{name: build().region for name, build in sorted(NAMED_INSTANCES.items())},
    "free": IncomeRegion.of(3, [(1, -1, 0), (0, 1, -1)]),
}
RANGES = [
    (m, n, label)
    for m in range(1, 5)
    for n in range(1, 5 if m < 4 else 4)
    for label in range_labels(m, n)
]
GENERIC_CELLS = [(1, 1), (4, 3), (4, 4), (5, 2), (5, 4)]


def _exact(points) -> bool:
    return all(type(t) is Fraction for point in points for t in point)


@pytest.mark.parametrize("name", sorted(REGIONS))
def test_region_sample_matches_reference(name):
    region = REGIONS[name]
    for seed in SEEDS:
        points = region.sample(seed, 4)
        assert points == reference_region_sample(region, seed, 4)
        assert _exact(points)


@pytest.mark.parametrize("m, n, label", RANGES)
def test_stratified_incomes_match_reference(m, n, label):
    for seed in SEEDS:
        points = stratified_incomes(m, n, label, seed=seed, count=4)
        assert points == reference_stratified_incomes(m, n, label, seed, 4)
        assert _exact(points)


@pytest.mark.parametrize("m, n", GENERIC_CELLS)
def test_random_generic_incomes_match_reference(m, n):
    for seed in SEEDS:
        points = random_generic_incomes(m, n, seed=seed, count=4)
        assert points == reference_random_generic_incomes(m, n, seed, 4)
        assert _exact(points)


def _boundary_points(region: IncomeRegion, rng: random.Random):
    """Points where one constraint row sums to exactly zero, and points a
    small step to either side of that boundary."""
    for row in region.constraints:
        j = max(range(region.n), key=lambda i: row[i])
        for _ in range(20):
            t = [Fraction(rng.randint(1, 4000), rng.choice((1, 7, 1000))) for _ in row]
            t[j] = -sum(c * v for i, (c, v) in enumerate(zip(row, t)) if i != j) / row[j]
            for step in (0, Fraction(1, 10**6), -Fraction(1, 10**6)):
                if t[j] + step > 0:
                    yield IncomeVector.of([*t[:j], t[j] + step, *t[j + 1:]]), step


@pytest.mark.parametrize("name", [*sorted(REGIONS), "fractional"])
def test_contains_matches_reference_on_boundaries(name):
    region = REGIONS.get(name) or IncomeRegion.of(
        3, [(Fraction(1, 3), Fraction(-1, 2), 0), ("2/7", 0, "-5/3")]
    )
    rng = random.Random(name)
    on_boundary = 0
    for incomes, step in _boundary_points(region, rng):
        assert region.contains(incomes) == reference_contains(region, incomes)
        if step == 0:
            assert not region.contains(incomes)
            on_boundary += 1
    assert on_boundary > 0
    for point in reference_region_sample(region, 0, 5):
        assert region.contains(point)


def test_random_generic_incomes_skip_tied_draws():
    # a tie has odds of about 3 in 1,000 per draw of four incomes, so 2,000
    # points meet several; the solver covers no (5, 4) case, so only the
    # distinctness rule rejects them
    points = random_generic_incomes(5, 4, seed=0, count=2000)
    assert points == reference_random_generic_incomes(5, 4, 0, 2000)
    assert all(len(set(point)) == 4 for point in points)
