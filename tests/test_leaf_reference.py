"""The solver's integer leaf prices against their ``Fraction`` reference.

Every leaf of ``solver._LEAVES``, built at sorted scaled incomes, must
carry exactly the prices of ``tests/leaf_reference.py`` and read back
from them as the same integer data.
"""

import random
from fractions import Fraction

import pytest

from cefai.instances import stratified_incomes
from cefai.market import IncomeVector, common_scale, scaled_integers
from cefai.pixep import Pixep
from cefai.solver import _LEAVES, _leaf, range_labels, range_table

from conftest import candidate_games, leaf_at
from eps_reference import affine, pixep_of, positions
from leaf_reference import reference_prices

SIZES = [(1, 2), (2, 2), (3, 2), (3, 3), (3, 4), (4, 2), (4, 3)]


def check_leaf(name: str, incomes: IncomeVector) -> None:
    """Assert that leaf ``name`` at ``incomes`` has its reference prices
    and turn order, and survives the round trip through them."""
    pix = leaf_at(name, incomes)
    abc = (*tuple(incomes)[:3], Fraction(0), Fraction(0))[:3]
    assert [(price.c0, price.c1) for _, price in positions(pix)] == list(
        reference_prices(name, abc)
    ), (name, incomes)
    assert pix.agents == tuple("ABC".index(ch) for ch in name.rstrip("="))
    assert pixep_of(positions(pix)) == pix


@pytest.mark.parametrize("m,n", SIZES, ids=[f"m{m}n{n}" for m, n in SIZES])
def test_every_leaf_at_stratified_points(m, n):
    for label in range_labels(m, n):
        for incomes in stratified_incomes(m, n, label, seed=13, count=10):
            for name in _LEAVES:
                check_leaf(name, incomes)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_equal_split_of_one_agent(m):
    (row,) = range_table(m, 1)
    for incomes in stratified_incomes(m, 1, row.label, seed=13, count=10):
        ((label, game),) = candidate_games(row, incomes)
        assert label == f"m{m}n1" and game.agents == (0,) * m
        assert positions(game) == ((0, affine(incomes[0] / m)),) * m
        assert pixep_of(positions(game)) == game


def test_every_leaf_at_random_rational_incomes():
    rng = random.Random("leaf-reference")
    for _ in range(300):
        incomes = sorted(
            (Fraction(rng.randint(1, 400), rng.randint(1, 12)) for _ in range(3)),
            reverse=True,
        )
        for name in _LEAVES:
            check_leaf(name, IncomeVector.of(incomes))


@pytest.mark.parametrize("b,c", [(8, 3), (Fraction(17, 3), Fraction(5, 4)), (5, 2)])
def test_baaa_on_both_sides_of_its_split(b, c):
    # max(c, (a - b)/2) switches at a - b = 2c, where both rows agree
    tie = b + 2 * c
    for a in (tie - Fraction(1, 7), tie, tie + Fraction(1, 7), 3 * tie):
        check_leaf("BAAA", IncomeVector.of([a, b, c]))
    incomes = IncomeVector.of([tie, b, c])
    scale = common_scale(incomes)
    abc = scaled_integers(incomes, scale)
    at_tie = {
        Pixep(
            (1, 0, 0, 0),
            tuple(ka * abc[0] + kb * abc[1] + kc * abc[2] for ka, kb, kc, _ in prices),
            tuple(slope for *_, slope in prices),
            scale * denominator,
        )
        for _, denominator, prices in _LEAVES["BAAA"]
    }
    assert at_tie == {_leaf("BAAA", abc, scale, range(3))}
