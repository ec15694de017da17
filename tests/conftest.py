"""Shared helpers for the test suite."""

from __future__ import annotations

import random
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

import pytest

from cefai.core import (
    Bundle,
    PartialRelations,
    PreferenceOrder,
    chain_pairs,
    complete_partial,
    random_preference,
)
from cefai.market import Allocation, IncomeVector
from cefai.pixep import ChoiceNode, Pixep
from cefai.solver import (
    IncomeRange,
    NotGenericError,
    _candidate_games,
    _leaf,
    _range_at,
)

from eps_reference import affine, pixep_of


def is_subset(s: Bundle, t: Bundle) -> bool:
    return s & ~t == 0


def satisfies_relations(pref: PreferenceOrder, rel: PartialRelations) -> bool:
    """Check that every asserted pair holds in the (completed) order."""
    return all(pref.prefers(b, w) for b, w in rel.pairs)


def scaled_incomes(incomes: IncomeVector, factor: Fraction) -> IncomeVector:
    """Every income times the same positive factor."""
    return IncomeVector.of(v * factor for v in incomes)


def candidate_games(row: IncomeRange, incomes: IncomeVector):
    """The solver's candidate games for ``row`` at ``incomes``, which
    must be sorted descending: each agent sits in its own seat."""
    scale, t = incomes.integers
    return _candidate_games(row, t, scale, range(len(t)))


def active_range(incomes: IncomeVector, m: int) -> IncomeRange:
    """The income range the solver dispatches ``incomes`` to, in any order."""
    return _range_at(m, sorted(incomes.integers[1], reverse=True))


def violated_hyperplane(incomes: IncomeVector, m: int):
    """The excluded hyperplane the solver's dispatch rejects ``incomes``
    on, or None at generic incomes."""
    try:
        active_range(incomes, m)
    except NotGenericError as exc:
        return exc.hyperplane
    return None


def is_generic(incomes: IncomeVector, m: int) -> bool:
    return violated_hyperplane(incomes, m) is None


def leaf_at(name: str, incomes: IncomeVector) -> Pixep:
    """The pixep of the solver's leaf game ``name`` at ``incomes``, which
    must be sorted descending: each agent sits in its own seat."""
    scale, t = incomes.integers
    abc = (*t[:3], 0, 0)[:3]
    return _leaf(name, abc, scale, range(3))


def chain_preference(m: int, *chain):
    """Preference from a best-to-worst chain of bundle masks."""
    return complete_partial(PartialRelations(m, tuple(chain_pairs([[b] for b in chain]))))


def zero_priced_pixep(agents: list[int]) -> Pixep:
    return pixep_of((agent, affine(0)) for agent in agents)


def random_leaf_game(rng: random.Random, m: int, n: int) -> Pixep:
    return zero_priced_pixep([rng.randrange(n) for _ in range(m)])


def random_game(rng: random.Random, m: int, n: int):
    """A leaf or a small choice tree over leaves, with distinct labels."""
    shape = rng.randrange(4)
    if shape == 0:
        return random_leaf_game(rng, m, n)
    if shape in (1, 2):
        return ChoiceNode(
            agent=rng.randrange(n),
            options=(
                ("first", random_leaf_game(rng, m, n)),
                ("default", random_leaf_game(rng, m, n)),
            ),
        )
    return ChoiceNode(
        agent=rng.randrange(n),
        options=(
            ("first", random_leaf_game(rng, m, n)),
            (
                "rest",
                ChoiceNode(
                    agent=rng.randrange(n),
                    options=(
                        ("second", random_leaf_game(rng, m, n)),
                        ("default", random_leaf_game(rng, m, n)),
                    ),
                ),
            ),
        ),
    )


def random_profile(rng: random.Random, m: int, n: int):
    return tuple(random_preference(m, seed=rng.randrange(10**9)) for _ in range(n))


def tied_incomes(rng: random.Random, n: int) -> IncomeVector:
    """Incomes on a coarse grid with denominators up to 3, so that one
    income is often a multiple of another; about half the draws also
    copy one agent's income onto another, so that ties occur."""
    values = [Fraction(rng.randint(1, 12), rng.randint(1, 3)) for _ in range(n)]
    if n > 1 and rng.random() < 0.5:
        i, j = rng.sample(range(n), 2)
        values[j] = values[i]
    return IncomeVector.of(values)


def permuted_market(profile, incomes: IncomeVector, pi):
    """The market with agent ``i`` moved to index ``pi[i]``."""
    moved = [None] * len(pi)
    for i, target in enumerate(pi):
        moved[target] = (profile[i], incomes[i])
    return tuple(pref for pref, _ in moved), IncomeVector.of(t for _, t in moved)


def every_allocation(m: int, n: int):
    """Every allocation of m items to n agents, in the oracle's order."""
    for assign in product(range(n), repeat=m):
        masks = [0] * n
        for item, agent in enumerate(assign):
            masks[agent] |= 1 << item
        yield Allocation(m=m, bundles=tuple(masks))


@pytest.fixture
def rng():
    return random.Random(20240917)
