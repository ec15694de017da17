"""The exact simplex of ``cefai.lp`` against its reference copy: the same
multipliers, reduced costs and determinant on every system, so the same
pivots, certificates and prices."""

import random
from collections import Counter
from fractions import Fraction

from cefai.core import random_preference
from cefai.lp import _check_farkas, _dual_simplex
from cefai.market import IncomeVector
from cefai.oracle import _MarketRows

from conftest import every_allocation
from lp_reference import reference_dual_simplex
from rows_reference import reference_slack_rows


def test_open_systems_of_random_markets(rng):
    # the markets of TestPairCertificate.test_agrees_with_the_simplex, drawn
    # the same way from the same seed
    seen = Counter()
    for _ in range(60):
        m, n = rng.randint(2, 4), rng.randint(2, 3)
        incomes = IncomeVector.of(
            Fraction(rng.randint(1, 12), rng.choice([1, 2, 3])) for _ in range(n)
        )
        profile = [random_preference(m, seed=rng.randrange(10**6)) for _ in range(n)]
        rows = _MarketRows(profile, incomes)
        for alloc in every_allocation(m, n):
            _, _, a, c, pair = reference_slack_rows(rows, alloc.bundles)
            if pair is not None:
                continue
            got = _dual_simplex(a, c)
            assert got == reference_dual_simplex(a, c), alloc.bundles
            seen["feasible" if got[1][-1] < 0 else "closed"] += 1
            seen["d > 1"] += got[2] > 1
    assert min(seen.values()) > 100, seen


def random_system(rng: random.Random):
    """A system in the simplex's form: the cap column ``a = 0`` and the unit
    columns first, then small random integer columns, any costs."""
    k = rng.randint(0, 4)
    a = [[0] * k] + [[int(f == g) for g in range(k)] for f in range(k)]
    a += [[rng.randint(-3, 3) for _ in range(k)] for _ in range(rng.randint(0, 8))]
    c = [rng.randint(-6, 6) for _ in a]
    return a, c


def test_random_integer_systems():
    rng = random.Random("lp:random-systems")
    seen = Counter()
    for _ in range(3000):
        a, c = random_system(rng)
        y, reduced, d = _dual_simplex(a, c)
        assert (y, reduced, d) == reference_dual_simplex(a, c), (a, c)
        if reduced[-1] >= 0:
            _check_farkas(a, c, y, d)
            seen["closed"] += 1
        else:
            seen["open"] += 1
        seen["d > 1"] += d > 1
    assert min(seen.values()) > 200, seen
