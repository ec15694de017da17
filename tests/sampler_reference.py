"""Reference income samplers: every draw tested in ``Fraction`` arithmetic.

``reference_sample_incomes`` turns each seeded draw into an
``IncomeVector`` of ``Fraction``s before its acceptance test, as the
package's samplers did before they decided draws on their integer
numerators.  The three ``reference_*`` samplers below rebuild the region,
range and generic samplers on top of it, and ``reference_contains``
tests a region's rows on the exact incomes.  The tests compare each
package sampler with its reference: the same seeded ``randint`` calls in
the same order must accept the same draws, so the points must be equal.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable, Sequence

from cefai.market import EmptyRegionSamplerError, IncomeRegion, IncomeVector
from cefai.solver import IncomeRange, UnsupportedCaseError, excluded_hyperplanes, range_table

# The grids of ``market.IncomeRegion.sample`` and of the two samplers of
# ``instances``.
REGION_GRID = 1000
REGION_BOX = 20
GRID = 100
HIGH = 20


def reference_sample_incomes(
    key: str,
    lows: Sequence[int],
    highs: Sequence[int],
    denominator: int,
    descending: bool,
    accept: Callable[[IncomeVector], bool],
    count: int,
    budget: int,
) -> list[IncomeVector]:
    """The first ``count`` draws that ``accept`` admits, each built as
    ``Fraction``s before it is tested."""
    rng = random.Random(key)
    points = []
    for _ in range(budget):
        values = [
            Fraction(rng.randint(lo, hi), denominator) for lo, hi in zip(lows, highs)
        ]
        if descending:
            values.sort(reverse=True)
        cand = IncomeVector.of(values)
        if accept(cand):
            points.append(cand)
            if len(points) == count:
                return points
    raise EmptyRegionSamplerError(f"found only {len(points)}/{count} points")


def reference_contains(region: IncomeRegion, incomes: IncomeVector) -> bool:
    return all(
        sum(c * t for c, t in zip(row, incomes)) > 0 for row in region.constraints
    )


def reference_region_sample(
    region: IncomeRegion, seed: int, count: int
) -> list[IncomeVector]:
    if region.reference is not None:
        lows = [max(1, int(t * REGION_GRID // 2)) for t in region.reference]
        highs = [int(t * REGION_GRID * 2) for t in region.reference]
    else:
        lows = [1] * region.n
        highs = [REGION_BOX * REGION_GRID] * region.n
    return reference_sample_incomes(
        f"region:{seed}", lows, highs, REGION_GRID, False,
        lambda incomes: reference_contains(region, incomes),
        count, max(200_000, 5000 * count),
    )


def range_holds(row: IncomeRange, t: Sequence) -> bool:
    """Whether every form of the income range ``row`` is positive at the
    incomes ``t``, sorted descending: the range test written out."""
    return all(sum(c * v for c, v in zip(form, t)) > 0 for form in row.forms)


def _on_excluded_plane(incomes: IncomeVector, m: int) -> bool:
    """Whether the exact incomes, sorted descending, lie on one of the
    solver's excluded hyperplanes."""
    t = sorted(incomes, reverse=True)
    return any(hp.contains(t) for hp in excluded_hyperplanes(m, len(t)))


def reference_stratified_incomes(
    m: int, n: int, range_label: str, seed: int, count: int
) -> list[IncomeVector]:
    def accept(incomes: IncomeVector) -> bool:
        if _on_excluded_plane(incomes, m):
            return False
        t = sorted(incomes, reverse=True)
        return [row.label for row in range_table(m, n) if range_holds(row, t)] == [range_label]

    return reference_sample_incomes(
        f"stratified:{m}:{n}:{range_label}:{seed}", [1] * n, [HIGH * GRID] * n, GRID,
        True, accept, count, max(100_000, 5000 * count),
    )


def reference_random_generic_incomes(
    m: int, n: int, seed: int, count: int
) -> list[IncomeVector]:
    def accept(incomes: IncomeVector) -> bool:
        try:
            return not _on_excluded_plane(incomes, m)
        except UnsupportedCaseError:
            return len(set(incomes)) == len(incomes)

    return reference_sample_incomes(
        f"incomes:{m}:{n}:{seed}", [1] * n, [HIGH * GRID] * n, GRID,
        True, accept, count, 100_000,
    )
