"""Allocations, prices, exact equilibrium verification, and income samplers.

A pair (price vector, allocation) is a competitive equilibrium when

1. every agent holding a non-empty bundle pays exactly their income, and
2. no agent can afford any bundle they strictly prefer to their own.

Both conditions are checked exactly; the affordability threshold for
an agent is their income (for non-empty bundles this coincides with the
bundle price via condition 1, and for empty-handed agents it is the
reading under which "cannot afford any non-empty bundle" makes sense).
A literal mode that thresholds on the agent's own bundle price instead
is available for comparison.

Every money value a caller sees is an exact ``Fraction``.  Inside a
check the values are scaled to integers: ``common_scale`` is the least
common multiple of their denominators, and ``scaled_integers``
multiplies each value by it, which keeps every sum and comparison exact
and makes each one an integer operation.  Only this module scales.  An
``IncomeVector`` and a ``PriceVector`` share one implementation of
strictly positive exact rationals: each keeps its integer form alone
(``integers``), set by its ``scaled`` constructor, which ``of`` calls
over the least common denominator of the values it parses, and builds
its ``Fraction``s only when they are read; every layer reads the
integer form.  ``with_incomes`` brings integers over a scale and the
incomes' integer form over the ``lcm`` of the two scales, for a leaf's
prices in ``cefai.pixep`` and for a price vector in ``scaled_market``,
which then prices all ``2^m`` bundles in one subset-sum pass, for
``verify_ce`` and the domination audit in ``cefai.repro``;
``verify_ce`` builds a ``Fraction`` only for a violation it reports.

The income samplers work the same way.  A draw is a list of integer
numerators over a fixed grid denominator, and the sampler's ``accept``
test receives those integers, not incomes: every form it decides is
homogeneous, so the sign at the numerators is the sign at the incomes.
``IncomeRegion`` keeps each constraint row as integers, scaled when
the region is built, and tests each row's product with the draw.  An
accepted draw becomes an ``IncomeVector`` through ``scaled``, from its
numerators and the grid denominator.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Callable, Iterable, Sequence

from .core import Bundle, PreferenceOrder, format_bundle, uniform_below
from .lp import _check_farkas, _dual_simplex


def common_scale(*vectors: Iterable[Fraction]) -> int:
    """The least common multiple of the denominators of every value given."""
    return lcm(*(v.denominator for vector in vectors for v in vector))


def scaled_integers(values: Iterable[Fraction], scale: int) -> list[int]:
    """Each value times ``scale``, a multiple of every value's denominator."""
    return [v.numerator * (scale // v.denominator) for v in values]


class DimensionMismatchError(ValueError):
    """Profile, incomes, and candidate do not share the same m and n."""


class EmptyRegionSamplerError(RuntimeError):
    """No point of the income region found within the retry budget."""


@dataclass(frozen=True)
class Allocation:
    """A partition of all m items into one bundle per agent."""

    m: int
    bundles: tuple[Bundle, ...]

    def __post_init__(self):
        union = 0
        for agent, b in enumerate(self.bundles):
            if b < 0:
                raise ValueError(f"bundle mask {b} of agent {agent} is negative")
            if union & b:
                raise ValueError("allocation bundles overlap")
            union |= b
        if union != (1 << self.m) - 1:
            if union >> self.m > 0:
                raise ValueError(
                    f"allocation holds item {union.bit_length() - 1}, "
                    f"beyond the market's {self.m} items"
                )
            raise ValueError("allocation does not cover all items")

    @property
    def n(self) -> int:
        return len(self.bundles)

    def __getitem__(self, agent: int) -> Bundle:
        return self.bundles[agent]

    def owner_of(self, item: int) -> int:
        """The agent holding ``item``; the bundles cover every item of
        ``0..m-1``, and any other item raises ``ValueError``."""
        if not 0 <= item < self.m:
            raise ValueError(f"item {item} is outside 0..{self.m - 1}")
        return next(agent for agent, b in enumerate(self.bundles) if b >> item & 1)


@dataclass(frozen=True)
class _PositiveRationals:
    """Strictly positive exact rationals, kept as ``integers``:
    ``(scale, numerators)``, the values over their least denominator.

    :meth:`scaled` builds them from integers, as the samplers, the SPE
    engine and the oracle find them; :meth:`of` reads values written by
    hand or parsed, through :meth:`scaled`.  The ``Fraction``s are built
    when they are read, by ``[k]`` or iteration, and not kept.  Equality
    and hashing read ``integers``, which is reduced and so one form per
    vector.  Each subclass names its values for messages: ``_noun`` and
    ``_entry``, as in "price of item 2".
    """

    integers: tuple[int, tuple[int, ...]]

    @classmethod
    def of(cls, values: Iterable[Fraction | int | str]):
        exact = [v if type(v) is Fraction else Fraction(v) for v in values]
        scale = common_scale(exact)
        return cls.scaled(scaled_integers(exact, scale), scale)

    @classmethod
    def scaled(cls, numerators: Sequence[int], scale: int):
        """The values ``numerators[k]/scale``, positive ``scale``, kept as
        the numerators and ``scale`` cut by their common divisor.  Raises
        ``ValueError`` naming the first value that is not positive."""
        if scale < 1:
            raise ValueError(f"{cls._noun} scale must be positive, got {scale}")
        for k, v in enumerate(numerators):
            if v <= 0:
                raise ValueError(
                    f"{cls._noun} of {cls._entry} {k} must be positive, "
                    f"got {Fraction(v, scale)}"
                )
        common = gcd(scale, *numerators)
        return cls((scale // common, tuple(v // common for v in numerators)))

    def __getitem__(self, k: int) -> Fraction:
        scale, numerators = self.integers
        return Fraction(numerators[k], scale)

    def __len__(self) -> int:
        return len(self.integers[1])

    def __iter__(self):
        scale, numerators = self.integers
        return (Fraction(v, scale) for v in numerators)


class IncomeVector(_PositiveRationals):
    """Positive incomes, one exact rational per agent, at least one agent."""

    _noun, _entry = "income", "agent"

    @classmethod
    def scaled(cls, numerators: Sequence[int], scale: int):
        if not numerators:
            raise ValueError("income vector must not be empty")
        return super().scaled(numerators, scale)


class PriceVector(_PositiveRationals):
    """One strictly positive exact price per item; a market of no items
    has the empty price vector."""

    _noun, _entry = "price", "item"


@dataclass(frozen=True)
class CEPair:
    """A candidate equilibrium: prices plus an allocation."""

    prices: PriceVector
    allocation: Allocation


class ViolationKind(enum.Enum):
    BUDGET_MISMATCH = "budget-mismatch"
    AFFORDABLE_BETTER_BUNDLE = "affordable-better-bundle"


@dataclass(frozen=True)
class CEViolation:
    agent: int
    kind: ViolationKind
    bundle: Bundle
    price: Fraction
    threshold: Fraction

    def describe(self, names: Sequence[str] | None = None) -> str:
        """The violation as text; items read by index (``i2+i4``) unless named."""
        if names is None:
            names = [f"i{j}" for j in range(self.bundle.bit_length())]
        what = format_bundle(self.bundle, names)
        if self.kind is ViolationKind.BUDGET_MISMATCH:
            return (
                f"agent {self.agent} pays {self.price} for {what} "
                f"but has income {self.threshold}"
            )
        return (
            f"agent {self.agent} prefers {what} at price {self.price}, "
            f"affordable at threshold {self.threshold}"
        )


@dataclass(frozen=True)
class CEReport:
    valid: bool
    violations: tuple[CEViolation, ...]


def with_incomes(
    scale: int, numerators: Sequence[int], incomes: IncomeVector
) -> tuple[int, list[int], list[int]]:
    """``(common, numerators, income)``: integers over ``scale`` and the
    incomes' integer form, both brought over ``common``, the ``lcm`` of
    the two scales."""
    income_scale, income = incomes.integers
    common = lcm(scale, income_scale)
    up, across = common // scale, common // income_scale
    return common, [v * up for v in numerators], [t * across for t in income]


def scaled_market(
    prices: PriceVector, incomes: IncomeVector
) -> tuple[int, list[int], list[int]]:
    """``(scale, price, income)``: each of the ``2^m`` bundle prices and
    each agent's income as integers over their least common denominator,
    from the two vectors' integer forms by :func:`with_incomes`.  Bundle
    ``b`` costs ``b`` without its lowest item plus that item."""
    scale, unit, income = with_incomes(*prices.integers, incomes)
    price = [0] * (1 << len(unit))
    for b in range(1, len(price)):
        low = b & -b
        price[b] = price[b ^ low] + unit[low.bit_length() - 1]
    return scale, price, income


def check_dimensions(
    profile: Sequence[PreferenceOrder], incomes: IncomeVector, cand: CEPair
) -> None:
    """Raise ``DimensionMismatchError`` unless the profile, the incomes and
    the candidate have the same agents and the same items."""
    n = len(profile)
    if len(incomes) != n or cand.allocation.n != n:
        raise DimensionMismatchError(
            f"profile has {n} agents, incomes {len(incomes)}, "
            f"allocation {cand.allocation.n}"
        )
    m = profile[0].m
    if any(pref.m != m for pref in profile) or cand.allocation.m != m or len(cand.prices) != m:
        raise DimensionMismatchError("item universes differ across inputs")


def verify_ce(
    profile: Sequence[PreferenceOrder],
    incomes: IncomeVector,
    cand: CEPair,
    strict_literal: bool = False,
) -> CEReport:
    """Check both equilibrium conditions exactly; report all violations.

    With ``strict_literal`` the affordability threshold of an agent is
    the price of their own bundle instead of their income; the two modes
    agree whenever every agent's bundle is non-empty and condition 1
    holds.
    """
    check_dimensions(profile, incomes, cand)
    scale, price, income = scaled_market(cand.prices, incomes)

    violations: list[CEViolation] = []
    for i, pref in enumerate(profile):
        own = cand.allocation[i]
        own_price = price[own]
        if own != 0 and own_price != income[i]:
            violations.append(
                CEViolation(
                    i,
                    ViolationKind.BUDGET_MISMATCH,
                    own,
                    Fraction(own_price, scale),
                    incomes[i],
                )
            )
        threshold = own_price if strict_literal else income[i]
        rank = pref.rank
        own_rank = rank[own]
        better = [
            y
            for y, (r, y_price) in enumerate(zip(rank, price))
            if r > own_rank and y_price <= threshold
        ]
        if better:
            exact_threshold = Fraction(threshold, scale)
            violations.extend(
                CEViolation(
                    i,
                    ViolationKind.AFFORDABLE_BETTER_BUNDLE,
                    y,
                    Fraction(price[y], scale),
                    exact_threshold,
                )
                for y in better
            )
    return CEReport(valid=not violations, violations=tuple(violations))


# Region samples are multiples of 1/_REGION_GRID; without a reference
# point each coordinate lies in (0, _REGION_BOX].
_REGION_GRID = 1000
_REGION_BOX = 20


def _satisfies(rows: Sequence[Sequence[int]], t: Sequence[int]) -> bool:
    """True iff every integer row is positive at the integer point ``t``."""
    return all(sum(map(mul, row, t)) > 0 for row in rows)


def _is_empty(n: int, rows: Sequence[Sequence[int]]) -> bool:
    """True iff no positive incomes make every integer row positive.

    The region is a cone, so it has a point iff the rows ``s <= 1`` (the
    cap), ``s <= t_i`` for each agent and ``s <= row·t`` admit ``s > 0``;
    the cap and the agents' rows come first, the starting basis of
    ``lp``'s simplex.  An empty region's certificate is checked before it
    counts."""
    a = [[0] * n] + [[int(i == j) for j in range(n)] for i in range(n)] + list(rows)
    c = [1] + [0] * (n + len(rows))
    y, reduced, d = _dual_simplex(a, c)
    if reduced[-1] < 0:  # the largest slack is positive
        return False
    _check_farkas(a, c, y, d)
    return True


@dataclass(frozen=True)
class IncomeRegion:
    """An open region of income space cut out by strict linear constraints.

    Each constraint row is a coefficient vector ``c`` over the agents,
    asserting ``sum(c_i * t_i) > 0``, kept as integers: the coefficients
    times their least common denominator, a positive scaling, so the row
    keeps its sign at every point.  Positivity of every income is
    implicit, so every row needs a positive coefficient, and ``of``
    rejects rows that no positive incomes satisfy together, decided
    exactly by ``lp``'s simplex before any point is drawn.
    """

    n: int
    constraints: tuple[tuple[int, ...], ...]
    reference: IncomeVector | None = None

    @staticmethod
    def of(
        n: int,
        rows: Iterable[Sequence[Fraction | int | str]],
        reference: IncomeVector | None = None,
    ) -> "IncomeRegion":
        if n < 1:
            raise ValueError(f"an income region needs at least one agent, got {n}")
        constraints = []
        for row in rows:
            coeffs = [Fraction(v) for v in row]
            if len(coeffs) != n:
                raise ValueError(f"constraint row has {len(coeffs)} coefficients, expected {n}")
            if all(c <= 0 for c in coeffs):
                raise ValueError(
                    f"constraint row {len(constraints)} "
                    f"({', '.join(str(c) for c in coeffs)}) has no positive "
                    "coefficient, so no positive income satisfies it"
                )
            constraints.append(tuple(scaled_integers(coeffs, common_scale(coeffs))))
        if _is_empty(n, constraints):
            raise ValueError(
                "income region is empty: no positive incomes satisfy every constraint row"
            )
        region = IncomeRegion(n=n, constraints=tuple(constraints), reference=reference)
        if reference is not None and not region.contains(reference):
            raise ValueError("reference income point violates the region constraints")
        return region

    def contains(self, incomes: IncomeVector) -> bool:
        """True iff every constraint row is positive at ``incomes``.

        The integer rows are tested at the incomes' integer form
        (``IncomeVector.integers``), the same test ``sample`` applies to
        its integer draws.
        """
        if len(incomes) != self.n:
            raise DimensionMismatchError(
                f"income vector has {len(incomes)} agents, region expects {self.n}"
            )
        return _satisfies(self.constraints, incomes.integers[1])

    def sample(self, seed: int, count: int) -> list[IncomeVector]:
        """Rejection-sample ``count`` rational points of the region.

        Coordinates lie on a rational grid inside a box: between half and
        double each coordinate of the reference point when the region has
        one.  Deterministic per seed.  A reference coordinate below half
        a grid step leaves no grid point in its box and raises
        ``ValueError``.
        """
        if self.reference is not None:
            for i, t in enumerate(self.reference):
                if t * _REGION_GRID * 2 < 1:
                    raise ValueError(
                        f"reference income {t} of agent {i} is below "
                        f"1/{2 * _REGION_GRID}: no positive multiple of the "
                        f"1/{_REGION_GRID} grid lies at or below double it"
                    )
            lows = [max(1, int(t * _REGION_GRID // 2)) for t in self.reference]
            highs = [int(t * _REGION_GRID * 2) for t in self.reference]
        else:
            lows = [1] * self.n
            highs = [_REGION_BOX * _REGION_GRID] * self.n
        rows = self.constraints
        return _sample_incomes(
            f"region:{seed}", lows, highs, _REGION_GRID,
            descending=False, accept=lambda t: _satisfies(rows, t),
            count=count, budget=max(200_000, 5000 * count), what="region points",
        )


def _sample_incomes(
    key: str,
    lows: Sequence[int],
    highs: Sequence[int],
    denominator: int,
    *,
    descending: bool,
    accept: Callable[[list[int]], bool],
    count: int,
    budget: int,
    what: str,
) -> list[IncomeVector]:
    """The first ``count`` accepted draws of a seeded rejection sampler.

    Each draw gives agent k the income ``(lows[k] + below(highs[k] -
    lows[k] + 1)) / denominator``, with ``below`` from
    :func:`cefai.core.uniform_below` on ``random.Random(key)``: the values
    ``randint(lows[k], highs[k])`` would give on that generator, from the
    same draws, which ``TestPinnedDraws`` pins.  Incomes are sorted
    highest first when ``descending``.  ``accept`` decides a draw on its
    integer numerators (sorted when ``descending``), which
    keeps the sign of every homogeneous form of the incomes; only an
    accepted draw becomes an ``IncomeVector``, by ``IncomeVector.scaled``.
    A ``count`` of 0 draws nothing; a negative one raises ``ValueError``.
    Raises ``EmptyRegionSamplerError`` when ``budget`` draws do not yield
    ``count`` incomes that ``accept`` admits.
    """
    if count < 0:
        raise ValueError(f"cannot sample a negative count of {what}: {count}")
    if count == 0:
        return []
    below = uniform_below(random.Random(key))
    spans = [(lo, hi - lo + 1) for lo, hi in zip(lows, highs)]
    points = []
    for _ in range(budget):
        draw = [lo + below(width) for lo, width in spans]
        if descending:
            draw.sort(reverse=True)
        if accept(draw):
            points.append(IncomeVector.scaled(draw, denominator))
            if len(points) == count:
                return points
    raise EmptyRegionSamplerError(
        f"found only {len(points)}/{count} {what} in {budget} attempts"
    )
