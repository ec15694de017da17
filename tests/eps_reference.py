"""Reference ε resolution in ``Fraction``s.

An independent cross-check for ``cefai.pixep.check_requirements``,
``_sign_flip_bound`` and ``resolve_epsilon``, which decide R1-R3 and the
sign-flip cap on scaled integers: the same functions written one
``AffinePrice`` and one comparison at a time over exact rationals, the
way the requirements read.  Slow, but simple enough to trust, so the
tests compare the library against it value by value and message by
message on random pixeps.

``pixep_of`` and ``positions`` convert between a :class:`Pixep`'s
integers and ``AffinePrice`` values, so that tests can write and read
prices as the paper does; ``fraction`` reads an integer ratio, as the
library keeps the ends of an ε interval and the sign-flip bound, as a
``Fraction``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from cefai.market import (
    DimensionMismatchError,
    IncomeVector,
    common_scale,
    scaled_integers,
)
from cefai.pixep import (
    AffinePrice,
    EmptyEpsilonIntervalError,
    Pixep,
    R1ViolationError,
)


def affine(c0: Fraction | int | str, c1: Fraction | int | str = 0) -> AffinePrice:
    """The price ``c0 + c1·ε`` with ``Fraction`` coefficients."""
    return AffinePrice(Fraction(c0), Fraction(c1))


def pixep_of(entries: Iterable[tuple[int, AffinePrice]]) -> Pixep:
    """The pixep with one (agent, price) entry per position; every ε-slope
    must be an integer."""
    entries = tuple(entries)
    constants = [price.c0 for _, price in entries]
    scale = common_scale(constants)
    slopes = [price.c1 for _, price in entries]
    if any(slope.denominator != 1 for slope in slopes):
        raise ValueError(f"ε-slopes must be integers, got {slopes}")
    return Pixep(
        tuple(agent for agent, _ in entries),
        tuple(scaled_integers(constants, scale)),
        tuple(int(slope) for slope in slopes),
        scale,
    )


def positions(pix: Pixep) -> tuple[tuple[int, AffinePrice], ...]:
    """(agent, price) per position, in ``Fraction`` values."""
    return tuple(
        (agent, affine(Fraction(c0, pix.scale), c1))
        for agent, c0, c1 in zip(pix.agents, pix.constants, pix.slopes)
    )


def fraction(ratio: tuple[int, int] | None) -> Fraction | None:
    """The integer ratio ``(num, den)``, ``den > 0``, as a ``Fraction``;
    None stays None."""
    if ratio is None:
        return None
    num, den = ratio
    assert type(num) is int and type(den) is int and den > 0, ratio
    return Fraction(num, den)


def plus(p: AffinePrice, q: AffinePrice) -> AffinePrice:
    return AffinePrice(p.c0 + q.c0, p.c1 + q.c1)


def minus(p: AffinePrice, q: AffinePrice) -> AffinePrice:
    return AffinePrice(p.c0 - q.c0, p.c1 - q.c1)


def reference_check_requirements(
    pix: Pixep, incomes: IncomeVector
) -> tuple[Fraction, Fraction | None]:
    """Verify R1 exactly and intersect all R2/R3 constraints on ε: the
    open interval ``(lo, hi)`` of feasible ε, ``hi`` None when unbounded.

    Also requires the last (cheapest) price to stay positive, so every
    resolved price vector is valid.  Raises ``R1ViolationError`` or
    ``EmptyEpsilonIntervalError`` (naming the binding constraints) when
    the pixep cannot implement the incomes.
    """
    n = len(incomes)
    prices = positions(pix)
    for agent, _ in prices:
        if not 0 <= agent < n:
            raise DimensionMismatchError(f"pixep references agent {agent}, have {n}")

    sums: dict[int, AffinePrice] = {}
    for agent, price in prices:
        sums[agent] = plus(sums.get(agent, affine(0)), price)
    for agent, total in sums.items():
        if total.c0 != incomes[agent] or total.c1 != 0:
            raise R1ViolationError(
                agent, f": prices sum to {total}, income is {incomes[agent]}"
            )

    # Each constraint is alpha + beta*eps > 0 (strict) or >= 0.
    constraints: list[tuple[Fraction, Fraction, bool, str]] = []
    for k in range(pix.m - 1):
        agent_k, price_k = prices[k]
        agent_next, price_next = prices[k + 1]
        diff = minus(price_k, price_next)
        strict = agent_k != agent_next
        kind = "switch" if strict else "run"
        constraints.append(
            (diff.c0, diff.c1, strict,
             f"R2 {kind} at positions {k + 1}->{k + 2}: {price_k} vs {price_next}")
        )
    last_agent, last_price = prices[-1]
    present = set(pix.agents)
    for j in range(n):
        if j not in present:
            constraints.append(
                (last_price.c0 - incomes[j], last_price.c1, True,
                 f"R3: last price {last_price} vs income {incomes[j]} of absent agent {j}")
            )
    constraints.append(
        (last_price.c0, last_price.c1, True, f"positivity of last price {last_price}")
    )

    lo, lo_desc = Fraction(0), "ε > 0"
    hi: Fraction | None = None
    hi_desc = ""
    for alpha, beta, strict, desc in constraints:
        if beta == 0:
            if alpha < 0 or (strict and alpha == 0):
                raise EmptyEpsilonIntervalError(f"unsatisfiable: {desc}")
        elif beta > 0:
            bound = -alpha / beta
            if bound > lo:
                lo, lo_desc = bound, desc
        else:
            bound = alpha / (-beta)
            if hi is None or bound < hi:
                hi, hi_desc = bound, desc
    if hi is not None and lo >= hi:
        raise EmptyEpsilonIntervalError(
            f"empty ε interval: ({lo_desc}) against ({hi_desc})"
        )
    return lo, hi


def reference_sign_flip_bound(pix: Pixep, incomes: IncomeVector) -> Fraction | None:
    """Smallest ε > 0 at which any bundle-price-vs-income comparison
    changes sign.

    Every bundle priced by an execution costs the sum of some subset of
    position prices, so these are all the affine expressions the
    equilibrium verification can ever compare against an income.  Below
    the bound, each comparison keeps the sign it has in the small-ε
    limit.
    """
    subset_sums = [affine(0)]
    for _, price in positions(pix):
        subset_sums += [plus(total, price) for total in subset_sums]
    bound: Fraction | None = None
    for total in subset_sums:
        for t in incomes:
            alpha = total.c0 - t
            beta = total.c1
            if alpha == 0 or beta == 0 or (alpha > 0) == (beta > 0):
                continue
            flip = -alpha / beta
            if bound is None or flip < bound:
                bound = flip
    return bound


def midpoint(lo: Fraction, hi: Fraction | None) -> Fraction:
    """``(lo + hi)/2``, or ``lo + 1`` when the interval is unbounded."""
    return lo + 1 if hi is None else (lo + hi) / 2


def reference_resolve_epsilon(pix: Pixep, incomes: IncomeVector) -> Fraction:
    """Concrete ε: the midpoint of the feasible interval, capped so that
    no bundle-price-vs-income comparison crosses its small-ε sign.

    The cap is what makes "holds for every sufficiently small ε > 0"
    checkable at a single concrete value; without it a midpoint deep in
    the interval can make an otherwise-unaffordable bundle affordable.
    """
    lo, hi = reference_check_requirements(pix, incomes)
    eps = midpoint(lo, hi)
    flip = reference_sign_flip_bound(pix, incomes)
    if flip is not None:
        eps = min(eps, flip / 2)
    if eps <= lo:  # only reachable with a positive lower bound
        eps = midpoint(lo, hi)
    return eps
