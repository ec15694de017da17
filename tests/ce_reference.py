"""Reference equilibrium verification, share audit, maximin bundles,
oracle prefilters and domination audit in ``Fraction``s.

An independent cross-check for ``cefai.market.verify_ce``,
``cefai.fairness.audit_ce_fairness``, ``cefai.fairness.maximin``, the
oracle's prefilters and ``cefai.repro.audit_lemmas``, which scale prices
and incomes to integers, skip searches whose answer is fixed and share
partition and price tables: the same checks written one bundle and one
comparison at a time over exact rationals, the way the definitions read.  Slow, but simple enough to
trust, so the tests compare the library against it field by field on
seeded random pairs.  ``check_guarantee`` evaluates one instance of the
guarantee on its own, with :func:`brute_maximin`, so that each violation
the audit reports can be recomputed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from typing import Mapping, Sequence

from cefai.core import Bundle, PreferenceOrder, all_bundles, items_of
from cefai.fairness import FairnessReport, GuaranteeCheck, _check_bounds
from cefai.market import (
    Allocation,
    CEPair,
    CEReport,
    CEViolation,
    IncomeVector,
    PriceVector,
    ViolationKind,
    common_scale,
    scaled_integers,
)


def bundle_price(prices: PriceVector, bundle: Bundle) -> Fraction:
    """The sum of the prices of the bundle's items."""
    return sum((prices[j] for j in items_of(bundle)), Fraction(0))


def is_dominated_by(x: Bundle, y: Bundle, positions: Mapping[int, int]) -> bool:
    """True iff some injection maps each item of ``x`` to a weakly
    earlier-picked item of ``y``.

    ``positions`` maps each item to its (distinct) pick position.  Since
    the constraint graph is an interval order, greedy matching of sorted
    position lists decides the injection exactly.

    >>> pos = {0: 1, 1: 2, 2: 3, 3: 4}
    >>> is_dominated_by(0b1001, 0b0011, pos)   # {1,4} dominated by {1,2}
    True
    >>> is_dominated_by(0b1001, 0b1110, pos)   # {1,4} vs {2,3,4}: unrelated
    False
    """
    if x == y:
        raise ValueError("domination is defined for distinct bundles only")
    xs = sorted(positions[j] for j in items_of(x))
    ys = sorted(positions[j] for j in items_of(y))
    if len(ys) < len(xs):
        return False
    return all(ys[k] <= xs[k] for k in range(len(xs)))


def reference_lemma_violations(records) -> int:
    """``audit_lemmas``'s count, one (agent, bundle) pair at a time: every
    bundle priced as a ``Fraction`` sum, every domination decided by
    :func:`is_dominated_by`."""
    violations = 0
    for rec in records:
        execution = rec.transcript.execution
        positions = {item: pos for pos, item in enumerate(execution.items, 1)}
        for agent, own in enumerate(execution.bundles):
            income = rec.incomes[agent]
            pref = rec.profile[agent]
            turns = [pos for pos, mover in enumerate(execution.pixep.agents, 1) if mover == agent]
            contiguous = bool(turns) and turns[-1] - turns[0] + 1 == len(turns)
            for other in all_bundles(len(execution.items)):
                if other == own:
                    continue
                if is_dominated_by(own, other, positions):
                    violations += int(bundle_price(rec.pair.prices, other) <= income)
                if contiguous and is_dominated_by(other, own, positions):
                    violations += int(pref.prefers(other, own))
    return violations


def reference_verify_ce(
    profile: Sequence[PreferenceOrder],
    incomes: IncomeVector,
    cand: CEPair,
    strict_literal: bool = False,
) -> CEReport:
    """Both equilibrium conditions, every bundle priced by summing ``Fraction``s."""
    m = profile[0].m
    violations: list[CEViolation] = []
    for i, pref in enumerate(profile):
        own = cand.allocation[i]
        own_price = bundle_price(cand.prices, own)
        if own != 0 and own_price != incomes[i]:
            violations.append(
                CEViolation(i, ViolationKind.BUDGET_MISMATCH, own, own_price, incomes[i])
            )
        threshold = own_price if strict_literal else incomes[i]
        own_rank = pref.rank[own]
        for y in all_bundles(m):
            if pref.rank[y] <= own_rank:
                continue
            y_price = bundle_price(cand.prices, y)
            if y_price <= threshold:
                violations.append(
                    CEViolation(
                        i, ViolationKind.AFFORDABLE_BETTER_BUNDLE, y, y_price, threshold
                    )
                )
    return CEReport(valid=not violations, violations=tuple(violations))


def brute_maximin(pref: PreferenceOrder, x: Bundle, l: int, d: int) -> Bundle:
    """The l-out-of-d maximin bundle of X, restating the definition over
    every assignment of X's items to d labelled parts: the best, over
    assignments, of the worst union of l parts."""
    items = items_of(x)
    best = None
    for assignment in product(range(d), repeat=len(items)):
        parts = [0] * d
        for item, part in zip(items, assignment):
            parts[part] |= 1 << item
        worst = None
        for chosen in combinations(range(d), l):
            union = 0
            for k in chosen:
                union |= parts[k]
            if worst is None or pref.prefers(worst, union):
                worst = union
        if best is None or pref.prefers(worst, best):
            best = worst
    return best


def _share_premise(own: int, group_total: int, l: int, d: int) -> bool:
    """``own >= (l/d) * group_total`` for scaled integer incomes."""
    return d * own >= l * group_total


@dataclass(frozen=True)
class ShareCheck:
    """One instance of the guarantee: whether its premise holds, whether
    the agent's bundle is at least as good as ``guaranteed``, and the
    maximin bundle (0 when the premise fails)."""

    applicable: bool
    holds: bool
    guaranteed: Bundle


def check_guarantee(
    profile: Sequence[PreferenceOrder],
    incomes: IncomeVector,
    alloc: Allocation,
    agent: int,
    group: Sequence[int],
    l: int,
    d: int,
) -> ShareCheck:
    """Evaluate one instance of the generalized share guarantee.

    Applicable when ``incomes[agent] >= (l/d) * sum of group incomes``
    (exact comparison); in that case the agent's bundle must be at least
    as good as the l-out-of-d maximin bundle of the group's combined
    holdings.  Raises ``ValueError`` unless ``1 <= l <= d <=
    MAX_MAXIMIN_PARTS`` and the market has at most ``MAX_MAXIMIN_ITEMS``
    items.
    """
    _check_bounds(profile[agent].m, l, d)
    income = scaled_integers(incomes, common_scale(incomes))
    if not _share_premise(income[agent], sum(income[i] for i in group), l, d):
        return ShareCheck(False, True, 0)
    union = 0
    for i in group:
        union |= alloc[i]
    guaranteed = brute_maximin(profile[agent], union, l, d)
    holds = not profile[agent].prefers(guaranteed, alloc[agent])
    return ShareCheck(True, holds, guaranteed)


def reference_audit_ce_fairness(
    profile: Sequence[PreferenceOrder],
    incomes: IncomeVector,
    ce: CEPair,
    d_max: int = 4,
) -> FairnessReport:
    """Every (agent, group, l, d) with the premise ``t_agent >= (l/d) * t_group``
    compared in ``Fraction``s, each maximin bundle by :func:`brute_maximin`
    (kept per agent, since several groups can hold the same union)."""
    n = len(profile)
    agents = range(n)
    applicable = 0
    violations = []
    for agent in agents:
        pref = profile[agent]
        own = ce.allocation[agent]
        shares: dict[tuple[Bundle, int, int], Bundle] = {}
        for size in range(1, n + 1):
            for group in combinations(agents, size):
                union: Bundle = 0
                for i in group:
                    union |= ce.allocation[i]
                group_income = sum((incomes[i] for i in group), Fraction(0))
                for d in range(1, d_max + 1):
                    for l in range(1, d + 1):
                        if incomes[agent] < Fraction(l, d) * group_income:
                            continue
                        applicable += 1
                        key = (union, l, d)
                        if key not in shares:
                            shares[key] = brute_maximin(pref, union, l, d)
                        guaranteed = shares[key]
                        if pref.prefers(guaranteed, own):
                            violations.append(
                                GuaranteeCheck(agent, group, l, d, guaranteed)
                            )
    return FairnessReport(applicable=applicable, violations=tuple(violations))


def reference_pareto_improvable(
    profile: Sequence[PreferenceOrder],
    incomes: IncomeVector,
    masks: Sequence[Bundle],
) -> bool:
    """Prefilter (3) as it read before unions of whole bundles: two agents
    i and j could share ``U = X_i ∪ X_j`` out anew so that i gets a subset
    y of U it prefers to ``X_i`` and either j gets ``U - y`` and prefers it
    to ``X_j``, or j's income is at most i's and i also prefers ``U - y``
    to ``X_i``."""
    for i, pref in enumerate(profile):
        own_rank = pref.rank[masks[i]]
        for j, other in enumerate(profile):
            if j == i:
                continue
            union = masks[i] | masks[j]
            for y in all_bundles(profile[0].m):
                if y & ~union or pref.rank[y] <= own_rank:
                    continue
                rest = union & ~y
                if other.rank[rest] > other.rank[masks[j]]:
                    return True
                if incomes[j] <= incomes[i] and pref.rank[rest] > own_rank:
                    return True
    return False


#: The shapes prefilters (1)-(3) took before unions of whole bundles.
PARENT_SHAPES = {"floor", "one bundle", "re-split", "split"}


def _shapes(profile, incomes, masks):
    """The oracle's prefilter shapes as (rule, shape, fails), ``fails()``
    deciding whether the allocation fails the shape.  The shapes of
    ``PARENT_SHAPES`` come first, so that a later one is the first to
    fail only where unions of whole bundles alone reject.

    (1) every item must cost more than any empty-handed agent's income,
    so a k-item bundle's owner needs an income above k times that;
    (2) an agent i never affords the union of the bundles of an owner set
    K without i whose incomes sum to at most i's, since the budgets price
    that union at the sum, so preferring it to ``X_i`` is fatal; and
    (3) no agents i and j (the same agent, or one that holds nothing,
    allowed) can each gain a part of a split of such a union, ``y`` for i
    and ``U - y`` for j, when K's incomes sum to at most ``t_i + t_j``.
    Each is read from the profile, the incomes and the masks, over every
    owner set K and every subset y, one comparison at a time.
    """
    m, agents = profile[0].m, range(len(masks))
    owner_sets = [K for size in agents for K in combinations(agents, size + 1)]

    def floor_fails():
        empty_income = [incomes[i] for i in agents if masks[i] == 0]
        return bool(empty_income) and any(
            own and incomes[j] <= own.bit_count() * max(empty_income)
            for j, own in enumerate(masks)
        )

    def union(K):
        return sum(masks[k] for k in K)  # the bundles are disjoint

    def cost(K):
        return sum((incomes[k] for k in K), Fraction(0))

    def gains(i, y):
        return profile[i].rank[y] > profile[i].rank[masks[i]]

    def affords_better(K):
        return any(i not in K and cost(K) <= incomes[i] and gains(i, union(K)) for i in agents)

    def trades(i, j, K):
        u = union(K)
        return cost(K) <= incomes[i] + incomes[j] and any(
            gains(i, y) and gains(j, u & ~y) for y in all_bundles(m) if not y & ~u
        )

    pairs = [(i, j) for i in agents for j in agents]
    return [
        (1, "floor", floor_fails),
        (2, "one bundle", lambda: any(affords_better((k,)) for k in agents)),
        (3, "re-split", lambda: any(trades(i, j, (i, j)) for i, j in pairs if i != j)),
        (3, "split", lambda: any(trades(i, i, (i, k)) for i, k in pairs if i != k)),
        *[
            (2, f"union of {size}", lambda size=size: any(
                affords_better(K) for K in owner_sets if len(K) == size
            ))
            for size in (2, 3)
        ],
        (3, "split of another bundle", lambda: any(
            trades(i, i, (k,)) for i, k in pairs if i != k
        )),
        (3, "empty-handed", lambda: any(
            trades(i, j, K) for i, j in pairs for K in owner_sets if i != j and masks[j] == 0
        )),
        (3, "other", lambda: any(trades(i, j, K) for i, j in pairs for K in owner_sets)),
    ]


def reference_rejecting_shape(
    profile: Sequence[PreferenceOrder],
    incomes: IncomeVector,
    masks: Sequence[Bundle],
) -> tuple[int, str] | None:
    """The first prefilter shape the allocation fails, as (rule, shape),
    or None; see :func:`_shapes`."""
    return next(
        ((rule, shape) for rule, shape, fails in _shapes(profile, incomes, masks) if fails()),
        None,
    )


def reference_rejecting_rule(
    profile: Sequence[PreferenceOrder],
    incomes: IncomeVector,
    masks: Sequence[Bundle],
) -> int | None:
    """The first of the oracle's prefilters (1)-(3) the allocation fails,
    or None; see :func:`_shapes`."""
    shapes = sorted(_shapes(profile, incomes, masks), key=lambda shape: shape[0])
    return next((rule for rule, _, fails in shapes if fails()), None)
