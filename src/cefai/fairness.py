"""Share guarantees that every verified equilibrium allocation satisfies.

The l-out-of-d maximin bundle of a set X is the best bundle an agent can
secure by splitting X into d parts (some possibly empty), letting an
adversary discard d-l of them, and keeping the rest.  Whenever an
agent's income is at least l/d of the combined income of a group K of
agents, the agent's equilibrium bundle is at least as good as the
l-out-of-d maximin bundle of everything K received.  Special cases:
envy-freeness (K one agent, l = d = 1, equal incomes) and the classic
maximin-share guarantee (K everyone, l = 1, d = n, equal incomes).

The premise ``t_agent >= (l/d) * t_K`` is decided in integers: the
incomes are scaled once by their common denominator (see
``cefai.market``), and the premise reads ``d * t_agent >= l * t_K`` in
the scaled incomes, which holds exactly when it holds in the original
``Fraction``s because the scale is positive.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from typing import Sequence

from .core import Bundle, PreferenceOrder, items_of
from .market import Allocation, CEPair, IncomeVector, common_scale, scaled_integers

MAX_MAXIMIN_ITEMS = 6
MAX_MAXIMIN_PARTS = 6

# Partition shapes depend only on the item set and d, not on preferences,
# so they are enumerated once: _union_table[(X, d, l)] lists, per distinct
# partition of X into d parts, the bundles formed by l of its parts.
_union_cache: dict[tuple[Bundle, int, int], tuple[tuple[Bundle, ...], ...]] = {}


def _partitions(x: Bundle, d: int) -> set[tuple[Bundle, ...]]:
    items = items_of(x)
    seen: set[tuple[Bundle, ...]] = set()
    for assignment in product(range(d), repeat=len(items)):
        parts = [0] * d
        for item, part in zip(items, assignment):
            parts[part] |= 1 << item
        seen.add(tuple(sorted(parts)))
    return seen


def _union_table(x: Bundle, l: int, d: int) -> tuple[tuple[Bundle, ...], ...]:
    key = (x, d, l)
    cached = _union_cache.get(key)
    if cached is None:
        table = []
        for parts in _partitions(x, d):
            unions = set()
            for chosen in combinations(range(d), l):
                u = 0
                for k in chosen:
                    u |= parts[k]
                unions.add(u)
            table.append(tuple(unions))
        cached = tuple(table)
        _union_cache[key] = cached
    return cached


def _check_bounds(m: int, l: int, d: int) -> None:
    """The limits of :func:`maximin`, checked where a query enters."""
    if not 1 <= l <= d:
        raise ValueError(f"need 1 <= l <= d, got l={l}, d={d}")
    if d > MAX_MAXIMIN_PARTS:
        raise ValueError(f"at most {MAX_MAXIMIN_PARTS} parts supported")
    if m > MAX_MAXIMIN_ITEMS:
        raise ValueError(f"at most {MAX_MAXIMIN_ITEMS} items supported")


def maximin(pref: PreferenceOrder, x: Bundle, l: int, d: int) -> Bundle:
    """The l-out-of-d maximin bundle of X under the given preferences.

    Brute force: maximize over all partitions of X into d parts (empty
    parts allowed) the worst union of l parts.  The result is a single
    bundle since the order is strict.  Two cases need no search: keeping
    every part (``l == d``) keeps X, and when X has at most ``d - l``
    items every partition has at least l empty parts, so the adversary
    can leave the empty bundle.  The caller keeps ``l``, ``d`` and the
    item count within :func:`_check_bounds`.
    """
    if l == d:
        return x
    if x.bit_count() <= d - l:
        return 0
    rank = pref.rank
    best_rank = -1
    best_bundle = 0
    for unions in _union_table(x, l, d):
        worst = min(unions, key=rank.__getitem__)
        if rank[worst] > best_rank:
            best_rank = rank[worst]
            best_bundle = worst
    return best_bundle


def _share_premise(own: int, group_total: int, l: int, d: int) -> bool:
    """``own >= (l/d) * group_total`` for scaled integer incomes."""
    return d * own >= l * group_total


@dataclass(frozen=True)
class GuaranteeCheck:
    agent: int
    group: tuple[int, ...]
    l: int
    d: int
    applicable: bool
    holds: bool
    guaranteed: Bundle  # the maximin bundle, 0 when not applicable


def check_guarantee(
    profile: Sequence[PreferenceOrder],
    incomes: IncomeVector,
    alloc: Allocation,
    agent: int,
    group: Sequence[int],
    l: int,
    d: int,
) -> GuaranteeCheck:
    """Evaluate one instance of the generalized share guarantee.

    Applicable when ``incomes[agent] >= (l/d) * sum of group incomes``
    (exact comparison); in that case the agent's bundle must be at least
    as good as the l-out-of-d maximin bundle of the group's combined
    holdings.  Raises ``ValueError`` unless ``1 <= l <= d <=
    MAX_MAXIMIN_PARTS`` and the market has at most ``MAX_MAXIMIN_ITEMS``
    items.
    """
    _check_bounds(profile[agent].m, l, d)
    group = tuple(group)
    income = scaled_integers(incomes, common_scale(incomes))
    if not _share_premise(income[agent], sum(income[i] for i in group), l, d):
        return GuaranteeCheck(agent, group, l, d, False, True, 0)
    union = 0
    for i in group:
        union |= alloc[i]
    guaranteed = maximin(profile[agent], union, l, d)
    holds = profile[agent].weakly_prefers(alloc[agent], guaranteed)
    return GuaranteeCheck(agent, group, l, d, True, holds, guaranteed)


@dataclass(frozen=True)
class FairnessReport:
    checked: int
    applicable: int
    violations: tuple[GuaranteeCheck, ...]

    @property
    def clean(self) -> bool:
        return not self.violations


def audit_ce_fairness(
    profile: Sequence[PreferenceOrder],
    incomes: IncomeVector,
    ce: CEPair,
    d_max: int = 4,
) -> FairnessReport:
    """Exhaustively instantiate the guarantee over a verified pair.

    Runs every agent, every non-empty agent group, and every
    1 <= l <= d <= d_max; for a pair that passed verification all
    applicable instances must hold.  Parts beyond d_max add nothing for
    small item counts (extra parts come out empty) while the premise
    only gets harder to meet.  Raises ``ValueError`` unless ``1 <= d_max
    <= MAX_MAXIMIN_PARTS`` and the market has at most
    ``MAX_MAXIMIN_ITEMS`` items.
    """
    _check_bounds(ce.allocation.m, 1, d_max)
    agents = range(len(profile))
    income = scaled_integers(incomes, common_scale(incomes))
    shares = [(l, d) for d in range(1, d_max + 1) for l in range(1, d + 1)]
    groups = []
    for size in agents:
        for group in combinations(agents, size + 1):
            union = 0
            for i in group:
                union |= ce.allocation[i]
            groups.append((group, union, sum(income[i] for i in group)))
    checked = len(agents) * len(groups) * len(shares)
    applicable = 0
    violations = []
    for agent in agents:
        pref = profile[agent]
        rank = pref.rank
        own_rank = rank[ce.allocation[agent]]
        own_income = income[agent]
        cache: dict[tuple[Bundle, int, int], Bundle] = {}
        for group, union, group_income in groups:
            size = union.bit_count()
            for l, d in shares:
                if d * own_income < l * group_income:  # the share premise fails
                    continue
                applicable += 1
                # With l == d the maximin bundle is the union itself; with
                # size <= d - l it is empty, which no bundle ranks below.
                if l == d:
                    guaranteed = union
                elif size <= d - l:
                    continue
                else:
                    key = (union, l, d)
                    guaranteed = cache.get(key)
                    if guaranteed is None:
                        guaranteed = maximin(pref, union, l, d)
                        cache[key] = guaranteed
                if own_rank < rank[guaranteed]:
                    violations.append(
                        GuaranteeCheck(agent, group, l, d, True, False, guaranteed)
                    )
    return FairnessReport(
        checked=checked, applicable=applicable, violations=tuple(violations)
    )
