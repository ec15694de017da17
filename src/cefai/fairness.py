"""Share guarantees that every verified equilibrium allocation satisfies.

The l-out-of-d maximin bundle of a set X is the best bundle an agent can
secure by splitting X into d parts (some possibly empty), letting an
adversary discard d-l of them, and keeping the rest.  Whenever an
agent's income is at least l/d of the combined income of a group K of
agents, the agent's equilibrium bundle is at least as good as the
l-out-of-d maximin bundle of everything K received.  Special cases:
envy-freeness (K one agent, l = d = 1, equal incomes) and the classic
maximin-share guarantee (K everyone, l = 1, d = n, equal incomes).

The premise ``t_agent >= (l/d) * t_K`` is decided in integers: it reads
``d * t_agent >= l * t_K`` in the incomes' integer form, which
``cefai.market`` computes once per income vector, and it holds there
exactly when it holds in the ``Fraction``s, as the scale is positive.
For a fixed d the premise holds for exactly ``l <= d * t_agent // t_K``,
so the audit counts the applicable shares of each d at once.

The audit decides whether an applicable share holds without a maximin
search, exactly.  Write ``r`` for the rank of the agent's own bundle.

- If the agent ranks the group's union at or below ``r``, every share
  of that group holds: each guaranteed bundle is a subset of the union,
  and a strictly monotone order never ranks a subset above its superset.
- Otherwise let ``worse`` be the bitset of the bundles ranked at or below
  ``r``, and give each partition of the union into d parts its union
  mask: the bitset of the bundles formed by l of its parts.  The share
  fails, that is the maximin bundle ranks above ``r``, exactly when some
  partition's mask ``pm`` has ``pm & worse == 0``.  If such a partition
  exists, its worst l-union ranks above ``r`` and the maximin bundle is
  at least as good; if the maximin bundle ranks above ``r``, the
  partition that attains it is such a partition.
- Before the masks, one size test: the l smallest of any d parts of the
  union hold at most ``l * |union| // d`` items and form an l-union, so if
  every subset that small is in ``worse``, the share holds.

So a clean pair costs one size test per query, a mask scan only where
that test leaves the share open, and no search.
The same masks give :func:`maximin`: a mask's lowest-ranked bundle is
its partition's worst l-union, and the best of these is the maximin
bundle.  The audit calls it only for a failing share, to report its
bundle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations, product
from typing import Sequence

from .core import Bundle, PreferenceOrder, items_of
from .market import CEPair, IncomeVector, check_dimensions

MAX_MAXIMIN_ITEMS = 6
MAX_MAXIMIN_PARTS = 6

# Partitions depend only on the item set and d, not on preferences, so
# _partitions, _union_masks and _small_subsets are cached on their
# arguments.
@cache
def _partitions(x: Bundle, d: int) -> tuple[tuple[Bundle, ...], ...]:
    """The distinct partitions of X into d parts, each a sorted tuple."""
    items = items_of(x)
    seen: set[tuple[Bundle, ...]] = set()
    for assignment in product(range(d), repeat=len(items)):
        parts = [0] * d
        for item, part in zip(items, assignment):
            parts[part] |= 1 << item
        seen.add(tuple(sorted(parts)))
    return tuple(seen)


@cache
def _union_masks(x: Bundle, l: int, d: int) -> tuple[int, ...]:
    """The union masks of X for (l, d), one per distinct mask.

    A partition of X into d parts has bit ``u`` of its mask set for each
    bundle ``u`` formed by l of its parts.  Masks with bit 0 are left out:
    the empty bundle ranks lowest, so it is always in ``worse`` and such a
    mask never passes the audit's test ``pm & worse == 0``.
    """
    masks = set()
    for parts in _partitions(x, d):
        pm = 0
        for chosen in combinations(range(d), l):
            u = 0
            for k in chosen:
                u |= parts[k]
            pm |= 1 << u
        masks.add(pm)
    return tuple(pm for pm in masks if not pm & 1)


@cache
def _small_subsets(x: Bundle, k: int) -> int:
    """The bitset of the subsets of X with at most k items."""
    return sum(1 << u for u in range(x + 1) if u | x == x and u.bit_count() <= k)


@cache
def _groups(n: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Every non-empty group of n agents with its agent bitmask, by size
    and then in lexicographic order."""
    return tuple(
        (group, sum(1 << i for i in group))
        for size in range(1, n + 1)
        for group in combinations(range(n), size)
    )


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

    The best, over all partitions of X into d parts (empty parts
    allowed), of the worst union of l parts, read off the union masks:
    each mask's lowest-ranked bundle is its partition's worst union, and
    the masks left out hold the empty bundle, which ranks lowest, so the
    answer is the empty bundle when no mask is left.  The result is a
    single bundle since the order is strict.  Two cases need no masks:
    keeping every part (``l == d``) keeps X, and when X has at most
    ``d - l`` items every partition has at least l empty parts, so the
    adversary can leave the empty bundle.  Raises ``ValueError`` unless
    ``1 <= l <= d``, ``d <= MAX_MAXIMIN_PARTS``, the order has at most
    ``MAX_MAXIMIN_ITEMS`` items and X is a bundle of them, ``0 <= X < 2^m``.

    :func:`audit_ce_fairness` decides each share with the same masks
    (see the module docstring) and calls this function only to report the
    bundle of a failing share.
    """
    _check_bounds(pref.m, l, d)
    if not 0 <= x < 1 << pref.m:
        raise ValueError(f"bundle {x:#b} is not a bundle of the order's {pref.m} items")
    if l == d:
        return x
    if x.bit_count() <= d - l:
        return 0
    rank = pref.rank.__getitem__
    return max(
        (min(items_of(pm), key=rank) for pm in _union_masks(x, l, d)),
        key=rank,
        default=0,
    )


@dataclass(frozen=True)
class GuaranteeCheck:
    """A failed share: the agent prefers ``guaranteed``, the l-out-of-d
    maximin bundle of everything ``group`` received, to its own bundle."""

    agent: int
    group: tuple[int, ...]
    l: int
    d: int
    guaranteed: Bundle


@dataclass(frozen=True)
class FairnessReport:
    applicable: int
    violations: tuple[GuaranteeCheck, ...]


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
    ``MAX_MAXIMIN_ITEMS`` items, and ``DimensionMismatchError`` unless
    the profile, the incomes and the pair have the same agents and items.

    Shares are counted and decided as the module docstring describes.
    """
    check_dimensions(profile, incomes, ce)
    if not 1 <= d_max <= MAX_MAXIMIN_PARTS:
        raise ValueError(f"d_max must be between 1 and {MAX_MAXIMIN_PARTS}, got {d_max}")
    _check_bounds(ce.allocation.m, 1, d_max)
    n = len(profile)
    income = incomes.integers[1]
    bundles = ce.allocation.bundles
    parts = range(1, d_max + 1)
    # Group g, an agent bitmask, adds its lowest agent to g without it.
    unions = [0] * (1 << n)
    totals = [0] * (1 << n)
    for g in range(1, 1 << n):
        low = g & -g
        i = low.bit_length() - 1
        unions[g] = unions[g ^ low] | bundles[i]
        totals[g] = totals[g ^ low] + income[i]
    groups = [
        (group, unions[g], totals[g], unions[g].bit_count()) for group, g in _groups(n)
    ]
    everything = (1 << (1 << ce.allocation.m)) - 1
    applicable = 0
    violations = []
    for agent, pref in enumerate(profile):
        rank = pref.rank
        own_rank = rank[bundles[agent]]
        own_income = income[agent]
        worse = 0
        for bundle, r in enumerate(rank):
            if r <= own_rank:
                worse |= 1 << bundle
        better = everything ^ worse
        for group, union, group_income, size in groups:
            if d_max * own_income < group_income:
                continue  # not even l = 1 of d = d_max parts is applicable
            clean = rank[union] <= own_rank
            for d in parts:
                top = d * own_income // group_income
                if top > d:
                    top = d
                applicable += top
                # With l <= d - size every partition leaves l parts empty,
                # so the maximin bundle is empty and the share holds.
                if clean or top <= d - size:
                    continue
                for l in range(max(1, d - size + 1), top + 1):
                    # Keeping all d parts keeps the union, ranked above r.
                    if l < d and not better & _small_subsets(union, l * size // d):
                        continue
                    if l == d or any(
                        not pm & worse for pm in _union_masks(union, l, d)
                    ):
                        guaranteed = maximin(pref, union, l, d)
                        violations.append(
                            GuaranteeCheck(agent, group, l, d, guaranteed)
                        )
    return FairnessReport(applicable=applicable, violations=tuple(violations))
