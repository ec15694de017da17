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
``Fraction``s because the scale is positive.  For a fixed d the premise
holds for exactly ``l <= d * t_agent // t_K``, so the audit counts the
applicable shares of each d at once.

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

So a clean pair costs at most one mask test per query and no search;
:func:`maximin` runs only for a failing share, to report its bundle.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from typing import Sequence

from .core import Bundle, PreferenceOrder, items_of
from .market import CEPair, IncomeVector, common_scale, scaled_integers

MAX_MAXIMIN_ITEMS = 6
MAX_MAXIMIN_PARTS = 6

# Partitions depend only on the item set and d, not on preferences, so
# they are enumerated once: _partition_cache[(X, d)] holds the distinct
# partitions of X into d parts, and _union_cache[(X, d, l)] what _unions
# returns, the union table that maximin searches and the union masks that
# audit_ce_fairness tests.
_partition_cache: dict[tuple[Bundle, int], tuple[tuple[Bundle, ...], ...]] = {}
_union_cache: dict[
    tuple[Bundle, int, int], tuple[tuple[tuple[Bundle, ...], ...], tuple[int, ...]]
] = {}


def _partitions(x: Bundle, d: int) -> set[tuple[Bundle, ...]]:
    items = items_of(x)
    seen: set[tuple[Bundle, ...]] = set()
    for assignment in product(range(d), repeat=len(items)):
        parts = [0] * d
        for item, part in zip(items, assignment):
            parts[part] |= 1 << item
        seen.add(tuple(sorted(parts)))
    return seen


def _unions(
    x: Bundle, l: int, d: int
) -> tuple[tuple[tuple[Bundle, ...], ...], tuple[int, ...]]:
    """The union table of X for (l, d) and its union masks.

    The table lists, per distinct partition of X into d parts, the bundles
    formed by l of its parts; a partition's union mask has bit ``u`` set
    for each such bundle ``u``.  Masks with bit 0 are left out: the empty
    bundle ranks lowest, so it is always in ``worse`` and such a mask never
    passes the audit's test ``pm & worse == 0``.
    """
    key = (x, d, l)
    cached = _union_cache.get(key)
    if cached is None:
        partitions = _partition_cache.get((x, d))
        if partitions is None:
            partitions = _partition_cache[x, d] = tuple(_partitions(x, d))
        table = []
        for parts in partitions:
            unions = set()
            for chosen in combinations(range(d), l):
                u = 0
                for k in chosen:
                    u |= parts[k]
                unions.add(u)
            table.append(tuple(unions))
        masks = {sum(1 << u for u in unions) for unions in table}
        cached = (tuple(table), tuple(pm for pm in masks if not pm & 1))
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

    Only whether the answer ranks above a given rank ``r`` decides a
    share, and that needs no search: it holds exactly when some
    partition's union mask misses every bundle ranked at or below ``r``
    (see the module docstring).  :func:`audit_ce_fairness` tests that and
    calls this function only to report the bundle of a failing share.
    """
    if l == d:
        return x
    if x.bit_count() <= d - l:
        return 0
    rank = pref.rank
    best_rank = -1
    best_bundle = 0
    for unions in _unions(x, l, d)[0]:
        worst = min(unions, key=rank.__getitem__)
        if rank[worst] > best_rank:
            best_rank = rank[worst]
            best_bundle = worst
    return best_bundle


@dataclass(frozen=True)
class GuaranteeCheck:
    agent: int
    group: tuple[int, ...]
    l: int
    d: int
    applicable: bool
    holds: bool
    guaranteed: Bundle  # the maximin bundle, 0 when not applicable


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

    Shares are counted and decided as the module docstring describes.
    """
    _check_bounds(ce.allocation.m, 1, d_max)
    agents = range(len(profile))
    income = scaled_integers(incomes, common_scale(incomes))
    parts = range(1, d_max + 1)
    groups = []
    for size in agents:
        for group in combinations(agents, size + 1):
            union = 0
            for i in group:
                union |= ce.allocation[i]
            groups.append(
                (group, union, sum(income[i] for i in group), union.bit_count())
            )
    checked = len(agents) * len(groups) * (d_max * (d_max + 1) // 2)
    applicable = 0
    violations = []
    for agent in agents:
        pref = profile[agent]
        rank = pref.rank
        own_rank = rank[ce.allocation[agent]]
        own_income = income[agent]
        worse = 0
        for bundle, r in enumerate(rank):
            if r <= own_rank:
                worse |= 1 << bundle
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
                    if l == d or any(
                        not pm & worse for pm in _unions(union, l, d)[1]
                    ):
                        guaranteed = maximin(pref, union, l, d)
                        violations.append(
                            GuaranteeCheck(agent, group, l, d, True, False, guaranteed)
                        )
    return FairnessReport(
        checked=checked, applicable=applicable, violations=tuple(violations)
    )
