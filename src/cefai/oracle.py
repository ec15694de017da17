"""Ground-truth existence oracle: exhaustive allocations, exact feasibility.

For every one of the ``n^m`` allocations the oracle asks whether some
strictly positive price vector satisfies both equilibrium conditions.
Strict inequalities are turned into weak ones with a shared slack
variable ``s`` (capped at 1): the open system has a solution iff the
closed system admits ``s > 0``.

Everything is decided on the incomes as integers over their common
denominator, the form that ``market`` computes once per income vector
(``IncomeVector.integers``) and ``_MarketRows`` reads.  That is exact:
every condition is a homogeneous linear (in)equality in prices and
incomes together, so ``(X, p)`` is an equilibrium at incomes ``t`` iff
``(X, λp)`` is one at ``λt`` for any ``λ > 0``.  Prices found for the
scaled incomes are divided back: they are integers over the incomes'
scale times the simplex's determinant, and ``PriceVector.scaled`` keeps
that form for the witness's ``verify_ce``.

Budget equalities and strictly positive prices lose no generality.
Preferences are strictly monotone (a proper superset is strictly
better), and every item is allocated.  Suppose ``(X, p)`` only keeps
budgets, ``p(X_i) <= t_i``, with prices of any sign, and no agent
affords a bundle it prefers to its own.  With ``n >= 2``:

* every price is positive: if item ``g`` of agent ``h`` had
  ``p_g <= 0``, another agent ``i`` would afford
  ``X_i ∪ {g}`` at ``p(X_i) + p_g <= t_i``, a bundle it prefers;
* every non-empty bundle can be priced at its owner's income: raise
  the price of one item of ``X_i`` by the slack ``t_i - p(X_i)``.  No
  other budget changes, since bundles are disjoint, and every bundle
  gets weakly dearer, so no agent can afford a bundle it could not
  afford before.

So the oracle's system, with budget equalities and ``p > 0``, has a
solution iff the looser one does.  With ``n = 1`` the agent holds every
item, has no better bundle, and any positive prices summing to its
income will do.

The budget equalities are substituted away: the lowest item of each
non-empty bundle costs its owner's income minus the bundle's other
prices, which leaves ``k <= m - 1`` free prices ``z``.  Every remaining
condition then reads ``s <= a·z + c`` with ``a`` an integer vector, and
of the rows with equal ``a`` only the smallest ``c`` matters.  The
largest ``s`` is found through the dual LP

    minimise sum(y_r c_r)  subject to  sum(y_r) = 1,  sum(y_r a_r) = 0,  y >= 0

by the integer simplex of ``cefai.lp``: the ``c`` are in scaled
incomes, pivots are fraction-free (Edmonds-Bareiss, exact division) and
follow Bland's rule, so the simplex cannot cycle.  A positive optimum
gives prices through the multipliers of the tight rows.  Otherwise the
dual solution is a Farkas certificate: every solution has
``s = sum(y_r s) <= sum(y_r (a_r·z + c_r)) = sum(y_r c_r) <= 0``.

The rows are built target bundle by target bundle: first each
non-empty bundle's lowest item, in agent order (the positivity rows),
then each agent's better bundles, read straight off a preference bitset
(``_MarketRows``) and walked lowest bit first, agent by agent.  The
simplex's columns are the distinct rows in the order they first appear.
That order is fixed, not a free choice: Bland's rule reads the columns
in insertion order, so another order can take another pivot path, and
with it another certificate and other witness prices.  Each row's ``a``
comes from a table per set of free items (``_row_vectors``, 4^m vectors
in all), keyed by the item structure alone as ``_subsets`` is: a
key's vector depends on neither the preferences nor the incomes.

An infeasible system can close on two rows alone, while the rows are
still being built: rows ``r`` and ``r'`` with ``a_r = -a_r'`` and
``c_r + c_r' <= 0``, or one row with ``a = 0`` and ``c <= 0`` (the same
row taken twice).  Then ``y = e_r + e_r'`` over ``d = 2`` is a Farkas
certificate, since every solution has
``s <= ½(a_r·z + c_r) + ½(-a_r·z + c_r') = ½(c_r + c_r') <= 0``.  The
rows not yet built are not needed: each row is implied by the
equilibrium conditions on its own, so the two rows hold in every system
that contains them, and no further row can make room for ``s > 0``.
Every certificate, from a pair or the simplex, goes through the same
integer check before an allocation counts as infeasible, just as
``ce_exists`` re-checks each witness with ``verify_ce``; nothing is
rounded, so boundary cases can never be fabricated or lost.

Three cheap necessary conditions prune allocations before any row is
built (``_passes_prefilters``).  Each has a certificate of one or two
rows of its own, so pruning never changes the answer, the first witness
or its prices.  (1) needs each item to cost more than an empty-handed
agent's income, and is skipped when no bundle is empty.  (2) and (3)
read the union U of the bundles of an owner set K, which the budgets
price at ``p(U) <= Σ_K t_k`` (an empty bundle costs nothing).  (2): an
agent i outside K that prefers U to ``X_i`` has the row
``s <= p(U) - t_i``, an ``a = 0`` row with ``c <= 0`` if
``Σ_K t_k <= t_i``.  (3): agents i and j (i = j allowed, and j may hold
nothing) cannot each gain a part of a split of U if
``Σ_K t_k <= t_i + t_j``: the row ``s <= p(y) - t_i`` of a part y that
i prefers to ``X_i`` and the row ``s <= p(U - y) - t_j`` of the rest,
which j prefers to ``X_j``, sum to ``2s <= Σ_K t_k - t_i - t_j <= 0``.
Each is a row of the system, or is implied by the floor rows when the
part holds the agent's own bundle: the part then costs that bundle's
price plus at least one item, and every item costs at least ``s`` plus
the floor, which no empty-handed agent's income exceeds.  Pareto
efficiency is the case ``K = {i, j}``: a re-split, or a split that i
takes both halves of when ``t_j <= t_i``.  K need only range over the
owners of non-empty bundles: an empty bundle adds its owner's income to
the sum and nothing to U.  So an allocation has at most ``2^m`` unions,
whatever the number of agents.  Each agent's preferences are one bitset
per rank over the ``2^m`` bundles, and one over their complements, so a
trade is tested with a few integer operations.
"""

from __future__ import annotations

from functools import cache
from typing import Sequence

from .core import Bundle, PreferenceOrder, items_of
from .lp import _PAIR_CERTIFICATES, _check_farkas, _dual_simplex
from .market import (
    Allocation,
    CEPair,
    DimensionMismatchError,
    IncomeVector,
    PriceVector,
    verify_ce,
)

MAX_ORACLE_ITEMS = 6


class InstanceTooLargeError(ValueError):
    def __init__(self, m: int):
        super().__init__(
            f"exhaustive existence check supports at most {MAX_ORACLE_ITEMS} items, got {m}"
        )


class _MarketRows:
    """What every allocation of one market shares: the incomes' integer
    form (``income`` over ``scale``); for each agent, the other agents
    whose income is at most its own (prefilter (2)); twice the largest
    income, ``top``, which no union tested by (2) or (3) costs more than;
    and for each agent and rank ``r`` two bitsets over the ``2^m``
    bundles: ``above[r]`` with bit ``y`` for each bundle y the agent
    ranks above r, and ``rests[r]`` with bit ``full ^ y`` for each.
    Agents with different item universes are refused.

    ``sub`` depends on m alone.  An agent's better bundles that do not
    contain its own bundle X (one that does costs more than the income
    anyway) are the bitset ``above[rank[X]] & ~(sub[full ^ X] << X)``:
    the supersets of X are X joined with the subsets of its complement,
    and joining a disjoint X is adding X, a shift of the bitset by X bit
    positions.  ``_slack_rows`` walks that bitset, lowest bit first.
    """

    def __init__(self, profile: Sequence[PreferenceOrder], incomes: IncomeVector):
        self.profile = profile
        self.m = profile[0].m
        if any(pref.m != self.m for pref in profile):
            raise DimensionMismatchError("item universes differ across inputs")
        self.scale, self.income = incomes.integers
        self.poorer = [
            [j for j, t in enumerate(self.income) if j != i and t <= own]
            for i, own in enumerate(self.income)
        ]
        self.top = 2 * max(self.income)
        self.sub = _subsets(self.m)
        self.above, self.rests = zip(*[_above(pref) for pref in profile])


def _above(pref: PreferenceOrder) -> tuple[list[int], list[int]]:
    """For each rank r, the bitset of the bundles ``pref`` ranks above r,
    and the bitset of their complements."""
    ranking = pref.ranking()
    full = len(ranking) - 1
    above, rests = [0] * len(ranking), [0] * len(ranking)
    bits = flipped = 0
    for r in range(full, -1, -1):
        above[r], rests[r] = bits, flipped
        bits |= 1 << ranking[r]
        flipped |= 1 << (full ^ ranking[r])
    return above, rests


@cache
def _subsets(m: int) -> tuple[int, ...]:
    """``sub[U]``, the bitset of the subsets of U, for every bundle U.

    The subsets of U that contain its highest item g are those of
    ``U - {g}`` shifted up by ``2^g`` bit positions."""
    sub = [1]
    for g in range(m):
        sub += [bits | bits << (1 << g) for bits in sub]
    return tuple(sub)


@cache
def _row_vectors(free: Bundle, m: int) -> dict[int, list[int]]:
    """Each packed row key over the items of ``free`` (+1 items, then -1
    items shifted by m) and its ``a``, shared: callers must not modify it."""
    vectors = {0: []}
    for j in items_of(free):
        signs = ((0, 0), (1 << j, 1), (1 << (m + j), -1))
        vectors = {key | bit: [*a, v] for key, a in vectors.items() for bit, v in signs}
    return vectors


def _slack_rows(rows: _MarketRows, masks: Sequence[Bundle]):
    """The system ``s <= a·z + c`` of one allocation, scaled by
    ``rows.scale``, or the rows of it that close it on their own.

    Returns ``(items, bundles, a, c, pair)``: the free items ascending,
    the non-empty bundles as (lowest item bit, other items, scaled
    income), and rows (each ``a`` shared, read-only).  Each time a row is
    added or its ``c`` lowered, its opposite (``a_r = -a_r'``) is looked
    up.  As soon as the two have ``c_r + c_r' <= 0`` (an ``a = 0`` row
    with ``c <= 0`` is its own opposite), the build stops: ``a`` and ``c``
    hold just those rows and ``pair`` is ``(0, 1)``, or ``(0, 0)`` for one
    row.  Otherwise ``pair`` is None, and ``a`` and ``c`` hold, per
    distinct ``a``, the vector over the free items with its smallest
    ``c``.  Column 0 is then ``a = 0`` (the cap ``s <= 1`` among others)
    and column ``1 + f`` is ``a = e_f`` (the floor row of the f-th free
    item), which gives the simplex its starting basis.

    No closing pair is missed: a row's ``c`` only ever decreases, so a
    pair that closes the whole system is seen when the later of its two
    rows reaches its final ``c``.  Behind ``_passes_prefilters`` this is
    the fallback for the pairs outside its shapes.
    """
    m = rows.m
    half = (1 << m) - 1
    sub = rows.sub
    floor = lows = free = 0
    bundles = []
    # Each agent's better bundles that do not contain its own, as a bitset
    # over the bundles, and the agent's scaled income.
    better = []
    # Keyed by the lowest-item bits a bundle y contains (y & lows): the
    # other items of those bundles and the sum of their owners' incomes.
    sums = {0: (0, 0)}
    for own, t, pref, above in zip(masks, rows.income, rows.profile, rows.above):
        if own:
            low = own & -own
            rest = own ^ low
            bundles.append((low, rest, t))
            better.append((above[pref.rank[own]] & ~(sub[half ^ own] << own), t))
            lows |= low
            free |= rest
            sums.update(
                [(k | low, (inside | rest, c + t)) for k, (inside, c) in sums.items()]
            )
        elif t > floor:
            floor = t
    items = items_of(free)
    vectors = _row_vectors(free, m)

    # Row key: the items with coefficient +1 in a, then those with -1
    # shifted by m; the cap and the floors go in first, in column order.
    # Negating a swaps the two halves of the key.
    best = {0: rows.scale}
    for j in items:
        best[1 << j] = -floor
    # The targets, as bitsets over the bundles, in the fixed column order
    # (see the module docstring): each bundle's lowest item in agent
    # order, then each agent's better bundles.
    groups = [(1 << low, floor) for low, _, _ in bundles] + better
    for targets, threshold in groups:
        while targets:
            bit = targets & -targets
            targets ^= bit
            y = bit.bit_length() - 1
            inside, c = sums[y & lows]
            c -= threshold
            key = (y & free & ~inside) | ((inside & ~y) << m)
            old = best.get(key)
            if old is None or c < old:
                best[key] = c
                opposite = key >> m | (key & half) << m
                other = best.get(opposite)
                if other is not None and c + other <= 0:
                    keys = (key,) if key == opposite else (key, opposite)
                    a = [vectors[k] for k in keys]
                    return items, bundles, a, [best[k] for k in keys], (0, len(keys) - 1)
    return items, bundles, [vectors[k] for k in best], list(best.values()), None


def feasible_ce_prices(
    profile: Sequence[PreferenceOrder],
    incomes: IncomeVector,
    allocation: Allocation,
    rows: _MarketRows | None = None,
) -> PriceVector | None:
    """A strictly positive price vector making the allocation an
    equilibrium, or None when the system is infeasible.

    ``rows`` holds what the allocations of one market share; ``ce_exists``
    builds it once per market.  An allocation of another item count or
    agent count than the market's raises ``DimensionMismatchError``.
    """
    if rows is None:
        rows = _MarketRows(profile, incomes)
    if allocation.m != rows.m or allocation.n != len(rows.income):
        raise DimensionMismatchError(
            f"allocation of {allocation.m} items to {allocation.n} agents, market has "
            f"{rows.m} items and {len(rows.income)} agents"
        )
    items, bundles, a, c, pair = _slack_rows(rows, allocation.bundles)
    if pair is not None:
        _check_farkas(a, c, _PAIR_CERTIFICATES[pair], 2)
        return None
    y, reduced, d = _dual_simplex(a, c)
    if reduced[-1] >= 0:  # the largest slack is not positive
        _check_farkas(a, c, y, d)
        return None
    # The simplex multipliers are (s, -z), here times d: column 0 has a = 0,
    # column 1 + f has a = e_f, and c_j - reduced_j = s - a_j·z on every
    # column.  Every row holds with the optimal slack s > 0.
    s = c[0] * d - reduced[0]
    z = {j: s - c[1 + f] * d + reduced[1 + f] for f, j in enumerate(items)}
    for low, rest, t in bundles:
        z[low.bit_length() - 1] = t * d - sum(z[j] for j in items_of(rest))
    return PriceVector.scaled([z[j] for j in range(rows.m)], d * rows.scale)


def _passes_prefilters(rows: _MarketRows, masks: Sequence[Bundle]) -> bool:
    """Cheap necessary conditions for equilibrium feasibility, decided on
    the scaled integer incomes and the preference bitsets; the module
    docstring derives the certificate of each.

    (1) every item must cost more than any empty-handed agent's income,
    so a k-item bundle's owner needs an income above k times that.  For
    each union ``U = ∪_K X_k`` of non-empty bundles with income sum
    ``c <= rows.top``: (2) no agent i with ``c <= t_i`` prefers U to its
    own bundle (so i is not in K, as incomes are positive), and (3) no
    agents i and j with ``c <= t_i + t_j`` each prefer a part of a split
    of U.  (2)'s single bundles reject most allocations, so they are
    tested first, through ``rows.poorer``.  The unions are then built
    owner by owner and tested as they are made; a union dearer than
    ``top`` is dropped with every union that would contain it.

    ``gain & sub[U]`` is the bitset of the subsets of U an agent prefers
    to its own bundle; it takes part in (3) only when it prefers one
    besides U, whose rest is empty.  Agent j prefers ``U - y`` iff its
    ``rests`` bitset holds ``full ^ (U - y)``, that is ``(full ^ U) + y``
    for y within U.  So ``rest >> (full ^ U)`` has bit y for every such y.
    """
    income = rows.income
    if 0 in masks:
        floor = max([income[i] for i, own in enumerate(masks) if own == 0])
        for j, own in enumerate(masks):
            if own and income[j] <= own.bit_count() * floor:
                return False
    agents = []
    for i, pref in enumerate(rows.profile):
        rank = pref.rank
        own_rank = rank[masks[i]]
        for j in rows.poorer[i]:
            if rank[masks[j]] > own_rank:
                return False
        agents.append((rows.above[i][own_rank], rows.rests[i][own_rank], income[i]))
    sub, top = rows.sub, rows.top
    full = len(sub) - 1
    unions = [(0, 0)]
    for own, cost in zip(masks, income):
        if not own:
            continue
        for u, c in unions[:]:
            c += cost
            if c > top:
                continue
            u |= own
            unions.append((u, c))
            subsets, outside = sub[u], full ^ u
            parts = []
            for gain, rest, t in agents:
                mine = gain & subsets
                if mine:
                    if c <= t and mine >> u & 1:
                        return False
                    if mine & (mine - 1):
                        parts.append((t, rest >> outside))
                        for other, theirs in parts:
                            if c <= t + other and mine & theirs:
                                return False
    return True


def _allocations(m: int, n: int):
    """Every allocation of m items to n agents as one list of bundles,
    stepped in place, so a caller copies what it keeps: a mixed-radix
    counter over agent indices, item 0 most significant, that carries
    from the last item.  ``owner`` holds each item's agent."""
    owner = [0] * m
    masks = [0] * n
    masks[0] = (1 << m) - 1
    while True:
        yield masks
        item = m - 1
        while item >= 0:
            bit = 1 << item
            agent = owner[item]
            masks[agent] ^= bit
            if agent + 1 < n:
                owner[item] = agent + 1
                masks[agent + 1] |= bit
                break
            owner[item] = 0
            masks[0] |= bit
            item -= 1
        else:
            return


def ce_exists(
    profile: Sequence[PreferenceOrder],
    incomes: IncomeVector,
) -> CEPair | None:
    """First equilibrium witness in allocation-enumeration order, or None.

    Allocations are enumerated as a mixed-radix counter over agent
    indices, item 0 most significant, stepped in place
    (``_allocations``).  An allocation counts as infeasible only through
    a Farkas certificate that passes ``_check_farkas``.  Most
    certificates take two rows of the system and are found before the
    rest is built; that is enough, because each row is implied by the
    equilibrium conditions on its own, so the two rows hold in every
    system that contains them.  The witness is re-verified before being
    returned.
    """
    n = len(profile)
    if len(incomes) != n:
        raise DimensionMismatchError(
            f"profile has {n} agents but incomes has {len(incomes)}"
        )
    m = profile[0].m
    if m > MAX_ORACLE_ITEMS:
        raise InstanceTooLargeError(m)
    rows = _MarketRows(profile, incomes)
    for masks in _allocations(m, n):
        if not _passes_prefilters(rows, masks):
            continue
        allocation = Allocation(m=m, bundles=tuple(masks))
        prices = feasible_ce_prices(profile, incomes, allocation, rows)
        if prices is None:
            continue
        pair = CEPair(prices=prices, allocation=allocation)
        report = verify_ce(profile, incomes, pair)
        if not report.valid:
            raise AssertionError(
                "feasibility witness failed verification; the simplex is buggy: "
                + "; ".join(v.describe() for v in report.violations)
            )
        return pair
    return None
