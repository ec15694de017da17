"""Priced picking sequences and their subgame-perfect equilibria.

A *pixep* is a picking sequence in which every position carries a price
that is affine in a symbolic slack ε: whoever picks at a position pays
that position's price for the item taken.  Three requirements make a
pixep usable as an equilibrium device:

  R1  per agent, the position prices sum exactly to the agent's income
      (identically in ε);
  R2  prices decrease along the sequence, strictly whenever the picking
      turn switches between agents;
  R3  the last price strictly exceeds the income of every agent who
      never picks.

``check_requirements`` verifies R1 exactly and reduces R2/R3 to an
interval of feasible ε values; ``resolve_epsilon`` picks a capped
midpoint of that interval, and ``execute_to_ce`` prices each leaf at it.

A :class:`Pixep` holds its prices in one form, as integers: each
position's constant over one common denominator and an integer ε-slope,
the way the solver's games are written (integer forms in the scaled
incomes).  R1-R3, the ε interval they leave, the cap ``resolve_epsilon``
puts on ε and the prices of a played allocation are computed from those
integers, brought over one denominator with the incomes' integer form by
:func:`cefai.market.with_incomes`.  The interval's ends and the cap are
integer ratios ``(num, den)``, compared by cross-multiplying.
``Fraction``s appear only at the boundary: the ε that ``resolve_epsilon``
returns, one per priced leaf; the prices of a priced play, built by
:meth:`~cefai.market.PriceVector.scaled` from integer numerators over
the leaf's scale times ε's denominator, so that ``verify_ce`` reads
their integer form as built; and the texts of errors, which show a
price as an :class:`AffinePrice`.

Games are either a single :class:`Pixep` (a leaf) or a sequential
choice among sub-games (a :class:`ChoiceNode`): the choosing agent may
take an earlier option only when strictly better off than under the
default (the last option).  ``spe_outcomes`` enumerates *all* plays
that arise in some subgame-perfect equilibrium; agents compare final
bundles only, so prices never enter the strategic analysis.  A play is
its items and its final bundles as masks; ``execute_to_ce`` builds an
:class:`~cefai.market.Allocation` only for a play it prices.

On a mover's last turn the enumeration expands one item only.  The
mover's final bundle is then what it holds plus the item taken, whatever
the others do afterwards; preferences are strict, so exactly one free
item gives the best such bundle, and every other pick is dominated in
every continuation.  Only that item's subtree can be reached by an
equilibrium, so the others are never built: the plays, and their order,
are those of the full recursion.

The last two picks of every state are decided in closed form, not
recursed into.  If one agent takes both remaining items, its final
bundle is the same in either order, so both orders tie and both are
plays, the lower item first, as the recursion lists its options.
Otherwise the mover at position m-2 is on its last turn and takes the
item x whose bundle ``held | x`` it ranks higher, and the last mover
takes the other: the one play the last-turn rule leaves.  Either way the
plays, and their order, are again those of the full recursion.  A play
is carried as a bare tuple while choice nodes filter it, and becomes an
:class:`Execution` only when the whole game keeps it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Iterator, Sequence, Union

from .core import PreferenceOrder
from .market import (
    Allocation,
    CEPair,
    DimensionMismatchError,
    IncomeVector,
    PriceVector,
    verify_ce,
    with_incomes,
)


class R1ViolationError(ValueError):
    """An agent's position prices do not sum to the agent's income."""

    def __init__(self, agent: int, detail: str = ""):
        self.agent = agent
        super().__init__(f"price sum of agent {agent} misses their income{detail}")


class EmptyEpsilonIntervalError(ValueError):
    """No ε > 0 satisfies the price requirements."""


class NoValidSpeError(RuntimeError):
    """No subgame-perfect play of the game produced a valid equilibrium."""


@dataclass(frozen=True)
class AffinePrice:
    """A price of the form ``c0 + c1·ε``, as the texts of errors show it."""

    c0: Fraction
    c1: Fraction = Fraction(0)

    def __str__(self) -> str:
        if self.c1 == 0:
            return str(self.c0)
        sign = "+" if self.c1 > 0 else "-"
        mag = abs(self.c1)
        eps = "ε" if mag == 1 else f"{mag}ε"
        return f"{self.c0} {sign} {eps}"


@dataclass(frozen=True)
class Pixep:
    """A picking sequence with a price attached to each position, in
    integers.

    Position k is taken by ``agents[k]`` at the price
    ``constants[k]/scale + slopes[k]·ε``.  The constructor cuts the
    constants and ``scale`` by their common divisor, so ``scale`` is the
    least denominator of the constants and equal prices give equal
    pixeps.  Raises ``ValueError`` when there is no position, the three
    tuples differ in length, an agent is negative or ``scale`` is not
    positive.
    """

    agents: tuple[int, ...]
    constants: tuple[int, ...]
    slopes: tuple[int, ...]
    scale: int = 1

    def __post_init__(self):
        if not self.agents:
            raise ValueError("a pixep needs at least one position")
        if not len(self.agents) == len(self.constants) == len(self.slopes):
            raise ValueError("a pixep needs one agent, constant and slope per position")
        if min(self.agents) < 0:
            raise ValueError(f"pixep agents must be non-negative, got {self.agents}")
        if self.scale < 1:
            raise ValueError(f"pixep scale must be positive, got {self.scale}")
        common = gcd(self.scale, *self.constants)
        if common > 1:
            object.__setattr__(self, "constants", tuple(c // common for c in self.constants))
            object.__setattr__(self, "scale", self.scale // common)

    @property
    def m(self) -> int:
        return len(self.agents)


@dataclass(frozen=True)
class ChoiceNode:
    """The agent may take any option but the last; the last is the default."""

    agent: int
    options: tuple[tuple[str, "GameNode"], ...]

    def __post_init__(self):
        if len(self.options) < 2:
            raise ValueError("a choice node needs at least one option and a default")


GameNode = Union[Pixep, ChoiceNode]


def leaves(game: GameNode) -> Iterator[Pixep]:
    """The game's leaf pixeps, left to right."""
    if isinstance(game, Pixep):
        yield game
    else:
        for _, child in game.options:
            yield from leaves(child)


@dataclass(frozen=True)
class EpsilonInterval:
    """Open interval (lo, hi) of feasible ε values of one pixep, and the
    pixep's integer form that decided it.

    ``lo`` and ``hi`` are integer ratios ``(num, den)`` with ``den > 0``;
    ``hi`` is None when the interval is unbounded.  ``scale``,
    ``constants`` and ``income`` are
    ``with_incomes(pix.scale, pix.constants, incomes)``, which
    :func:`resolve_epsilon` reads again for the sign-flip cap.
    """

    lo: tuple[int, int]
    hi: tuple[int, int] | None
    scale: int
    constants: list[int]
    income: list[int]


def _price(pix: Pixep, k: int) -> AffinePrice:
    """The price of position ``k``, as an error text shows it."""
    return AffinePrice(Fraction(pix.constants[k], pix.scale), Fraction(pix.slopes[k]))


def _describe(pix: Pixep, incomes: IncomeVector, key: tuple[str, int]) -> str:
    """The text of one R2/R3 constraint of :func:`check_requirements`."""
    kind, index = key
    if kind == "R2":
        turn = "switch" if pix.agents[index] != pix.agents[index + 1] else "run"
        prices = f"{_price(pix, index)} vs {_price(pix, index + 1)}"
        return f"R2 {turn} at positions {index + 1}->{index + 2}: {prices}"
    last_price = _price(pix, -1)
    if kind == "R3":
        return f"R3: last price {last_price} vs income {incomes[index]} of absent agent {index}"
    return f"positivity of last price {last_price}"


def check_requirements(pix: Pixep, incomes: IncomeVector) -> EpsilonInterval:
    """Verify R1 exactly and intersect all R2/R3 constraints on ε.

    Also requires the last (cheapest) price to stay positive, so every
    resolved price vector is valid.  Raises ``R1ViolationError`` or
    ``EmptyEpsilonIntervalError`` (naming the binding constraints) when
    the pixep cannot implement the incomes.

    R1-R3 are decided on the pixep's integers: the position constants
    and the incomes over one common denominator, the integer ε-slopes,
    and each bound on ε kept as an integer ratio.  The returned interval
    keeps its ends as integer ratios and that integer form; ``Fraction``s
    are built only for the texts of a raised error.
    """
    n = len(incomes)
    agents = pix.agents
    for agent in agents:
        if not 0 <= agent < n:
            raise DimensionMismatchError(f"pixep references agent {agent}, have {n}")

    scale, constants, income = with_incomes(pix.scale, pix.constants, incomes)
    slopes = pix.slopes
    sums: dict[int, list[int]] = {}
    for agent, c0, c1 in zip(agents, constants, slopes):
        total = sums.setdefault(agent, [0, 0])
        total[0] += c0
        total[1] += c1
    for agent, (c0, c1) in sums.items():
        if c0 != income[agent] or c1 != 0:
            total = AffinePrice(Fraction(c0, scale), Fraction(c1))
            raise R1ViolationError(
                agent, f": prices sum to {total}, income is {incomes[agent]}"
            )

    # Each constraint is alpha + beta*eps > 0 (strict) or >= 0, alpha in
    # units of 1/scale and beta an integer, named by a key that _describe
    # turns into text.
    constraints = [
        (("R2", k), constants[k] - constants[k + 1], slopes[k] - slopes[k + 1],
         agents[k] != agents[k + 1])
        for k in range(pix.m - 1)
    ]
    last_c0, last_c1 = constants[-1], slopes[-1]
    constraints += [
        (("R3", j), last_c0 - income[j], last_c1, True)
        for j in range(n) if j not in sums
    ]
    constraints.append((("positivity", 0), last_c0, last_c1, True))

    # A bound -alpha/beta on ε is the ratio num/den (den > 0), in units of
    # 1/scale; bounds are compared by cross-multiplying.
    lo_num, lo_den, lo_key = 0, 1, None
    hi_num, hi_den, hi_key = 0, 1, None
    for key, alpha, beta, strict in constraints:
        if beta == 0:
            if alpha < 0 or (strict and alpha == 0):
                raise EmptyEpsilonIntervalError(
                    f"unsatisfiable: {_describe(pix, incomes, key)}"
                )
        elif beta > 0:
            if -alpha * lo_den > lo_num * beta:
                lo_num, lo_den, lo_key = -alpha, beta, key
        elif hi_key is None or alpha * hi_den < hi_num * -beta:
            hi_num, hi_den, hi_key = alpha, -beta, key
    if hi_key is not None and lo_num * hi_den >= hi_num * lo_den:
        lo_desc = "ε > 0" if lo_key is None else _describe(pix, incomes, lo_key)
        raise EmptyEpsilonIntervalError(
            f"empty ε interval: ({lo_desc}) against ({_describe(pix, incomes, hi_key)})"
        )
    return EpsilonInterval(
        (lo_num, lo_den * scale),
        None if hi_key is None else (hi_num, hi_den * scale),
        scale, constants, income,
    )


def _sign_flip_bound(pix: Pixep, interval: EpsilonInterval) -> tuple[int, int] | None:
    """Smallest ε > 0 at which any bundle-price-vs-income comparison
    changes sign, as an integer ratio ``(num, den)``, from the integer
    form that ``interval`` keeps.

    Every bundle priced by an execution costs the sum of some subset of
    position prices, so these are all the affine expressions the
    equilibrium verification can ever compare against an income.  Below
    the bound, each comparison keeps the sign it has in the small-ε
    limit.
    """
    sums = {(0, 0)}
    for c0, c1 in zip(interval.constants, pix.slopes):
        sums |= {(s0 + c0, s1 + c1) for s0, s1 in sums}
    # A subset sum s0 + s1*eps meets income t at eps = (t - s0)/s1, the
    # ratio num/den (den > 0) in units of 1/scale.
    best_num, best_den = 0, 0
    for t in set(interval.income):
        for s0, s1 in sums:
            if s1 > 0:
                num, den = t - s0, s1
            elif s1 < 0:
                num, den = s0 - t, -s1
            else:
                continue
            if num > 0 and (best_den == 0 or num * best_den < best_num * den):
                best_num, best_den = num, den
    if best_den == 0:
        return None
    return best_num, best_den * interval.scale


def resolve_epsilon(pix: Pixep, interval: EpsilonInterval) -> Fraction:
    """Concrete ε: the midpoint of ``interval``, the pixep's feasible ε
    interval from :func:`check_requirements` (``lo + 1`` when it is
    unbounded), capped at half its sign-flip bound so that no
    bundle-price-vs-income comparison crosses its small-ε sign, unless
    that cap falls to the interval's lower end.

    The cap is what makes "holds for every sufficiently small ε > 0"
    checkable at a single concrete value; without it a midpoint deep in
    the interval can make an otherwise-unaffordable bundle affordable.

    The midpoint and the cap are integer ratios, compared with each
    other and with the lower end by cross-multiplying; the one
    ``Fraction`` built is the ε returned.
    """
    lo_num, lo_den = interval.lo
    if interval.hi is None:
        num, den = lo_num + lo_den, lo_den
    else:
        hi_num, hi_den = interval.hi
        num, den = lo_num * hi_den + hi_num * lo_den, 2 * lo_den * hi_den
    flip = _sign_flip_bound(pix, interval)
    if flip is not None:
        # the cap flip/2, taken when below the midpoint and above the lower end
        cap_num, cap_den = flip[0], 2 * flip[1]
        if cap_num * den < num * cap_den and cap_num * lo_den > lo_num * cap_den:
            num, den = cap_num, cap_den
    return Fraction(num, den)


@dataclass(frozen=True)
class Execution:
    """One subgame-perfect play: the choices taken, the leaf ``pixep``
    they lead to, and the outcome.

    ``items[k]`` is the item taken at position k, by ``pixep.agents[k]``;
    ``bundles[i]`` is agent i's final bundle, as a mask.  A play carries
    no prices: agents compare final bundles only, and :func:`execute_to_ce`
    returns the ε and the priced pair beside it.
    """

    path: tuple[str, ...]
    pixep: Pixep
    items: tuple[int, ...]
    bundles: tuple[int, ...]


@lru_cache(maxsize=256)
def _turn_tables(
    agents: tuple[int, ...]
) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """Per position of the turn sequence ``agents``: the shift of the
    mover's bundle within a state of :func:`_leaf_plays`, and the offsets
    of the mover's later turns within a continuation.  They depend on the
    sequence alone, and the solver's leaves take few sequences, so they
    are kept per sequence."""
    m = len(agents)
    shifts = tuple(m * (agent + 1) for agent in agents)
    later = tuple(
        tuple(k - pos - 1 for k in range(pos + 1, m) if agents[k] == agent)
        for pos, agent in enumerate(agents)
    )
    return shifts, later


def _leaf_plays(
    pix: Pixep, profile: Sequence[PreferenceOrder], m: int
) -> tuple[tuple[int, ...], ...]:
    """All SPE plays of one pixep, each the tuple of items picked at
    positions 0..m-1, in a fixed order: by the item picked first, then
    recursively.

    A state packs the free items (bits 0 to m-1) and the bundle each
    agent with a turn still to come holds so far (agent i's at bits
    ``m*(i+1)`` and up) into one int that keys the memo; the bundles of
    agents without a turn left cannot change the continuation, so they
    are dropped.  Per position, the mover's rank vector is looked up once
    per call, and the shift of its bundle and the offsets of its later
    turns within a continuation once per turn sequence
    (:func:`_turn_tables`).

    A mover without a later turn only expands its best free item: its
    final bundle is its bundle so far plus the item it takes, ranks are
    strict, so any other item leaves it strictly worse under every
    continuation and is in no SPE.  Each free item's rank is read once,
    and the subtrees of the other items are never enumerated.

    A state with two items left is decided in closed form, without
    recursing into its last two picks.  When one agent takes both, its
    final bundle is the same in either order, so both picks tie and the
    recursion keeps both plays, in its increasing item order: the lower
    item first.  No rank is read.  Otherwise the mover at m-2 is on its
    last turn, so the rule above expands only the item x with the better
    bundle ``held | x``, and the last mover takes the other: the one play
    the recursion keeps, from two rank reads.
    """
    if m == 1:
        return ((0,),)
    movers = pix.agents
    ranks = [profile[agent].rank for agent in movers]
    shifts, later = _turn_tables(movers)
    full = (1 << m) - 1
    end = m - 2
    split = movers[end] != movers[end + 1]
    end_rank, end_shift = ranks[end], shifts[end]
    memo: dict[int, tuple[tuple[int, ...], ...]] = {}

    def plays_from(state: int, pos: int) -> tuple[tuple[int, ...], ...]:
        if pos == end:  # two items left: the endgame above
            rest = state & full
            low = rest & -rest
            high = rest ^ low
            x, y = low.bit_length() - 1, high.bit_length() - 1
            if not split:
                return ((x, y), (y, x))
            held = (state >> end_shift) & full
            if end_rank[held | low] > end_rank[held | high]:
                return ((x, y),)
            return ((y, x),)
        cached = memo.get(state)
        if cached is not None:
            return cached
        rank, shift, offsets = ranks[pos], shifts[pos], later[pos]
        held = (state >> shift) & full
        rest = state & full
        if not offsets:
            # The mover's last turn: only the x with the best final bundle
            # held | x is expanded, and the bundle leaves the state.
            best, best_rank = 0, -1
            while rest:
                bit = rest & -rest
                rest ^= bit
                value = rank[held | bit]
                if value > best_rank:
                    best, best_rank = bit, value
            x = best.bit_length() - 1
            child = state & ~(full << shift) ^ best
            result = tuple((x,) + play for play in plays_from(child, pos + 1))
            memo[state] = result
            return result

        # Per free item x, in increasing order: (x, continuations, the
        # mover's final rank under each, worst).
        options = []
        while rest:
            bit = rest & -rest
            rest ^= bit
            subplays = plays_from(state ^ bit | bit << shift, pos + 1)
            base = held | bit
            finals = []
            for play in subplays:
                bundle = base
                for offset in offsets:
                    bundle |= 1 << play[offset]
                finals.append(rank[bundle])
            options.append((bit.bit_length() - 1, subplays, finals, min(finals)))

        # A pick is part of some SPE iff, against every alternative item,
        # there is an SPE continuation there that the mover does not envy:
        # its final rank reaches the largest worst rank among the other
        # items, which the top two worst ranks give.  Ranks are >= 0, so
        # -1 stands for "no other item".
        top, second, top_index = -1, -1, -1
        for index, option in enumerate(options):
            worst = option[3]
            if worst > top:
                top, second, top_index = worst, top, index
            elif worst > second:
                second = worst
        plays = []
        for index, (x, subplays, finals, worst) in enumerate(options):
            threshold = second if index == top_index else top
            if worst >= threshold:
                plays.extend((x,) + play for play in subplays)
            else:
                plays.extend(
                    (x,) + play
                    for play, value in zip(subplays, finals)
                    if value >= threshold
                )
        result = tuple(plays)
        memo[state] = result
        return result

    return plays_from(full, 0)


# A play as _node_outcomes carries it: (path, pixep, items, bundles), the
# fields of its Execution.
_Play = tuple[tuple[str, ...], Pixep, tuple[int, ...], tuple[int, ...]]


def _node_outcomes(
    game: GameNode, profile: Sequence[PreferenceOrder], n: int, m: int, path: tuple[str, ...]
) -> list[_Play]:
    """The plays of :func:`spe_outcomes` of the subgame that the choices
    ``path`` lead to, each with the whole path, as bare tuples: only the
    plays the whole game keeps are built as an :class:`Execution`."""
    if isinstance(game, Pixep):
        if game.m != m:
            raise DimensionMismatchError(f"leaf pixep has {game.m} positions, expected {m}")
        agents = game.agents
        for agent in agents:
            if agent >= n:
                raise DimensionMismatchError(
                    f"pixep references agent {agent}, profile has {n}"
                )
        plays = []
        for items in _leaf_plays(game, profile, m):
            masks = [0] * n
            for agent, item in zip(agents, items):
                masks[agent] |= 1 << item
            plays.append((path, game, items, tuple(masks)))
        return plays

    chooser = game.agent
    if not 0 <= chooser < n:
        raise DimensionMismatchError(f"choice node's agent {chooser}, profile has {n}")
    rank = profile[chooser].rank
    outs = [
        _node_outcomes(child, profile, n, m, path + (label,)) for label, child in game.options
    ]
    mins = [min(rank[play[3][chooser]] for play in out) for out in outs]
    # A play of option k is kept when the chooser's rank under it reaches
    # the bound of every other option: an earlier option's worst rank (weak
    # deterrence suffices between those), and one above the default's worst
    # (deviating needs a strict gain over the default; ranks are integers).
    bounds = mins[:-1] + [mins[-1] + 1]
    floors = [max(bounds[:k] + bounds[k + 1:]) for k in range(len(bounds))]
    return [
        play for k, out in enumerate(outs) for play in out
        if rank[play[3][chooser]] >= floors[k]
    ]


def spe_outcomes(
    game: GameNode, profile: Sequence[PreferenceOrder]
) -> list[Execution]:
    """Every play of the game that occurs in some subgame-perfect
    equilibrium, in a fixed deterministic order, each with its choice
    path, leaf pixep, items taken and final bundles (:class:`Execution`).

    At a picking position the mover may take any item that some
    equilibrium continuation makes optimal (several items can tie by
    yielding the same final bundle); at a choice node the chooser
    deviates from the default only for a strict improvement.  Prices are
    not attached here: agents care only about final bundles.  Raises
    ``DimensionMismatchError`` when the game's sizes or agents do not
    fit the profile.
    """
    if not profile:
        raise DimensionMismatchError("profile must not be empty")
    m = profile[0].m
    if any(pref.m != m for pref in profile):
        raise DimensionMismatchError("profiles disagree on the item universe")
    return [Execution(*play) for play in _node_outcomes(game, profile, len(profile), m, ())]


def execute_to_ce(
    game: GameNode,
    profile: Sequence[PreferenceOrder],
    incomes: IncomeVector,
) -> tuple[Execution, Fraction, CEPair]:
    """The first subgame-perfect play, in :func:`spe_outcomes` order, whose
    outcome is an equilibrium, with the ε that prices its leaf and the
    priced pair.

    Every leaf must pass :func:`check_requirements` against the incomes
    (checked up front, before any SPE work); each equilibrium play is
    then priced with its leaf's ε, which :func:`resolve_epsilon` picks
    from the interval checked up front when the leaf's first play is
    priced, and checked by exact verification.  A leaf's position prices
    at its ε are computed once, as integers over ``pix.scale`` times ε's
    denominator; a play's :class:`~cefai.market.PriceVector` is built
    from them with :meth:`~cefai.market.PriceVector.scaled`, which keeps
    that integer form for :func:`~cefai.market.verify_ce`, and its
    :class:`~cefai.market.Allocation` when it is priced.  Raises
    ``NoValidSpeError`` when no play passes.  That is an expected outcome,
    not an internal error: :func:`cefai.solver.solve` catches it to try
    the range's fallback games, and some profiles have no equilibrium at
    all (``counterexample-4x3``), so every game fails on them.
    """
    # Per leaf pixep id: its checked ε interval.
    checked = {id(pix): check_requirements(pix, incomes) for pix in leaves(game)}
    # Per leaf pixep id: its ε, and its position prices at that ε as
    # integers over one denominator.
    resolved: dict[int, tuple[Fraction, list[int], int]] = {}

    for execution in spe_outcomes(game, profile):
        pix = execution.pixep
        priced = resolved.get(id(pix))
        if priced is None:
            eps = resolve_epsilon(pix, checked[id(pix)])
            # c0/scale + c1·eps, over scale·eps's denominator
            up = pix.scale * eps.numerator
            priced = resolved[id(pix)] = eps, [
                c0 * eps.denominator + c1 * up for c0, c1 in zip(pix.constants, pix.slopes)
            ], pix.scale * eps.denominator
        eps, position_prices, den = priced
        by_item = [0] * pix.m
        for item, price in zip(execution.items, position_prices):
            by_item[item] = price
        cand = CEPair(PriceVector.scaled(by_item, den), Allocation(pix.m, execution.bundles))
        if verify_ce(profile, incomes, cand).valid:
            return execution, eps, cand
    raise NoValidSpeError(
        "no subgame-perfect play of the game yields a valid equilibrium"
    )
