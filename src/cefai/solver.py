"""Constructive equilibrium solver dispatching on the income profile.

For every supported market size the solver seats the agents by income
rank (``a > b > c > ...``), picks the income range the seated incomes
fall in, builds the matching priced picking sequence (or a short
sequential game over several of them) on the caller's agents, with the
agent in seat k taking the turns of letter k, enumerates its
subgame-perfect plays, and returns the first play whose outcome verifies
as an equilibrium.  Only the solver knows the seats: its games, plays
and allocations all number the agents as the caller does.

Supported sizes: any number of agents with up to three items, and up to
three agents with four items.  Four agents with four items, or five or
more items, admit no such construction: see :mod:`cefai.instances` for
the witnesses.

Each income range is cut out by integer linear forms over the seated
incomes that are positive on it.  Incomes must be *generic*: off the
adjacent-income equalities (which make the sort strict) and off the
boundaries of the ranges, the hyperplanes where one of those forms
vanishes (like ``a = b + c``).  On a hyperplane the range split is
ill-defined and the solver refuses rather than guessing.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from operator import mul
from typing import Iterator, Sequence

from .core import PreferenceOrder
from .market import CEPair, DimensionMismatchError, IncomeVector
from .pixep import (
    ChoiceNode,
    EmptyEpsilonIntervalError,
    Execution,
    GameNode,
    NoValidSpeError,
    Pixep,
    execute_to_ce,
)

_AGENT_LETTERS = "ABCDEFGH"


class UnsupportedCaseError(ValueError):
    def __init__(self, m: int, n: int):
        self.m = m
        self.n = n
        reason = (
            "a market needs at least one item and one agent"
            if m < 1 or n < 1
            else "for 4 items and 4+ agents, and for 5+ items, there are "
            "markets with no equilibrium on a positive-measure set of incomes"
        )
        super().__init__(f"no equilibrium construction covers {m} items with {n} agents: {reason}")


class NotGenericError(ValueError):
    def __init__(self, hyperplane: "Hyperplane"):
        self.hyperplane = hyperplane
        super().__init__(f"incomes lie on the excluded hyperplane {hyperplane.label}")


def _letter(k: int) -> str:
    return _AGENT_LETTERS[k].lower() if k < len(_AGENT_LETTERS) else f"t{k}"


def _value(form: Sequence[int], sorted_incomes: Sequence) -> int:
    return sum(map(mul, form, sorted_incomes))


@dataclass(frozen=True)
class Hyperplane:
    """An excluded income equality, over incomes sorted descending.

    ``coeffs[k]`` multiplies the k-th highest income; the hyperplane is
    the set where the combination vanishes.  The first nonzero
    coefficient is positive and the last is nonzero.
    """

    coeffs: tuple[int, ...]

    @property
    def label(self) -> str:
        """The equality with positive terms on the left, e.g. ``a + c = 2b``."""
        def side(sign: int) -> str:
            return " + ".join(
                f"{abs(c) if abs(c) != 1 else ''}{_letter(k)}"
                for k, c in enumerate(self.coeffs)
                if c * sign > 0
            )

        return f"{side(1)} = {side(-1)}"

    def contains(self, sorted_incomes: Sequence[int]) -> bool:
        return _value(self.coeffs, sorted_incomes) == 0


@dataclass(frozen=True)
class IncomeRange:
    """One income range of a market size: the integer forms over the
    sorted incomes ``(a, b, c)`` that are positive on it, its primary
    game, and the fallback leaves tried after it, in order.

    A game is a leaf name of ``_LEAVES`` or a choice game
    ``(chooser, (option label, game), ...)`` whose last option is the
    default.
    """

    label: str
    forms: tuple[tuple[int, int, int], ...]
    primary: str | tuple
    fallbacks: tuple[str, ...] = ()


_ABAB_OR_SPLIT = (
    0, ("ABAB", "ABAB"), ("else", (1, ("BAAA", "BAAA"), ("AABB", "AABB")))
)

# The income ranges of each size, in dispatch order.  The primary
# constructions are not complete: for some profiles their equilibrium
# plays fail the affordability conditions (an agent with split turns can
# afford a bundle that dominates their own and prefer it), while a
# fallback leaf that meets the price requirements on the same incomes
# can still implement an equilibrium.  A fallback is tried only where
# its prices meet the requirements, which ``execute_to_ce`` checks.
_RANGES: dict[str, tuple[IncomeRange, ...]] = {
    "m1": (IncomeRange("m1", (), "A"),),
    "m2": (IncomeRange("m2", (), "AB"),),
    "m3": (
        IncomeRange("m3:a>b+c", ((1, -1, -1),), "ABA"),
        IncomeRange("m3:a<b+c", ((-1, 1, 1),), "ABC"),
    ),
    "m4n2": (
        IncomeRange("m4n2:a>2b", ((1, -2, 0),), "AABA"),
        IncomeRange("m4n2:a<2b", ((-1, 2, 0),), _ABAB_OR_SPLIT, ("ABAB", "BAAA", "AABB")),
    ),
    "m4n3": (
        # a > 2b + c
        IncomeRange("m4n3:range1", ((1, -2, -1),), "AABA", ("AABC", "ABAC", "ABCB")),
        # 2b + c > a > 2b
        IncomeRange("m4n3:range2", ((-1, 2, 1), (1, -2, 0)), "AABC", ("ABAC", "ABCB")),
        # 2b > a > b + c and a + c > 2b
        IncomeRange("m4n3:range3", ((-1, 2, 0), (1, -1, -1), (1, -2, 1)), "ABAC",
                    ("ABCB", "ABCA", "BAAC=", "BAAA", "AABB", "ABBC")),
        # 2b > a > b + c and 2b > a + c
        IncomeRange("m4n3:range4", ((-1, 2, 0), (1, -1, -1), (-1, 2, -1)), _ABAB_OR_SPLIT,
                    ("ABAB", "AABB", "ABBC", "ABAC", "ABCB")),
        # b + c > a > 2c and 2c > b
        IncomeRange("m4n3:range5", ((-1, 1, 1), (1, 0, -2), (0, -1, 2)),
                    (0, ("ABCB", "ABCB"), ("BAAC", "BAAC")),
                    ("ABCB", "BAAC", "BAAC=", "ABCA")),
        # b + c > a > 2c and b > 2c
        IncomeRange("m4n3:range6", ((-1, 1, 1), (1, 0, -2), (0, 1, -2)),
                    (1, ("ABAB", "ABAB"), ("else", (0, ("ABBC", "ABBC"), ("BAAC", "BAAC")))),
                    ("BAAC", "BAAC=", "ABBC", "AABB", "ABAB", "ABCB", "ABCA", "BAAA")),
        # 2c > a
        IncomeRange("m4n3:range7", ((-1, 0, 2),), (0, ("ABCB", "ABCB"), ("BACA", "BACA")),
                    ("ABCB", "BACA", "ABCA")),
    ),
}


def _supported(m: int, n: int) -> bool:
    if m < 1 or n < 1:
        return False
    return m <= 3 or (m == 4 and n <= 3)


@cache
def range_table(m: int, n: int) -> tuple[IncomeRange, ...]:
    """The income ranges of the (m, n) case, in dispatch order; exactly
    one holds at generic incomes.  Unsupported sizes raise
    ``UnsupportedCaseError``."""
    if not _supported(m, n):
        raise UnsupportedCaseError(m, n)
    if n == 1:  # the one agent pays a/m for each item
        return (IncomeRange(f"m{m}n1", (), "A" * m),)
    if m == 3 and n == 2:
        # with only two incomes c is 0: a > b + c always holds, a < b + c never
        return _RANGES["m3"][:1]
    return _RANGES[f"m{m}" if m <= 3 else f"m{m}n{n}"]


def range_labels(m: int, n: int) -> list[str]:
    return [row.label for row in range_table(m, n)]


@cache
def excluded_hyperplanes(m: int, n: int) -> tuple[Hyperplane, ...]:
    """The income equalities excluded for the (m, n) case.

    The adjacent equalities of the descending income sort (these make
    the sort strict), then the boundary of every form of the range
    table, signed so that its first nonzero coefficient is positive, in
    order of first appearance.  Unsupported sizes raise
    ``UnsupportedCaseError``.
    """
    adjacent = [(0,) * k + (1, -1) for k in range(n - 1)]
    planes: dict[tuple[int, ...], Hyperplane] = {}
    for form in adjacent + [form[:n] for row in range_table(m, n) for form in row.forms]:
        coeffs, _ = _signed(form)
        planes.setdefault(coeffs, Hyperplane(coeffs))
    return tuple(planes.values())


def _signed(form: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """``(coeffs, sign)``: the form without trailing zeros, times the sign
    that makes its first nonzero coefficient positive."""
    while not form[-1]:
        form = form[:-1]
    sign = 1 if next(c for c in form if c) > 0 else -1
    return tuple(sign * c for c in form), sign


@cache
def _range_signs(m: int, n: int) -> tuple[tuple[IncomeRange, tuple[tuple[int, int], ...]], ...]:
    """Per income range of the (m, n) case, in dispatch order: the range
    and, per form, the index of the excluded hyperplane on its boundary
    and the sign that turns that hyperplane's form into it.

    The excluded hyperplanes are the distinct forms of the size: every
    range form restricted to the n incomes is one of them up to its
    sign, so their values at an income vector decide every range."""
    index = {hp.coeffs: k for k, hp in enumerate(excluded_hyperplanes(m, n))}
    table = []
    for row in range_table(m, n):
        signs = []
        for form in row.forms:
            coeffs, sign = _signed(form[:n])
            signs.append((index[coeffs], sign))
        table.append((row, tuple(signs)))
    return tuple(table)


def _range_at(m: int, t: Sequence[int]) -> IncomeRange:
    """The income range at the incomes ``t``: positive integers (incomes
    over a common denominator) sorted descending.

    Each excluded hyperplane's form is evaluated once; the ranges read
    those values through ``_range_signs``.  Raises
    ``UnsupportedCaseError`` for an unsupported size and
    ``NotGenericError`` on the first excluded hyperplane that holds.
    """
    planes = excluded_hyperplanes(m, len(t))
    values = [_value(hp.coeffs, t) for hp in planes]
    if 0 in values:
        raise NotGenericError(planes[values.index(0)])
    matches = [
        row for row, signs in _range_signs(m, len(t))
        if all(sign * values[k] > 0 for k, sign in signs)
    ]
    if len(matches) != 1:
        raise AssertionError(
            f"{len(matches)} income ranges hold at generic incomes; the range table "
            "is inconsistent"
        )
    return matches[0]


# Every leaf game, by name, as integer data over the sorted scaled incomes
# a > b > c, like the forms of _RANGES; a missing income is 0, which turns
# the three-agent formulas into the two-agent ones.  A leaf is one or more
# rows (guard, denominator, positions): a position (ka, kb, kc, slope)
# costs (ka·a + kb·b + kc·c)/denominator + slope·ε, and the leaf is priced
# by its first row whose guard is None or a form positive at (a, b, c).
# A leaf's turn sequence is its name without the "=" that marks an
# alternative price vector for the same sequence.
_LEAVES: dict[str, tuple[tuple[tuple[int, int, int] | None, int, tuple], ...]] = {
    "A": ((None, 1, ((1, 0, 0, 0),)),),
    "AA": ((None, 2, ((1, 0, 0, 0),) * 2),),
    "AAA": ((None, 3, ((1, 0, 0, 0),) * 3),),
    "AAAA": ((None, 4, ((1, 0, 0, 0),) * 4),),
    "AB": ((None, 1, ((1, 0, 0, 0), (0, 1, 0, 0))),),
    "ABA": ((None, 1, ((1, 0, -1, -1), (0, 1, 0, 0), (0, 0, 1, 1))),),
    "ABC": ((None, 1, ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0))),),
    "AABA": ((None, 1, ((1, -1, -1, -2), (0, 1, 0, 1), (0, 1, 0, 0), (0, 0, 1, 1))),),
    "AABC": ((None, 1, ((1, -1, 0, -1), (0, 1, 0, 1), (0, 1, 0, 0), (0, 0, 1, 0))),),
    "ABAC": ((None, 1, ((0, 1, 0, 1), (0, 1, 0, 0), (1, -1, 0, -1), (0, 0, 1, 0))),),
    "ABAB": ((None, 1, ((1, 0, -1, -2), (0, 1, -1, -1), (0, 0, 1, 2), (0, 0, 1, 1))),),
    "AABB": ((None, 2, ((1, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 1, 0, 0))),),
    "ABBC": ((None, 2, ((2, 0, 0, 0), (0, 1, 0, 0), (0, 1, 0, 0), (0, 0, 2, 0))),),
    "ABCA": ((None, 1, ((1, 0, 0, -1), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))),),
    "ABCB": ((None, 1, ((1, 0, 0, 0), (0, 1, 0, -1), (0, 0, 1, 0), (0, 0, 0, 1))),),
    # B pays b; A's last two turns cost max(c, (a - b)/2) each: (a - b)/2
    # where a - b > 2c, c elsewhere (the two agree on a - b = 2c).
    "BAAA": (
        ((1, -1, -2), 2, ((0, 2, 0, 0), (0, 2, 0, -2), (1, -1, 0, 1), (1, -1, 0, 1))),
        (None, 1, ((0, 1, 0, 0), (1, 0, -2, -2), (0, 0, 1, 1), (0, 0, 1, 1))),
    ),
    "BAAC": ((None, 1, ((0, 1, 0, 0), (1, 0, -1, -1), (0, 0, 1, 1), (0, 0, 1, 0))),),
    "BAAC=": ((None, 2, ((0, 2, 0, 0), (1, 0, 0, 0), (1, 0, 0, 0), (0, 0, 2, 0))),),
    "BACA": ((None, 1, ((0, 1, 0, 0), (0, 0, 1, 1), (0, 0, 1, 0), (1, 0, -1, -1))),),
}


def _leaf(name: str, abc: Sequence[int], scale: int, order: Sequence[int]) -> Pixep:
    """The pixep of leaf ``name`` at the seated incomes ``abc``, integers
    over ``scale``, with letter k's turns taken by agent ``order[k]``."""
    denominator, positions = next(
        (denominator, positions)
        for guard, denominator, positions in _LEAVES[name]
        if guard is None or _value(guard, abc) > 0
    )
    a, b, c = abc
    return Pixep(
        tuple(order[_AGENT_LETTERS.index(ch)] for ch in name.rstrip("=")),
        tuple(ka * a + kb * b + kc * c for ka, kb, kc, _ in positions),
        tuple(slope for *_, slope in positions),
        scale * denominator,
    )


def _game(spec, abc: Sequence[int], scale: int, order: Sequence[int]) -> GameNode:
    if isinstance(spec, str):
        return _leaf(spec, abc, scale, order)
    chooser, *options = spec
    return ChoiceNode(
        agent=order[chooser],
        options=tuple((label, _game(sub, abc, scale, order)) for label, sub in options),
    )


def _candidate_games(
    row: IncomeRange, t: Sequence[int], scale: int, order: Sequence[int]
) -> Iterator[tuple[str, GameNode]]:
    """Games to try for one income range, in order of preference: the
    range's primary game, then each fallback leaf, labelled
    ``range+leaf``.  ``t`` holds the incomes of the agents ``order``
    seats, highest first, as integers over ``scale``."""
    abc = (*t[:3], 0, 0)[:3]
    yield row.label, _game(row.primary, abc, scale, order)
    for name in row.fallbacks:
        yield f"{row.label}+{name}", _leaf(name, abc, scale, order)


@dataclass(frozen=True)
class SolveTranscript:
    """Audit trail of one solve: the seating, the range, the game label,
    the chosen play and the ε that priced it.  The prices themselves are
    the solve's pair."""

    order: tuple[int, ...]  # the agent in each seat, income-descending
    range_label: str
    game_label: str  # range label, suffixed when a fallback game was used
    execution: Execution
    epsilon: Fraction


def solve(
    profile: Sequence[PreferenceOrder], incomes: IncomeVector
) -> tuple[CEPair, SolveTranscript]:
    """Compute a verified equilibrium for a supported, generic instance.

    The returned pair and the transcript's play number the agents as
    ``profile`` does.  The transcript records the seating, the active
    income range, the label of the game that won, the chosen play and
    its ε.
    """
    n = len(profile)
    if len(incomes) != n:
        raise DimensionMismatchError(
            f"profile has {n} agents but incomes has {len(incomes)}"
        )
    m = profile[0].m
    scale, income = incomes.integers
    # highest income first; the sort is stable, so ties go by index
    order = tuple(sorted(range(n), key=income.__getitem__, reverse=True))
    t = [income[i] for i in order]
    row = _range_at(m, t)

    for game_label, game in _candidate_games(row, t, scale, order):
        try:
            execution, epsilon, pair = execute_to_ce(game, profile, incomes)
            break
        except NoValidSpeError:
            continue
        except EmptyEpsilonIntervalError as exc:
            # a fallback whose prices miss the requirements here is skipped
            if game_label == row.label:
                raise AssertionError(
                    f"every leaf of the {row.label} primary game must meet the "
                    "price requirements; dispatch is inconsistent"
                ) from exc
    else:
        raise NoValidSpeError(
            f"no candidate game for income range {row.label} has an equilibrium "
            "play for this profile; an exhaustive existence check of the "
            "instance is advised, since such profiles can lack any equilibrium"
        )

    transcript = SolveTranscript(
        order=order,
        range_label=row.label,
        game_label=game_label,
        execution=execution,
        epsilon=epsilon,
    )
    return pair, transcript
