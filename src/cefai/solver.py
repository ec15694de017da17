"""Constructive equilibrium solver dispatching on the income profile.

For every supported market size the solver sorts agents by income
(``a > b > c > ...``), picks the income range the sorted vector falls
in, builds the matching priced picking sequence (or a short sequential
game over several of them), enumerates its subgame-perfect plays, and
returns the first play whose outcome verifies as an equilibrium.

Supported sizes: any number of agents with up to three items, and up to
three agents with four items.  Four agents with four items, or five or
more items, admit no such construction: see :mod:`cefai.instances` for
the witnesses.

Incomes must be *generic*: off a finite list of hyperplanes (all
adjacent-income equalities plus a few case-specific ones like
``a = b + c``).  On a hyperplane the range split is ill-defined and the
solver refuses rather than guessing.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Sequence

from .core import PreferenceOrder
from .market import Allocation, CEPair, DimensionMismatchError, IncomeVector
from .pixep import (
    AffinePrice,
    ChoiceNode,
    Execution,
    GameNode,
    Leaf,
    NoValidSpeError,
    Pixep,
    execute_to_ce,
    leaves,
)

_AGENT_LETTERS = "ABCDEFGH"


class UnsupportedCaseError(ValueError):
    def __init__(self, m: int, n: int):
        self.m = m
        self.n = n
        super().__init__(
            f"no equilibrium construction covers {m} items with {n} agents: "
            "for 4 items and 4+ agents, and for 5+ items, there are markets "
            "with no equilibrium on a positive-measure set of incomes"
        )


class NotGenericError(ValueError):
    def __init__(self, hyperplane: "Hyperplane"):
        self.hyperplane = hyperplane
        super().__init__(f"incomes lie on the excluded hyperplane {hyperplane.label}")


@dataclass(frozen=True)
class Hyperplane:
    """An excluded income equality, over incomes sorted descending.

    ``coeffs[k]`` multiplies the k-th highest income; the hyperplane is
    the set where the combination vanishes.
    """

    coeffs: tuple[int, ...]
    label: str

    def contains(self, sorted_incomes: Sequence[Fraction]) -> bool:
        return (
            sum(c * t for c, t in zip(self.coeffs, sorted_incomes)) == 0
        )


def _letter(k: int) -> str:
    return _AGENT_LETTERS[k].lower() if k < len(_AGENT_LETTERS) else f"t{k}"


def excluded_hyperplanes(m: int, n: int) -> list[Hyperplane]:
    """The full list of income equalities excluded for the (m, n) case.

    Contains every adjacent equality of the descending income sort
    (these make the sort strict) plus the case-specific split
    boundaries.  Unsupported sizes raise ``UnsupportedCaseError``.
    """
    if not _supported(m, n):
        raise UnsupportedCaseError(m, n)

    def plane(coeffs: dict[int, int], label: str) -> Hyperplane:
        width = max(coeffs) + 1
        row = tuple(coeffs.get(k, 0) for k in range(width))
        return Hyperplane(coeffs=row, label=label)

    planes = [
        plane({k: 1, k + 1: -1}, f"{_letter(k)} = {_letter(k + 1)}")
        for k in range(n - 1)
    ]
    if m == 3 and n >= 3:
        planes.append(plane({0: 1, 1: -1, 2: -1}, "a = b + c"))
    if m == 4 and n == 2:
        planes.append(plane({0: 1, 1: -2}, "a = 2b"))
    if m == 4 and n == 3:
        planes.extend(
            [
                plane({0: 1, 1: -2, 2: -1}, "a = 2b + c"),
                plane({0: 1, 1: -2}, "a = 2b"),
                plane({0: 1, 1: -1, 2: -1}, "a = b + c"),
                plane({0: 1, 1: -2, 2: 1}, "a + c = 2b"),
                plane({0: 1, 2: -2}, "a = 2c"),
                plane({1: 1, 2: -2}, "b = 2c"),
            ]
        )
    return planes


def _supported(m: int, n: int) -> bool:
    if m < 1 or n < 1:
        return False
    return m <= 3 or (m == 4 and n <= 3)


def violated_hyperplane(incomes: IncomeVector, m: int) -> Hyperplane | None:
    order = incomes.descending_order()
    sorted_incomes = [incomes[i] for i in order]
    for hp in excluded_hyperplanes(m, len(incomes)):
        if hp.contains(sorted_incomes):
            return hp
    return None


def is_generic(incomes: IncomeVector, m: int) -> bool:
    """True iff the incomes avoid every excluded hyperplane exactly."""
    return violated_hyperplane(incomes, m) is None


# Income-range predicates over the sorted incomes, in dispatch order.
# Exactly one predicate per case holds for generic incomes.

_RANGES_M3 = [
    ("m3:a>b+c", lambda t: t[0] > t[1] + t[2]),
    ("m3:a<b+c", lambda t: t[0] < t[1] + t[2]),
]


_RANGES_M4N2 = [
    ("m4n2:a>2b", lambda t: t[0] > 2 * t[1]),
    ("m4n2:a<2b", lambda t: t[0] < 2 * t[1]),
]

_RANGES_M4N3 = [
    ("m4n3:range1", lambda t: t[0] > 2 * t[1] + t[2]),
    ("m4n3:range2", lambda t: 2 * t[1] + t[2] > t[0] > 2 * t[1]),
    ("m4n3:range3",
     lambda t: 2 * t[1] > t[0] > t[1] + t[2] and t[0] + t[2] > 2 * t[1]),
    ("m4n3:range4",
     lambda t: 2 * t[1] > t[0] > t[1] + t[2] and 2 * t[1] > t[0] + t[2]),
    ("m4n3:range5",
     lambda t: t[1] + t[2] > t[0] > 2 * t[2] and 2 * t[2] > t[1]),
    ("m4n3:range6",
     lambda t: t[1] + t[2] > t[0] > 2 * t[2] and t[1] > 2 * t[2]),
    ("m4n3:range7", lambda t: 2 * t[2] > t[0]),
]


def range_predicates(m: int, n: int) -> list[tuple[str, Callable]]:
    """(label, predicate) table for the sorted-income dispatch."""
    if not _supported(m, n):
        raise UnsupportedCaseError(m, n)
    if n == 1:
        return [(f"m{m}n1", lambda t: True)]
    if m == 1:
        return [("m1", lambda t: True)]
    if m == 2:
        return [("m2", lambda t: True)]
    if m == 3:
        if n == 2:
            # with only two incomes the third is 0, so a > b+c always holds
            return [("m3:a>b+c", lambda t: True)]
        return _RANGES_M3
    if n == 2:
        return _RANGES_M4N2
    return _RANGES_M4N3


def range_labels(m: int, n: int) -> list[str]:
    return [label for label, _ in range_predicates(m, n)]


def active_range(m: int, n: int, sorted_incomes: Sequence[Fraction]) -> str:
    matches = [
        label for label, pred in range_predicates(m, n) if pred(sorted_incomes)
    ]
    if len(matches) != 1:
        raise NotGenericError(violated_hyperplane(IncomeVector.of(sorted_incomes), m)
                              or Hyperplane((), "unknown boundary"))
    return matches[0]


def _baaa(a: Fraction, b: Fraction, c: Fraction) -> tuple:
    split = max(c, (a - b) / 2)
    return ((b, 0), (a - 2 * split, -2), (split, +1), (split, +1))


# Every leaf game, by name, as its prices (c0, c1), meaning c0 + c1·ε, one
# per position, over the sorted incomes a > b > c; a missing income is 0,
# which turns the three-agent formulas into the two-agent ones.  A leaf's
# turn sequence is its name without the "=" that marks an alternative
# price vector for the same sequence.
_LEAVES: dict[str, Callable[[Fraction, Fraction, Fraction], tuple]] = {
    "A": lambda a, b, c: ((a, 0),),
    "AB": lambda a, b, c: ((a, 0), (b, 0)),
    "ABA": lambda a, b, c: ((a - c, -1), (b, 0), (c, +1)),
    "ABC": lambda a, b, c: ((a, 0), (b, 0), (c, 0)),
    "AABA": lambda a, b, c: ((a - b - c, -2), (b, +1), (b, 0), (c, +1)),
    "AABC": lambda a, b, c: ((a - b, -1), (b, +1), (b, 0), (c, 0)),
    "ABAC": lambda a, b, c: ((b, +1), (b, 0), (a - b, -1), (c, 0)),
    "ABAB": lambda a, b, c: ((a - c, -2), (b - c, -1), (c, +2), (c, +1)),
    "AABB": lambda a, b, c: ((a / 2, 0), (a / 2, 0), (b / 2, 0), (b / 2, 0)),
    "ABBC": lambda a, b, c: ((a, 0), (b / 2, 0), (b / 2, 0), (c, 0)),
    "ABCA": lambda a, b, c: ((a, -1), (b, 0), (c, 0), (0, +1)),
    "ABCB": lambda a, b, c: ((a, 0), (b, -1), (c, 0), (0, +1)),
    "BAAA": _baaa,
    "BAAC": lambda a, b, c: ((b, 0), (a - c, -1), (c, +1), (c, 0)),
    "BAAC=": lambda a, b, c: ((b, 0), (a / 2, 0), (a / 2, 0), (c, 0)),
    "BACA": lambda a, b, c: ((b, 0), (c, +1), (c, 0), (a - c, -1)),
}

# Where a leaf meets the price requirements on only part of the incomes,
# its guard says where: the guard is the R2/R3 condition that
# ``check_requirements`` checks.  A fallback is tried only where its
# guard holds.  BAAC= needs ``2b > a > 2c``, which ranges 3, 5 and 6, the
# only ranges that list it, imply; so it needs no guard.
_GUARDS: dict[str, Callable[[Fraction, Fraction, Fraction], bool]] = {
    "BAAA": lambda a, b, c: a > 3 * max(c, (a - b) / 2),
    "AABB": lambda a, b, c: b > 2 * c,
    "ABBC": lambda a, b, c: b > 2 * c,
}

# A choice game: (chooser, (option label, game), ...), each game a leaf
# name or another choice game; the last option is the default.
_ABAB_OR_SPLIT = (
    0, ("ABAB", "ABAB"), ("else", (1, ("BAAA", "BAAA"), ("AABB", "AABB")))
)

# Each income range's primary game, then the leaves tried after it, in
# order.  The primary constructions are not complete: for some profiles
# their equilibrium plays fail the affordability conditions (an agent
# with split turns can afford a bundle that dominates their own and
# prefer it), while a fallback leaf that meets the price requirements on
# the same incomes can still implement an equilibrium.
_RANGE_GAMES: dict[str, tuple] = {
    "m1": ("A", ()),
    "m2": ("AB", ()),
    "m3:a>b+c": ("ABA", ()),
    "m3:a<b+c": ("ABC", ()),
    "m4n2:a>2b": ("AABA", ()),
    "m4n2:a<2b": (_ABAB_OR_SPLIT, ("ABAB", "BAAA", "AABB")),
    "m4n3:range1": ("AABA", ("AABC", "ABAC", "ABCB")),
    "m4n3:range2": ("AABC", ("ABAC", "ABCB")),
    "m4n3:range3": ("ABAC", ("ABCB", "ABCA", "BAAC=", "BAAA", "AABB", "ABBC")),
    "m4n3:range4": (_ABAB_OR_SPLIT, ("ABAB", "AABB", "ABBC", "ABAC", "ABCB")),
    "m4n3:range5": (
        (0, ("ABCB", "ABCB"), ("BAAC", "BAAC")),
        ("ABCB", "BAAC", "BAAC=", "ABCA"),
    ),
    "m4n3:range6": (
        (1, ("ABAB", "ABAB"), ("else", (0, ("ABBC", "ABBC"), ("BAAC", "BAAC")))),
        ("BAAC", "BAAC=", "ABBC", "AABB", "ABAB", "ABCB", "ABCA", "BAAA"),
    ),
    "m4n3:range7": (
        (0, ("ABCB", "ABCB"), ("BACA", "BACA")),
        ("ABCB", "BACA", "ABCA"),
    ),
}


def _guard(name: str, abc: tuple) -> bool:
    guard = _GUARDS.get(name)
    return guard is None or guard(*abc)


def _leaf(name: str, abc: tuple) -> Leaf:
    agents = [_AGENT_LETTERS.index(ch) for ch in name.rstrip("=")]
    prices = [AffinePrice.of(c0, c1) for c0, c1 in _LEAVES[name](*abc)]
    return Leaf(Pixep.of(zip(agents, prices)), name)


def _game(spec, abc: tuple) -> GameNode:
    if isinstance(spec, str):
        return _leaf(spec, abc)
    chooser, *options = spec
    return ChoiceNode(
        agent=chooser, options=tuple((label, _game(sub, abc)) for label, sub in options)
    )


def _candidate_games(
    label: str, t: Sequence[Fraction], m: int
) -> Iterator[tuple[str, GameNode]]:
    """Games to try for one income range, over sorted agents, in order of
    preference: the range's primary game, then each fallback leaf whose
    guard holds, labelled ``range+leaf``."""
    if label.endswith("n1"):
        share = AffinePrice.of(Fraction(t[0], m))
        yield label, Leaf(Pixep.of((0, share) for _ in range(m)), "A" * m)
        return
    abc = (*t[:3], 0, 0)[:3]
    primary, fallbacks = _RANGE_GAMES[label]
    game = _game(primary, abc)
    for leaf in leaves(game):
        if not _guard(leaf.label, abc):
            raise AssertionError(
                f"{label} must meet the guard of its {leaf.label} leaf; "
                "dispatch is inconsistent"
            )
    yield label, game
    for name in fallbacks:
        if _guard(name, abc):
            yield f"{label}+{name}", _leaf(name, abc)


@dataclass(frozen=True)
class SolveTranscript:
    """Audit trail of one solve: the sorted order, the range, the game and
    the chosen play (whose ``epsilon`` resolved the prices)."""

    m: int
    n: int
    order: tuple[int, ...]  # agent indices, income-descending
    range_label: str
    game_label: str  # range label, suffixed when a fallback game was used
    game: GameNode
    execution: Execution  # over sorted agent indices


def solve(
    profile: Sequence[PreferenceOrder], incomes: IncomeVector
) -> tuple[CEPair, SolveTranscript]:
    """Compute a verified equilibrium for a supported, generic instance.

    The returned allocation is indexed by the original agent order.  The
    transcript records the sorted order, the active income range, the
    game, and the chosen play.
    """
    n = len(profile)
    if len(incomes) != n:
        raise DimensionMismatchError(
            f"profile has {n} agents but incomes has {len(incomes)}"
        )
    m = profile[0].m
    if not _supported(m, n):
        raise UnsupportedCaseError(m, n)
    offending = violated_hyperplane(incomes, m)
    if offending is not None:
        raise NotGenericError(offending)

    order = incomes.descending_order()
    sorted_incomes = IncomeVector.of(incomes[i] for i in order)
    sorted_profile = [profile[i] for i in order]
    label = active_range(m, n, sorted_incomes.t)

    for game_label, game in _candidate_games(label, sorted_incomes.t, m):
        try:
            execution, sorted_pair = execute_to_ce(game, sorted_profile, sorted_incomes)
            break
        except NoValidSpeError:
            continue
    else:
        raise NoValidSpeError(
            f"no candidate game for income range {label} has an equilibrium "
            "play for this profile; an exhaustive existence check of the "
            "instance is advised, since such profiles can lack any equilibrium"
        )

    bundles = [0] * n
    for pos, agent in enumerate(order):
        bundles[agent] = sorted_pair.allocation[pos]
    pair = CEPair(
        prices=sorted_pair.prices, allocation=Allocation(m=m, bundles=tuple(bundles))
    )
    transcript = SolveTranscript(
        m=m,
        n=n,
        order=order,
        range_label=label,
        game_label=game_label,
        game=game,
        execution=execution,
    )
    return pair, transcript
