"""Canonical market instances and reproducible income samplers.

The three named instances are markets whose preferences rule out any
equilibrium on an open region of income space; each carries its partial
preference relations, the income region, and an exact reference point
inside it.  The partial relations are all the non-existence argument
needs, so *every* monotone completion must reproduce the result; the
deterministic completion is the default and random completions are
available for robustness runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .core import (
    PartialRelations,
    PreferenceOrder,
    chain_pairs,
    complete_partial,
    parse_bundle,
    random_completion,
)
from .market import IncomeRegion, IncomeVector, _sample_incomes
from .solver import (
    NotGenericError,
    UnsupportedCaseError,
    _range_at,
    excluded_hyperplanes,
    range_labels,
)


@dataclass(frozen=True)
class NamedInstance:
    item_names: tuple[str, ...]
    agent_names: tuple[str, ...]
    relations: tuple[PartialRelations, ...]
    region: IncomeRegion

    @property
    def reference(self) -> IncomeVector:
        return self.region.reference

    @property
    def m(self) -> int:
        return len(self.item_names)

    @property
    def n(self) -> int:
        return len(self.agent_names)

    def completed_profile(self) -> tuple[PreferenceOrder, ...]:
        """The deterministic monotone completion of every agent's relations."""
        return tuple(complete_partial(rel) for rel in self.relations)

    def random_profile(self, seed: int) -> tuple[PreferenceOrder, ...]:
        """An alternative monotone completion, deterministic per seed."""
        return tuple(
            random_completion(rel, seed * 31 + i)
            for i, rel in enumerate(self.relations)
        )


def _chain(m: int, names: str, *elements) -> PartialRelations:
    groups = []
    for element in elements:
        if isinstance(element, str):
            groups.append((parse_bundle(element, names),))
        else:
            groups.append(tuple(parse_bundle(text, names) for text in element))
    return PartialRelations(m, tuple(chain_pairs(groups)))


def counterexample_4x4() -> NamedInstance:
    """Four items, four agents, no equilibrium anywhere in the region.

    The fourth agent's preferences are unconstrained: the argument never
    needs them, so any monotone completion works.
    """
    names = "wxyz"
    m = 4
    alice = _chain(m, names, "xy", "w", "xz", "yz", "x", "y", "z")
    bob = _chain(m, names, "w", "z", "x", "y")
    carl = _chain(m, names, "x", "y", "w", "z")
    dana = PartialRelations(m=m, pairs=())
    # Income chain: 2b > 2c > b+d > a > c+d > 2d > b > c > d > 0.
    region = IncomeRegion.of(
        4,
        [
            (0, 2, -2, 0),
            (0, -1, 2, -1),
            (-1, 1, 0, 1),
            (1, 0, -1, -1),
            (0, 0, 1, -1),
            (0, -1, 0, 2),
            (0, 1, -1, 0),
            (0, 0, 0, 1),
        ],
        reference=IncomeVector.of([Fraction(27, 2), 9, 8, 5]),
    )
    return NamedInstance(
        item_names=tuple(names),
        agent_names=("Alice", "Bob", "Carl", "Dana"),
        relations=(alice, bob, carl, dana),
        region=region,
    )


def counterexample_5x2() -> NamedInstance:
    """Five items, two agents, no equilibrium when a > b > 3a/4.

    Bundles joined by commas in the chains below are mutually unordered;
    the argument does not depend on how a completion orders them.
    """
    names = "vwxyz"
    m = 5
    quartets = [
        "".join(sorted(set(names) - {missing}, key=names.index)) for missing in names
    ]
    triplets = ["".join(c) for c in combinations(names, 3)]
    pairs = ["".join(c) for c in combinations(names, 2)]
    alice = _chain(
        m,
        names,
        quartets,
        ["vwx", "vwy", "vwz"],
        "vw",
        "xyz",
        ["vxy", "vxz", "vyz", "wxy", "wxz", "wyz"],
        [p for p in pairs if p != "vw"],
        list(names),
    )
    bob = _chain(
        m,
        names,
        quartets,
        [t for t in triplets if t != "xyz"],
        ["vx", "vy", "vz", "wx", "wy", "wz"],
        "xyz",
        "vw",
        "v",
        "w",
        ["xy", "xz", "yz"],
        ["x", "y", "z"],
    )
    region = IncomeRegion.of(
        2,
        [(1, -1), (-3, 4)],  # a > b and 4b > 3a
        reference=IncomeVector.of([1, Fraction(4, 5)]),
    )
    return NamedInstance(
        item_names=tuple(names),
        agent_names=("Alice", "Bob"),
        relations=(alice, bob),
        region=region,
    )


def counterexample_4x3() -> NamedInstance:
    """Four items, three agents, no equilibrium on an open income region.

    Found by exhaustive search while validating the four-item/three-agent
    constructions: with the fully specified profile below, no allocation
    admits equilibrium prices anywhere in the region
    ``2b > a > b+c``, ``a < 3c``, ``b < 2c`` (reference point 16, 9, 6).

    Sketch, at the reference point: with an empty-handed agent every
    item would have to cost more than that agent's income, which the
    owners' budgets cannot cover (a < 3c, b < 2c), so each agent holds
    something and the split is 2+1+1.  Bob's bundle must then be the
    single item z, else he affords it (his best single beats every other
    single and even some pairs).  Whichever way the remaining items
    w, x, y are split between Alice (two items, paying a) and Carl (one,
    paying c), some bundle that Alice ranks above her own -- one of
    wx, wy, yz, xy, or the single w -- stays within her budget: e.g.
    yz costs at most b + c < a whenever z is not hers, and if z is hers
    the leftover pair xy costs b + c < a.  Exhaustive rational
    feasibility over all 81 allocations confirms the sketch exactly.
    """
    names = "wxyz"
    m = 4
    alice_order = [
        "", "y", "z", "x", "xz", "w", "wz", "xy", "wy", "wx",
        "wxy", "wxz", "yz", "wyz", "xyz", "wxyz",
    ]
    bob_order = [
        "", "x", "w", "y", "wx", "xy", "wy", "z", "xz", "yz",
        "wz", "wyz", "xyz", "wxy", "wxz", "wxyz",
    ]
    carl_order = [
        "", "y", "x", "xy", "z", "yz", "xz", "w", "wx", "wz",
        "wxz", "wy", "xyz", "wyz", "wxy", "wxyz",
    ]

    def full_chain(order_worst_first):
        return _chain(m, names, *reversed(order_worst_first))

    region = IncomeRegion.of(
        3,
        [
            (-1, 2, 0),   # 2b > a
            (1, -1, -1),  # a > b + c
            (-1, 0, 3),   # a < 3c
            (0, -1, 2),   # b < 2c
            (1, -1, 0),   # a > b
            (0, 1, -1),   # b > c
            (0, 0, 1),    # c > 0
        ],
        reference=IncomeVector.of([16, 9, 6]),
    )
    return NamedInstance(
        item_names=tuple(names),
        agent_names=("Alice", "Bob", "Carl"),
        relations=(
            full_chain(alice_order),
            full_chain(bob_order),
            full_chain(carl_order),
        ),
        region=region,
    )


NAMED_INSTANCES = {
    "counterexample-4x4": counterexample_4x4,
    "counterexample-5x2": counterexample_5x2,
    "counterexample-4x3": counterexample_4x3,
}


# Both samplers draw each income from the multiples of 1/_GRID in
# (0, _HIGH] and sort the draw highest first.
_GRID = 100
_HIGH = 20


def random_generic_incomes(
    m: int, n: int, seed: int, count: int = 1
) -> list[IncomeVector]:
    """Generic income vectors (descending), deterministic per seed: off the
    solver's excluded hyperplanes where the solver covers the size, and
    distinct where it does not."""
    try:
        planes = excluded_hyperplanes(m, n)
    except UnsupportedCaseError:
        planes = ()

    def accept(t: list[int]) -> bool:
        return len(set(t)) == n and not any(hp.contains(t) for hp in planes)

    return _sample_incomes(
        f"incomes:{m}:{n}:{seed}", [1] * n, [_HIGH * _GRID] * n, _GRID,
        descending=True, accept=accept,
        count=count, budget=100_000, what="generic points",
    )


def stratified_incomes(
    m: int, n: int, range_label: str, seed: int, count: int
) -> list[IncomeVector]:
    """Generic income vectors hitting exactly one dispatch range.

    Rejection sampling on a rational grid; deterministic per seed.
    Raises ``ValueError`` for an unknown label and
    ``EmptyRegionSamplerError`` when the retry budget runs out.
    """
    if range_label not in range_labels(m, n):
        raise ValueError(
            f"unknown range {range_label!r} for {m} items / {n} agents; "
            f"valid: {', '.join(range_labels(m, n))}"
        )

    def accept(t: list[int]) -> bool:
        try:
            return _range_at(m, t).label == range_label
        except NotGenericError:
            return False

    return _sample_incomes(
        f"stratified:{m}:{n}:{range_label}:{seed}", [1] * n, [_HIGH * _GRID] * n, _GRID,
        descending=True, accept=accept,
        count=count, budget=max(100_000, 5000 * count), what=f"samples of {range_label}",
    )
