"""Items, bundles, and strict monotone preference orders over bundles.

A bundle over a universe of ``m`` items (``m <= 16``) is an ``int`` bitmask:
bit ``j`` set means item ``j`` is in the bundle.  Bitmasks are canonical,
hashable, and cheap to enumerate exhaustively, which the equilibrium
verifiers rely on.  All money amounts elsewhere in the package are
``fractions.Fraction``, so every comparison is exact.

A preference order ranks all ``2^m`` bundles strictly (no indifference)
and monotonically (a bundle beats each of its proper subsets).

Three builders complete such an order from constraints: ``complete_partial``
and ``random_completion`` from asserted pairs ``better > worse``, and
``random_preference`` from none.  All three run one engine,
``_linear_extension``: a topological sort of the subset lattice plus the
pairs that emits bundles worst-first.  They differ only in which available
bundle comes next: the one with the fewest items (ties by smallest
bitmask), or a seeded uniform draw.  Contradictory pairs raise
``CyclicRelationsError`` naming a cycle.

Every seeded draw in the package, here and in ``market``'s income
sampler, comes from :func:`uniform_below`: on a ``random.Random(key)``,
``below(n)`` yields exactly the values ``randrange(n)`` yields, from the
same ``getrandbits`` calls, without ``randrange``'s argument handling.  So a
seed names the same preference orders and income points it named when
the builders called ``randrange`` and ``randint`` themselves;
``TestPinnedDraws`` in ``tests/test_instances.py`` pins digests of those
draws, and any change to how a value is drawn fails it.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, compress
from operator import le
from typing import Callable, Iterable, Sequence

Bundle = int

MAX_ITEMS = 16

#: Items are conventionally named with the tail of this alphabet: for three
#: items the names are x, y, z; for five they are v, w, x, y, z.
_NAME_ALPHABET = "vwxyz"

EMPTY_BUNDLE_SYMBOL = "∅"


class PreferenceError(ValueError):
    """Base class for invalid preference constructions."""


class DuplicateBundleError(PreferenceError):
    pass


class MissingBundleError(PreferenceError):
    pass


class MonotonicityViolationError(PreferenceError):
    """A bundle was ranked below one of its proper subsets."""

    def __init__(self, subset: Bundle, superset: Bundle, m: int):
        self.subset = subset
        self.superset = superset
        names = item_names(m)
        super().__init__(
            f"{format_bundle(subset, names)} is a proper subset of "
            f"{format_bundle(superset, names)} but is ranked above it"
        )


class TiedSubsetSumsError(PreferenceError):
    def __init__(self, first: Bundle, second: Bundle, m: int):
        self.first = first
        self.second = second
        names = item_names(m)
        super().__init__(
            f"bundles {format_bundle(first, names)} and "
            f"{format_bundle(second, names)} have equal total value"
        )


class CyclicRelationsError(PreferenceError):
    """The asserted relations contradict each other or monotonicity."""

    def __init__(self, cycle: Sequence[Bundle], m: int):
        self.cycle = tuple(cycle)
        names = item_names(m)
        chain = " > ".join(format_bundle(b, names) for b in cycle)
        super().__init__(f"relations are cyclic: {chain} > ...")


def bundle_of(items: Iterable[int]) -> Bundle:
    """Bitmask of the given item indices."""
    mask = 0
    for j in items:
        mask |= 1 << j
    return mask


def items_of(bundle: Bundle) -> tuple[int, ...]:
    """Item indices of a bundle, ascending."""
    items = []
    j = 0
    b = bundle
    while b:
        if b & 1:
            items.append(j)
        b >>= 1
        j += 1
    return tuple(items)


def all_bundles(m: int) -> range:
    """All 2^m bundles over an m-item universe (as masks)."""
    return range(1 << m)


def subsets_of_size(m: int, k: int) -> list[Bundle]:
    return [bundle_of(c) for c in combinations(range(m), k)]


def item_names(m: int) -> tuple[str, ...]:
    """Default item names: x,y,z / w,x,y,z / v,w,x,y,z for small m."""
    if m <= len(_NAME_ALPHABET):
        return tuple(_NAME_ALPHABET[len(_NAME_ALPHABET) - m:])
    return tuple(f"i{j}" for j in range(m))


def format_bundle(bundle: Bundle, names: Sequence[str]) -> str:
    """Render a bundle as a compact item string, e.g. ``xy``.

    >>> format_bundle(0b011, "xyz")
    'xy'
    >>> format_bundle(0, "xyz")
    '∅'
    """
    if bundle == 0:
        return EMPTY_BUNDLE_SYMBOL
    sep = "" if all(len(n) == 1 for n in names) else "+"
    return sep.join(names[j] for j in items_of(bundle))


def parse_bundle(text: str, names: Sequence[str]) -> Bundle:
    """Inverse of :func:`format_bundle` for the given item names.

    Single-character names concatenate (``"xy"``, and ``"x+y"`` is read
    too); when any name is longer, names join with ``+``.  The empty
    string and the empty-set symbol both parse to the empty bundle.

    >>> parse_bundle("yz", ["x", "yz"])
    2
    """
    if not isinstance(text, str):
        raise TypeError(f"a bundle is written as a string, got {text!r}")
    text = text.strip()
    if text in ("", EMPTY_BUNDLE_SYMBOL):
        return 0
    index = {name: j for j, name in enumerate(names)}
    joined = "+" in text or any(len(name) != 1 for name in names)
    parts = text.split("+") if joined else list(text)
    mask = 0
    for part in parts:
        if part not in index:
            raise ValueError(f"unknown item {part!r} (items: {', '.join(names)})")
        bit = 1 << index[part]
        if mask & bit:
            raise ValueError(f"item {part!r} listed twice in bundle {text!r}")
        mask |= bit
    return mask


@dataclass(frozen=True)
class PreferenceOrder:
    """A strict monotone total order over all bundles of ``m`` items.

    ``rank[b]`` is the position of bundle ``b`` in the order, from 0
    (the empty bundle, always worst) to ``2^m - 1`` (the full set,
    always best).  Construct through :func:`make_preference` or one of
    the other factories, which validate the invariants.
    """

    m: int
    rank: tuple[int, ...]

    def prefers(self, s: Bundle, t: Bundle) -> bool:
        """True iff bundle ``s`` is strictly better than ``t``."""
        return self.rank[s] > self.rank[t]

    def ranking(self) -> list[Bundle]:
        """All bundles from worst to best."""
        order = [0] * len(self.rank)
        for bundle, r in enumerate(self.rank):
            order[r] = bundle
        return order


def _check_universe(m: int) -> None:
    if not 0 <= m <= MAX_ITEMS:
        raise ValueError(f"item count must be between 0 and {MAX_ITEMS}, got {m}")


def make_preference(m: int, ranking: Sequence[Bundle]) -> PreferenceOrder:
    """Build a preference order from a worst-to-best bundle list.

    ``ranking`` must list every bundle over the m-item universe exactly
    once; position in the list is the rank.  Monotonicity is checked in
    one pass over the cover pairs (:func:`_monotone_order`), and a
    violation names the first pair ``(S, S + j)``, by S and then j, that
    is ranked downward.  The seeded builders write their ranks directly
    and pass the same check, so every order they return has passed it.

    >>> pref = make_preference(2, [0b00, 0b01, 0b10, 0b11])
    >>> pref.prefers(0b10, 0b01)
    True
    >>> make_preference(2, [0b00, 0b11, 0b01, 0b10])
    Traceback (most recent call last):
        ...
    cefai.core.MonotonicityViolationError: y is a proper subset of yz but is ranked above it
    """
    _check_universe(m)
    size = 1 << m
    rank = [-1] * size
    for position, bundle in enumerate(ranking):
        if not 0 <= bundle < size:
            raise ValueError(f"bundle {bundle:#x} outside the {m}-item universe")
        if rank[bundle] != -1:
            raise DuplicateBundleError(
                f"bundle {format_bundle(bundle, item_names(m))} listed twice"
            )
        rank[bundle] = position
    if len(ranking) < size or -1 in rank:
        missing = next(b for b in all_bundles(m) if rank[b] == -1)
        raise MissingBundleError(
            f"ranking omits bundle {format_bundle(missing, item_names(m))}"
        )
    return _monotone_order(m, rank)


def _monotone_order(m: int, rank: list[int]) -> PreferenceOrder:
    """The order with these ranks, a permutation of ``range(2^m)``, once
    it is found monotone; else ``MonotonicityViolationError`` names the
    first cover pair ``(S, S + j)``, by S and then j, ranked downward.

    Ranks rising along every cover pair suffices: any S ⊊ T is reachable
    by a chain of them.  The pairs come from :func:`_lattice`, and one
    pass over them, in C, compares the ranks and picks out the pairs that
    fall.
    """
    _, _, covers, lows, highs = _lattice(m)
    at = rank.__getitem__
    for subset, superset in compress(covers, map(le, map(at, highs), map(at, lows))):
        raise MonotonicityViolationError(subset, superset, m)
    return PreferenceOrder(m=m, rank=tuple(rank))


@dataclass(frozen=True)
class PartialRelations:
    """Asserted strict comparisons ``better > worse`` between bundles.

    Completion to a full order adds all monotonicity constraints; the
    asserted pairs must be consistent with them (acyclic overall).
    """

    m: int
    pairs: tuple[tuple[Bundle, Bundle], ...]


def chain_pairs(groups: Sequence[Sequence[Bundle]]) -> list[tuple[Bundle, Bundle]]:
    """The strict comparisons of a best-to-worst chain of groups, each
    group a sequence of bundles: every member of a group is asserted
    better than every member of the next group, and bundles inside one
    group stay mutually unordered.
    """
    pairs = []
    for upper, lower in zip(groups, groups[1:]):
        for b in upper:
            for w in lower:
                pairs.append((b, w))
    return pairs


def _find_cycle(succ: Sequence[Sequence[int]], stuck: set[int]) -> list[int]:
    """A cycle of ``stuck``, best first, where ``succ[w]`` lists the bundles
    that must rank above ``w`` and every stuck bundle has one that must rank
    below it among the stuck (else it would have been emitted).  The walk
    steps from the least stuck bundle to a worse stuck bundle until one
    repeats."""
    worse = {}
    for w in sorted(stuck):
        for b in succ[w]:
            worse.setdefault(b, w)
    walk = [min(stuck)]
    while walk[-1] not in walk[:-1]:
        walk.append(worse[walk[-1]])
    return walk[walk.index(walk[-1]):-1]


@lru_cache(maxsize=None)  # one entry per item count, at most MAX_ITEMS + 1
def _lattice(m: int) -> tuple:
    """Each bundle's one-larger supersets (added item ascending), its
    number of one-smaller subsets, and the cover pairs ``(S, S + j)``
    ordered by S, then j: as pairs, and as the tuples of their lower and
    upper sides."""
    succ = tuple(
        tuple(s | 1 << j for j in range(m) if not s >> j & 1) for s in range(1 << m)
    )
    covers = tuple((s, up) for s, ups in enumerate(succ) for up in ups)
    lows = tuple(s for s, _ in covers)
    highs = tuple(up for _, up in covers)
    return succ, tuple(b.bit_count() for b in range(1 << m)), covers, lows, highs


def _linear_extension(
    rel: PartialRelations,
    pop: Callable[[list], Bundle],
    push: Callable[[list, Bundle], None],
) -> PreferenceOrder:
    """Emit all bundles worst-first, extending the subset lattice and the
    asserted pairs.

    A bundle becomes available once every bundle that must rank below it
    (its one-smaller subsets and the worse side of each pair it wins) was
    emitted.  ``push`` adds a bundle to the available list, in whatever
    form ``pop`` reads it, as it becomes available (the first ones in
    ascending bitmask order); ``pop`` removes the one to emit next.
    """
    m = rel.m
    _check_universe(m)
    size = 1 << m
    lattice, indegree, *_ = _lattice(m)
    succ, indegree = list(lattice), list(indegree)
    for better, worse in dict.fromkeys(rel.pairs):  # each distinct pair once
        if not (0 <= better < size and 0 <= worse < size):
            raise ValueError("relation refers to a bundle outside the universe")
        succ[worse] += (better,)  # a new tuple: the cached ones stay as they are
        indegree[better] += 1
    available: list = []
    for bundle in range(size):
        if indegree[bundle] == 0:
            push(available, bundle)
    rank = [0] * size
    emitted = 0
    while available:
        bundle = pop(available)
        rank[bundle] = emitted
        emitted += 1
        for nxt in succ[bundle]:
            indegree[nxt] -= 1
            if indegree[nxt] == 0:
                push(available, nxt)
    if emitted < size:
        stuck = {b for b in range(size) if indegree[b] > 0}
        raise CyclicRelationsError(_find_cycle(succ, stuck), m)
    return _monotone_order(m, rank)


def uniform_below(rng: random.Random) -> Callable[[int], int]:
    """``below(n)`` for ``n >= 1``: a uniform draw from ``range(n)`` out
    of ``rng``.

    Successive calls return exactly what successive ``rng.randrange(n)``
    calls would, and leave ``rng`` in the same state: like
    ``Random._randbelow``, each draw takes ``getrandbits(n.bit_length())``
    until the result is below ``n`` (so even ``n = 1`` consumes a draw).
    ``rng.randint(lo, hi)`` is ``lo + below(hi - lo + 1)`` the same way.
    """
    getrandbits = rng.getrandbits

    def below(n: int) -> int:
        k = n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return r

    return below


def _random_extension(rel: PartialRelations, rng_key: str) -> PreferenceOrder:
    """:func:`_linear_extension` drawing the next bundle uniformly: the
    ``below(len(available))``-th of the available list in its current
    order, swapped to the end and removed.  ``below`` is
    :func:`uniform_below` on ``random.Random(rng_key)``, so the indices
    are the ones ``randrange(len(available))`` gave on that generator,
    and ``TestPinnedDraws`` pins the orders they build."""
    below = uniform_below(random.Random(rng_key))

    def pop(available: list[Bundle]) -> Bundle:
        idx = below(len(available))
        available[idx], available[-1] = available[-1], available[idx]
        return available.pop()

    return _linear_extension(rel, pop, list.append)


def complete_partial(rel: PartialRelations) -> PreferenceOrder:
    """Extend partial relations to a full strict monotone order.

    Deterministic: bundles are emitted worst-first; whenever several
    bundles have all their constraints satisfied, the one with the
    fewest items wins, ties broken by smallest bitmask.

    >>> rel = PartialRelations(m=2, pairs=(((0b10), (0b01)),))  # y > x
    >>> complete_partial(rel).ranking() == [0b00, 0b01, 0b10, 0b11]
    True
    """
    return _linear_extension(
        rel,
        lambda heap: heapq.heappop(heap)[1],
        lambda heap, bundle: heapq.heappush(heap, (bundle.bit_count(), bundle)),
    )


def additive_preference(
    m: int, values: Sequence[Fraction | int | str]
) -> PreferenceOrder:
    """Order bundles by the sum of per-item values.

    All 2^m subset sums must be pairwise distinct, otherwise the order
    would not be strict.

    >>> additive_preference(3, [4, 2, 1]).ranking()
    [0, 4, 2, 6, 1, 5, 3, 7]
    """
    _check_universe(m)
    if len(values) != m:
        raise ValueError(f"expected {m} item values, got {len(values)}")
    vals = [Fraction(v) for v in values]
    total: dict[Fraction, Bundle] = {}
    sums = []
    for bundle in all_bundles(m):
        s = sum((vals[j] for j in items_of(bundle)), Fraction(0))
        if s in total:
            raise TiedSubsetSumsError(total[s], bundle, m)
        total[s] = bundle
        sums.append(s)
    ranking = sorted(all_bundles(m), key=sums.__getitem__)
    return make_preference(m, ranking)


def random_preference(m: int, seed: int) -> PreferenceOrder:
    """Random strict monotone order, deterministic for a given seed.

    A random topological order of the subset lattice: repeatedly pick
    uniformly among the bundles whose proper subsets were all emitted.
    """
    return _random_extension(PartialRelations(m=m, pairs=()), f"preference:{seed}")


def random_completion(rel: PartialRelations, seed: int) -> PreferenceOrder:
    """Random monotone completion honoring all asserted pairs.

    Like :func:`complete_partial` but the next bundle is drawn uniformly
    from the currently unconstrained ones; deterministic per seed.
    """
    return _random_extension(rel, f"completion:{seed}")
