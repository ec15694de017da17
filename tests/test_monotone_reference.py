"""``make_preference``'s one-pass monotonicity check against the loop of
``monotone_reference``: the same verdict on every ranking, and on a
rejected one the same ``MonotonicityViolationError`` (subset, superset
and text)."""

import random

import pytest

from cefai.core import (
    MonotonicityViolationError,
    PartialRelations,
    complete_partial,
    make_preference,
    random_completion,
    random_preference,
)
from cefai.instances import NAMED_INSTANCES

from monotone_reference import reference_validate_monotone


def outcome(check, m, rank):
    """None when ``check`` accepts the ranks, else the violation it raises."""
    try:
        check(m, rank)
    except MonotonicityViolationError as exc:
        return exc.subset, exc.superset, str(exc)
    return None


def package_check(m, rank):
    """``make_preference`` on the worst-to-best list of these ranks."""
    ranking = [0] * len(rank)
    for bundle, r in enumerate(rank):
        ranking[r] = bundle
    assert make_preference(m, ranking).rank == tuple(rank)


def assert_same_outcome(m, rank) -> tuple | None:
    want = outcome(reference_validate_monotone, m, rank)
    assert outcome(package_check, m, rank) == want, (m, rank)
    return want


def cover_pairs(m):
    return [
        (s, s | 1 << j) for s in range(1 << m) for j in range(m) if not s >> j & 1
    ]


@pytest.mark.parametrize("m", range(0, 5))
def test_every_single_cover_swap(m):
    # a monotone order with the ranks of one cover pair S ⊂ S + j swapped
    bases = [complete_partial(PartialRelations(m=m, pairs=()))]
    bases += [random_preference(m, seed) for seed in range(4)]
    for base in bases:
        assert assert_same_outcome(m, list(base.rank)) is None
        for subset, superset in cover_pairs(m):
            rank = list(base.rank)
            rank[subset], rank[superset] = rank[superset], rank[subset]
            found = assert_same_outcome(m, rank)
            # no pair after the swapped one in (S, then j) order is named
            assert found is not None and found[:2] <= (subset, superset)


def test_seeded_random_rank_vectors():
    rng = random.Random("monotone-reference")
    verdicts = {True: 0, False: 0}
    for _ in range(500):
        m = rng.randint(1, 5)
        if rng.random() < 0.5:
            rank = list(range(1 << m))
            rng.shuffle(rank)
        else:
            # a monotone order with a few random transpositions: violations
            # late in the cover-pair order, and some rankings that pass
            rank = list(random_preference(m, rng.randrange(1 << 30)).rank)
            for _ in range(rng.randint(0, 2)):
                a, b = rng.randrange(1 << m), rng.randrange(1 << m)
                rank[a], rank[b] = rank[b], rank[a]
        verdicts[assert_same_outcome(m, rank) is None] += 1
    assert verdicts[True] > 0 and verdicts[False] > 0


def test_accepts_every_builder_order():
    orders = [random_preference(m, seed) for m in range(0, 7) for seed in range(20)]
    for name in sorted(NAMED_INSTANCES):
        for rel in NAMED_INSTANCES[name]().relations:
            orders.append(complete_partial(rel))
            orders.extend(random_completion(rel, seed) for seed in range(10))
    for pref in orders:
        assert reference_validate_monotone(pref.m, pref.rank) is None
        assert make_preference(pref.m, pref.ranking()) == pref
