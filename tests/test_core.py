"""Bundles and strict monotone preference orders."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from cefai.core import (
    CyclicRelationsError,
    DuplicateBundleError,
    MissingBundleError,
    MonotonicityViolationError,
    PartialRelations,
    TiedSubsetSumsError,
    additive_preference,
    all_bundles,
    bundle_of,
    chain_pairs,
    complete_partial,
    format_bundle,
    items_of,
    make_preference,
    parse_bundle,
    random_completion,
    random_preference,
    uniform_below,
)

from conftest import is_subset, satisfies_relations

X, Y, Z = 0b001, 0b010, 0b100


def assert_monotone(pref):
    for s in all_bundles(pref.m):
        for t in all_bundles(pref.m):
            if s != t and is_subset(s, t):
                assert pref.prefers(t, s)


def assert_cycle_best_first(rel: PartialRelations) -> tuple:
    """The reported cycle of ``rel``, after checking that each bundle of
    it ranks above the next (and the last above the first): an asserted
    pair, or a strict superset over a subset."""
    with pytest.raises(CyclicRelationsError) as err:
        complete_partial(rel)
    cycle = err.value.cycle
    assert len(cycle) >= 2
    for better, worse in zip(cycle, cycle[1:] + cycle[:1]):
        assert (better, worse) in rel.pairs or (
            better != worse and is_subset(worse, better)
        ), (cycle, rel.pairs)
    return cycle


class TestMakePreference:
    def test_single_item_is_forced(self):
        pref = make_preference(1, [0b0, 0b1])
        assert pref.prefers(0b1, 0b0)

    def test_two_items_valid(self):
        pref = make_preference(2, [0b00, 0b01, 0b10, 0b11])
        assert pref.rank[0b11] == 3

    def test_superset_below_subset_rejected(self):
        with pytest.raises(MonotonicityViolationError) as err:
            make_preference(2, [0b00, 0b11, 0b01, 0b10])
        assert err.value.subset == 0b01
        assert err.value.superset == 0b11

    def test_duplicate_bundle(self):
        with pytest.raises(DuplicateBundleError):
            make_preference(2, [0b00, 0b01, 0b01, 0b11])

    def test_missing_bundle(self):
        with pytest.raises(MissingBundleError):
            make_preference(2, [0b00, 0b01, 0b10])

    def test_empty_bundle_always_rank_zero(self):
        for seed in range(20):
            assert random_preference(3, seed).rank[0] == 0


class TestCompletePartial:
    def test_unique_monotone_completion(self):
        rel = PartialRelations(m=2, pairs=((Y, X),))
        assert complete_partial(rel).ranking() == [0b00, 0b01, 0b10, 0b11]

    def test_counterexample_chain_respected(self):
        # the asserted chain xy > w > xz > yz > x > y > z over items w,x,y,z
        w, x, y, z = 0b0001, 0b0010, 0b0100, 0b1000
        chain = [x | y, w, x | z, y | z, x, y, z]
        rel = PartialRelations(4, tuple(chain_pairs([[b] for b in chain])))
        pref = complete_partial(rel)
        ranks = [pref.rank[b] for b in chain]
        assert ranks == sorted(ranks, reverse=True)
        assert satisfies_relations(pref, rel)
        assert_monotone(pref)

    def test_subset_asserted_above_superset_is_cyclic(self):
        rel = PartialRelations(m=2, pairs=((X, X | Y),))
        with pytest.raises(CyclicRelationsError):
            complete_partial(rel)

    def test_direct_cycle_reported(self):
        rel = PartialRelations(m=2, pairs=((X, Y), (Y, X)))
        with pytest.raises(CyclicRelationsError) as err:
            complete_partial(rel)
        assert len(err.value.cycle) >= 2

    def test_three_cycle_reported_best_first(self):
        rel = PartialRelations(m=3, pairs=((X, Y), (Y, Z), (Z, X)))
        assert assert_cycle_best_first(rel) == (X, Y, Z)
        with pytest.raises(CyclicRelationsError, match=r"cyclic: x > y > z > \.\.\.$"):
            complete_partial(rel)

    def test_monotonicity_clash_reported_best_first(self):
        assert_cycle_best_first(PartialRelations(m=2, pairs=((X, X | Y),)))

    def test_random_cyclic_relations_reported_best_first(self):
        rng = random.Random("cyclic-relations")
        cyclic = 0
        for _ in range(200):
            m = rng.randint(2, 4)
            pairs = tuple(
                (rng.randrange(1, 1 << m), rng.randrange(1, 1 << m))
                for _ in range(rng.randint(2, 6))
            )
            rel = PartialRelations(m=m, pairs=tuple((b, w) for b, w in pairs if b != w))
            try:
                complete_partial(rel)
            except CyclicRelationsError:
                assert_cycle_best_first(rel)
                cyclic += 1
        assert cyclic >= 20, cyclic

    def test_deterministic(self):
        rel = PartialRelations(m=3, pairs=((Y | Z, X | Z), (X, Y)))
        assert complete_partial(rel) == complete_partial(rel)

    def test_random_completion_satisfies_relations(self):
        rel = PartialRelations(m=4, pairs=((0b0011, 0b0100), (0b1000, 0b0010)))
        for seed in range(30):
            pref = random_completion(rel, seed)
            assert satisfies_relations(pref, rel)
            assert_monotone(pref)


class TestAdditive:
    def test_counterexample_values(self):
        # w,x,y,z valued 11,7,5,3: then xy=12 > w=11 > xz=10 > yz=8 > x > y > z
        pref = additive_preference(4, [11, 7, 5, 3])
        w, x, y, z = 0b0001, 0b0010, 0b0100, 0b1000
        chain = [x | y, w, x | z, y | z, x, y, z]
        ranks = [pref.rank[b] for b in chain]
        assert ranks == sorted(ranks, reverse=True)
        assert pref.prefers(x | y, w)

    def test_tied_sums_rejected(self):
        with pytest.raises(TiedSubsetSumsError):
            additive_preference(2, [1, 1])

    def test_binary_counting_order(self):
        # values 4,2,1 rank bundles exactly by their bitmask read as binary
        pref = additive_preference(3, [4, 2, 1])
        expected = sorted(all_bundles(3), key=lambda b: int(format(b, "03b")[::-1], 2))
        assert pref.ranking() == expected

    def test_agrees_with_subset_sum_comparison(self, rng):
        for _ in range(10):
            values = [rng.randint(1, 200) for _ in range(4)]
            try:
                pref = additive_preference(4, values)
            except TiedSubsetSumsError:
                continue
            for s in all_bundles(4):
                for t in all_bundles(4):
                    if s == t:
                        continue
                    total_s = sum(values[j] for j in items_of(s))
                    total_t = sum(values[j] for j in items_of(t))
                    assert pref.prefers(s, t) == (total_s > total_t)


class TestRandomPreference:
    def test_deterministic(self):
        assert random_preference(3, 7) == random_preference(3, 7)

    def test_single_item_unique_order(self):
        assert random_preference(1, 0).ranking() == [0, 1]

    @given(seed=st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=200, deadline=None)
    def test_always_valid_and_monotone(self, seed):
        pref = random_preference(3, seed)
        make_preference(3, pref.ranking())  # revalidates bijectivity+monotonicity

    def test_many_seeds_m4(self):
        for seed in range(300):
            pref = random_preference(4, seed)
            make_preference(4, pref.ranking())


class TestUniformBelow:
    # n = 1, the powers of two, one past each, and 2^62, which takes two
    # getrandbits words per draw
    SIZES = [1] + [1 << k for k in range(1, 63)] + [(1 << k) + 1 for k in range(1, 62)]

    def test_matches_randrange_and_randint_and_leaves_the_same_state(self):
        for k in range(1000):
            rng, ours = random.Random(f"below:{k}"), random.Random(f"below:{k}")
            below = uniform_below(ours)
            for n in self.SIZES:
                assert below(n) == rng.randrange(n)
                lo = n // 3 - 5
                assert lo + below(n) == rng.randint(lo, lo + n - 1)
            assert ours.getstate() == rng.getstate()

    def test_a_one_value_range_consumes_a_draw(self):
        rng = random.Random("one")
        assert uniform_below(rng)(1) == 0
        assert rng.getstate() != random.Random("one").getstate()


class TestBundleText:
    def test_format_parse_round_trip(self):
        names = ("v", "w", "x", "y", "z")
        for bundle in all_bundles(5):
            assert parse_bundle(format_bundle(bundle, names), names) == bundle

    def test_multichar_names_use_separator(self):
        names = ("left", "right")
        text = format_bundle(0b11, names)
        assert text == "left+right"
        assert parse_bundle(text, names) == 0b11

    def test_unknown_item_rejected(self):
        with pytest.raises(ValueError):
            parse_bundle("q", ("x", "y"))

    def test_bundle_of_items_round_trip(self):
        assert items_of(bundle_of([0, 3])) == (0, 3)
