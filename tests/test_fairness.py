"""Share guarantees: maximin bundles and the generalized guarantee."""

from itertools import combinations, product

import pytest

from cefai import fairness
from cefai.core import additive_preference, items_of, random_preference
from cefai.fairness import (
    MAX_MAXIMIN_ITEMS,
    MAX_MAXIMIN_PARTS,
    _small_subsets,
    _union_masks,
    audit_ce_fairness,
    maximin,
)
from cefai.market import Allocation, CEPair, DimensionMismatchError, IncomeVector, PriceVector
from cefai.instances import random_generic_incomes
from cefai.solver import solve

from ce_reference import brute_maximin, check_guarantee
from conftest import chain_preference


def mask_test(pref, x, l, d, r):
    """The audit's decision for an agent whose own bundle has rank r: some
    union mask of X misses every bundle ranked at or below r."""
    worse = 0
    for bundle, rank in enumerate(pref.rank):
        if rank <= r:
            worse |= 1 << bundle
    return any(not pm & worse for pm in _union_masks(x, l, d))


def fresh_union_masks(x, l, d):
    """The union masks of X for (l, d) without bit 0, enumerated afresh over
    every assignment of X's items to d labelled parts, sorted."""
    items = items_of(x)
    masks = set()
    for assignment in product(range(d), repeat=len(items)):
        parts = [0] * d
        for item, part in zip(items, assignment):
            parts[part] |= 1 << item
        unions = {sum(parts[k] for k in chosen) for chosen in combinations(range(d), l)}
        masks.add(sum(1 << u for u in unions))
    return sorted(pm for pm in masks if not pm & 1)


class TestPartitionCache:
    def test_one_enumeration_per_set_and_part_count(self):
        fairness._partitions.cache_clear()
        fairness._union_masks.cache_clear()
        sets = [0b1, 0b1011, 0b11111, 0b110110]
        keys = [(x, l, d) for x in sets for d in range(1, 5) for l in range(1, d + 1)]
        masks = {key: _union_masks(*key) for key in keys}
        # partitions are enumerated once per (X, d), across every l
        assert fairness._partitions.cache_info().misses == len(sets) * 4
        assert fairness._union_masks.cache_info().misses == len(keys)
        # a second pass enumerates nothing and returns the same tuples
        assert all(_union_masks(*key) is masks[key] for key in keys)
        assert fairness._partitions.cache_info().misses == len(sets) * 4
        assert fairness._union_masks.cache_info().misses == len(keys)
        for key, got in masks.items():
            assert sorted(got) == fresh_union_masks(*key), key
            assert len(set(got)) == len(got), key


class TestSizeTest:
    def test_small_subsets_are_the_subsets_with_at_most_k_items(self):
        for x in range(1 << 5):
            for k in range(6):
                want = 0
                for size in range(k + 1):
                    for chosen in combinations(items_of(x), size):
                        want |= 1 << sum(1 << item for item in chosen)
                assert _small_subsets(x, k) == want, (x, k)

    def test_small_subsets_settle_only_holding_shares(self):
        # the l smallest of any d parts of U hold at most l*|U|//d items and
        # form one of the partition's l-unions: when every subset of U that
        # small ranks at or below the own bundle, so does one l-union of each
        # partition, and no union mask misses ``worse``
        masks = {}
        settled = 0
        for m in range(1, 6):
            for seed in range(3):
                pref = random_preference(m, seed=seed)
                worse = 0
                for bundle in sorted(range(1 << m), key=pref.rank.__getitem__):
                    worse |= 1 << bundle
                    for x in range(1 << m):
                        for d in range(2, MAX_MAXIMIN_PARTS + 1):
                            for l in range(1, d):
                                if _small_subsets(x, l * x.bit_count() // d) & ~worse:
                                    continue
                                settled += 1
                                if (x, l, d) not in masks:
                                    masks[x, l, d] = fresh_union_masks(x, l, d)
                                assert all(pm & worse for pm in masks[x, l, d]), (
                                    m, seed, x, l, d, bin(worse)
                                )
        assert settled > 0


class TestMaximin:
    def test_keeping_all_parts_returns_everything(self):
        pref = random_preference(4, seed=3)
        for d in (1, 2, 3):
            assert maximin(pref, 0b1011, d, d) == 0b1011

    @pytest.mark.parametrize(
        "m,x,l,d",
        [(3, 0b111, 0, 3), (3, 0b111, 4, 3), (3, 0b111, 1, 7), (7, 0b1111111, 1, 2)],
        ids=["l-zero", "l-above-d", "d-seven", "seven-items"],
    )
    def test_bounds_refused(self, m, x, l, d):
        with pytest.raises(ValueError, match="1 <= l <= d|at most"):
            maximin(random_preference(m, seed=1), x, l, d)

    @pytest.mark.parametrize("x", [0b100, 0b1100, 0b111, -1])
    @pytest.mark.parametrize("l", [1, 2])
    def test_bundle_outside_items_refused(self, x, l):
        # a bundle of items the order does not rank has no maximin bundle,
        # not even when every part is kept
        with pytest.raises(ValueError, match=f"bundle {x:#b} is not a bundle"):
            maximin(random_preference(2, 1), x, l, 2)

    def test_additive_three_items_divider(self):
        # values 4,2,1: splitting into 3 singletons leaves the 1-valued item
        pref = additive_preference(3, [4, 2, 1])
        assert maximin(pref, 0b111, 1, 3) == 0b100

    def test_agrees_with_direct_enumeration(self):
        # every X over 4 items and every 1 <= l <= d <= 4, under seeded
        # preferences; the brute force also answers the |X| <= d - l
        # queries, which maximin answers without a search
        for seed in range(6):
            pref = random_preference(4, seed=seed)
            for x in range(16):
                for d in range(1, 5):
                    for l in range(1, d + 1):
                        want = brute_maximin(pref, x, l, d)
                        assert maximin(pref, x, l, d) == want, (seed, x, l, d)
                        if x.bit_count() <= d - l:
                            assert want == 0

    def test_mask_test_decides_every_rank_threshold(self):
        # every X over 4 items, every 1 <= l < d <= 4 and every own rank r,
        # the |X| <= d - l queries (the maximin bundle is empty) included
        for seed in range(6):
            pref = random_preference(4, seed=seed)
            for x in range(16):
                for d in range(2, 5):
                    for l in range(1, d):
                        guaranteed = pref.rank[brute_maximin(pref, x, l, d)]
                        for r in range(16):
                            want = guaranteed > r
                            assert mask_test(pref, x, l, d, r) == want, (seed, x, l, d, r)

    @pytest.mark.parametrize("m", [5, 6])
    def test_mask_test_on_larger_item_sets(self, m, rng):
        for _ in range(40):
            pref = random_preference(m, seed=rng.randrange(10**6))
            x = rng.randrange(1 << m)
            d = rng.randint(2, MAX_MAXIMIN_PARTS)
            l = rng.randint(1, d - 1)
            want = brute_maximin(pref, x, l, d)
            assert maximin(pref, x, l, d) == want, (x, l, d)
            guaranteed = pref.rank[want]
            for r in range(1 << m):
                assert mask_test(pref, x, l, d, r) == (guaranteed > r), (x, l, d, r)

    def test_monotone_in_parts_kept(self, rng):
        for _ in range(15):
            pref = random_preference(4, seed=rng.randrange(10**6))
            x = rng.randrange(1, 16)
            d = rng.randint(2, 4)
            for l in range(1, d):
                lower = maximin(pref, x, l, d)
                higher = maximin(pref, x, l + 1, d)
                assert not pref.prefers(lower, higher)

    def test_more_parts_never_help_the_divider(self, rng):
        for _ in range(15):
            pref = random_preference(4, seed=rng.randrange(10**6))
            x = rng.randrange(1, 16)
            for d in range(1, 4):
                coarse = maximin(pref, x, 1, d)
                fine = maximin(pref, x, 1, d + 1)
                assert not pref.prefers(fine, coarse)


class TestCheckGuarantee:
    def test_equal_incomes_single_agent_reduces_to_envy(self):
        pref = chain_preference(2, 0b10, 0b01)  # prefers y to x
        profile = [pref, pref]
        incomes = IncomeVector.of([1, 1])
        alloc = Allocation(m=2, bundles=(0b01, 0b10))
        # agent 0 holds x but prefers agent 1's y: guarantee applicable, violated
        result = check_guarantee(profile, incomes, alloc, 0, [1], 1, 1)
        assert result.applicable and not result.holds
        assert result.guaranteed == 0b10
        # agent 1 holds their favorite: holds
        result = check_guarantee(profile, incomes, alloc, 1, [0], 1, 1)
        assert result.applicable and result.holds

    def test_premise_gate(self):
        pref = chain_preference(2)
        profile = [pref, pref]
        incomes = IncomeVector.of([1, 3])
        alloc = Allocation(m=2, bundles=(0b01, 0b10))
        result = check_guarantee(profile, incomes, alloc, 0, [1], 1, 1)
        assert not result.applicable  # 1 < 3

    def test_whole_group_maximin_share(self):
        pref = additive_preference(3, [4, 2, 1])
        profile = [pref, pref, pref]
        incomes = IncomeVector.of([1, 1, 1])
        alloc = Allocation(m=3, bundles=(0b100, 0b010, 0b001))
        result = check_guarantee(profile, incomes, alloc, 0, [0, 1, 2], 1, 3)
        assert result.applicable
        assert result.guaranteed == 0b100  # the 1-out-of-3 share of everything
        assert result.holds


    def test_bounds_enforced(self):
        # l > d, l < 1, too many parts, too many items
        for m, l, d in [
            (3, 2, 1), (3, 0, 1), (3, 1, MAX_MAXIMIN_PARTS + 1), (MAX_MAXIMIN_ITEMS + 1, 1, 1)
        ]:
            pref = random_preference(m, seed=0)
            alloc = Allocation(m=m, bundles=((1 << m) - 1, 0))
            with pytest.raises(ValueError):
                check_guarantee([pref, pref], IncomeVector.of([2, 1]), alloc, 0, [1], l, d)


class TestAudit:
    @pytest.mark.parametrize("d_max", [0, MAX_MAXIMIN_PARTS + 1])
    def test_d_max_bounds_enforced(self, d_max):
        pref = random_preference(3, seed=1)
        pair, _ = solve([pref], IncomeVector.of([5]))
        with pytest.raises(ValueError, match="d_max"):
            audit_ce_fairness([pref], IncomeVector.of([5]), pair, d_max=d_max)

    def test_item_count_enforced(self):
        m = MAX_MAXIMIN_ITEMS + 1
        pref = random_preference(m, seed=1)
        pair = CEPair(
            prices=PriceVector.of([1] * m),
            allocation=Allocation(m=m, bundles=((1 << m) - 1,)),
        )
        with pytest.raises(ValueError):
            audit_ce_fairness([pref], IncomeVector.of([m]), pair)

    @pytest.mark.parametrize(
        "agents, incomes",
        [(3, [7, 5]), (3, [7, 5, 3, 2]), (2, [7, 5, 3])],
        ids=["incomes-shorter", "incomes-longer", "profile-shorter"],
    )
    def test_dimension_mismatch(self, agents, incomes):
        profile = [random_preference(3, seed=s) for s in range(3)]
        pair, _ = solve(profile, IncomeVector.of([7, 5, 3]))
        with pytest.raises(DimensionMismatchError):
            audit_ce_fairness(profile[:agents], IncomeVector.of(incomes), pair)

    def test_solver_output_always_clean(self, rng):
        from cefai.pixep import NoValidSpeError

        audited = 0
        while audited < 6:
            m, n = rng.choice([(3, 3), (4, 2), (4, 3)])
            incomes = random_generic_incomes(m, n, seed=rng.randrange(10**6))[0]
            profile = [
                random_preference(m, seed=rng.randrange(10**6)) for _ in range(n)
            ]
            try:
                pair, _ = solve(profile, incomes)
            except NoValidSpeError:  # rare instances admit no equilibrium
                continue
            report = audit_ce_fairness(profile, incomes, pair, d_max=4)
            assert not report.violations
            assert report.applicable > 0
            audited += 1

    def test_corrupted_pair_flagged_consistently(self, rng):
        # swapping two bundles generally breaks guarantees; whatever the audit
        # reports must agree with a direct recomputation
        flagged = 0
        for _ in range(8):
            m, n = (3, 3)
            incomes = random_generic_incomes(m, n, seed=rng.randrange(10**6))[0]
            profile = [
                random_preference(m, seed=rng.randrange(10**6)) for _ in range(n)
            ]
            pair, _ = solve(profile, incomes)
            bundles = list(pair.allocation.bundles)
            bundles[0], bundles[1] = bundles[1], bundles[0]
            corrupted = CEPair(
                prices=pair.prices,
                allocation=Allocation(m=m, bundles=tuple(bundles)),
            )
            report = audit_ce_fairness(profile, incomes, corrupted, d_max=3)
            flagged += bool(report.violations)
            for violation in report.violations:
                recomputed = check_guarantee(
                    profile,
                    incomes,
                    corrupted.allocation,
                    violation.agent,
                    violation.group,
                    violation.l,
                    violation.d,
                )
                assert recomputed.applicable and not recomputed.holds
                assert recomputed.guaranteed == violation.guaranteed
        assert flagged > 0

    def test_single_agent_market_trivially_clean(self):
        pref = random_preference(3, seed=1)
        pair, _ = solve([pref], IncomeVector.of([5]))
        report = audit_ce_fairness([pref], IncomeVector.of([5]), pair, d_max=4)
        assert not report.violations
