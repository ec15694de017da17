"""Income-range dispatch: hyperplanes, genericity, and verified solves."""

import hashlib
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from cefai.core import bundle_of, items_of, make_preference, random_preference
from cefai.instances import counterexample_4x3, random_generic_incomes, stratified_incomes
from cefai.market import Allocation, IncomeVector, verify_ce
from cefai.oracle import ce_exists
from cefai import pixep
from cefai.pixep import (
    EmptyEpsilonIntervalError,
    NoValidSpeError,
    check_requirements,
    execute_to_ce,
    leaves,
)
from cefai.solver import (
    NotGenericError,
    UnsupportedCaseError,
    _range_at,
    excluded_hyperplanes,
    range_labels,
    range_table,
    solve,
)

from ce_reference import bundle_price
from conftest import (
    candidate_games,
    chain_preference,
    is_generic,
    permuted_market,
    scaled_incomes,
    violated_hyperplane,
)
from sampler_reference import range_holds

X, Y, Z = 0b001, 0b010, 0b100


class TestHyperplanes:
    def test_three_items_three_agents(self):
        labels = {hp.label for hp in excluded_hyperplanes(3, 3)}
        assert labels == {"a = b", "b = c", "a = b + c"}

    def test_four_items_two_agents(self):
        labels = {hp.label for hp in excluded_hyperplanes(4, 2)}
        assert labels == {"a = b", "a = 2b"}

    def test_four_items_three_agents_count(self):
        assert len(excluded_hyperplanes(4, 3)) == 8

    def test_more_agents_add_adjacent_equalities(self):
        labels = {hp.label for hp in excluded_hyperplanes(3, 4)}
        assert "c = d" in labels

    def test_unsupported_cases(self):
        reason = "there are markets with no equilibrium on a positive-measure set"
        with pytest.raises(UnsupportedCaseError, match=f"4 items with 4 agents: .*{reason}"):
            excluded_hyperplanes(4, 4)
        with pytest.raises(UnsupportedCaseError, match=f"5 items with 2 agents: .*{reason}"):
            excluded_hyperplanes(5, 2)

    @pytest.mark.parametrize("m,n", [(0, 2), (3, 0), (0, 1)])
    def test_empty_market_unsupported_for_its_own_reason(self, m, n):
        text = f"{m} items with {n} agents: a market needs at least one item and one agent$"
        for table in (excluded_hyperplanes, range_table):
            with pytest.raises(UnsupportedCaseError, match=text):
                table(m, n)
        if n:
            profile = [random_preference(m, seed=s) for s in range(n)]
            with pytest.raises(UnsupportedCaseError, match=text):
                solve(profile, IncomeVector.of(range(1, n + 1)))

    def test_is_generic_examples(self):
        assert not is_generic(IncomeVector.of([5, 3, 2]), 3)  # a = b + c
        assert is_generic(IncomeVector.of([6, 3, 2]), 3)
        assert not is_generic(IncomeVector.of([4, 2]), 4)  # a = 2b
        assert violated_hyperplane(IncomeVector.of([4, 2]), 4).label == "a = 2b"

    def test_sorting_applied_before_checking(self):
        assert not is_generic(IncomeVector.of([2, 4]), 4)

    @pytest.mark.parametrize(
        "m,n", [(m, n) for m in (1, 2, 3) for n in range(1, 9)] + [(4, 1), (4, 2), (4, 3)]
    )
    def test_pinned_labels_in_order(self, m, n):
        adjacent = ["a = b", "b = c", "c = d", "d = e", "e = f", "f = g", "g = h"]
        boundaries = {
            (4, 2): ["a = 2b"],
            (4, 3): ["a = 2b + c", "a = 2b", "a = b + c", "a + c = 2b", "a = 2c", "b = 2c"],
        }
        if m == 3 and n >= 3:
            boundaries[m, n] = ["a = b + c"]
        expected = adjacent[: n - 1] + boundaries.get((m, n), [])
        assert [hp.label for hp in excluded_hyperplanes(m, n)] == expected

    def test_labels_beyond_the_letters(self):
        labels = [hp.label for hp in excluded_hyperplanes(2, 10)]
        assert labels[-2:] == ["h = t8", "t8 = t9"]


class TestRanges:
    def test_exactly_one_range_matches(self):
        for (m, n) in [(3, 3), (4, 2), (4, 3)]:
            for label in range_labels(m, n):
                for incomes in stratified_incomes(m, n, label, seed=2, count=5):
                    matches = [
                        row.label for row in range_table(m, n) if range_holds(row, tuple(incomes))
                    ]
                    assert matches == [label]

    def test_two_agent_three_item_case_has_single_range(self):
        assert range_labels(3, 2) == ["m3:a>b+c"]

    @pytest.mark.parametrize(
        "m,n", [(m, n) for m in (1, 2, 3) for n in range(1, 7)] + [(4, 1), (4, 2), (4, 3)]
    )
    def test_dispatch_equals_direct_evaluation(self, m, n):
        # the dispatch reads each distinct form once; it must give what the
        # hyperplanes and the ranges give when each is evaluated on its own,
        # at stratified points of every range and at every small integer
        # point, which meets each excluded hyperplane
        def direct(t):
            on = [hp for hp in excluded_hyperplanes(m, n) if hp.contains(t)]
            if on:
                return on[0]
            (row,) = [row for row in range_table(m, n) if range_holds(row, t)]
            return row

        def dispatched(t):
            try:
                return _range_at(m, t)
            except NotGenericError as exc:
                return exc.hyperplane

        points = [
            sorted(incomes.integers[1], reverse=True)
            for label in range_labels(m, n)
            for incomes in stratified_incomes(m, n, label, seed=4, count=5)
        ]
        points += [sorted(t, reverse=True) for t in combinations_with_replacement(range(1, 9), n)]
        met = set()
        for t in points:
            want = direct(t)
            assert dispatched(t) is want
            met.update(hp for hp in excluded_hyperplanes(m, n) if hp.contains(t))
        assert met == set(excluded_hyperplanes(m, n))


def _table_ranges():
    for m, n in [(1, 2), (2, 2), (3, 2), (3, 3), (4, 2), (4, 3)]:
        for label in range_labels(m, n):
            yield m, n, label


def _passes_requirements(pix, incomes) -> bool:
    try:
        check_requirements(pix, incomes)
    except EmptyEpsilonIntervalError:
        return False
    return True


def _is_played(pix, profile, incomes) -> bool:
    """Whether execute_to_ce gets past the price requirements of ``pix``."""
    try:
        execute_to_ce(pix, profile, incomes)
    except EmptyEpsilonIntervalError:
        return False
    except NoValidSpeError:
        pass
    return True


class TestGameTable:
    @pytest.mark.parametrize("m,n,label", list(_table_ranges()))
    def test_guards_match_requirements(self, m, n, label):
        # a fallback's guard is the price-requirement check (R2/R3) that
        # execute_to_ce runs before playing a leaf: the leaf is played exactly
        # where check_requirements passes.  Every leaf of the primary game
        # passes throughout its range, and each fallback passes somewhere
        # there, so no listed fallback is never tried
        (row,) = [row for row in range_table(m, n) if row.label == label]
        profile = [random_preference(m, seed=10 * n + i) for i in range(n)]
        live = set()
        for incomes in stratified_incomes(m, n, label, seed=5, count=100):
            games = candidate_games(row, incomes)
            _, primary = next(games)
            for pix in leaves(primary):
                assert _passes_requirements(pix, incomes), (pix, incomes)
            for game_label, pix in games:
                name = game_label.removeprefix(f"{label}+")
                passes = _passes_requirements(pix, incomes)
                assert _is_played(pix, profile, incomes) == passes, (name, incomes)
                if passes:
                    live.add(name)
        assert live == set(row.fallbacks)

    def test_primary_leaf_failing_requirements_is_loud(self, monkeypatch):
        # a primary leaf whose prices miss R2 is an inconsistent table, never
        # a game to skip
        from cefai import solver

        # the prices c, a - b - c, b, b, each with ε-slope 0
        broken = ((0, 0, 1, 0), (1, -1, -1, 0), (0, 1, 0, 0), (0, 1, 0, 0))
        monkeypatch.setitem(solver._LEAVES, "AABA", ((None, 1, broken),))
        profile = [random_preference(4, seed=s) for s in (1, 2, 3)]
        with pytest.raises(AssertionError, match="m4n3:range1 primary"):
            solve(profile, IncomeVector.of([20, 7, 3]))


class TestSolve:
    def worked_profile(self):
        alice = chain_preference(3, Y | Z, X | Z)
        bob = chain_preference(3, X, Y, Z)
        carl = chain_preference(3)
        return [alice, bob, carl]

    def test_three_items_split_branch(self):
        profile = self.worked_profile()
        incomes = IncomeVector.of([10, 6, 3])
        pair, transcript = solve(profile, incomes)
        assert transcript.range_label == "m3:a>b+c"
        assert pair.allocation.bundles == (Y | Z, X, 0)
        assert tuple(pair.prices) == (6, Fraction(13, 2), Fraction(7, 2))
        assert transcript.epsilon == Fraction(1, 2)
        assert verify_ce(profile, incomes, pair).valid

    def test_three_items_one_each_branch(self):
        profile = self.worked_profile()
        incomes = IncomeVector.of([6, 4, 3])
        pair, transcript = solve(profile, incomes)
        assert transcript.range_label == "m3:a<b+c"
        sizes = sorted(b.bit_count() for b in pair.allocation.bundles)
        assert sizes == [1, 1, 1]
        assert sorted(pair.prices, reverse=True) == [6, 4, 3]
        # the top agent holds her single best item at her income
        best_single = max([X, Y, Z], key=profile[0].rank.__getitem__)
        assert pair.allocation[0] == best_single
        assert bundle_price(pair.prices, best_single) == 6

    def test_four_items_three_agents_top_heavy_range(self):
        incomes = IncomeVector.of([20, 7, 3])
        profile = [random_preference(4, seed=s) for s in (1, 2, 3)]
        pair, transcript = solve(profile, incomes)
        assert transcript.range_label == "m4n3:range1"
        sizes = [b.bit_count() for b in pair.allocation.bundles]
        assert sizes == [3, 1, 0]
        assert verify_ce(profile, incomes, pair).valid

    def test_not_generic_reports_hyperplane(self):
        profile = self.worked_profile()
        with pytest.raises(NotGenericError) as err:
            solve(profile, IncomeVector.of([5, 3, 2]))
        assert err.value.hyperplane.label == "a = b + c"

    def test_unsupported_case(self):
        profile = [random_preference(4, seed=s) for s in range(4)]
        with pytest.raises(UnsupportedCaseError):
            solve(profile, IncomeVector.of([9, 7, 5, 3]))

    def test_allocation_in_original_agent_order(self):
        # give the largest income to the second agent
        alice = chain_preference(3, Y | Z, X | Z)
        bob = chain_preference(3, X, Y, Z)
        carl = chain_preference(3)
        incomes = IncomeVector.of([6, 10, 3])
        pair, transcript = solve([bob, alice, carl], incomes)
        assert transcript.order == (1, 0, 2)
        assert pair.allocation[1] == Y | Z  # the rich agent's bundle
        assert pair.allocation[0] == X
        assert verify_ce([bob, alice, carl], incomes, pair).valid
        # the play names the caller's agents too
        assert transcript.execution.bundles == pair.allocation.bundles
        assert transcript.execution.pixep.agents == (1, 0, 1)

    @pytest.mark.parametrize("m,n", [(3, 2), (3, 3), (3, 4), (4, 2), (4, 3)])
    def test_permuted_agents_permute_the_solve(self, m, n):
        # moving agent i to index pi[i] moves its bundle and its picks
        # there and changes nothing else; stratified incomes come sorted,
        # so each market is solved as drawn and under a seeded shuffle
        # that moves some agent
        rng = random.Random(f"permuted:{m}:{n}")
        for r_index, label in enumerate(range_labels(m, n)):
            for k, incomes in enumerate(stratified_incomes(m, n, label, seed=r_index, count=4)):
                profile = [random_preference(m, seed=100 * k + i) for i in range(n)]
                pi = list(range(n))
                while pi == sorted(pi):
                    rng.shuffle(pi)
                moved_profile, moved_incomes = permuted_market(profile, incomes, pi)
                try:
                    pair, transcript = solve(profile, incomes)
                except NoValidSpeError:
                    with pytest.raises(NoValidSpeError):
                        solve(moved_profile, moved_incomes)
                    continue
                moved_pair, moved = solve(moved_profile, moved_incomes)
                assert moved.order == tuple(pi[i] for i in transcript.order)
                assert moved_pair.prices == pair.prices
                assert (moved.range_label, moved.game_label) == (
                    transcript.range_label, transcript.game_label
                )
                assert moved.epsilon == transcript.epsilon
                assert all(
                    moved_pair.allocation[pi[i]] == pair.allocation[i] for i in range(n)
                )
                assert moved.execution.items == transcript.execution.items
                assert moved.execution.pixep.agents == tuple(
                    pi[agent] for agent in transcript.execution.pixep.agents
                )
                for solved, play in ((pair, transcript), (moved_pair, moved)):
                    assert play.execution.bundles == solved.allocation.bundles
                    assert all(
                        solved.allocation[agent] >> item & 1
                        for agent, item in zip(play.execution.pixep.agents, play.execution.items)
                    )

    def test_one_allocation_per_priced_play(self, monkeypatch):
        # the Allocations a solve builds are exactly the ones execute_to_ce
        # hands to verify_ce, one per priced play, in pricing order
        built, priced = [], []
        original_post_init = Allocation.__post_init__
        original_verify = pixep.verify_ce

        def counted_post_init(allocation):
            built.append(id(allocation))
            original_post_init(allocation)

        def counted_verify(profile, incomes, cand):
            priced.append(id(cand.allocation))
            return original_verify(profile, incomes, cand)

        monkeypatch.setattr(Allocation, "__post_init__", counted_post_init)
        monkeypatch.setattr(pixep, "verify_ce", counted_verify)
        plays = 0
        for m, n in [(3, 2), (3, 3), (4, 2), (4, 3)]:
            for r_index, label in enumerate(range_labels(m, n)):
                for k, incomes in enumerate(
                    stratified_incomes(m, n, label, seed=7 + r_index, count=2)
                ):
                    profile = [random_preference(m, seed=100 * k + i) for i in range(n)]
                    built.clear()
                    priced.clear()
                    try:
                        solve(profile, incomes)
                    except NoValidSpeError:
                        pass
                    assert built == priced
                    plays += len(priced)
        assert plays > 0

    def test_single_agent_any_item_count(self):
        for m in (1, 2, 3, 4):
            profile = [random_preference(m, seed=m)]
            pair, transcript = solve(profile, IncomeVector.of([7]))
            assert pair.allocation[0] == (1 << m) - 1
            assert sum(pair.prices) == 7

    def test_one_and_two_items(self):
        for m, n in [(1, 2), (1, 3), (2, 2), (2, 4)]:
            profile = [random_preference(m, seed=10 * m + i) for i in range(n)]
            incomes = random_generic_incomes(m, n, seed=m * n)[0]
            pair, _ = solve(profile, incomes)
            assert verify_ce(profile, incomes, pair).valid

    def test_scale_invariance(self):
        profile = self.worked_profile()
        incomes = IncomeVector.of([10, 6, 3])
        factor = Fraction(3, 7)
        pair, transcript = solve(profile, incomes)
        scaled_pair, scaled_transcript = solve(profile, scaled_incomes(incomes, factor))
        assert scaled_transcript.range_label == transcript.range_label
        assert scaled_pair.allocation == pair.allocation
        assert tuple(scaled_pair.prices) == tuple(p * factor for p in pair.prices)

    def test_replay_reproduces_pair(self):
        profile = self.worked_profile()
        incomes = IncomeVector.of([10, 6, 3])
        pair, _ = solve(profile, incomes)
        assert solve(profile, incomes)[0] == pair

    def test_no_ce_instance_raises(self):
        from cefai.instances import counterexample_4x3

        inst = counterexample_4x3()
        with pytest.raises(NoValidSpeError):
            solve(list(inst.completed_profile()), inst.reference)


# Every supported size; range labels come from the dispatcher itself.
_PINNED_SIZES = [
    (1, 1), (2, 1), (3, 1), (4, 1), (1, 2), (1, 3), (2, 2), (2, 3), (2, 4),
    (3, 2), (3, 3), (3, 4), (4, 2), (4, 3),
]
# (range, index into the seed-0 stratified stream) of the instances whose
# primary game has no equilibrium play, so that a fallback game wins.
_PINNED_FALLBACKS = [
    ("m4n3:range3", 69),   # +BAAA
    ("m4n3:range3", 139),  # +AABB
    ("m4n3:range6", 63),   # +BAAC
    ("m4n3:range6", 70),   # +BAAC=
    ("m4n3:range6", 139),  # +AABB
]


def _pinned_corpus():
    for m, n in _PINNED_SIZES:
        for r_index, label in enumerate(range_labels(m, n)):
            points = stratified_incomes(m, n, label, seed=7 + r_index, count=3)
            for k, incomes in enumerate(points):
                profile = [
                    random_preference(m, seed=1000 * (10 * m + n) + 10 * k + i)
                    for i in range(n)
                ]
                yield profile, incomes
    for label, index in _PINNED_FALLBACKS:
        incomes = stratified_incomes(4, 3, label, seed=0, count=index + 1)[index]
        yield [random_preference(4, seed=10_000 * index + i) for i in range(3)], incomes


def _solve_line(profile, incomes) -> str:
    pair, transcript = solve(profile, incomes)
    execution = transcript.execution
    m = profile[0].m
    return " | ".join(
        [
            transcript.range_label,
            transcript.game_label,
            "/".join(execution.path),
            repr(transcript.order),
            str(transcript.epsilon),
            repr(tuple(zip(range(1, m + 1), execution.pixep.agents, execution.items))),
            ",".join(str(p) for p in pair.prices),
            repr(pair.allocation.bundles),
        ]
    )


@pytest.fixture(scope="module")
def pinned_lines():
    return [_solve_line(*case) for case in _pinned_corpus()]


class TestPinnedOutputs:
    """Solve output on a fixed corpus, pinned so that a refactor of the
    game constructions must reproduce it exactly."""

    def test_game_labels(self, pinned_lines):
        labels = Counter(line.split(" | ")[1] for line in pinned_lines)
        assert labels == {
            "m1n1": 3, "m2n1": 3, "m3n1": 3, "m4n1": 3, "m1": 6, "m2": 9,
            "m3:a>b+c": 9, "m3:a<b+c": 6,
            "m4n2:a>2b": 3, "m4n2:a<2b": 3,
            "m4n3:range1": 3, "m4n3:range2": 3, "m4n3:range3": 3,
            "m4n3:range4": 3, "m4n3:range5": 3, "m4n3:range6": 3,
            "m4n3:range7": 3,
            "m4n3:range3+BAAA": 1, "m4n3:range3+AABB": 1,
            "m4n3:range6+BAAC": 1, "m4n3:range6+BAAC=": 1,
            "m4n3:range6+AABB": 1,
        }

    def test_digest(self, pinned_lines):
        digest = hashlib.sha256("\n".join(pinned_lines).encode()).hexdigest()
        assert digest == (
            "d9eb21db74b7dffd0ecae56dc0384c807e80b91069d08a9f775ffb43a451c743"
        )


def _permuted(pref, perm):
    """The same preference with item j renamed to ``perm[j]``."""
    ranking = [bundle_of(perm[j] for j in items_of(b)) for b in pref.ranking()]
    return make_preference(pref.m, ranking)


def _permutation_cases():
    rng = random.Random("item-permutation")
    for m, n in [(3, 2), (3, 3), (3, 4), (4, 2), (4, 3)]:
        for r_index, label in enumerate(range_labels(m, n)):
            for incomes in stratified_incomes(m, n, label, seed=40 + r_index, count=6):
                profile = [random_preference(m, seed=rng.randrange(1 << 40)) for _ in range(n)]
                yield profile, incomes, rng.sample(range(m), m)
    inst = counterexample_4x3()  # no equilibrium at all: both sides fail
    yield list(inst.completed_profile()), inst.reference, [2, 0, 3, 1]


def _solve_or_none(profile, incomes):
    try:
        pair, _ = solve(profile, incomes)
    except NoValidSpeError:
        return None
    assert verify_ce(profile, incomes, pair).valid
    return pair


class TestItemPermutation:
    """Renaming the items in every agent's order at once changes neither
    whether ``solve`` succeeds nor whether an equilibrium exists.  The pairs
    found may differ, since both search in item order."""

    def test_solve_and_existence_commute(self):
        outcomes = set()
        for profile, incomes, perm in _permutation_cases():
            permuted = [_permuted(pref, perm) for pref in profile]
            solved = _solve_or_none(profile, incomes) is not None
            assert solved == (_solve_or_none(permuted, incomes) is not None)
            witness = ce_exists(profile, incomes)
            permuted_witness = ce_exists(permuted, incomes)
            assert (witness is None) == (permuted_witness is None)
            for prefs, pair in ((profile, witness), (permuted, permuted_witness)):
                assert pair is None or verify_ce(prefs, incomes, pair).valid
            outcomes.add((solved, witness is not None))
        assert outcomes == {(True, True), (False, False)}
