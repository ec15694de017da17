"""Priced picking sequences: requirements, ε resolution, equilibrium plays."""

from fractions import Fraction
from itertools import product

import pytest

from cefai.core import PreferenceOrder, make_preference, random_preference
from cefai.instances import counterexample_4x3, stratified_incomes
from cefai.market import Allocation, DimensionMismatchError, IncomeVector, with_incomes
from cefai import pixep
from cefai.pixep import (
    ChoiceNode,
    EmptyEpsilonIntervalError,
    EpsilonInterval,
    NoValidSpeError,
    Pixep,
    R1ViolationError,
    _sign_flip_bound,
    check_requirements,
    execute_to_ce,
    leaves,
    resolve_epsilon,
    spe_outcomes,
)
from cefai.solver import range_table

from conftest import (
    active_range,
    candidate_games,
    chain_preference,
    random_game,
    random_profile,
    zero_priced_pixep,
)
from eps_reference import affine, fraction, pixep_of, positions
from spe_oracle import (
    all_profile_spe_plays,
    count_profiles,
    reference_spe_plays,
    tree_spe_plays,
)

X, Y, Z = 0b001, 0b010, 0b100


def counting_profile(m, seeds):
    """Seeded orders whose rank vectors count their reads: ``reads[i]``
    is the number of agent i's ranks read so far."""
    reads = [0] * len(seeds)

    def counting(agent, rank):
        class CountingRank(tuple):
            def __getitem__(self, index):
                reads[agent] += 1
                return super().__getitem__(index)

        return CountingRank(rank)

    profile = [
        PreferenceOrder(m, counting(i, random_preference(m, seed=seed).rank))
        for i, seed in enumerate(seeds)
    ]
    return profile, reads


def every_monotone_order(m):
    """Every monotone order of ``m`` items: each worst-to-best ranking that
    places a bundle only after every bundle one item smaller."""

    def extend(ranking, placed):
        if len(ranking) == 1 << m:
            yield make_preference(m, ranking)
            return
        for b in range(1 << m):
            if not placed >> b & 1 and all(
                placed >> (b ^ 1 << j) & 1 for j in range(m) if b >> j & 1
            ):
                yield from extend(ranking + [b], placed | 1 << b)

    return list(extend([], 0))


def aba_pixep(a, b, c):
    return pixep_of(
        [
            (0, affine(a - c, -1)),
            (1, affine(b)),
            (0, affine(c, +1)),
        ]
    )


class TestRequirements:
    def test_three_item_split_interval(self):
        # prices a-c-ε, b, c+ε with incomes 10, 6, 3 and the third agent absent
        pix = aba_pixep(10, 6, 3)
        incomes = IncomeVector.of([10, 6, 3])
        interval = check_requirements(pix, incomes)
        assert fraction(interval.lo) == 0
        assert fraction(interval.hi) == 1  # binding: 10 - 3 - eps > 6
        assert resolve_epsilon(pix, interval) == Fraction(1, 2)

    def test_single_agent_run_interval(self):
        # prices a-2b-2ε, b+ε, b+ε with incomes 10, 3: run constraint caps ε at 1/3
        pix = pixep_of(
            [
                (0, affine(4, -2)),
                (0, affine(3, +1)),
                (0, affine(3, +1)),
            ]
        )
        incomes = IncomeVector.of([10, 3])
        interval = check_requirements(pix, incomes)
        assert (fraction(interval.lo), fraction(interval.hi)) == (0, Fraction(1, 3))
        assert resolve_epsilon(pix, interval) == Fraction(1, 6)

    def test_cap_below_lower_bound_falls_back_to_midpoint(self):
        # prices 12-ε, -8+ε with income 4: positivity needs ε > 8, the run
        # ε <= 10, and 12-ε meets the income at ε = 8, so the cap 8/2 lies
        # below the interval and ε is its midpoint
        pix = pixep_of([(0, affine(12, -1)), (0, affine(-8, +1))])
        incomes = IncomeVector.of([4])
        interval = check_requirements(pix, incomes)
        assert (fraction(interval.lo), fraction(interval.hi)) == (8, 10)
        assert fraction(_sign_flip_bound(pix, interval)) == 8
        assert resolve_epsilon(pix, interval) == 9

    def test_midpoint_in_fraction_arithmetic(self, rng):
        # the midpoint formed from the ends' integers, in lowest terms or
        # not, is (lo + hi)/2, or lo + 1 when the interval is unbounded: a
        # pixep without ε-slopes has no sign-flip bound to cap it
        pix = pixep_of([(0, affine(5))])
        form = with_incomes(pix.scale, pix.constants, IncomeVector.of([5]))
        assert _sign_flip_bound(pix, EpsilonInterval((0, 1), None, *form)) is None

        def ratio(value):
            k = rng.randint(1, 9)
            return value.numerator * k, value.denominator * k

        for _ in range(300):
            lo = Fraction(rng.randint(0, 10**6), rng.randint(1, 10**4))
            hi = lo + Fraction(rng.randint(1, 10**6), rng.randint(1, 10**4))
            bounded = EpsilonInterval(ratio(lo), ratio(hi), *form)
            assert resolve_epsilon(pix, bounded) == (lo + hi) / 2
            unbounded = EpsilonInterval(ratio(lo), None, *form)
            assert resolve_epsilon(pix, unbounded) == lo + 1

    def test_empty_interval_when_income_too_small(self):
        # same shape with a = 8 < 3b: the run constraint forces ε ≤ -1/3
        pix = pixep_of(
            [
                (0, affine(2, -2)),
                (0, affine(3, +1)),
                (0, affine(3, +1)),
            ]
        )
        with pytest.raises(EmptyEpsilonIntervalError):
            check_requirements(pix, IncomeVector.of([8, 3]))

    def test_r1_violation_names_agent(self):
        pix = pixep_of([(0, affine(5)), (1, affine(4))])
        with pytest.raises(R1ViolationError) as err:
            check_requirements(pix, IncomeVector.of([5, 3]))
        assert err.value.agent == 1

    def test_r1_requires_epsilon_terms_to_cancel(self):
        pix = pixep_of([(0, affine(3, +1)), (0, affine(2, +1))])
        with pytest.raises(R1ViolationError):
            check_requirements(pix, IncomeVector.of([5]))

    def test_r3_absent_agent_constraint(self):
        # last price b must strictly exceed the absent agent's income
        pix = pixep_of([(0, affine(7)), (1, affine(4))])
        assert check_requirements(pix, IncomeVector.of([7, 4, 3])).hi is None
        with pytest.raises(EmptyEpsilonIntervalError):
            check_requirements(pix, IncomeVector.of([7, 4, 5]))

    def test_unknown_agent_rejected(self):
        pix = pixep_of([(3, affine(5))])
        with pytest.raises(DimensionMismatchError):
            check_requirements(pix, IncomeVector.of([5, 3]))

    def test_positions_of_unequal_length_rejected(self):
        # an unchecked third constant would be dropped by the R1 sums
        with pytest.raises(ValueError, match="per position"):
            Pixep((0, 1), (1, 1, 1), (0, 0, 0))

    def test_no_position_rejected(self):
        # an empty pixep has no last price for R3 and positivity to read
        with pytest.raises(ValueError, match="at least one position"):
            Pixep((), (), ())
        with pytest.raises(ValueError, match="at least one position"):
            Pixep((), (), (), 2)

    def test_negative_agent_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            Pixep((0, -1, 0), (1, 1, 1), (0, 0, 0))

    def test_equal_prices_give_equal_pixeps(self):
        # the constructor cuts the constants and the scale by their common
        # divisor, so every pixep holds the least denominator
        pix = Pixep((0, 1), (4, -2), (0, 1), 6)
        assert (pix.constants, pix.scale) == ((2, -1), 3)
        assert Pixep((0,), (2,), (0,), 2) == Pixep((0,), (1,), (0,), 1)
        assert hash(Pixep((0,), (2,), (0,), 2)) == hash(Pixep((0,), (1,), (0,), 1))
        assert Pixep((0, 0), (0, 0), (1, -1), 5).scale == 1

    @pytest.mark.parametrize("scale", [0, -2])
    def test_non_positive_scale_rejected(self, scale):
        with pytest.raises(ValueError, match="scale must be positive"):
            Pixep((0,), (1,), (0,), scale)

    def test_resolved_prices_positive(self, rng):
        for _ in range(50):
            a = Fraction(rng.randint(8, 40), rng.randint(1, 4))
            b = a * Fraction(rng.randint(1, 7), 8)
            c = b * Fraction(rng.randint(1, 7), 8)
            pix = aba_pixep(a, b, c)
            incomes = IncomeVector.of([a, b, c])
            try:
                eps = resolve_epsilon(pix, check_requirements(pix, incomes))
            except EmptyEpsilonIntervalError:
                continue
            assert all(price.c0 + price.c1 * eps > 0 for _, price in positions(pix))


class TestSpeOutcomes:
    def worked_example(self):
        # Bob ranks singletons x > y > z; Alice prefers the pair yz to xz
        alice = chain_preference(3, Y | Z, X | Z)
        bob = chain_preference(3, X, Y, Z)
        return [alice, bob]

    def test_worked_example_allocation(self):
        # sequence ABA: positions 0, 2 for Alice, 1 for Bob
        game = pixep_of([(0, affine(0)), (1, affine(0)), (0, affine(0))])
        outcomes = spe_outcomes(game, self.worked_example())
        allocations = {e.bundles for e in outcomes}
        assert allocations == {(Y | Z, X)}
        first_picks = {e.items[0] for e in outcomes}
        assert first_picks == {1, 2}  # picking y or z first both support yz

    def test_two_picks_one_agent(self):
        game = pixep_of([(0, affine(0)), (0, affine(0))])
        pref = chain_preference(2, 0b01)
        outcomes = spe_outcomes(game, [pref])
        assert len(outcomes) == 2  # both pick orders, same bundle
        assert {e.bundles for e in outcomes} == {(0b11,)}

    def test_choice_game_builds_no_allocation(self, monkeypatch):
        # a play is its items and bundles: only execute_to_ce builds the
        # validated Allocation of a play, for the plays it prices
        m, n = 4, 3
        row = next(row for row in range_table(m, n) if isinstance(row.primary, tuple))
        incomes = stratified_incomes(m, n, row.label, seed=1, count=1)[0]
        _, game = next(candidate_games(row, incomes))
        profile = [random_preference(m, seed=i) for i in range(n)]
        built = []
        original = Allocation.__post_init__

        def counted(allocation):
            built.append(allocation)
            original(allocation)

        monkeypatch.setattr(Allocation, "__post_init__", counted)
        plays = spe_outcomes(game, profile)
        assert isinstance(game, ChoiceNode) and len(plays) > 1
        assert built == []

    @pytest.mark.parametrize("agent", [-1, 3])
    def test_choice_agent_out_of_range_rejected(self, agent):
        # -1 must not index the last agent's preferences
        leaf = pixep_of((a, affine(0)) for a in range(3))
        game = ChoiceNode(agent=agent, options=(("first", leaf), ("default", leaf)))
        with pytest.raises(DimensionMismatchError, match="choice node"):
            spe_outcomes(game, [chain_preference(3)] * 3)

    def test_determinism(self, rng):
        for _ in range(20):
            m, n = rng.choice([(2, 2), (3, 2), (3, 3), (4, 3)])
            game = random_game(rng, m, n)
            profile = random_profile(rng, m, n)
            first = [(e.path, e.pixep.agents, e.items) for e in spe_outcomes(game, profile)]
            second = [(e.path, e.pixep.agents, e.items) for e in spe_outcomes(game, profile)]
            assert first == second

    def test_agrees_with_history_tree_oracle(self, rng):
        for _ in range(120):
            m = rng.choice([2, 3, 4])
            n = rng.randint(1, 3)
            game = random_game(rng, m, n)
            profile = random_profile(rng, m, n)
            engine = {(e.path, e.items) for e in spe_outcomes(game, profile)}
            oracle = tree_spe_plays(game, profile)
            assert engine == oracle

    def test_agrees_with_all_profile_oracle(self, rng):
        checked = 0
        while checked < 60:
            m = rng.choice([2, 3])
            n = rng.randint(1, 3)
            game = random_game(rng, m, n)
            if not isinstance(game, Pixep):
                continue
            profile = random_profile(rng, m, n)
            if count_profiles(game, m) > 50_000:
                continue
            engine = {e.items for e in spe_outcomes(game, profile)}
            oracle = all_profile_spe_plays(game, profile)
            assert engine == oracle
            checked += 1

    def test_contiguous_tail_agent_gets_best_block(self, rng):
        # an agent whose turns form the final contiguous block receives the
        # best k-subset of what remains when the block starts
        for _ in range(60):
            m = rng.choice([3, 4])
            n = 2
            k = rng.randint(1, m - 1)
            agents = [0] * (m - k) + [1] * k
            game = pixep_of((a, affine(0)) for a in agents)
            profile = random_profile(rng, m, n)
            for e in spe_outcomes(game, profile):
                remaining = 0
                for item in e.items[m - k:]:
                    remaining |= 1 << item
                best = max(
                    (b for b in range(1 << m) if b & ~remaining == 0
                     and bin(b).count("1") == k),
                    key=profile[1].rank.__getitem__,
                )
                assert e.bundles[1] == best


    def test_last_turns_expand_only_the_best_item(self):
        # ABCD: every agent picks once, so every turn is a last turn and the
        # one SPE play is serial dictatorship; each state reads the rank of
        # each free item once, m + (m-1) + ... + 2 reads in all
        m = n = 4
        profile, reads = counting_profile(m, [40 + i for i in range(n)])
        free, expected = (1 << m) - 1, []
        for pref in profile:
            item = max(
                (j for j in range(m) if free >> j & 1),
                key=lambda j: tuple.__getitem__(pref.rank, 1 << j),
            )
            expected.append(item)
            free ^= 1 << item
        pix = pixep_of((agent, affine(0)) for agent in range(n))
        assert pixep._leaf_plays(pix, profile, m) == (tuple(expected),)
        assert sum(reads) <= m * (m + 1) // 2

    def test_endgame_reads_ranks_only_on_a_split_tail(self):
        # ABB: A's last turn reads each of the three free items' ranks;
        # B then takes both last items, in either order, reading no rank
        m = 3
        profile, reads = counting_profile(m, [50, 51])
        pix = zero_priced_pixep([0, 1, 1])
        plays = pixep._leaf_plays(pix, profile, m)
        assert len(plays) == 2 and reads == [3, 0]
        assert [((), play) for play in plays] == reference_spe_plays(pix, profile)
        # AAB: each of the three items A may take first leaves a two-item
        # state split between A and B, decided by two reads of A's ranks;
        # then one read of A's final rank per item
        profile, reads = counting_profile(m, [52, 53])
        pix = zero_priced_pixep([0, 0, 1])
        plays = pixep._leaf_plays(pix, profile, m)
        assert reads == [3 * 2 + 3, 0]
        assert [((), play) for play in plays] == reference_spe_plays(pix, profile)

    def test_plays_built_only_when_kept(self, monkeypatch):
        # the choice nodes filter bare plays; an Execution is built only
        # for a play that spe_outcomes returns
        m, n = 4, 3
        row = next(row for row in range_table(m, n) if isinstance(row.primary, tuple))
        incomes = stratified_incomes(m, n, row.label, seed=1, count=1)[0]
        _, game = next(candidate_games(row, incomes))
        built = []

        class CountedExecution(pixep.Execution):
            def __init__(self, *fields):
                built.append(fields)
                super().__init__(*fields)

        monkeypatch.setattr(pixep, "Execution", CountedExecution)
        dropped = 0
        for seed in range(10):
            profile = [random_preference(m, seed=10 * seed + i) for i in range(n)]
            built.clear()
            plays = spe_outcomes(game, profile)
            assert len(built) == len(plays)
            leaf_plays = sum(len(pixep._leaf_plays(pix, profile, m)) for pix in leaves(game))
            dropped += leaf_plays - len(plays)
        assert dropped > 0


def _ordered_plays(game, profile):
    return [(e.path, e.items) for e in spe_outcomes(game, profile)]


class TestSpeOrder:
    # execute_to_ce returns the first play that verifies, so the engine must
    # list the plays in the reference's order, not merely the same set

    def test_random_games_match_reference_order(self, rng):
        # m = 5 last: long sequences are where the last-turn pruning skips
        # the most of the tree
        sizes = [(m, n) for m in range(1, 5) for n in range(1, 5)]
        sizes += [(5, n) for n in range(1, 4)]
        for m, n in sizes:
            for _ in range(12):
                game = random_game(rng, m, n)
                profile = random_profile(rng, m, n)
                assert _ordered_plays(game, profile) == reference_spe_plays(game, profile)

    @pytest.mark.parametrize(
        "m,n", [(1, 1), (1, 2), (2, 2), (3, 1), (3, 2), (3, 3), (3, 4), (4, 1), (4, 2), (4, 3)]
    )
    def test_solver_games_match_reference_order(self, m, n):
        # every primary and fallback game of the range table, at stratified
        # points of its range, under seeded profiles
        games = 0
        for r_index, row in enumerate(range_table(m, n)):
            points = stratified_incomes(m, n, row.label, seed=11 + r_index, count=4)
            for k, incomes in enumerate(points):
                profile = [random_preference(m, seed=1000 * k + 10 * n + i) for i in range(n)]
                for _, game in candidate_games(row, incomes):
                    assert _ordered_plays(game, profile) == reference_spe_plays(game, profile)
                    games += 1
        assert games >= 4 * len(range_table(m, n))


class TestEveryTwoAgentLeaf:
    # the plays, in the reference's order, on every leaf game of two agents
    # and up to three items: each two-item endgame, split or not, is met
    # from every state the recursion reaches

    @pytest.mark.parametrize("m,orders", [(2, 2), (3, 48)])
    def test_matches_reference_order(self, m, orders):
        # every turn sequence of two agents, on every ordered pair of
        # monotone orders
        monotone = every_monotone_order(m)
        assert len(monotone) == orders
        games = 0
        for agents in product(range(2), repeat=m):
            pix = zero_priced_pixep(list(agents))
            for profile in product(monotone, repeat=2):
                assert _ordered_plays(pix, profile) == reference_spe_plays(pix, profile)
                games += 1
        assert games == 2**m * orders**2


def primary_game_runs(m, n, calls):
    """Run ``execute_to_ce`` on the primary choice game of every m x n
    range at eight stratified points, clearing ``calls`` before each run,
    and yield per run the game's leaves and the ids of the leaves it
    priced: those of the plays up to and including the returned one, or
    all of them when none verifies."""
    for r_index, row in enumerate(range_table(m, n)):
        if not isinstance(row.primary, tuple):
            continue
        for k, incomes in enumerate(
            stratified_incomes(m, n, row.label, seed=3 + r_index, count=8)
        ):
            profile = [random_preference(m, seed=100 * k + i) for i in range(n)]
            _, game = next(candidate_games(row, incomes))
            plays = spe_outcomes(game, profile)
            calls.clear()
            try:
                execution, _, _ = execute_to_ce(game, profile, incomes)
                returned = (execution.path, execution.items)
                plays = plays[:[(e.path, e.items) for e in plays].index(returned) + 1]
            except NoValidSpeError:
                pass
            yield list(leaves(game)), {id(e.pixep) for e in plays}


class TestExecuteToCE:
    def test_worked_example_prices(self):
        alice = chain_preference(3, Y | Z, X | Z)
        bob = chain_preference(3, X, Y, Z)
        carl = chain_preference(3)
        incomes = IncomeVector.of([10, 6, 3])
        game = aba_pixep(10, 6, 3)
        _, epsilon, pair = execute_to_ce(game, [alice, bob, carl], incomes)
        assert epsilon == Fraction(1, 2)
        assert pair.allocation.bundles == (Y | Z, X, 0)
        assert tuple(pair.prices) == (6, Fraction(13, 2), Fraction(7, 2))

    def test_requirements_checked_before_solving(self):
        bad = pixep_of([(0, affine(5)), (1, affine(4))])
        pref = chain_preference(2)
        with pytest.raises(R1ViolationError):
            execute_to_ce(bad, [pref, pref], IncomeVector.of([5, 3]))

    def test_equal_incomes_break_the_last_price_requirement(self):
        # one item, two agents, equal incomes: the absent agent could always
        # afford the item, so no ε works
        pix = pixep_of([(0, affine(5))])
        pref = chain_preference(1)
        with pytest.raises(EmptyEpsilonIntervalError):
            execute_to_ce(pix, [pref, pref], IncomeVector.of([5, 5]))

    def test_failing_leaf_refused_before_any_spe_work(self, monkeypatch):
        # the default leaf BBA misses R2 (a switch to a dearer price); its
        # plays come after the first option's, whose first play verifies, so
        # none of them would be priced, yet the game is refused up front
        alice = chain_preference(3, Y | Z, X | Z)
        bob = chain_preference(3, X, Y, Z)
        profile = [alice, bob, chain_preference(3)]
        incomes = IncomeVector.of([10, 6, 3])
        good = aba_pixep(10, 6, 3)
        bad = pixep_of([(1, affine(3)), (1, affine(3)), (0, affine(10))])
        game = ChoiceNode(agent=0, options=(("first", good), ("default", bad)))
        plays = spe_outcomes(game, profile)
        assert plays[0].path == ("first",)
        execution, _, _ = execute_to_ce(good, profile, incomes)
        assert (execution.pixep, execution.items) == (plays[0].pixep, plays[0].items)

        def no_spe_work(*args):
            raise AssertionError("SPE enumeration ran before the requirements check")

        monkeypatch.setattr(pixep, "spe_outcomes", no_spe_work)
        with pytest.raises(EmptyEpsilonIntervalError):
            execute_to_ce(game, profile, incomes)

    def test_each_leaf_scaled_once(self, monkeypatch):
        # each leaf's integer form is built once per call and read by both
        # its requirements check and, when a play of it is priced, its cap
        scaled = []
        original = pixep.with_incomes

        def counted(scale, constants, incomes):
            scaled.append(id(constants))
            return original(scale, constants, incomes)

        monkeypatch.setattr(pixep, "with_incomes", counted)
        games = refused = 0
        for m, n in [(4, 2), (4, 3)]:
            for r_index, row in enumerate(range_table(m, n)):
                for k, incomes in enumerate(
                    stratified_incomes(m, n, row.label, seed=5 + r_index, count=4)
                ):
                    profile = [random_preference(m, seed=100 * k + i) for i in range(n)]
                    for _, game in candidate_games(row, incomes):
                        order = [id(pix.constants) for pix in leaves(game)]
                        scaled.clear()
                        try:
                            execute_to_ce(game, profile, incomes)
                        except EmptyEpsilonIntervalError:
                            # the check stops at the first leaf that fails
                            refused += 1
                            order = order[:len(scaled)]
                        except NoValidSpeError:
                            pass
                        assert scaled == order
                        games += 1
        assert games > refused > 0

    @pytest.mark.parametrize("m,n", [(4, 2), (4, 3)])
    def test_sign_flip_bound_only_for_priced_leaves(self, monkeypatch, m, n):
        # on the solver's choice games, the cap is computed at most once per
        # leaf, and exactly for the leaves of the plays priced
        flips = []
        original = pixep._sign_flip_bound

        def counted(pix, interval):
            flips.append(pix)
            return original(pix, interval)

        monkeypatch.setattr(pixep, "_sign_flip_bound", counted)
        skipped = 0
        for game_leaves, priced in primary_game_runs(m, n, flips):
            assert len(flips) == len({id(pix) for pix in flips})
            assert {id(pix) for pix in flips} == priced
            skipped += len(game_leaves) - len(priced)
        assert skipped > 0

    @pytest.mark.parametrize("m,n", [(4, 2), (4, 3)])
    def test_one_fraction_per_priced_leaf(self, monkeypatch, m, n):
        # on the solver's choice games, the ε interval's ends and the cap
        # stay integer ratios: the one Fraction built per priced leaf is
        # its ε, and a leaf checked but never priced builds none
        built = []
        original = pixep.Fraction

        def counted(*args):
            built.append(original(*args))
            return built[-1]

        monkeypatch.setattr(pixep, "Fraction", counted)
        skipped = 0
        for game_leaves, priced in primary_game_runs(m, n, built):
            assert len(built) == len(priced)
            skipped += len(game_leaves) - len(priced)
        assert skipped > 0

    def test_no_valid_play_raises(self):
        # a profile whose market admits no equilibrium at all: every play of
        # any requirement-satisfying game must fail verification
        inst = counterexample_4x3()
        profile = list(inst.completed_profile())
        row = active_range(inst.reference, 4)
        assert row.label == "m4n3:range3"
        _, game = next(candidate_games(row, inst.reference))
        with pytest.raises(NoValidSpeError):
            execute_to_ce(game, profile, inst.reference)
