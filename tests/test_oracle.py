"""Exhaustive existence oracle: exact feasibility over all allocations."""

import hashlib
import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

from cefai.core import random_preference
from cefai.market import (
    Allocation,
    CEPair,
    DimensionMismatchError,
    IncomeVector,
    PriceVector,
    verify_ce,
)
from cefai import oracle, repro
from cefai.lp import _check_farkas, _dual_simplex
from cefai.oracle import (
    InstanceTooLargeError,
    _MarketRows,
    _passes_prefilters,
    _slack_rows,
    ce_exists,
    feasible_ce_prices,
)
from cefai.cli import _enumeration_index
from cefai.instances import NAMED_INSTANCES, counterexample_4x3, random_generic_incomes
from cefai.repro import certify_counterexample
from cefai.solver import solve

from conftest import (
    chain_preference,
    every_allocation,
    random_profile,
    scaled_incomes,
    tied_incomes,
)
from ce_reference import reference_pareto_improvable, reference_rejecting_rule
from fm_reference import fm_feasible_ce_prices
from rows_reference import reference_slack_rows


class TestSingleItem:
    def test_equal_incomes_no_equilibrium(self):
        pref = chain_preference(1)
        assert ce_exists([pref, pref], IncomeVector.of([1, 1])) is None

    def test_unequal_incomes_witness(self):
        pref = chain_preference(1)
        witness = ce_exists([pref, pref], IncomeVector.of([2, 1]))
        assert witness is not None
        assert witness.allocation.bundles == (0b1, 0b0)
        assert witness.prices[0] == 2


class TestAgainstSolver:
    def test_solver_output_confirmed(self, rng):
        for _ in range(12):
            m, n = rng.choice([(3, 2), (3, 3), (4, 2), (4, 3)])
            incomes = random_generic_incomes(m, n, seed=rng.randrange(10**6))[0]
            profile = [
                random_preference(m, seed=rng.randrange(10**6)) for _ in range(n)
            ]
            try:
                pair, _ = solve(profile, incomes)
            except Exception:
                continue
            witness = ce_exists(profile, incomes)
            assert witness is not None
            # the solver's own allocation admits feasible prices too
            assert feasible_ce_prices(profile, incomes, pair.allocation) is not None

    def test_witness_always_verifies(self, rng):
        for _ in range(15):
            m, n = rng.choice([(2, 2), (3, 2), (3, 3)])
            incomes = IncomeVector.of(
                sorted(
                    (Fraction(rng.randint(1, 60), 4) for _ in range(n)), reverse=True
                )
            )
            profile = [
                random_preference(m, seed=rng.randrange(10**6)) for _ in range(n)
            ]
            witness = ce_exists(profile, incomes)
            if witness is not None:
                assert verify_ce(profile, incomes, witness).valid


class TestAgainstFourierMotzkin:
    """The simplex and the Fourier-Motzkin reference agree on every
    allocation, and every price vector either returns is an equilibrium."""

    def check_every_allocation(self, profile, incomes) -> list[bool]:
        outcomes = []
        for alloc in every_allocation(profile[0].m, len(profile)):
            fast = feasible_ce_prices(profile, incomes, alloc)
            slow = fm_feasible_ce_prices(profile, incomes, alloc)
            assert (fast is None) == (slow is None), alloc.bundles
            for prices in (fast, slow):
                if prices is not None:
                    pair = CEPair(prices=prices, allocation=alloc)
                    assert verify_ce(profile, incomes, pair).valid, alloc.bundles
            outcomes.append(fast is not None)
        return outcomes

    def test_random_markets(self, rng):
        outcomes = []
        for _ in range(150):
            m, n = rng.randint(1, 4), rng.randint(1, 3)
            # a coarse grid, so that tied incomes and boundary cases occur
            incomes = IncomeVector.of(
                Fraction(rng.randint(1, 12), rng.choice([1, 2, 3])) for _ in range(n)
            )
            profile = [
                random_preference(m, seed=rng.randrange(10**6)) for _ in range(n)
            ]
            outcomes += self.check_every_allocation(profile, incomes)
        assert len(outcomes) > 1500 and any(outcomes) and not all(outcomes)

    def test_counterexample_4x3_reference(self):
        inst = counterexample_4x3()
        outcomes = self.check_every_allocation(
            list(inst.completed_profile()), inst.reference
        )
        assert len(outcomes) == 81 and not any(outcomes)


class TestFarkasCertificate:
    """Infeasibility is certified by dual multipliers checked in integers."""

    def certificate(self):
        # Alice owns items 0 and 2, Bob item 3 and Carl item 1: passes all
        # three prefilters, and its certificate combines two rows.
        inst = counterexample_4x3()
        rows = _MarketRows(list(inst.completed_profile()), inst.reference)
        _, _, a, c, _ = reference_slack_rows(rows, (0b0101, 0b1000, 0b0010))
        y, reduced, d = _dual_simplex(a, c)
        assert reduced[-1] >= 0  # no positive slack
        assert sum(1 for v in y.values() if v > 0) >= 2
        return a, c, y, d

    def test_accepted(self):
        _check_farkas(*self.certificate())

    def test_nudged_multiplier_rejected(self):
        a, c, y, d = self.certificate()
        j = next(j for j, v in y.items() if v > 0)
        with pytest.raises(AssertionError):
            _check_farkas(a, c, {**y, j: y[j] + 1}, d)

    def test_unbalanced_multipliers_rejected(self):
        # the sum stays d, but distinct rows no longer cancel
        a, c, y, d = self.certificate()
        j, k = [j for j, v in y.items() if v > 0][:2]
        with pytest.raises(AssertionError):
            _check_farkas(a, c, {**y, j: y[j] + 1, k: y[k] - 1}, d)

    def test_negative_multiplier_rejected(self):
        # twice the certificate minus d times the cap row (a = 0, c > 0):
        # the sum, the balance and the objective still pass, y_0 < 0 does not
        a, c, y, d = self.certificate()
        doubled = {j: 2 * v for j, v in y.items()}
        doubled[0] = doubled.get(0, 0) - d
        assert doubled[0] < 0 and a[0] == [0] * len(a[0]) and c[0] > 0
        assert sum(doubled.values()) == d
        assert sum(v * c[j] for j, v in doubled.items()) <= 0
        with pytest.raises(AssertionError):
            _check_farkas(a, c, doubled, d)

    def test_positive_objective_rejected(self):
        a, c, y, d = self.certificate()
        j = next(j for j, v in y.items() if v > 0)
        raised = list(c)
        raised[j] += -sum(v * c[i] for i, v in y.items()) // y[j] + 1
        assert sum(v * raised[i] for i, v in y.items()) > 0
        with pytest.raises(AssertionError):
            _check_farkas(a, raised, y, d)



class TestPairCertificate:
    """Two opposite rows close most infeasible systems before the simplex,
    and their certificate goes through the same integer check."""

    # Alice owns items 0 and 2, Bob item 3 and Carl item 1: its only free
    # price is item 2's, bounded by the rows z >= 7 and z <= 6.
    CLOSED = (0b0101, 0b1000, 0b0010)

    def market(self):
        inst = counterexample_4x3()
        return list(inst.completed_profile()), inst.reference

    def system(self, bundles):
        """The whole row system, built before any pair is looked for."""
        return reference_slack_rows(_MarketRows(*self.market()), bundles)

    @staticmethod
    def opposite(a, r, q):
        return a[r] == [-x for x in a[q]]

    def test_closes_without_the_simplex(self, monkeypatch):
        _, _, a, c, (r, q) = self.system(self.CLOSED)
        assert r != q and self.opposite(a, r, q) and c[r] + c[q] <= 0

        def no_simplex(*args):
            raise RuntimeError("the simplex ran")

        monkeypatch.setattr(oracle, "_dual_simplex", no_simplex)
        allocation = Allocation(m=4, bundles=self.CLOSED)
        assert feasible_ce_prices(*self.market(), allocation) is None

    def test_certificate_is_checked_not_trusted(self, monkeypatch):
        _, _, a, c, _ = self.system(self.CLOSED)
        seen = []

        def reject(*certificate):
            seen.append(certificate)
            raise AssertionError("certificate rejected")

        monkeypatch.setattr(oracle, "_check_farkas", reject)
        allocation = Allocation(m=4, bundles=self.CLOSED)
        with pytest.raises(AssertionError, match="certificate rejected"):
            feasible_ce_prices(*self.market(), allocation)
        # checked on the two closing rows, with y = e_0 + e_1 over d = 2
        [(closing, sums, y, d)] = seen
        assert (y, d) == ({0: 1, 1: 1}, 2)
        assert self.opposite(closing, 0, 1) and sums[0] + sums[1] <= 0
        # both are rows of the whole system, at their smallest c or above it
        for row, c_row in zip(closing, sums):
            assert row in a and c[a.index(row)] <= c_row

    def test_positive_sum_rejected(self):
        # Alice owns items 0 and 1, Bob item 3 and Carl item 2: the rows
        # z >= 6 and z <= 10 on item 1's price are opposite but leave room
        # (this system is closed by an a = 0 row with c = -1 instead).
        _, _, a, c, pair = self.system((0b0011, 0b1000, 0b0100))
        r, q = next(
            (r, q)
            for r in range(len(a))
            for q in range(r + 1, len(a))
            if self.opposite(a, r, q) and c[r] + c[q] > 0
        )
        assert pair == (0, 0) and c[0] < 0
        with pytest.raises(AssertionError):
            _check_farkas(a, c, {r: 1, q: 1}, 2)

    def test_rows_not_opposite_rejected(self):
        _, _, a, c, _ = self.system(self.CLOSED)
        r, q = next(
            (r, q)
            for r in range(len(a))
            for q in range(r + 1, len(a))
            if not self.opposite(a, r, q) and c[r] + c[q] <= 0
        )
        with pytest.raises(AssertionError):
            _check_farkas(a, c, {r: 1, q: 1}, 2)

    def test_agrees_with_the_simplex(self, rng):
        closed = Counter()
        for _ in range(60):
            m, n = rng.randint(2, 4), rng.randint(2, 3)
            incomes = IncomeVector.of(
                Fraction(rng.randint(1, 12), rng.choice([1, 2, 3])) for _ in range(n)
            )
            profile = [
                random_preference(m, seed=rng.randrange(10**6)) for _ in range(n)
            ]
            rows = _MarketRows(profile, incomes)
            for alloc in every_allocation(m, n):
                _, _, a, c, pair = reference_slack_rows(rows, alloc.bundles)
                _, reduced, _ = _dual_simplex(a, c)
                if pair is not None:
                    assert reduced[-1] >= 0, alloc.bundles
                    closed["zero" if pair[0] == pair[1] else "pair"] += 1
                elif reduced[-1] >= 0:
                    closed["simplex"] += 1
        # every path closes some systems
        assert min(closed[k] for k in ("zero", "pair", "simplex")) > 0, closed


class TestRowsAgainstReference:
    """``_slack_rows`` stops at the first pair that closes the system; the
    reference builds every row first and then looks for a pair.  An open
    system must equal the reference's column for column: its better
    bundles come from a full scan, in the order the oracle must keep,
    since Bland's rule reads the columns in that order."""

    def test_every_allocation(self, rng):
        seen = Counter()
        for m in range(6):
            for n in range(1, 5):
                for _ in range(3 if n ** m <= 81 else 1):
                    self.check_market(random_profile(rng, m, n), tied_incomes(rng, n), seen)
        # closed on two rows, on one a = 0 row, before some closing row had
        # reached its smallest c, and not closed at all
        assert min(seen[k] for k in ("pair", "zero", "early", "open")) > 0, seen

    @pytest.mark.parametrize("name", sorted(NAMED_INSTANCES))
    def test_named_instances(self, name):
        inst = NAMED_INSTANCES[name]()
        seen = Counter()
        self.check_market(inst.completed_profile(), inst.reference, seen)
        assert seen["open"] > 0 and seen["pair"] + seen["zero"] > 0, seen

    def test_six_items(self, rng):
        seen = Counter()
        for n in (1, 2, 2, 3):
            self.check_market(random_profile(rng, 6, n), tied_incomes(rng, n), seen)
        assert seen["open"] > 0 and seen["pair"] + seen["zero"] > 0, seen

    @staticmethod
    def check_market(profile, incomes, seen):
        rows = _MarketRows(profile, incomes)
        for alloc in every_allocation(profile[0].m, len(profile)):
            items, bundles, a, c, pair = _slack_rows(rows, alloc.bundles)
            want = reference_slack_rows(rows, alloc.bundles)
            ref_a, ref_c, ref_pair = want[2:]
            assert (items, bundles) == want[:2], alloc.bundles
            if ref_pair is None:
                assert (a, c, pair) == (ref_a, ref_c, None), alloc.bundles
                seen["open"] += 1
                continue
            assert pair == (0, len(a) - 1) and len(a) == len(c) <= 2, alloc.bundles
            for row, c_row in zip(a, c):
                assert row in ref_a, alloc.bundles
                assert ref_c[ref_a.index(row)] <= c_row, alloc.bundles
                seen["early"] += ref_c[ref_a.index(row)] < c_row
            _check_farkas(a, c, Counter(pair), 2)
            _, reduced, _ = _dual_simplex(ref_a, ref_c)
            assert reduced[-1] >= 0, alloc.bundles
            seen["zero" if len(a) == 1 else "pair"] += 1


class TestParetoPrefilter:
    """Prefilter (3) rejects an allocation only when two agents could share
    their bundles out anew to Pareto-improve on it, which no system with
    ``s > 0`` allows."""

    def test_rejects_only_infeasible_allocations(self, rng):
        seen = Counter()
        for m in range(1, 6):
            for n in range(2, 5):
                for _ in range(20 if n ** m <= 256 else 6):
                    profile, incomes = random_profile(rng, m, n), tied_incomes(rng, n)
                    self.check_market(profile, incomes, seen)
        # rule 3 rejects allocations that rules 1-2 pass, with n = 4 and
        # with tied incomes among them
        assert seen["after 1-2"] > 300 and seen["n4"] > 50 and seen["tied"] > 50, seen

    @staticmethod
    def check_market(profile, incomes, seen):
        rows = _MarketRows(profile, incomes)
        n = len(profile)
        tied = len(set(incomes)) < n
        for alloc in every_allocation(profile[0].m, n):
            masks = alloc.bundles
            past_rules_1_2 = reference_rejecting_rule(profile, incomes, masks) not in (1, 2)
            rejected = past_rules_1_2 and not _passes_prefilters(rows, masks)
            if not (rejected or reference_pareto_improvable(profile, incomes, masks)):
                continue
            _, _, a, c, _ = reference_slack_rows(rows, masks)
            _, reduced, _ = _dual_simplex(a, c)
            assert reduced[-1] >= 0, (list(incomes), masks)
            seen["rejected"] += 1
            if rejected:
                seen["after 1-2"] += 1
                seen["n4"] += n == 4
                seen["tied"] += tied


class TestEnumerationOrder:
    """``ce_exists`` steps its allocation counter in place, in the order of
    ``every_allocation``, which ``cli._enumeration_index`` numbers."""

    @pytest.mark.parametrize("m", range(5))
    @pytest.mark.parametrize("n", range(1, 5))
    def test_counter_order(self, monkeypatch, m, n):
        visited = []

        def record(rows, masks):
            visited.append(tuple(masks))
            return False

        monkeypatch.setattr(oracle, "_passes_prefilters", record)
        profile = [random_preference(m, seed=seed) for seed in range(n)]
        assert ce_exists(profile, IncomeVector.of(range(1, n + 1))) is None
        assert visited == [alloc.bundles for alloc in every_allocation(m, n)]
        for position, bundles in enumerate(visited):
            allocation = Allocation(m=m, bundles=bundles)
            assert _enumeration_index(allocation, n) == position


class TestPrefilters:
    def test_never_change_the_answer(self, rng):
        cases = []
        for _ in range(25):
            m, n = rng.choice([(2, 2), (3, 2), (3, 3)])
            incomes = IncomeVector.of(
                sorted(
                    (Fraction(rng.randint(1, 40), 2) for _ in range(n)), reverse=True
                )
            )
            profile = [
                random_preference(m, seed=rng.randrange(10**6)) for _ in range(n)
            ]
            cases.append((profile, incomes))
        for _ in range(40):
            m, n = rng.choice([(4, 2), (4, 3), (4, 4), (5, 2)])
            cases.append((random_profile(rng, m, n), tied_incomes(rng, n)))
        found = Counter()
        for profile, incomes in cases:
            fast = ce_exists(profile, incomes)
            # the unfiltered reference: the first allocation in the oracle's
            # order that the feasibility solve accepts
            slow = None
            for alloc in every_allocation(profile[0].m, len(profile)):
                prices = feasible_ce_prices(profile, incomes, alloc)
                if prices is not None:
                    slow = CEPair(prices=prices, allocation=alloc)
                    break
            assert (fast is None) == (slow is None)
            if fast is not None:
                assert fast == slow  # same first witness in enumeration order
            found[profile[0].m, fast is not None] += 1
        assert found[4, True] and found[5, True]
        assert any(not yes for _, yes in found)


class TestItemUniverses:
    @pytest.mark.parametrize("sizes", [(2, 3), (3, 2)])
    def test_mixed_universes_refused(self, sizes):
        seeds = {2: 0, 3: 1000}
        profile = [random_preference(m, seed=seeds[m]) for m in sizes]
        incomes = IncomeVector.of([2, 2])
        with pytest.raises(DimensionMismatchError, match="item universes differ"):
            ce_exists(profile, incomes)
        alloc = Allocation(m=sizes[0], bundles=((1 << sizes[0]) - 1, 0))
        with pytest.raises(DimensionMismatchError, match="item universes differ"):
            feasible_ce_prices(profile, incomes, alloc)


class TestAllocationShape:
    # a 3-item, 2-agent market
    profile = [random_preference(3, seed=1), random_preference(3, seed=2)]
    incomes = IncomeVector.of([3, 2])

    def test_fewer_items_than_the_market_refused(self):
        alloc = Allocation(m=2, bundles=(0b01, 0b10))
        with pytest.raises(DimensionMismatchError, match="2 items to 2 agents"):
            feasible_ce_prices(self.profile, self.incomes, alloc)

    def test_more_agents_than_the_market_refused(self):
        alloc = Allocation(m=3, bundles=(0b001, 0b010, 0b100))
        with pytest.raises(DimensionMismatchError, match="3 items to 3 agents"):
            feasible_ce_prices(self.profile, self.incomes, alloc)


_WITNESS_CELLS = [(3, 2), (3, 3), (3, 4), (4, 2), (4, 3), (4, 4), (5, 2), (5, 3)]


def _witness_line(m: int, n: int, profile, incomes) -> str:
    witness = ce_exists(profile, incomes)
    fields = [f"m{m}n{n}", ",".join(str(t) for t in incomes)]
    if witness is None:
        return " | ".join(fields + ["no"])
    prices = ",".join(str(p) for p in witness.prices)
    return " | ".join(fields + ["yes", repr(witness.allocation.bundles), prices])


@pytest.fixture(scope="module")
def witness_lines():
    lines = []
    for m, n in _WITNESS_CELLS:
        rng = random.Random(f"pinned-witnesses:{m}:{n}")
        for _ in range(10):
            lines.append(_witness_line(m, n, random_profile(rng, m, n), tied_incomes(rng, n)))
    return lines


class TestPinnedWitnesses:
    """``ce_exists`` output on a fixed corpus, tied incomes included: the
    yes/no answer, the first witness allocation in enumeration order and
    its prices.  A change to the enumeration order or to the simplex must
    reproduce it, or say why not."""

    def test_answers(self, witness_lines):
        answers = Counter(
            (line.split(" | ")[0], line.split(" | ")[2]) for line in witness_lines
        )
        assert answers == {
            ("m3n2", "yes"): 8, ("m3n2", "no"): 2,
            ("m3n3", "yes"): 9, ("m3n3", "no"): 1,
            ("m3n4", "yes"): 7, ("m3n4", "no"): 3,
            ("m4n2", "yes"): 7, ("m4n2", "no"): 3,
            ("m4n3", "yes"): 9, ("m4n3", "no"): 1,
            ("m4n4", "yes"): 8, ("m4n4", "no"): 2,
            ("m5n2", "yes"): 10,
            ("m5n3", "yes"): 9, ("m5n3", "no"): 1,
        }

    def test_digest(self, witness_lines):
        digest = hashlib.sha256("\n".join(witness_lines).encode()).hexdigest()
        assert digest == (
            "4e3c0328e87c3e934f78bec1137c834a16abbd686c8f1a42aa906f867ed05c6c"
        )


_COLUMN_ORDER_CELLS = [(5, 2), (5, 3), (6, 2)]


@pytest.fixture(scope="module")
def column_order_lines():
    lines = []
    for m, n in _COLUMN_ORDER_CELLS:
        rng = random.Random(f"pinned-column-order:{m}:{n}")
        for _ in range(300):
            lines.append(_witness_line(m, n, random_profile(rng, m, n), tied_incomes(rng, n)))
    return lines


class TestPinnedColumnOrder:
    """``ce_exists`` output on a second fixed corpus, large enough that
    the simplex's column order shows in the witness prices: walking the
    positivity targets in ascending bundle order instead of agent order
    keeps every answer and allocation here but changes the prices of five
    witnesses, which ``TestPinnedWitnesses``' corpus does not show."""

    def test_digest(self, column_order_lines):
        digest = hashlib.sha256("\n".join(column_order_lines).encode()).hexdigest()
        assert digest == (
            "688aeda40594e30eceaca01ae2491586a082b7c0ca5bc41d363fa702930e9d9e"
        )


class TestScaleEquivariance:
    def test_existence_and_scaled_witness(self, rng):
        factor = Fraction(5, 3)
        for _ in range(10):
            m, n = rng.choice([(2, 2), (3, 2)])
            incomes = IncomeVector.of(
                sorted((Fraction(rng.randint(1, 30)) for _ in range(n)), reverse=True)
            )
            profile = [
                random_preference(m, seed=rng.randrange(10**6)) for _ in range(n)
            ]
            base = ce_exists(profile, incomes)
            scaled = ce_exists(profile, scaled_incomes(incomes, factor))
            assert (base is None) == (scaled is None)
            if base is not None:
                lifted = CEPair(
                    prices=PriceVector.of(p * factor for p in base.prices),
                    allocation=base.allocation,
                )
                assert verify_ce(profile, scaled_incomes(incomes, factor), lifted).valid


class TestNoCEInstance:
    def test_reference_point_certified(self):
        inst = counterexample_4x3()
        profile = list(inst.completed_profile())
        assert ce_exists(profile, inst.reference) is None

    @pytest.mark.parametrize("name", ["counterexample-4x4", "counterexample-5x2"])
    def test_other_reference_points_certified(self, name):
        inst = NAMED_INSTANCES[name]()
        assert ce_exists(list(inst.completed_profile()), inst.reference) is None

    def test_random_price_search_never_contradicts(self):
        # independent of the oracle's LP: structured random prices with
        # the budget equalities enforced by rescaling never produce a valid pair
        inst = counterexample_4x3()
        profile = list(inst.completed_profile())
        incomes = inst.reference
        rng = random.Random(4242)
        for assign in product(range(3), repeat=4):
            masks = [0] * 3
            for item, agent in enumerate(assign):
                masks[agent] |= 1 << item
            alloc = Allocation(m=4, bundles=tuple(masks))
            for _ in range(60):
                raw = [Fraction(rng.randint(1, 3000), 100) for _ in range(4)]
                prices = list(raw)
                usable = True
                for i, bundle in enumerate(masks):
                    if not bundle:
                        continue
                    total = sum(raw[j] for j in range(4) if bundle & (1 << j))
                    scale = incomes[i] / total
                    for j in range(4):
                        if bundle & (1 << j):
                            prices[j] = raw[j] * scale
                if any(p <= 0 for p in prices):
                    continue
                pair = CEPair(prices=PriceVector.of(prices), allocation=alloc)
                assert not verify_ce(profile, incomes, pair).valid

    def test_region_sampling(self, monkeypatch):
        calls = []

        def counted(profile, incomes):
            calls.append((profile, incomes))
            return ce_exists(profile, incomes)

        monkeypatch.setattr(repro, "ce_exists", counted)
        hits = certify_counterexample(
            counterexample_4x3(), points=10, alt_completions=0, seed=9
        )
        # 11 income points (the reference and 10 sampled) x 1 completion
        assert len(calls) == 11 and len({id(profile) for profile, _ in calls}) == 1
        assert hits == 0


class TestLimits:
    def test_instance_too_large(self):
        profile = [random_preference(7, seed=0)]
        with pytest.raises(InstanceTooLargeError):
            ce_exists(profile, IncomeVector.of([1]))

    def test_many_agents_few_items(self, rng):
        """Twenty agents and one or two items: the prefilters' unions range
        over the owners of non-empty bundles, at most m of them, so no
        table or list grows like 2^n.  The answer is the unfiltered walk's
        first witness, or None."""
        n = 20
        answers = Counter()
        for m in (1, 2):
            for k in range(8):
                incomes = [Fraction(rng.randint(20, 40), rng.randint(1, 2)) for _ in range(3)]
                incomes += [Fraction(rng.randint(1, 12), rng.randint(1, 3)) for _ in range(n - 3)]
                if k % 2:
                    incomes[1] = incomes[0]
                rng.shuffle(incomes)
                incomes = IncomeVector.of(incomes)
                profile = [random_preference(m, seed=rng.randrange(10**6)) for _ in range(n)]
                tracemalloc.start()
                try:
                    fast = ce_exists(profile, incomes)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak < 256 * 1024, peak
                slow = None
                for alloc in every_allocation(m, n):
                    prices = feasible_ce_prices(profile, incomes, alloc)
                    if prices is not None:
                        slow = CEPair(prices=prices, allocation=alloc)
                        break
                assert fast == slow
                answers[m, fast is not None] += 1
        assert set(answers) == {(1, True), (1, False), (2, True), (2, False)}, answers
