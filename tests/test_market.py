"""Exact equilibrium verification and positional domination."""

import ast
import dataclasses
import inspect
import sys
import time
from fractions import Fraction
from itertools import permutations
from pathlib import Path

import pytest

from cefai import cli, core, fairness, instances, market, oracle, pixep, repro, solver
from cefai.core import all_bundles, random_preference
from cefai.instances import NAMED_INSTANCES, random_generic_incomes
from cefai.market import (
    Allocation,
    CEPair,
    CEViolation,
    DimensionMismatchError,
    IncomeRegion,
    IncomeVector,
    PriceVector,
    ViolationKind,
    common_scale,
    scaled_integers,
    verify_ce,
)

from ce_reference import bundle_price, is_dominated_by
from conftest import chain_preference


def one_item_market():
    pref = chain_preference(1)
    return [pref, pref]


class TestVerifyCE:
    def test_unequal_incomes_single_item(self):
        profile = one_item_market()
        pair = CEPair(
            prices=PriceVector.of([2]),
            allocation=Allocation(m=1, bundles=(0b1, 0b0)),
        )
        report = verify_ce(profile, IncomeVector.of([2, 1]), pair)
        assert report.valid

    def test_equal_incomes_single_item(self):
        profile = one_item_market()
        pair = CEPair(
            prices=PriceVector.of([1]),
            allocation=Allocation(m=1, bundles=(0b1, 0b0)),
        )
        report = verify_ce(profile, IncomeVector.of([1, 1]), pair)
        assert not report.valid
        (violation,) = report.violations
        assert violation.agent == 1
        assert violation.kind is ViolationKind.AFFORDABLE_BETTER_BUNDLE
        assert violation.bundle == 0b1

    def test_strict_literal_mode_ignores_empty_handed_agents(self):
        # the literal own-bundle-price threshold trivializes the check for
        # an empty-handed agent; the income threshold does not
        profile = one_item_market()
        pair = CEPair(
            prices=PriceVector.of([1]),
            allocation=Allocation(m=1, bundles=(0b1, 0b0)),
        )
        incomes = IncomeVector.of([1, 1])
        assert not verify_ce(profile, incomes, pair).valid
        assert verify_ce(profile, incomes, pair, strict_literal=True).valid

    def test_budget_mismatch_reported(self):
        profile = one_item_market()
        pair = CEPair(
            prices=PriceVector.of([3]),
            allocation=Allocation(m=1, bundles=(0b1, 0b0)),
        )
        report = verify_ce(profile, IncomeVector.of([2, 1]), pair)
        kinds = {v.kind for v in report.violations}
        assert ViolationKind.BUDGET_MISMATCH in kinds

    def test_all_violations_reported_and_recheckable(self):
        # both agents prefer the full pair; give each a single item priced
        # wrongly so several violations coexist
        pref = chain_preference(2, 0b01, 0b10)
        profile = [pref, pref]
        pair = CEPair(
            prices=PriceVector.of([1, 1]),
            allocation=Allocation(m=2, bundles=(0b01, 0b10)),
        )
        incomes = IncomeVector.of([5, 5])
        report = verify_ce(profile, incomes, pair)
        assert not report.valid
        for v in report.violations:
            if v.kind is ViolationKind.BUDGET_MISMATCH:
                assert bundle_price(pair.prices, v.bundle) != incomes[v.agent]
            else:
                assert profile[v.agent].prefers(v.bundle, pair.allocation[v.agent])
                assert v.price <= v.threshold

    def test_describe_names_an_item_the_same_in_every_bundle(self):
        # without names an item reads by its index, whatever else the
        # bundle holds; with names the text is as the caller names them
        better = ViolationKind.AFFORDABLE_BETTER_BUNDLE
        alone = CEViolation(0, better, 0b00100, Fraction(1), Fraction(2))
        pair = CEViolation(0, better, 0b10100, Fraction(1), Fraction(2))
        assert alone.describe() == "agent 0 prefers i2 at price 1, affordable at threshold 2"
        assert pair.describe() == "agent 0 prefers i2+i4 at price 1, affordable at threshold 2"
        assert alone.describe("vwxyz") == "agent 0 prefers x at price 1, affordable at threshold 2"
        assert pair.describe("vwxyz") == "agent 0 prefers xz at price 1, affordable at threshold 2"

    def test_dimension_mismatch(self):
        profile = one_item_market()
        pair = CEPair(
            prices=PriceVector.of([1]),
            allocation=Allocation(m=1, bundles=(0b1,)),
        )
        with pytest.raises(DimensionMismatchError):
            verify_ce(profile, IncomeVector.of([1, 1]), pair)


class TestIntegerForm:
    def test_equals_common_scale_and_scaled_integers(self, rng):
        for _ in range(300):
            t = [
                Fraction(rng.randint(1, 10**6), rng.randint(1, 10**4))
                for _ in range(rng.randint(1, 6))
            ]
            incomes = IncomeVector.of(t)
            scale = common_scale(t)
            assert incomes.integers == (scale, tuple(scaled_integers(t, scale)))
            assert incomes.integers is incomes.integers

    def test_one_solve_and_audit_scale_incomes_once(self, monkeypatch):
        # the incomes were scaled once, when the sampler built them; one
        # solve, its share audit and an oracle run that returns a witness
        # scale nothing more: the prices they build carry their integer
        # form into verify_ce
        incomes = random_generic_incomes(4, 3, seed=5)[0]
        profile = [random_preference(4, seed=s) for s in (11, 12, 13)]
        calls = {"common_scale": [], "scaled_integers": []}

        def counted_scale(*vectors):
            calls["common_scale"].append(vectors)
            return common_scale(*vectors)

        def counted_integers(values, scale):
            calls["scaled_integers"].append(values)
            return scaled_integers(values, scale)

        # wherever a module binds a name, so a layer that scales on its
        # own is counted too
        for module in (core, market, solver, pixep, oracle, fairness, repro, instances, cli):
            for name, counted in (("common_scale", counted_scale),
                                  ("scaled_integers", counted_integers)):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted)
        pair, _ = solver.solve(profile, incomes)
        fairness.audit_ce_fairness(profile, incomes, pair)
        witness = oracle.ce_exists(profile, incomes)
        assert witness is not None
        assert calls == {"common_scale": [], "scaled_integers": []}

    def test_prices_from_either_constructor(self, rng):
        # prices or incomes read by hand (of) and built from integers over
        # any scale (scaled) are the same vector, with the same integer form
        for _ in range(300):
            m = rng.randint(1, 6)
            p = [Fraction(rng.randint(1, 10**6), rng.randint(1, 10**4)) for _ in range(m)]
            lcd = common_scale(p)
            scale = lcd * rng.randint(1, 50)
            want = (lcd, tuple(scaled_integers(p, lcd)))
            for cls in (PriceVector, IncomeVector):
                by_hand = cls.of(p)
                built = cls.scaled(scaled_integers(p, scale), scale)
                assert tuple(built) == tuple(by_hand) == tuple(p)
                assert all(type(v) is Fraction for v in built)
                assert built == by_hand and hash(built) == hash(by_hand)
                assert built.integers == by_hand.integers == want
            # one form, but a price vector is never an income vector
            assert PriceVector.of(p) != IncomeVector.of(p)
            by_hand = PriceVector.of(p)
            built = PriceVector.scaled(scaled_integers(p, scale), scale)
            allocation = Allocation(m=m, bundles=((1 << m) - 1, 0))
            assert CEPair(built, allocation) == CEPair(by_hand, allocation)
            incomes = IncomeVector.of(
                Fraction(rng.randint(1, 10**6), rng.randint(1, 10**4)) for _ in range(2)
            )
            assert market.scaled_market(built, incomes) == market.scaled_market(
                by_hand, incomes
            )

    @pytest.mark.parametrize("numerators,scale", [
        ([0], 1), ([3, 0, 1], 2), ([1, -1], 2), ([-3], 1), ([2, 4, -6], 4),
    ])
    def test_scaled_prices_must_be_positive(self, numerators, scale):
        # and incomes, which share the check and name an agent
        for cls, entry in ((PriceVector, "price of item"), (IncomeVector, "income of agent")):
            with pytest.raises(ValueError) as by_hand:
                cls.of(Fraction(v, scale) for v in numerators)
            with pytest.raises(ValueError) as built:
                cls.scaled(numerators, scale)
            assert str(built.value).startswith(entry)
            assert "must be positive" in str(built.value)
            assert str(built.value) == str(by_hand.value)

    @pytest.mark.parametrize("scale", [0, -2])
    def test_scaled_prices_need_a_positive_scale(self, scale):
        for cls, noun in ((PriceVector, "price"), (IncomeVector, "income")):
            with pytest.raises(ValueError, match=f"^{noun} scale must be positive"):
                cls.scaled([1, 2], scale)

    def test_integer_form_alone(self):
        # each vector keeps one field, its integer form, and a region its
        # rows as integers
        for cls in (PriceVector, IncomeVector):
            assert [f.name for f in dataclasses.fields(cls)] == ["integers"]
        region = IncomeRegion.of(3, [("1/2", "-1/3", 0), (0, 2, "-3/4")])
        assert region.constraints == ((3, -2, 0), (0, 8, -3))
        assert all(type(c) is int for row in region.constraints for c in row)
        with pytest.raises(ValueError, match="income vector must not be empty"):
            IncomeVector.of([])
        assert len(PriceVector.of([])) == 0

    def test_prices_built_only_when_read(self, monkeypatch):
        # solve and ce_exists price their pairs with PriceVector.scaled,
        # which keeps the integer form alone; a price read by [j] is built
        # then, from that form.  Only the Fractions the code PriceVector
        # shares with IncomeVector builds are counted: verify_ce reports a
        # failed candidate's violations in Fractions.
        lines, first = inspect.getsourcelines(market._PositiveRationals)
        methods = range(first, first + len(lines))
        built = []

        class Counting(Fraction):
            def __new__(cls, *args, **kwargs):
                caller = sys._getframe(1).f_code
                if caller.co_filename == market.__file__ and caller.co_firstlineno in methods:
                    built.append(args)
                return super().__new__(cls, *args, **kwargs)

        profile = [random_preference(3, seed=s) for s in (4, 9)]
        incomes = IncomeVector.of([Fraction(7, 3), 2])
        monkeypatch.setattr(market, "Fraction", Counting)
        pair, _ = solver.solve(profile, incomes)
        witness = oracle.ce_exists(profile, incomes)
        assert witness is not None
        assert built == []
        for prices in (pair.prices, witness.prices):
            scale, numerators = prices.integers
            for j in range(len(prices)):
                assert prices[j] == Fraction(numerators[j], scale)
        assert len(built) == 2 * len(pair.prices)


def test_prices_read_with_of_only_when_parsed():
    # The SPE engine and the oracle find prices as integers over a scale and
    # build them with PriceVector.scaled, which keeps that form for
    # verify_ce; PriceVector.of is for prices the CLI parses, and reaches
    # PriceVector.scaled over their least common denominator.
    found = set()
    for path in sorted(Path(market.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        functions = [f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)]
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "of"
                and "PriceVector" in (getattr(node.func.value, "id", None),
                                      getattr(node.func.value, "attr", None))
            ):
                around = [f for f in functions if f.lineno <= node.lineno <= f.end_lineno]
                caller = max(around, key=lambda f: f.lineno).name if around else "<module>"
                found.add((path.stem, caller))
    assert found == {("cli", "load_candidate")}


class TestAllocation:
    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            Allocation(m=2, bundles=(0b01, 0b01))

    def test_items_must_be_covered(self):
        with pytest.raises(ValueError):
            Allocation(m=2, bundles=(0b01, 0b00))

    def test_item_beyond_the_market_named(self):
        with pytest.raises(ValueError, match="holds item 2, beyond the market's 2 items"):
            Allocation(m=2, bundles=(0b111, 0))
        with pytest.raises(ValueError, match="holds item 3, beyond"):
            Allocation(m=2, bundles=(0b1001, 0b10))

    def test_negative_mask_and_item_outside_named(self):
        # the first two cover both items, yet a mask below 0 is no bundle
        for m, bundles, agent in ((2, (-4, 3), 0), (2, (3, -4), 1), (1, (-1,), 0)):
            text = f"mask {bundles[agent]} of agent {agent} is negative"
            with pytest.raises(ValueError, match=text):
                Allocation(m, bundles)
        allocation = Allocation(2, (0b10, 0b01))
        assert [allocation.owner_of(item) for item in range(2)] == [1, 0]
        for item in (-1, 2):
            with pytest.raises(ValueError, match=f"item {item} is outside 0..1"):
                allocation.owner_of(item)

    def test_prices_positive(self):
        with pytest.raises(ValueError):
            PriceVector.of([1, 0])

    def test_prices_of_any_exact_type(self):
        want = (Fraction(3), Fraction(5, 2), Fraction(1, 3))
        for values in ([3, "5/2", "1/3"], [Fraction(3), Fraction(5, 2), Fraction(1, 3)],
                       ["3", Fraction(5, 2), "1/3"]):
            prices = PriceVector.of(values)
            assert tuple(prices) == want
            assert all(type(v) is Fraction for v in prices)
        # one reduced integer form per vector, which equality and hashing read
        a, b = PriceVector.of([1, 2]), PriceVector.of(["2/2", 2])
        assert a == b and hash(a) == hash(b) and a.integers == (1, (1, 2))
        for bad in ([Fraction(0)], ["0"], [1, Fraction(-1, 2)], ["-3"], [-1]):
            with pytest.raises(ValueError, match="must be positive"):
                PriceVector.of(bad)

    def test_incomes_positive(self):
        with pytest.raises(ValueError):
            IncomeVector.of([1, Fraction(0)])


POSITIONS_4 = {0: 1, 1: 2, 2: 3, 3: 4}  # item j picked at position j+1


def by_positions(*positions):
    return sum(1 << (p - 1) for p in positions)


class TestDomination:
    def test_pair_14_dominated_by_12(self):
        assert is_dominated_by(by_positions(1, 4), by_positions(1, 2), POSITIONS_4)

    def test_pair_14_dominates_34(self):
        assert is_dominated_by(by_positions(3, 4), by_positions(1, 4), POSITIONS_4)

    def test_pair_14_unrelated_to_234(self):
        x, y = by_positions(1, 4), by_positions(2, 3, 4)
        assert not is_dominated_by(x, y, POSITIONS_4)
        assert not is_dominated_by(y, x, POSITIONS_4)

    def test_classification_examples(self):
        own = by_positions(1, 4)
        # {1,3,4} dominates {1,4}, {1} is dominated by it, {2,3,4} neither
        assert is_dominated_by(own, by_positions(1, 3, 4), POSITIONS_4)
        assert is_dominated_by(by_positions(1), own, POSITIONS_4)
        assert not is_dominated_by(own, by_positions(2, 3, 4), POSITIONS_4)
        assert not is_dominated_by(by_positions(2, 3, 4), own, POSITIONS_4)

    def test_antisymmetry_exhaustive_length_5(self):
        positions = {j: j + 1 for j in range(5)}
        for x in all_bundles(5):
            for y in all_bundles(5):
                if x == y:
                    continue
                assert not (
                    is_dominated_by(x, y, positions)
                    and is_dominated_by(y, x, positions)
                )

    def test_empty_bundle_dominated_by_everything(self):
        for y in range(1, 16):
            assert is_dominated_by(0, y, POSITIONS_4)
            assert not is_dominated_by(y, 0, POSITIONS_4)

    def test_position_order_irrelevant_to_antisymmetry(self):
        for perm in permutations(range(1, 5)):
            positions = {j: perm[j] for j in range(4)}
            for x in all_bundles(4):
                for y in all_bundles(4):
                    if x != y:
                        assert not (
                            is_dominated_by(x, y, positions)
                            and is_dominated_by(y, x, positions)
                        )


class TestIncomeRegion:
    def region(self):
        return IncomeRegion.of(
            2, [(1, -1)], reference=IncomeVector.of([2, 1])
        )  # a > b

    @pytest.mark.parametrize("n", [0, -1])
    def test_needs_an_agent(self, n):
        with pytest.raises(ValueError, match="at least one agent"):
            IncomeRegion.of(n, [])

    def test_contains(self):
        region = self.region()
        assert region.contains(IncomeVector.of([3, 1]))
        assert not region.contains(IncomeVector.of([1, 3]))

    def test_sample_deterministic_and_inside(self):
        region = self.region()
        first = region.sample(seed=4, count=10)
        second = region.sample(seed=4, count=10)
        assert first == second
        assert all(region.contains(p) for p in first)

    def test_rows_scaled_once(self, monkeypatch):
        # the rows are scaled when the region is built, and each point
        # when the sampler builds it from its integer draw
        region = self.region()
        scaled = []

        for name in ("common_scale", "scaled_integers"):
            monkeypatch.setattr(market, name, lambda *args: scaled.append(args))
        points = region.sample(seed=4, count=10)
        assert all(region.contains(p) for p in points)
        assert scaled == []

    def test_reference_checked(self):
        with pytest.raises(ValueError):
            IncomeRegion.of(2, [(1, -1)], reference=IncomeVector.of([1, 2]))

    @pytest.mark.parametrize("row", [(0, 0), (-1, 0), ("-1/2", -3)])
    def test_row_without_positive_coefficient_rejected(self, row):
        # no positive income satisfies such a row, so sampling could never
        # find a point
        with pytest.raises(ValueError, match=r"constraint row 1 \(.*\) has no positive"):
            IncomeRegion.of(2, [(1, -1), row])

    @pytest.mark.parametrize(
        "rows",
        [[(1, -1), (-1, 1)], [(1, -2), (-1, 1)], [("2/3", -1), (-1, "1/2")],
         [(1, -1, 0), (0, 1, -1), (-1, 0, 1)]],
    )
    def test_empty_region_rejected_at_once(self, rows):
        # every row has a positive coefficient, but no positive incomes
        # satisfy them together; no draw is made
        start = time.perf_counter()
        with pytest.raises(ValueError, match="income region is empty"):
            IncomeRegion.of(len(rows[0]), rows)
        assert time.perf_counter() - start < 0.01

    def test_boundary_touching_region_accepted(self):
        # a > b and 2b > a leave the open wedge b < a < 2b
        region = IncomeRegion.of(2, [(1, -1), (-1, 2)])
        assert region.contains(IncomeVector.of([3, 2]))

    @pytest.mark.parametrize("name", sorted(NAMED_INSTANCES))
    def test_named_regions_accepted(self, name):
        region = NAMED_INSTANCES[name]().region
        rebuilt = IncomeRegion.of(region.n, region.constraints, region.reference)
        assert rebuilt == region and rebuilt.contains(region.reference)

    def test_reference_below_half_a_grid_step(self):
        region = IncomeRegion.of(
            2, [(1, -1)], reference=IncomeVector.of([1, Fraction(1, 2001)])
        )
        with pytest.raises(ValueError, match=r"agent 1 .* 1/1000 grid"):
            region.sample(seed=0, count=1)

    def test_reference_at_half_a_grid_step_samples(self):
        # the smallest reference coordinate that still leaves one grid point
        region = IncomeRegion.of(
            2, [(1, -1)], reference=IncomeVector.of([1, Fraction(1, 2000)])
        )
        (point,) = region.sample(seed=0, count=1)
        assert point[1] == Fraction(1, 1000) and region.contains(point)
