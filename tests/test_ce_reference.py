"""``verify_ce``, ``audit_ce_fairness`` and the oracle's prefilters against
their ``Fraction`` references."""

import random
from collections import Counter
from fractions import Fraction

import pytest

from cefai.core import item_names
from cefai.fairness import audit_ce_fairness
from cefai.market import Allocation, CEPair, IncomeVector, PriceVector, verify_ce
from cefai.instances import NAMED_INSTANCES
from cefai.lp import _PAIR_CERTIFICATES, _check_farkas, _dual_simplex
from cefai.oracle import _MarketRows, _passes_prefilters, _slack_rows, ce_exists

from ce_reference import (
    PARENT_SHAPES,
    bundle_price,
    reference_audit_ce_fairness,
    reference_rejecting_shape,
    reference_verify_ce,
)
from conftest import every_allocation, random_profile, tied_incomes

CELLS = [(m, n) for m in range(1, 6) for n in range(1, 5)]
PAIRS_PER_CELL = 100


def _money(rng: random.Random) -> Fraction:
    # Small numerators and denominators, so that bundle prices often tie
    # with incomes and the `<=` boundary is exercised.
    return Fraction(rng.randint(1, 12), rng.randint(1, 4))


def random_pairs(m: int, n: int, seed: int, count: int):
    """``count`` (profile, incomes, pair) triples of one cell, in three
    kinds: arbitrary prices and incomes, incomes equal to the owners'
    bundle prices (no budget violation), and an equilibrium found by the
    oracle where the cell is small enough to enumerate."""
    rng = random.Random(f"ce-reference:{m}:{n}:{seed}")
    out = []
    while len(out) < count:
        profile = random_profile(rng, m, n)
        owners = [rng.randrange(n) for _ in range(m)]
        bundles = tuple(
            sum(1 << j for j in range(m) if owners[j] == i) for i in range(n)
        )
        prices = PriceVector.of(_money(rng) for _ in range(m))
        kind = len(out) % 3
        if kind == 2 and n**m <= 256:
            incomes = IncomeVector.of(_money(rng) for _ in range(n))
            witness = ce_exists(profile, incomes)
            if witness is not None:
                out.append((profile, incomes, witness))
                continue
            kind = 1
        if kind == 1:
            incomes = IncomeVector.of(
                bundle_price(prices, b) if b else _money(rng) for b in bundles
            )
        else:
            incomes = IncomeVector.of(_money(rng) for _ in range(n))
        out.append((profile, incomes, CEPair(prices, Allocation(m=m, bundles=bundles))))
    return out


def _violation_fields(report):
    return [(v.agent, v.kind, v.bundle, v.price, v.threshold) for v in report.violations]


@pytest.mark.parametrize("m,n", CELLS, ids=[f"m{m}n{n}" for m, n in CELLS])
class TestAgainstReference:
    def test_verify_ce(self, m, n):
        names = item_names(m)
        valid = invalid = 0
        for profile, incomes, pair in random_pairs(m, n, seed=1, count=PAIRS_PER_CELL):
            for strict in (False, True):
                got = verify_ce(profile, incomes, pair, strict_literal=strict)
                want = reference_verify_ce(profile, incomes, pair, strict_literal=strict)
                assert got.valid == want.valid
                assert _violation_fields(got) == _violation_fields(want)
                assert all(
                    type(v.price) is Fraction and type(v.threshold) is Fraction
                    for v in got.violations
                )
                assert [v.describe() for v in got.violations] == [
                    v.describe() for v in want.violations
                ]
                assert [v.describe(names) for v in got.violations] == [
                    v.describe(names) for v in want.violations
                ]
                valid += want.valid
                invalid += not want.valid
        assert invalid > 0
        if n**m <= 256:
            assert valid > 0

    def test_audit_ce_fairness(self, m, n):
        rng = random.Random(f"audit:{m}:{n}")
        for profile, incomes, pair in random_pairs(m, n, seed=2, count=PAIRS_PER_CELL):
            d_max = rng.randint(1, 4)
            got = audit_ce_fairness(profile, incomes, pair, d_max=d_max)
            want = reference_audit_ce_fairness(profile, incomes, pair, d_max=d_max)
            assert got.applicable == want.applicable
            assert got.violations == want.violations


MARKETS_PER_CELL = 20


def _prefilter_markets():
    """Seeded random markets of every cell, tied incomes included, then
    each named instance at its reference point and 10 region points."""
    for m, n in CELLS:
        rng = random.Random(f"prefilters:{m}:{n}")
        for _ in range(MARKETS_PER_CELL):
            yield random_profile(rng, m, n), tied_incomes(rng, n)
    for inst in (factory() for factory in NAMED_INSTANCES.values()):
        profile = inst.completed_profile()
        for incomes in [inst.reference, *inst.region.sample(seed=5, count=10)]:
            yield profile, incomes


class TestPrefiltersAgainstReference:
    """``_passes_prefilters`` gives the verdict of rules 1-3 as the
    reference restates them from the profile, the incomes and the masks
    alone, on every allocation: one that rejected fewer allocations, or
    more, fails here, while the answers alone would not show it."""

    def test_same_verdict_on_every_allocation(self):
        verdicts = Counter()
        shapes = Counter()
        tied = Counter()
        tied_markets = 0
        for profile, incomes in _prefilter_markets():
            rows = _MarketRows(profile, incomes)
            cell = profile[0].m, len(profile)
            tied_markets += len(set(incomes)) < len(incomes)
            for alloc in every_allocation(*cell):
                got = _passes_prefilters(rows, alloc.bundles)
                shape = reference_rejecting_shape(profile, incomes, alloc.bundles)
                assert got == (shape is None), (list(incomes), alloc.bundles)
                verdicts[shape and shape[0], 0 in alloc.bundles] += 1
                shapes[shape and shape[1]] += 1
                if len(set(incomes)) < len(incomes):
                    tied[cell, got] += 1
        passes = verdicts[None, False] + verdicts[None, True]
        assert passes > 500 and verdicts.total() - passes > 5000, verdicts
        assert tied_markets >= 40
        # every rule rejects, and allocations pass, with and without an
        # empty bundle (rule 1 needs one)
        assert set(verdicts) == {
            (rule, empty) for rule in (None, 2, 3) for empty in (False, True)
        } | {(1, True)}, verdicts
        assert verdicts[None, False] > 150 and verdicts[None, True] > 150, verdicts
        # each shape over a union of whole bundles rejects allocations that
        # the shapes before it pass
        for shape in ("union of 2", "split of another bundle", "empty-handed"):
            assert shapes[shape] > 0, shapes
        # both verdicts under tied incomes in the cells the census reaches
        for cell in [(3, 4), (4, 3), (4, 4), (5, 2), (5, 3)]:
            assert tied[cell, True] and tied[cell, False], (cell, tied)

    def test_union_rejections_are_infeasible(self):
        """Every allocation that the shapes of ``PARENT_SHAPES`` pass and
        ``_passes_prefilters`` rejects has a system that closes, by a pair
        of rows or by the simplex, on a certificate that
        ``_check_farkas`` accepts."""
        closed = Counter()
        for profile, incomes in _prefilter_markets():
            rows = _MarketRows(profile, incomes)
            for alloc in every_allocation(profile[0].m, len(profile)):
                masks = alloc.bundles
                if _passes_prefilters(rows, masks):
                    continue
                shape = reference_rejecting_shape(profile, incomes, masks)
                if shape is not None and shape[1] in PARENT_SHAPES:
                    continue
                _, _, a, c, pair = _slack_rows(rows, masks)
                if pair is not None:
                    _check_farkas(a, c, _PAIR_CERTIFICATES[pair], 2)
                else:
                    y, reduced, d = _dual_simplex(a, c)
                    assert reduced[-1] >= 0, (list(incomes), masks)
                    _check_farkas(a, c, y, d)
                closed["pair" if pair else "simplex", len(profile)] += 1
        assert closed.total() > 250, closed
        assert {n for _, n in closed} == {2, 3, 4}, closed
