"""The reproduction harness, pinned on a small run, and its domination audit."""

import random
from dataclasses import replace
from fractions import Fraction

import pytest

from cefai.core import random_preference
from cefai.market import PriceVector
from cefai.repro import (
    SolveRecord,
    audit_lemmas,
    existence_table,
    format_table,
    soundness_m3,
)
from cefai.solver import solve

from ce_reference import reference_lemma_violations
from conftest import permuted_market


class TestPinnedRepro:
    """``existence_table`` at a small scale: its detail lines depend on
    every seeded sampler, the solver, the counterexample certification
    and both audits, so a refactor of any of them must reproduce them."""

    def test_details_and_table(self):
        report = existence_table(scale=0.1, seed=20)
        assert report.details == (
            "1-3 items: 17/17 solved",
            "4 items, 2 agents: 10/10 solved",
            "4 items, 3 agents: 35/35 solved, 0 instances certified to have "
            "no equilibrium, 0 unexplained",
            "4 items, 4 agents: counterexample region, 3 points x 3 completions, "
            "0 equilibria found",
            "5 items, 2 agents: counterexample region, 3 points x 3 completions, "
            "0 equilibria found",
            "domination guarantees: 62 executions, 0 violations",
            "share guarantees (parts up to 4): 62 pairs, 6150 applicable "
            "instances, 0 violations",
        )
        assert format_table(report) == "\n".join(
            [
                "items   agents  expected  measured  status",
                "-----   ------  --------  --------  ------",
                "1,2,3   2-4     Yes       Yes       ok",
                "4       2       Yes       Yes       ok",
                "4       3       Yes       Yes       ok",
                "4       4+      No        No        ok",
                "5+      2+      No        No        ok",
            ]
        )
        assert report.all_match and report.audits_clean


class TestDominationAudit:
    """``audit_lemmas`` reads 0 on solver records and counts each
    (agent, bundle) pair once a record breaks either guarantee."""

    @pytest.fixture(scope="class")
    def records(self):
        return [rec for report in soundness_m3(6, seed=3) for rec in report.records]

    def test_clean_records(self, records):
        assert len(records) == 18
        assert audit_lemmas(records) == 0

    def test_halved_prices_break_affordability(self, records):
        # only the pair is halved: a solve keeps its prices there alone, so
        # that is where the audit must read them
        def halved(rec):
            prices = PriceVector.of(p / 2 for p in rec.pair.prices)
            return replace(rec, pair=replace(rec.pair, prices=prices))

        assert audit_lemmas([halved(rec) for rec in records]) == 110

    def test_other_preferences_break_the_contiguous_guarantee(self, records):
        # prices and incomes stay as solved, so only the second guarantee can fail
        swapped = [
            replace(
                rec,
                profile=tuple(
                    random_preference(pref.m, seed=100 * k + i)
                    for i, pref in enumerate(rec.profile)
                ),
            )
            for k, rec in enumerate(records)
        ]
        assert audit_lemmas(swapped) == 13

    def test_counts_match_the_fraction_reference(self, records):
        # prices scaled down, kept and scaled up, under the solved and
        # under other preferences: the integer audit and the one-pair-at-
        # a-time Fraction reference count the same violations, also on
        # markets whose richest agent is not listed first
        rng = random.Random("audit-shuffle")
        shuffled = []
        for rec in records:
            n = len(rec.profile)
            profile, incomes = permuted_market(rec.profile, rec.incomes, rng.sample(range(n), n))
            pair, transcript = solve(profile, incomes)
            shuffled.append(SolveRecord(profile, incomes, pair, transcript))
        assert any(rec.transcript.order != tuple(range(len(rec.profile))) for rec in shuffled)
        assert audit_lemmas(shuffled) == 0
        records = records + shuffled
        counts = []
        for factor in (Fraction(2, 3), Fraction(1), Fraction(5, 4)):
            for seed in (None, 7):
                changed = []
                for k, rec in enumerate(records):
                    prices = PriceVector.of(p * factor for p in rec.pair.prices)
                    rec = replace(rec, pair=replace(rec.pair, prices=prices))
                    if seed is not None:
                        profile = tuple(
                            random_preference(pref.m, seed=seed + 100 * k + i)
                            for i, pref in enumerate(rec.profile)
                        )
                        rec = replace(rec, profile=profile)
                    changed.append(rec)
                count = audit_lemmas(changed)
                assert count == reference_lemma_violations(changed)
                counts.append(count)
        assert min(counts) == 0 and max(counts) > 0
