"""Bundled instances and income samplers."""

import hashlib
from fractions import Fraction
from types import SimpleNamespace

import pytest

from cefai.core import (
    all_bundles,
    complete_partial,
    parse_bundle,
    random_completion,
    random_preference,
)
from cefai.instances import (
    NAMED_INSTANCES,
    counterexample_4x3,
    counterexample_4x4,
    counterexample_5x2,
    random_generic_incomes,
    stratified_incomes,
)
from cefai import market
from cefai.market import IncomeRegion
from cefai.solver import range_labels, range_table

from conftest import is_generic, satisfies_relations
from sampler_reference import range_holds


class TestCounterexample4x4:
    def test_reference_chain_strict(self):
        a, b, c, d = counterexample_4x4().reference
        chain = [2 * b, 2 * c, b + d, a, c + d, 2 * d, b, c, d]
        assert all(hi > lo for hi, lo in zip(chain, chain[1:]))
        assert (a, b, c, d) == (Fraction(27, 2), 9, 8, 5)

    def test_completions_satisfy_relations(self):
        inst = counterexample_4x4()
        profile = inst.completed_profile()
        for pref, rel in zip(profile, inst.relations):
            assert satisfies_relations(pref, rel)
        for seed in range(5):
            for pref, rel in zip(inst.random_profile(seed), inst.relations):
                assert satisfies_relations(pref, rel)

    def test_additive_instantiation_fits_the_first_agent(self):
        from cefai.core import additive_preference

        inst = counterexample_4x4()
        additive = additive_preference(4, [11, 7, 5, 3])
        assert satisfies_relations(additive, inst.relations[0])

    def test_region_contains_reference(self):
        inst = counterexample_4x4()
        assert inst.region.contains(inst.reference)


class TestCounterexample5x2:
    def test_reference_in_band(self):
        a, b = counterexample_5x2().reference
        assert a > b > Fraction(3, 4) * a

    def test_full_set_on_top(self):
        inst = counterexample_5x2()
        for pref in inst.completed_profile():
            assert pref.rank[0b11111] == 31

    def test_second_agent_chain(self):
        inst = counterexample_5x2()
        names = inst.item_names
        bob = inst.completed_profile()[1]
        vw = parse_bundle("vw", names)
        v = parse_bundle("v", names)
        w = parse_bundle("w", names)
        assert bob.prefers(vw, v) and bob.prefers(v, w)
        for text in ("xy", "xz", "yz"):
            assert bob.prefers(w, parse_bundle(text, names))

    def test_group_classes_cover_all_bundles_mentioned(self):
        inst = counterexample_5x2()
        # every quartet outranks every triplet of the vwx group for Alice
        alice = inst.completed_profile()[0]
        names = inst.item_names
        quartets = [b for b in all_bundles(5) if bin(b).count("1") == 4]
        for q in quartets:
            for text in ("vwx", "vwy", "vwz"):
                assert alice.prefers(q, parse_bundle(text, names))


class TestCounterexample4x3:
    def test_reference_point(self):
        inst = counterexample_4x3()
        assert tuple(inst.reference) == (16, 9, 6)
        assert inst.region.contains(inst.reference)
        a, b, c = inst.reference
        assert 2 * b > a > b + c and a < 3 * c and b < 2 * c

    def test_profile_is_fully_pinned(self):
        # the chains assert a total order: every completion is identical
        inst = counterexample_4x3()
        assert inst.completed_profile() == inst.random_profile(seed=99)


class TestSamplers:
    def test_stratified_hits_exactly_one_range(self):
        for m, n in [(4, 3), (4, 2)]:
            for label in range_labels(m, n):
                for point in stratified_incomes(m, n, label, seed=1, count=4):
                    assert is_generic(point, m)
                    matches = [
                        row.label for row in range_table(m, n) if range_holds(row, tuple(point))
                    ]
                    assert matches == [label]

    def test_deterministic(self):
        first = stratified_incomes(4, 3, "m4n3:range4", seed=5, count=6)
        second = stratified_incomes(4, 3, "m4n3:range4", seed=5, count=6)
        assert first == second

    def test_unknown_label(self):
        with pytest.raises(ValueError):
            stratified_incomes(4, 3, "range99", seed=0, count=1)

    @pytest.mark.parametrize(
        "sample",
        [
            lambda count: random_generic_incomes(4, 3, seed=0, count=count),
            lambda count: stratified_incomes(4, 3, "m4n3:range1", seed=0, count=count),
            lambda count: counterexample_4x3().region.sample(0, count),
        ],
        ids=["generic", "stratified", "region"],
    )
    def test_count_zero_draws_nothing_and_negative_raises(self, sample, monkeypatch):
        def no_draws(key):
            raise AssertionError(f"drew from {key}")

        monkeypatch.setattr(market, "random", SimpleNamespace(Random=no_draws))
        assert sample(0) == []
        with pytest.raises(ValueError, match="negative count .*: -1"):
            sample(-1)

    def test_generic_sampler(self):
        for point in random_generic_incomes(4, 3, seed=2, count=5):
            assert is_generic(point, 4)
            assert list(point) == sorted(point, reverse=True)

    @pytest.mark.parametrize("m, n", [(5, 2), (5, 4), (4, 4)])
    def test_generic_sampler_beyond_the_solver(self, m, n):
        # the solver excludes no hyperplanes here: generic means distinct
        points = random_generic_incomes(m, n, seed=3, count=50)
        assert all(len(set(point)) == n for point in points)


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _points(points) -> str:
    return " ".join(",".join(str(t) for t in point) for point in points)


class TestPinnedDraws:
    """The seeded draws, pinned so that a change to a sampler must
    reproduce them bit for bit."""

    def test_random_generic_incomes(self):
        lines = [
            f"{m} {n} {seed}: {_points(random_generic_incomes(m, n, seed=seed, count=4))}"
            for m in range(1, 5)
            for n in range(1, 5 if m < 4 else 4)
            for seed in range(3)
        ]
        assert _digest(lines) == (
            "003e65f208e1fa087abd150110b96435a9041872085c8d2981ed25294088721b"
        )

    def test_stratified_incomes(self):
        lines = [
            f"{m} {n} {label} {seed}: "
            f"{_points(stratified_incomes(m, n, label, seed=seed, count=4))}"
            for m in range(1, 5)
            for n in range(1, 5 if m < 4 else 4)
            for label in range_labels(m, n)
            for seed in range(3)
        ]
        assert _digest(lines) == (
            "fd622f8c722e05d7e35b55c3b1a170706ea186fd53c3bb34c319180050f3d5cc"
        )

    def test_region_sample(self):
        regions = [(name, NAMED_INSTANCES[name]().region) for name in sorted(NAMED_INSTANCES)]
        regions.append(("free", IncomeRegion.of(3, [(1, -1, 0), (0, 1, -1)])))
        lines = [
            f"{name} {seed}: {_points(region.sample(seed, 4))}"
            for name, region in regions
            for seed in range(3)
        ]
        assert _digest(lines) == (
            "5c074cc98ba6975ca65a78887741ce0280402da0bc1b4634e9f1a82581c9b3b5"
        )

    def test_preference_builders(self):
        lines = [
            f"{m} {seed}: {random_preference(m, seed).ranking()}"
            for m in range(1, 7)
            for seed in range(10)
        ]
        for name in sorted(NAMED_INSTANCES):
            for i, rel in enumerate(NAMED_INSTANCES[name]().relations):
                lines.append(f"{name} {i}: {complete_partial(rel).ranking()}")
                lines.extend(
                    f"{name} {i} {seed}: {random_completion(rel, seed).ranking()}"
                    for seed in range(5)
                )
        assert _digest(lines) == (
            "7a59ef5a5eeb98c4ca5aa7fe12017aaa071b7d5038971f4391bbae496776b271"
        )
