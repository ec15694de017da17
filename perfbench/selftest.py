"""Self-test of the benchmark: its checker must count wrong answers, its
tracer must report what it cannot rebind as missing, and every workload
must run end to end at a tiny size.

Run from the repository root:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import unittest
from dataclasses import replace
from fractions import Fraction

import run

run._import_cefai()

import spans  # noqa: E402
import workloads  # noqa: E402
from cefai import solver  # noqa: E402
from cefai.market import CEPair, PriceVector  # noqa: E402

WORKLOADS = workloads.WORKLOADS


def _nudged(pair: CEPair) -> CEPair:
    prices = list(pair.prices)
    prices[0] += Fraction(1, 1000)
    return CEPair(PriceVector.of(prices), pair.allocation)


def _first_yes(workload, cases):
    for i, case in enumerate(cases):
        answer = workload.op(case)
        if answer.yes:
            return i, answer
    raise AssertionError(f"no case of {workload.name} has an equilibrium")


class CheckerTest(unittest.TestCase):
    def _assert_nudge_fails(self, name):
        workload = WORKLOADS[name]
        cases = workload.build(run.DEFAULT_SEED, 0.05)
        i, answer = _first_yes(workload, cases)
        settle = run.settler(workload, cases)
        nudged = replace(answer, pair=_nudged(answer.pair))
        records = [(i, settle(i, answer), 1), (i, settle(i, nudged), 1)]
        self.assertEqual([k for k, _ in run.problems_of(records, None)], [i])

    def test_nudged_price_in_solved_pair_is_a_failure(self):
        self._assert_nudge_fails("solve-mix")

    def test_nudged_price_in_witness_is_a_failure(self):
        self._assert_nudge_fails("exists-m5")

    def test_flipped_answer_is_a_failure(self):
        for name in ("certify-no-ce", "exists-m5"):
            workload = WORKLOADS[name]
            cases = workload.build(run.DEFAULT_SEED, 1.0)
            settle = run.settler(workload, cases)
            records = [(i, settle(i, workload.op(cases[i])), 1) for i in (0, 1)]
            expected = run._expected_answers(name)
            self.assertEqual(run.problems_of(records, expected), [])
            flipped = "10"[int(expected[1])]
            self.assertEqual(
                [i for i, _ in run.problems_of(records, expected[0] + flipped)], [1]
            )

    def test_answer_changed_between_passes_is_a_failure(self):
        records = [(3, (True, None), 1), (3, (False, None), 1), (4, (False, None), 1)]
        self.assertEqual([i for i, _ in run.problems_of(records, None)], [3])

    def test_equilibrium_in_certified_region_is_a_failure(self):
        exists = WORKLOADS["exists-m5"]
        cases = exists.build(run.DEFAULT_SEED, 0.05)
        i, answer = _first_yes(exists, cases)
        self.assertIsNotNone(WORKLOADS["certify-no-ce"].check(cases[i], answer))

    def test_solver_gap_is_a_failure(self):
        exists = WORKLOADS["exists-m5"]
        cases = exists.build(run.DEFAULT_SEED, 0.05)
        i, answer = _first_yes(exists, cases)
        self.assertIn("solver gap", WORKLOADS["solve-mix"].check(cases[i], answer))

    def test_raised_operation_is_a_failure(self):
        settle = run.settler(WORKLOADS["solve-mix"], [])
        self.assertEqual(len(run.problems_of([(0, settle(0, ValueError()), 1)], None)), 1)


class TracerTest(unittest.TestCase):
    def test_unbound_name_is_reported_missing(self):
        tracer = spans.Tracer()
        tracer.install([("cefai.pixep", "no_such_function", "pixep.resolve_epsilon", None)])
        tracer.uninstall()
        metrics = spans.layer_metrics(tracer, (0, 0), (0, 0), 0.0)
        self.assertIsNone(metrics["pixep.resolve_epsilon.self_s"])
        self.assertIsNone(metrics["self_share.pixep"])
        self.assertEqual(metrics["solver.solve.calls"], 0)

    def test_uninstall_restores_the_original(self):
        original = solver.execute_to_ce
        tracer = spans.Tracer()
        tracer.install()
        self.assertIsNot(solver.execute_to_ce, original)
        tracer.uninstall()
        self.assertIs(solver.execute_to_ce, original)

    def test_self_time_excludes_direct_children(self):
        spans_ = [
            ["a", -1, 0, 100, None],
            ["b", 0, 10, 40, None],
            ["c", 1, 15, 25, None],
            ["b", 0, 50, 60, None],
        ]
        table = spans.self_times(spans_)
        self.assertEqual(table["a"]["self_ns"], 60)
        self.assertEqual(table["b"]["self_ns"], 30)
        self.assertEqual(table["b"]["calls"], 2)


class SmokeTest(unittest.TestCase):
    def test_every_workload_runs_at_tiny_size(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        for name in WORKLOADS:
            for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
                with self.subTest(workload=name, trace=trace):
                    result, _ = run.run(name, run.DEFAULT_SEED + 1, 0.2, trace, scale=0.05)
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], run.MIN_OPS)
                    self.assertEqual(set(result["metrics"]), {m["name"] for m in spec[kind]})
                    self.assertNotIn(None, [m["value"] for m in result["metrics"].values()])


if __name__ == "__main__":
    unittest.main()
