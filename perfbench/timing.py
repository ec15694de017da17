"""Closed-loop timing with an interleaved reference workload.

Other tenants of a shared machine slow everything running on it, by up to
about 1.7x, in stretches from under a second to over half a minute, so
raw latencies of the same cases can differ by a fifth between runs.  The
loop therefore also times a fixed piece of exact rational arithmetic that
does not use cefai, after every ``REFERENCE_EVERY_NS`` of operation time.
An operation's cost in reference units -- its latency divided by the mean
of the reference timings just before and just after it -- is nearly free
of that slowdown: where raw latencies of one case list varied by 20%
between runs, these costs varied by 3%.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter_ns

REFERENCE_EVERY_NS = 50_000_000


def reference_work() -> Fraction:
    """About 2 ms of fixed work: Gauss-Jordan elimination of a 7x8 matrix
    of small fractions, the kind of arithmetic cefai spends its time on."""
    rng = random.Random(0)
    rows = [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(8)]
            for _ in range(7)]
    for col in range(7):
        pivot = next((r for r in range(col, 7) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(7):
            if r != col and rows[r][col]:
                f = rows[r][col] / rows[col][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return sum(row[-1] for row in rows)


def _time_reference() -> int:
    t0 = perf_counter_ns()
    reference_work()
    return perf_counter_ns() - t0


@dataclass
class Timing:
    # (case index, answer or what settle made of it, nanoseconds)
    records: list[tuple[int, object, int]]
    # (number of operations before it, nanoseconds) for each reference run
    references: list[tuple[int, int]]

    @property
    def op_seconds(self) -> float:
        return sum(ns for _, _, ns in self.records) / 1e9

    def reference_costs(self) -> list[float]:
        """Each operation's latency in units of the reference work, timed
        just before and just after it."""
        costs = []
        refs = self.references
        j = 0
        for k, (_, _, ns) in enumerate(self.records):
            while refs[j + 1][0] <= k:
                j += 1
            costs.append(2 * ns / (refs[j][1] + refs[j + 1][1]))
        return costs


def timed_loop(op, cases, order, seconds: float, min_ops: int, settle=None) -> Timing:
    """Run ``op`` on the cases in ``order``, cycling, for ``seconds`` and at
    least ``min_ops`` operations; the next operation starts only after the
    previous one returned.  The answer, or the exception raised, is passed
    to ``settle(case index, answer)`` outside the timed span, and what that
    returns is recorded in place of the answer."""
    records: list[tuple[int, object, int]] = []
    references = [(0, _time_reference())]
    since_reference = 0
    deadline = perf_counter_ns() + int(seconds * 1e9)
    end = 0
    while end < deadline or len(records) < min_ops:
        i = order[len(records) % len(order)]
        t0 = perf_counter_ns()
        try:
            answer = op(cases[i])
        except Exception as exc:
            answer = exc
        end = perf_counter_ns()
        records.append((i, settle(i, answer) if settle else answer, end - t0))
        since_reference += end - t0
        if since_reference >= REFERENCE_EVERY_NS:
            references.append((len(records), _time_reference()))
            since_reference = 0
    if references[-1][0] < len(records):
        references.append((len(records), _time_reference()))
    return Timing(records, references)
