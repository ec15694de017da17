"""The benchmark's three workloads: how each builds its cases from a seed,
what one operation is, and how an answer is checked.

Every call into cefai goes through a module attribute looked up at call
time (``solver.solve``, ``oracle.ce_exists``, ...), so the tracer in
``spans.py`` sees it once it has rebound that attribute.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from cefai import core, fairness, instances, market, oracle, solver
from cefai.pixep import NoValidSpeError

# Captured before any tracer rebinds names, so checks are never traced.
_verify_ce = market.verify_ce


@dataclass(frozen=True)
class Case:
    label: str
    profile: tuple
    incomes: market.IncomeVector


@dataclass(frozen=True)
class Answer:
    """What one operation returned: an equilibrium pair or None, and for
    solve-mix whether ``solve`` produced it and what the audit found."""

    pair: market.CEPair | None
    solved: bool = False
    fairness_violations: int = 0

    @property
    def yes(self) -> bool:
        return self.pair is not None


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int, float], list[Case]]
    op: Callable[[Case], Answer]
    check: Callable[[Case, Answer], str | None]


def _interleave(groups: list[list[Case]]) -> list[Case]:
    """Round-robin over groups, so that every prefix of the case list has
    about the full composition (a run may stop part-way through a pass)."""
    out = []
    for k in range(max(len(g) for g in groups)):
        out.extend(g[k] for g in groups if k < len(g))
    return out


# --- solve-mix ------------------------------------------------------------

SOLVE_CELLS = ((3, 2), (3, 3), (3, 4), (4, 2), (4, 3))
SOLVE_PER_RANGE = 60


def build_solve_mix(seed: int, scale: float = 1.0) -> list[Case]:
    """``SOLVE_PER_RANGE`` generic instances in every income range of every
    supported cell with three or four items, as repro's soundness sweep
    draws them."""
    rng = random.Random(f"perfbench:solve-mix:{seed}")
    per_range = max(1, round(SOLVE_PER_RANGE * scale))
    groups = []
    for m, n in SOLVE_CELLS:
        for label in solver.range_labels(m, n):
            points = instances.stratified_incomes(
                m, n, label, seed=rng.randrange(1 << 62), count=per_range
            )
            groups.append([
                Case(
                    label,
                    tuple(
                        core.random_preference(m, seed=rng.randrange(1 << 62))
                        for _ in range(n)
                    ),
                    incomes,
                )
                for incomes in points
            ])
    return _interleave(groups)


def solve_op(case: Case) -> Answer:
    """``solve`` plus the share audit; a profile the solver cannot handle is
    certified by the oracle, as ``repro`` and ``cefai solve`` do."""
    try:
        pair, _ = solver.solve(case.profile, case.incomes)
    except NoValidSpeError:
        return Answer(oracle.ce_exists(case.profile, case.incomes))
    report = fairness.audit_ce_fairness(case.profile, case.incomes, pair)
    return Answer(pair, solved=True, fairness_violations=len(report.violations))


def check_solve(case: Case, answer: Answer) -> str | None:
    if not answer.solved:
        if answer.pair is not None:
            return "solver gap: solve failed but the oracle found an equilibrium"
        return None
    problem = _check_pair(case, answer.pair)
    if problem is None and answer.fairness_violations:
        return f"{answer.fairness_violations} share-guarantee violations"
    return problem


# --- certify-no-ce --------------------------------------------------------

# Cases per named instance.  Case k of an instance is its reference point
# (k = 0) or a point sampled from its region, under the deterministic
# completion of its relations when k is a multiple of 8 and a random
# completion otherwise.  The 5x2 cases take about ten times as long as the
# 4-item ones; at a quarter of the cases they hold the 90th latency
# percentile well inside their own cluster and the median inside the fast
# one.
CERTIFY_CASES = (("counterexample-4x3", 64), ("counterexample-4x4", 64),
                 ("counterexample-5x2", 40))


def build_certify(seed: int, scale: float = 1.0) -> list[Case]:
    """The named no-equilibrium markets at their reference points and at
    points sampled from their regions, under many monotone completions."""
    rng = random.Random(f"perfbench:certify-no-ce:{seed}")
    groups = []
    for name, count in CERTIFY_CASES:
        inst = instances.NAMED_INSTANCES[name]()
        count = max(2, round(count * scale))
        points = [inst.reference] + inst.region.sample(rng.randrange(1 << 62), count - 1)
        groups.append([
            Case(
                name,
                inst.completed_profile() if k % 8 == 0
                else inst.random_profile(rng.randrange(1 << 62)),
                point,
            )
            for k, point in enumerate(points)
        ])
    return _interleave(groups)


def exists_op(case: Case) -> Answer:
    return Answer(oracle.ce_exists(case.profile, case.incomes))


def check_certify(case: Case, answer: Answer) -> str | None:
    if answer.pair is not None:
        return "equilibrium found in a certified no-equilibrium region"
    return None


# --- exists-m5 ------------------------------------------------------------

EXISTS_CASES = 1000


def build_exists_m5(seed: int, scale: float = 1.0) -> list[Case]:
    """Random five-item markets with two or three agents (alternating) and
    distinct near-equal incomes 1 + k/1000, 1 <= k <= 100."""
    rng = random.Random(f"perfbench:exists-m5:{seed}")
    cases = []
    for k in range(max(2, round(EXISTS_CASES * scale))):
        n = 2 + k % 2
        profile = tuple(
            core.random_preference(5, seed=rng.randrange(1 << 62)) for _ in range(n)
        )
        incomes = market.IncomeVector.of(
            sorted((1 + Fraction(x, 1000) for x in rng.sample(range(1, 101), n)),
                   reverse=True)
        )
        cases.append(Case(f"m5n{n}", profile, incomes))
    return cases


def check_exists(case: Case, answer: Answer) -> str | None:
    return None if answer.pair is None else _check_pair(case, answer.pair)


def _check_pair(case: Case, pair: market.CEPair) -> str | None:
    report = _verify_ce(case.profile, case.incomes, pair)
    if not report.valid:
        return "returned pair fails verify_ce: " + report.violations[0].describe()
    return None


WORKLOADS = {
    w.name: w
    for w in (
        Workload("solve-mix", build_solve_mix, solve_op, check_solve),
        Workload("certify-no-ce", build_certify, exists_op, check_certify),
        Workload("exists-m5", build_exists_m5, exists_op, check_exists),
    )
}
