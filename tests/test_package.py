"""The package's top-level names are enough to solve, verify and audit,
and every docstring example runs as written."""

import doctest
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import cefai


def test_solve_verify_audit_through_top_level_names():
    # three items, two agents; the richer agent ranks y best
    profile = [
        cefai.make_preference(3, [0, 4, 1, 5, 2, 6, 3, 7]),
        cefai.make_preference(3, [0, 1, 2, 4, 3, 5, 6, 7]),
    ]
    incomes = cefai.IncomeVector.of([5, 3])
    pair, transcript = cefai.solve(profile, incomes)
    assert isinstance(pair, cefai.CEPair)
    assert isinstance(pair.prices, cefai.PriceVector)
    assert isinstance(pair.allocation, cefai.Allocation)
    assert all(isinstance(p, cefai.PreferenceOrder) for p in profile)
    assert cefai.verify_ce(profile, incomes, pair).valid
    assert not cefai.audit_ce_fairness(profile, incomes, pair).violations
    assert cefai.ce_exists(profile, incomes) is not None
    assert transcript.range_label == "m3:a>b+c"


def test_exports():
    exported = {name for name in vars(cefai) if not name.startswith("_")}
    submodules = {"cli", "core", "fairness", "instances", "lp", "market", "oracle",
                  "pixep", "repro", "solver"}
    assert exported - submodules == {
        "solve", "verify_ce", "ce_exists", "audit_ce_fairness", "NAMED_INSTANCES",
        "make_preference", "PreferenceOrder", "IncomeVector", "PriceVector",
        "Allocation", "CEPair", "NoValidSpeError", "NotGenericError",
        "UnsupportedCaseError",
    }
    assert cefai.__version__
    assert sorted(cefai.NAMED_INSTANCES) == [
        "counterexample-4x3", "counterexample-4x4", "counterexample-5x2"
    ]


@pytest.mark.parametrize(
    "name", ["cefai"] + [f"cefai.{m.name}" for m in pkgutil.iter_modules(cefai.__path__)]
)
def test_doctests(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0


def test_runs_as_a_module():
    # from a checkout, with only the sources on the path
    src = str(Path(cefai.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-m", "cefai", "--help"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: cefai ")
