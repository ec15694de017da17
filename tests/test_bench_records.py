"""The checked-in ``BENCH_*.json`` records agree with their own runs and
with ``BENCHMARK.json``.

Each record compares a parent and a change over pairs of benchmark runs.
Every summary it states (the medians and quartiles of each side, the
pairs the change won and the ratio of the medians) is recomputed here
from the per-run values, and every metric's unit, direction and bound
must be the ones ``BENCHMARK.json`` declares.
"""

import json
import math
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
DECLARED = {
    metric["name"]: metric
    for metric in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
}


def entries(record: dict):
    """(where, metric name, entry) for every metric of every workload, the
    held-out seeds' workloads included."""
    sections = [("workloads", record["workloads"])]
    if "holdout" in record:
        sections.append(("holdout", record["holdout"]["workloads"]))
    for section, workloads in sections:
        for workload, body in workloads.items():
            for name, entry in body.items():
                if name in DECLARED:
                    yield f"{section}/{workload}/{name}", name, entry


def mismatches(name: str, entry: dict) -> list[str]:
    """Every stated figure of one metric entry that its runs or
    ``BENCHMARK.json`` contradict."""
    found = []
    declared = DECLARED[name]
    for key in ("unit", "better", "bound"):
        if entry[key] != declared[key]:
            found.append(f"{key} {entry[key]!r}, declared {declared[key]!r}")
    for side in ("parent", "change"):
        runs = entry[side]["runs"]
        q1, _, q3 = statistics.quantiles(runs, n=4)
        for key, value in (("median", statistics.median(runs)), ("q1", q1), ("q3", q3)):
            if not math.isclose(entry[side][key], value, rel_tol=1e-12):
                found.append(f"{side} {key} {entry[side][key]}, runs give {value}")
    parent, change = entry["parent"]["runs"], entry["change"]["runs"]
    if len(parent) != len(change):
        found.append(f"{len(parent)} parent runs against {len(change)} change runs")
    sign = 1 if entry["better"] == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    if entry["change_wins"] != wins:
        found.append(f"change_wins {entry['change_wins']}, runs give {wins}")
    ratio = statistics.median(change) / statistics.median(parent)
    if not math.isclose(entry["change_over_parent"], ratio, rel_tol=1e-12):
        found.append(f"change_over_parent {entry['change_over_parent']}, runs give {ratio}")
    return found


def test_checker_flags_a_wrong_summary():
    entry = {
        "unit": "1/ref", "better": "higher", "bound": 0.15,
        "parent": {"median": 2.5, "q1": 1.25, "q3": 3.75, "runs": [1.0, 2.0, 3.0, 4.0]},
        "change": {"median": 3.5, "q1": 2.25, "q3": 4.75, "runs": [2.0, 3.0, 4.0, 5.0]},
        "change_wins": 4, "change_over_parent": 1.4,
    }
    assert mismatches("throughput_per_ref", entry) == []
    # the same runs read as a lower-is-better metric: no pair is won
    assert mismatches("peak_rss_mib", {**entry, "unit": "MiB", "better": "lower"}) == [
        "change_wins 4, runs give 0"
    ]
    entry["bound"] = 0.25
    entry["change"]["runs"] = [2.0, 3.0, 4.0, 0.5]
    assert mismatches("throughput_per_ref", entry) == [
        "bound 0.25, declared 0.15",
        "change median 3.5, runs give 2.5",
        "change q1 2.25, runs give 0.875",
        "change q3 4.75, runs give 3.75",
        "change_wins 4, runs give 3",
        "change_over_parent 1.4, runs give 1.0",
    ]


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_agrees_with_its_runs(path):
    record = json.loads(path.read_text())
    found = [
        f"{where}: {problem}"
        for where, name, entry in entries(record)
        for problem in mismatches(name, entry)
    ]
    assert list(entries(record)), "no metric entries"
    assert found == []
