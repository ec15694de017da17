"""Spans around calls into cefai's layers, recorded from outside the package.

The layers import each other's names with ``from .x import y``, so a call
such as ``solve`` -> ``execute_to_ce`` goes through ``cefai.solver``'s own
binding of ``execute_to_ce``.  The tracer therefore rebinds the name in
the module whose code makes the call, and restores it afterwards.
"""

from __future__ import annotations

import gzip
import importlib
import json
import statistics
from time import perf_counter_ns


def _found(result) -> bool:
    return result is not None


def _valid(report) -> bool:
    return report.valid


# (module, attribute path, span name, summary of the result kept in the span)
REBINDINGS = (
    ("cefai.solver", "solve", "solver.solve", None),
    ("cefai.solver", "execute_to_ce", "pixep.execute_to_ce", None),
    ("cefai.pixep", "spe_outcomes", "pixep.spe_outcomes", len),
    ("cefai.pixep", "resolve_epsilon", "pixep.resolve_epsilon", None),
    ("cefai.pixep", "verify_ce", "market.verify_ce", _valid),
    ("cefai.oracle", "ce_exists", "oracle.ce_exists", _found),
    ("cefai.oracle", "feasible_ce_prices", "oracle.feasible_ce_prices", _found),
    ("cefai.oracle", "verify_ce", "market.verify_ce", _valid),
    ("cefai.fairness", "audit_ce_fairness", "fairness.audit_ce_fairness", None),
    ("cefai.fairness", "maximin", "fairness.maximin", None),
    ("cefai.core", "random_preference", "core.random_preference", None),
    ("cefai.instances", "random_completion", "core.random_completion", None),
    ("cefai.instances", "complete_partial", "core.complete_partial", None),
    ("cefai.instances", "stratified_incomes", "instances.stratified_incomes", None),
    ("cefai.market", "IncomeRegion.sample", "market.IncomeRegion.sample", None),
)

RAISED = "raised"


class Tracer:
    """Records one span per traced call: [name, parent index, start ns,
    end ns, result summary or RAISED].  Spans stay in memory until
    :meth:`write`."""

    def __init__(self):
        self.spans: list[list] = []
        self.missing: set[str] = set()
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, summary=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, perf_counter_ns(), 0, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[4] = RAISED
                raise
            finally:
                span[3] = perf_counter_ns()
                stack.pop()
            if summary is not None:
                span[4] = summary(result)
            return result

        return traced

    def install(self, rebindings=REBINDINGS) -> None:
        for module_name, path, name, summary in rebindings:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            try:
                for part in parents:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except AttributeError:
                self.missing.add(name)
                continue
            self._restore.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, summary))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        """One JSON list per line, gzip-compressed: index, parent index,
        name, start ns, end ns, result summary."""
        with gzip.open(path, "wt") as out:
            for index, (name, parent, start, end, summary) in enumerate(self.spans):
                out.write(json.dumps([index, parent, name, start, end, summary]) + "\n")


def self_times(spans: list[list], lo: int = 0, hi: int | None = None) -> dict:
    """Per span name over spans[lo:hi]: calls, total self ns (duration minus
    the time of direct child spans), durations and result summaries."""
    hi = len(spans) if hi is None else hi
    child_ns = [0] * (hi - lo)
    for name, parent, start, end, _ in spans[lo:hi]:
        if parent >= lo:
            child_ns[parent - lo] += end - start
    table: dict[str, dict] = {}
    for k, (name, parent, start, end, summary) in enumerate(spans[lo:hi]):
        row = table.setdefault(
            name, {"calls": 0, "self_ns": 0, "durations": [], "summaries": []}
        )
        row["calls"] += 1
        row["self_ns"] += end - start - child_ns[k]
        row["durations"].append(end - start)
        row["summaries"].append(summary)
    return table


def _children_per_parent(spans, lo, hi, parent_name, child_name) -> list[int]:
    counts = {k: 0 for k in range(lo, hi) if spans[k][0] == parent_name}
    for name, parent, *_ in spans[lo:hi]:
        if name == child_name and parent in counts:
            counts[parent] += 1
    return list(counts.values())


def _count(summaries) -> int:
    """Sum of result summaries (True counts 1), skipping calls that raised."""
    return sum(s for s in summaries if s is not None and s != RAISED)


LAYERS = ("solver", "pixep", "market", "oracle", "fairness")


def layer_metrics(
    tracer: Tracer,
    setup: tuple[int, int],
    window: tuple[int, int],
    overhead_share: float,
) -> dict[str, float | None]:
    """The per-layer table: setup layers from the spans of one set-up,
    operation layers from the spans of the timed window."""
    spans = tracer.spans
    ops = self_times(spans, *window)
    prep = self_times(spans, *setup)

    def row(name, table=ops):
        return table.get(name, {"calls": 0, "self_ns": 0, "durations": [], "summaries": []})

    def ratio(a, b):
        return a / b if b else 0.0

    feasible = row("oracle.feasible_ce_prices")
    f_ms = sorted(d / 1e6 for d in feasible["durations"])
    exists = row("oracle.ce_exists")
    spe = row("pixep.spe_outcomes")
    execute = row("pixep.execute_to_ce")
    solve = row("solver.solve")
    verify = row("market.verify_ce")
    games = _children_per_parent(spans, *window, "solver.solve", "pixep.execute_to_ce")
    op_ns = row("bench.op")["durations"]
    total_ns = sum(op_ns)

    metrics: dict[str, float | None] = {
        "oracle.feasible_ce_prices.calls": feasible["calls"],
        "oracle.feasible_ce_prices.self_s": feasible["self_ns"] / 1e9,
        "oracle.feasible_ce_prices.p90_ms": (
            statistics.quantiles(f_ms, n=10)[8] if len(f_ms) > 1 else sum(f_ms)
        ),
        "oracle.feasible_ce_prices.max_ms": max(f_ms, default=0.0),
        "oracle.feasible_ce_prices.hit_ratio": ratio(
            _count(feasible["summaries"]), feasible["calls"]
        ),
        "oracle.ce_exists.calls": exists["calls"],
        "oracle.ce_exists.self_s": exists["self_ns"] / 1e9,
        "oracle.feasible_per_exists": ratio(feasible["calls"], exists["calls"]),
        "pixep.spe_outcomes.self_s": spe["self_ns"] / 1e9,
        "pixep.spe_outcomes.plays": _count(spe["summaries"]),
        "pixep.resolve_epsilon.self_s": row("pixep.resolve_epsilon")["self_ns"] / 1e9,
        "pixep.execute_to_ce.calls": execute["calls"],
        "pixep.execute_to_ce.self_s": execute["self_ns"] / 1e9,
        "pixep.execute_to_ce.failed": execute["summaries"].count(RAISED),
        "solver.solve.calls": solve["calls"],
        "solver.solve.self_s": solve["self_ns"] / 1e9,
        "solver.games_per_solve": ratio(sum(games), len(games)),
        "solver.fallback_share": ratio(sum(1 for g in games if g > 1), len(games)),
        "market.verify_ce.calls": verify["calls"],
        "market.verify_ce.self_s": verify["self_ns"] / 1e9,
        "market.verify_ce.valid_ratio": ratio(_count(verify["summaries"]), verify["calls"]),
        "fairness.audit_ce_fairness.self_s": (
            row("fairness.audit_ce_fairness")["self_ns"] / 1e9
        ),
        "fairness.maximin.calls": row("fairness.maximin")["calls"],
        "fairness.maximin.self_s": row("fairness.maximin")["self_ns"] / 1e9,
        "core.random_preference.self_s": row("core.random_preference", prep)["self_ns"] / 1e9,
        "core.random_completion.self_s": row("core.random_completion", prep)["self_ns"] / 1e9,
        "core.complete_partial.self_s": row("core.complete_partial", prep)["self_ns"] / 1e9,
        "instances.stratified_incomes.self_s": (
            row("instances.stratified_incomes", prep)["self_ns"] / 1e9
        ),
        "market.IncomeRegion.sample.self_s": (
            row("market.IncomeRegion.sample", prep)["self_ns"] / 1e9
        ),
        "trace.overhead_share": overhead_share,
    }
    for layer in LAYERS:
        layer_ns = sum(r["self_ns"] for name, r in ops.items() if name.startswith(layer + "."))
        metrics[f"self_share.{layer}"] = ratio(layer_ns, total_ns)
    for metric in metrics:
        if _depends_on_missing(metric, tracer.missing):
            metrics[metric] = None
    return metrics


# Derived metrics and the spans they are computed from; any other metric
# is computed from the span its name starts with.
_DERIVED = {
    "oracle.feasible_per_exists": ("oracle.feasible_ce_prices", "oracle.ce_exists"),
    "solver.games_per_solve": ("solver.solve", "pixep.execute_to_ce"),
    "solver.fallback_share": ("solver.solve", "pixep.execute_to_ce"),
}


def _depends_on_missing(metric: str, missing: set[str]) -> bool:
    """A metric whose span name could not be rebound is missing, not zero."""
    if metric.startswith("self_share."):
        layer = metric.split(".", 1)[1]
        return any(name.startswith(layer + ".") for name in missing)
    deps = _DERIVED.get(metric, (metric.rsplit(".", 1)[0],))
    return any(name in missing for name in deps)
