"""Layered benchmark for cefai.

Run from the repository root:

    python3 perfbench/run.py --workload solve-mix --seed 1 --seconds 30 --trace 0

One caller drives a closed loop: the next operation starts only after the
previous one returns.  The cases are built from ``--seed`` before timing;
the loop then cycles over them for ``--seconds``.  Each answer is checked
right after it is timed, outside the timed span: returned pairs are
re-verified with ``verify_ce``, certified markets must have no
equilibrium, and a solver failure the oracle does not certify is a
failure.  After the loop, every case must have had the same yes/no answer
on every pass and, on the default seed, the answers ``expected.json``
stores.

Times are reported in units of a fixed reference workload timed
alongside the operations (see ``timing.py``), which keeps them steady on
a shared machine; the wall-clock figures are printed for reading too.

With ``--trace 0`` the end-to-end metrics are reported.  With ``--trace 1``
calls into each layer are timed from here (see ``spans.py``) for half of
the time, the same operations are then replayed untraced for the tracing
overhead, the spans are written to ``.perfbench_out/`` and the
per-layer metrics are reported.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.

``--write-digest`` runs every case of every workload once on the default
seed and stores the yes/no answers in ``expected.json``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected.json"
OUT_DIR = ROOT / ".perfbench_out"
DEFAULT_SEED = 1
SETUP_REPEATS = 3
WARMUP_OPS = 10
# At least ten latency samples must lie beyond the 90th percentile.
MIN_OPS = 100
# The reference workload's time on an idle core of the machine the
# baseline was recorded on; converts set-up cost in reference units to s.
REFERENCE_S = 1.4e-3


def _import_cefai() -> None:
    """Import cefai from this checkout's ``src``, and from nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import cefai
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import cefai from {src}: {exc}")
    if Path(cefai.__file__).resolve().parent != src / "cefai":
        raise SystemExit(f"perfbench: cefai was imported from {cefai.__file__}, not {src}")


def settler(workload, cases):
    """settle(case index, answer) -> (yes/no or None, problem or None)."""

    def settle(i, answer):
        if isinstance(answer, Exception):
            return None, "raised " + "".join(traceback.format_exception(answer))
        return answer.yes, workload.check(cases[i], answer)

    return settle


def problems_of(records, expected: str | None) -> list[tuple[int, str]]:
    """(case index, problem) for every settled record that is wrong: its
    own check failed, its yes/no answer differs from an earlier pass of
    the same case, or from ``expected``."""
    problems = []
    first: dict[int, bool] = {}
    for i, (yes, problem), _ in records:
        if problem is None and first.setdefault(i, yes) != yes:
            problem = "yes/no answer changed between passes"
        if problem is None and expected is not None and expected[i] != "01"[yes]:
            problem = "yes/no answer differs from expected.json"
        if problem is not None:
            problems.append((i, problem))
    return problems


def _expected_answers(workload: str) -> str:
    return json.loads(EXPECTED.read_text())["answers"][workload]


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        scale: float = 1.0) -> tuple[dict, dict]:
    """One benchmark run: the result object printed last, and wall-clock
    figures for reading.

    ``scale`` shrinks the case list for smoke runs; the stored yes/no
    answers are compared only on the default seed at full scale.
    """
    from spans import Tracer, layer_metrics
    from timing import timed_loop
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
    builds = timed_loop(lambda _: workload.build(seed, scale), [None], [0], 0,
                        1 if trace else SETUP_REPEATS)
    cases = builds.records[-1][1]
    if isinstance(cases, Exception):
        raise cases
    setup_spans = (0, len(tracer.spans)) if tracer else None

    order = list(range(len(cases)))
    for i in order[:WARMUP_OPS]:
        workload.op(cases[i])

    op = tracer.wrap("bench.op", workload.op) if tracer else workload.op
    first_span = len(tracer.spans) if tracer else 0
    timing = timed_loop(op, cases, order, seconds / 2 if trace else seconds, MIN_OPS,
                        settler(workload, cases))
    records = timing.records

    expected = None
    if seed == DEFAULT_SEED and scale == 1.0:
        expected = _expected_answers(workload_name)
    problems = problems_of(records, expected)
    for i, problem in problems[:10]:
        print(f"perfbench: {workload_name} case {i} ({cases[i].label}): {problem}",
              file=sys.stderr)

    costs = timing.reference_costs()
    latencies_ms = [ns / 1e6 for _, _, ns in records]
    wall = {
        "setup_s": statistics.median(ns for _, _, ns in builds.records) / 1e9,
        "throughput_per_s": len(records) / timing.op_seconds,
        "latency_p50_ms": statistics.median(latencies_ms),
        "latency_p90_ms": statistics.quantiles(latencies_ms, n=10)[8],
        "reference_ms": statistics.median(ns for _, ns in timing.references) / 1e6,
    }
    if tracer:
        window_spans = (first_span, len(tracer.spans))
        tracer.uninstall()
        replay = timed_loop(workload.op, cases, [i for i, _, _ in records], 0,
                            len(records), lambda i, answer: None)
        overhead = sum(costs) / sum(replay.reference_costs()) - 1
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"spans-{workload_name}.jsonl.gz")
        values = layer_metrics(tracer, setup_spans, window_spans, overhead)
    else:
        values = {
            "setup_s": statistics.median(builds.reference_costs()) * REFERENCE_S,
            "throughput_per_ref": len(costs) / sum(costs),
            "latency_p50_ref": statistics.median(costs),
            "latency_p90_ref": statistics.quantiles(costs, n=10)[8],
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    units = _units(trace)
    result = {
        "correct": not problems,
        "attempted": len(records),
        "failed": len(problems),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }
    return result, wall


def _units(trace: bool) -> dict[str, str]:
    """Units as BENCHMARK.json declares them, by metric name."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def write_digest() -> None:
    from timing import timed_loop
    from workloads import WORKLOADS

    answers = {}
    for name, workload in WORKLOADS.items():
        cases = workload.build(DEFAULT_SEED, 1.0)
        records = timed_loop(workload.op, cases, range(len(cases)), 0, len(cases),
                             settler(workload, cases)).records
        problems = problems_of(records, None)
        if problems:
            raise SystemExit(f"perfbench: {name}: {len(problems)} wrong answers, "
                             f"first: {problems[0]}")
        answers[name] = "".join("01"[yes] for _, (yes, _), _ in records)
    EXPECTED.write_text(json.dumps({"seed": DEFAULT_SEED, "answers": answers}, indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-digest", action="store_true")
    args = parser.parse_args(argv)
    _import_cefai()
    if args.write_digest:
        write_digest()
        return 0
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    result, wall = run(args.workload, args.seed, args.seconds, bool(args.trace))
    attempted, failed = result["attempted"], result["failed"]
    print(f"{args.workload} seed {args.seed}: {attempted} operations, "
          f"failed_share {failed / attempted:.4g} ({failed}/{attempted})")
    print("  wall clock: " + ", ".join(f"{k} {v:.6g}" for k, v in wall.items()))
    for name, metric in result["metrics"].items():
        print(f"  {name} {metric['value']} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
