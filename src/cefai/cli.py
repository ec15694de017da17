"""Command-line front end.

Commands:

  solve     compute a verified equilibrium for an instance file
  verify    check a candidate (prices + allocation) against an instance
  exists    exhaustive existence check with witness
  sweep     sample (profile, income) pairs and measure existence rates
  instance  print a bundled named instance as an instance file
  repro     run the full reproduction suite and print the summary table

Instance files are JSON; all rationals are exact strings like "27/2"
or integers (never floats).  ``INSTANCE_SCHEMA`` below gives the
schema.  Exit codes: 0 success or valid, 1 reproduction mismatch, 2
invalid or nonexistent equilibrium, 3 non-generic incomes, 4
unsupported market size, 5 parse error.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Sequence

from .core import (
    EMPTY_BUNDLE_SYMBOL,
    Bundle,
    PartialRelations,
    PreferenceOrder,
    additive_preference,
    chain_pairs,
    complete_partial,
    format_bundle,
    make_preference,
    parse_bundle,
    random_preference,
    subsets_of_size,
)
from .fairness import MAX_MAXIMIN_PARTS
from .instances import NAMED_INSTANCES, NamedInstance, random_generic_incomes
from .market import (
    Allocation,
    CEPair,
    IncomeRegion,
    IncomeVector,
    PriceVector,
    verify_ce,
)
from .oracle import InstanceTooLargeError, ce_exists
from .pixep import NoValidSpeError
from .repro import existence_table, format_table
from .solver import NotGenericError, UnsupportedCaseError, solve

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INVALID = 2
EXIT_NOT_GENERIC = 3
EXIT_UNSUPPORTED = 4
EXIT_PARSE = 5

# Upper bounds on work a flag sets: ``sweep`` keeps a payload and a result
# per trial, and ``repro`` keeps ``round(50 * scale)`` sampled points per
# income range, all in memory, before anything is printed.
MAX_TRIALS = 1_000_000
MAX_SCALE = 100

#: JSON Schema (draft-07 style) of the instance file format.
INSTANCE_SCHEMA: dict = {
    "type": "object",
    "required": ["items", "agents"],
    "properties": {
        "items": {
            "type": "array",
            "items": {"type": "string"},
            "minItems": 1,
            "uniqueItems": True,
            "description": "distinct item names, each non-empty, not '∅', without "
            "'+' and without surrounding whitespace; bundles concatenate "
            "one-character names ('xy') and otherwise join names with '+' "
            "('x+yz')",
        },
        "agents": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["income", "preference"],
                "properties": {
                    "name": {
                        "type": "string",
                        "description": "distinct per agent; agent i defaults to 'agent<i>'",
                    },
                    "income": {
                        "type": ["string", "integer"],
                        "description": "exact rational, e.g. '27/2', or an integer",
                    },
                    "preference": {
                        "type": "object",
                        "description": "exactly one of the keys below",
                        "minProperties": 1,
                        "maxProperties": 1,
                        "additionalProperties": False,
                        "properties": {
                            "ranking": {
                                "type": "array",
                                "items": {"type": "string"},
                                "description": "all bundles, worst to best",
                            },
                            "additive": {
                                "type": "array",
                                "items": {"type": ["string", "integer"]},
                                "description": "one exact value per item",
                            },
                            "partial": {
                                "type": "object",
                                "properties": {
                                    "chain": {
                                        "type": "array",
                                        "description": "best-to-worst; entries are a bundle, "
                                        "a list of bundles, or {'size': k, 'except': [...]}",
                                    },
                                    "pairs": {
                                        "type": "array",
                                        "items": {
                                            "type": "array",
                                            "description": "[better, worse]",
                                        },
                                    },
                                },
                            },
                        },
                    },
                },
            },
        },
        "region": {
            "type": "array",
            "items": {"type": "array", "items": {"type": ["string", "integer"]}},
            "description": "optional strict constraints: each row c asserts sum(c_i * t_i) > 0",
        },
    },
}


#: Most decimal digits in the numerator or denominator of an input
#: rational.  Printed values are sums and quotients of a few inputs, so
#: this keeps them under Python's default limit of 4300 digits for
#: converting an integer to text.
MAX_DIGITS = 400
_DIGIT_BOUND = 10**MAX_DIGITS
# The exponent of a decimal such as "1.5e-3", with its leading zeros left
# out; ``Fraction`` would build 10 to its power before the digits could
# be counted.
_EXPONENT = re.compile(r"e[-+]?[0_]*([\d_]*)\s*\Z", re.IGNORECASE)


class ParseError(ValueError):
    pass


@dataclass(frozen=True)
class ParsedInstance:
    item_names: tuple[str, ...]
    agent_names: tuple[str, ...]
    profile: tuple[PreferenceOrder, ...]
    incomes: IncomeVector
    region: IncomeRegion | None

    @property
    def m(self) -> int:
        return len(self.item_names)

    @property
    def n(self) -> int:
        return len(self.agent_names)


# The JSON type of each value the json module reads, for messages that
# must not print the value itself (it may be nested too deep to print).
_JSON_TYPES = {
    type(None): "null", bool: "a boolean", int: "a number", float: "a number",
    str: "a string", list: "an array", dict: "an object",
}


def _json_type(value: Any) -> str:
    return _JSON_TYPES.get(type(value), type(value).__name__)


def _require_string(value: Any, context: str) -> str:
    if not isinstance(value, str):
        raise ParseError(f"{context} must be a string, not {_json_type(value)}")
    return value


def _require_list(value: Any, context: str) -> list:
    # a string would otherwise be read character by character
    if not isinstance(value, list):
        raise ParseError(f"{context} must be an array, not {_json_type(value)}")
    return value


def _fraction(value: Any, context: str) -> Fraction:
    if isinstance(value, float):
        raise ParseError(
            f"{context}: floats are not allowed, use exact strings like '27/2'"
        )
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        kind = _json_type(value)
        raise ParseError(f"{context} must be an integer or a string like '27/2', not {kind}")
    text = str(value)
    exponent = _EXPONENT.search(text)
    if exponent:
        digits = exponent[1].replace("_", "")
        if len(digits) > len(str(MAX_DIGITS)) or int(digits or 0) > MAX_DIGITS:
            raise ParseError(f"{context}: an exponent beyond ±{MAX_DIGITS}")
    try:
        result = Fraction(text)
    except ValueError as exc:
        raise ParseError(f"{context}: {exc}") from exc
    except ZeroDivisionError as exc:
        raise ParseError(f"{context}: the denominator is zero") from exc
    if abs(result.numerator) >= _DIGIT_BOUND or result.denominator >= _DIGIT_BOUND:
        raise ParseError(f"{context}: more than {MAX_DIGITS} digits")
    return result


def _chain_element(element: Any, m: int, names: Sequence[str], agent: str) -> list[Bundle]:
    if isinstance(element, str):
        return [parse_bundle(element, names)]
    if isinstance(element, list):
        return [parse_bundle(text, names) for text in element]
    if isinstance(element, dict) and "size" in element:
        size = element["size"]
        if type(size) is not int:  # not a bool or a float either
            kind = _json_type(size)
            raise ParseError(f"agent {agent}: a chain size must be an integer, not {kind}")
        excluded = {
            parse_bundle(text, names)
            for text in _require_list(element.get("except", []), f"agent {agent}: 'except'")
        }
        return [b for b in subsets_of_size(m, size) if b not in excluded]
    kind = "an object without 'size'" if isinstance(element, dict) else _json_type(element)
    raise ParseError(f"agent {agent}: a chain element must be a bundle or an array, not {kind}")


def _parse_preference(doc: Any, m: int, names: Sequence[str], agent: str) -> PreferenceOrder:
    if not isinstance(doc, dict) or len(doc) != 1:
        raise ParseError(
            f"agent {agent}: preference must be an object with exactly one of "
            "'ranking', 'additive', 'partial'"
        )
    try:
        if "ranking" in doc:
            texts = _require_list(doc["ranking"], f"agent {agent}: 'ranking'")
            return make_preference(m, [parse_bundle(text, names) for text in texts])
        if "additive" in doc:
            values = _require_list(doc["additive"], f"agent {agent}: 'additive'")
            exact = [_fraction(v, f"agent {agent} additive value") for v in values]
            return additive_preference(m, exact)
        if "partial" in doc:
            spec = doc["partial"]
            if not isinstance(spec, dict):
                raise ParseError(f"agent {agent}: 'partial' must be an object")
            chain = _require_list(spec.get("chain", []), f"agent {agent}: 'chain'")
            pairs = chain_pairs([_chain_element(e, m, names, agent) for e in chain])
            for pair in _require_list(spec.get("pairs", []), f"agent {agent}: 'pairs'"):
                if len(_require_list(pair, f"agent {agent}: a pair")) != 2:
                    raise ParseError(f"agent {agent}: a pair is [better, worse]")
                better, worse = pair
                pairs.append((parse_bundle(better, names), parse_bundle(worse, names)))
            return complete_partial(PartialRelations(m=m, pairs=tuple(pairs)))
    except ParseError:
        raise
    except (TypeError, ValueError) as exc:
        raise ParseError(f"agent {agent}: {exc}") from exc
    raise ParseError(f"agent {agent}: unknown preference kind {next(iter(doc))!r}")


def load_instance(doc: dict) -> ParsedInstance:
    if not isinstance(doc, dict):
        raise ParseError("instance file must contain a JSON object")
    for key in ("items", "agents"):
        if key not in doc:
            raise ParseError(f"instance file is missing {key!r}")
    if not isinstance(doc["items"], list):
        raise ParseError("'items' must be a list of names")
    if not isinstance(doc["agents"], list) or not all(
        isinstance(agent, dict) for agent in doc["agents"]
    ):
        raise ParseError("'agents' must be a list of objects")
    names = tuple(doc["items"])
    if not names:
        raise ParseError("'items' must name at least one item")
    for name in names:
        _require_string(name, "an item name")
        if not name or name != name.strip() or "+" in name or name == EMPTY_BUNDLE_SYMBOL:
            raise ParseError(
                f"item name {name!r} cannot be written in a bundle: a name is "
                f"non-empty, not {EMPTY_BUNDLE_SYMBOL!r}, and has no '+' and no "
                "surrounding whitespace"
            )
    if len(set(names)) != len(names):
        raise ParseError("item names must be distinct")
    m = len(names)
    agent_names = []
    incomes = []
    profile = []
    for i, agent in enumerate(doc["agents"]):
        name = _require_string(agent.get("name", f"agent{i}"), f"the name of agent {i}")
        agent_names.append(name)
        if "income" not in agent:
            raise ParseError(f"agent {name} is missing 'income'")
        incomes.append(_fraction(agent["income"], f"income of {name}"))
        profile.append(_parse_preference(agent.get("preference"), m, names, name))
    if len(set(agent_names)) != len(agent_names):
        raise ParseError("agent names must be distinct")
    try:
        income_vector = IncomeVector.of(incomes)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    region = None
    if "region" in doc:
        if not isinstance(doc["region"], list) or not all(
            isinstance(row, list) for row in doc["region"]
        ):
            raise ParseError("'region' must be a list of coefficient rows")
        rows = [
            [_fraction(v, "region coefficient") for v in row] for row in doc["region"]
        ]
        try:
            region = IncomeRegion.of(len(profile), rows)
        except ValueError as exc:
            raise ParseError(f"region: {exc}") from exc
    return ParsedInstance(
        item_names=names,
        agent_names=tuple(agent_names),
        profile=tuple(profile),
        incomes=income_vector,
        region=region,
    )


def _read_json(path: str) -> dict:
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path) as handle:
            return json.load(handle)
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError covers malformed JSON, bytes that are not UTF-8 and
        # integers too long to convert; RecursionError, nesting too deep.
        raise ParseError(f"{path}: {exc}") from exc


def instance_to_document(inst: NamedInstance) -> dict:
    """Serialize a bundled instance into the instance file format."""
    names = inst.item_names
    agents = []
    for agent_name, income, rel in zip(inst.agent_names, inst.reference, inst.relations):
        agents.append(
            {
                "name": agent_name,
                "income": str(income),
                "preference": {
                    "partial": {
                        "pairs": [
                            [format_bundle(b, names), format_bundle(w, names) if w else ""]
                            for b, w in rel.pairs
                        ]
                    }
                },
            }
        )
    return {
        "items": list(names),
        "agents": agents,
        "region": [[str(c) for c in row] for row in inst.region.constraints],
    }


def load_candidate(doc: dict, inst: ParsedInstance) -> CEPair:
    if not isinstance(doc, dict):
        raise ParseError("candidate file must contain a JSON object")
    for key in ("prices", "allocation"):
        if key not in doc:
            raise ParseError(f"candidate document is missing {key!r}")
        if not isinstance(doc[key], dict):
            raise ParseError(f"candidate {key!r} must be an object keyed by name")
    for kind, names in (("prices", inst.item_names), ("allocation", inst.agent_names)):
        unknown = next((key for key in doc[kind] if key not in names), None)
        if unknown is not None:
            raise ParseError(f"candidate {kind} name {unknown!r}, which the instance lacks")
    prices = []
    for name in inst.item_names:
        if name not in doc["prices"]:
            raise ParseError(f"candidate prices are missing item {name!r}")
        prices.append(_fraction(doc["prices"][name], f"price of {name}"))
    alloc = doc["allocation"]
    texts = [
        _require_string(alloc.get(name, ""), f"the bundle of {name}")
        for name in inst.agent_names
    ]
    try:
        bundles = [parse_bundle(text, inst.item_names) for text in texts]
        return CEPair(
            prices=PriceVector.of(prices),
            allocation=Allocation(m=inst.m, bundles=tuple(bundles)),
        )
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def _allocation_doc(pair: CEPair, inst: ParsedInstance) -> dict:
    return {
        name: format_bundle(pair.allocation[i], inst.item_names)
        if pair.allocation[i]
        else ""
        for i, name in enumerate(inst.agent_names)
    }


def _prices_doc(pair: CEPair, inst: ParsedInstance) -> dict:
    return {name: str(pair.prices[j]) for j, name in enumerate(inst.item_names)}


def _emit(doc: dict) -> None:
    json.dump(doc, sys.stdout, indent=2)
    sys.stdout.write("\n")


def cmd_solve(args) -> int:
    inst = load_instance(_read_json(args.instance))
    try:
        pair, transcript = solve(list(inst.profile), inst.incomes)
    except NotGenericError as exc:
        _emit({"status": "not-generic", "hyperplane": exc.hyperplane.label})
        return EXIT_NOT_GENERIC
    except UnsupportedCaseError as exc:
        _emit({"status": "unsupported-case", "error": str(exc)})
        return EXIT_UNSUPPORTED
    except NoValidSpeError as exc:
        witness = ce_exists(list(inst.profile), inst.incomes)
        _emit(
            {
                "status": "no-equilibrium-play",
                "error": str(exc),
                "exhaustive_check": "no equilibrium exists for this instance"
                if witness is None
                else "an equilibrium exists but no bundled game implements it",
            }
        )
        return EXIT_INVALID
    execution = transcript.execution
    doc = {
        "status": "ok",
        "range": transcript.range_label,
        "game": transcript.game_label,
        "order": [inst.agent_names[i] for i in transcript.order],
        "epsilon": str(transcript.epsilon),
        "path": list(execution.path),
        "picks": [
            {
                "position": pos,
                "agent": inst.agent_names[agent],
                "item": inst.item_names[item],
                "price": str(pair.prices[item]),
            }
            for pos, (agent, item) in enumerate(zip(execution.pixep.agents, execution.items), 1)
        ],
        "allocation": _allocation_doc(pair, inst),
        "prices": _prices_doc(pair, inst),
    }
    _emit(doc)
    return EXIT_OK


def cmd_verify(args) -> int:
    inst = load_instance(_read_json(args.instance))
    pair = load_candidate(_read_json(args.candidate), inst)
    report = verify_ce(
        list(inst.profile), inst.incomes, pair, strict_literal=args.strict_literal
    )
    _emit(
        {
            "valid": report.valid,
            "violations": [
                {
                    "agent": inst.agent_names[v.agent],
                    "kind": v.kind.value,
                    "bundle": format_bundle(v.bundle, inst.item_names),
                    "price": str(v.price),
                    "threshold": str(v.threshold),
                }
                for v in report.violations
            ],
        }
    )
    return EXIT_OK if report.valid else EXIT_INVALID


def _enumeration_index(allocation: Allocation, n: int) -> int:
    """Position of an allocation in ``ce_exists``'s enumeration order: the
    mixed-radix number of its owners, item 0 most significant."""
    index = 0
    for item in range(allocation.m):
        index = index * n + allocation.owner_of(item)
    return index


def cmd_exists(args) -> int:
    inst = load_instance(_read_json(args.instance))
    try:
        witness = ce_exists(list(inst.profile), inst.incomes)
    except InstanceTooLargeError as exc:
        _emit({"status": "instance-too-large", "error": str(exc)})
        return EXIT_UNSUPPORTED
    checked = (
        inst.n ** inst.m
        if witness is None
        else _enumeration_index(witness.allocation, inst.n) + 1
    )
    doc = {"allocations_checked": checked, "exists": witness is not None}
    if witness is not None:
        doc["witness"] = {
            "allocation": _allocation_doc(witness, inst),
            "prices": _prices_doc(witness, inst),
        }
    _emit(doc)
    return EXIT_OK if witness is not None else EXIT_INVALID


def _sweep_trial(payload) -> tuple[int, bool, list[str]]:
    (trial, m, n, seed, named_label) = payload
    rng = random.Random(f"sweep:{seed}:{trial}")
    if named_label is not None:
        inst = NAMED_INSTANCES[named_label]()
        profile = inst.completed_profile()
        incomes = inst.region.sample(rng.randrange(1 << 62), 1)[0]
    else:
        profile = tuple(
            random_preference(m, seed=rng.randrange(1 << 62)) for _ in range(n)
        )
        incomes = random_generic_incomes(m, n, seed=rng.randrange(1 << 62))[0]
    witness = ce_exists(list(profile), incomes)
    return (trial, witness is not None, [str(t) for t in incomes])


def cmd_sweep(args) -> int:
    if not 1 <= args.trials <= MAX_TRIALS:
        raise ParseError(f"--trials must be between 1 and {MAX_TRIALS}")
    cpus = os.cpu_count() or 1
    if not 1 <= args.jobs <= cpus:
        raise ParseError(f"--jobs must be between 1 and {cpus}, the number of CPUs")
    named = None
    if args.profile != "random":
        if args.profile not in NAMED_INSTANCES:
            raise ParseError(
                f"unknown profile {args.profile!r}; use 'random' or one of "
                f"{', '.join(sorted(NAMED_INSTANCES))}"
            )
        named = args.profile
        inst = NAMED_INSTANCES[named]()
        m, n = inst.m, inst.n
        for flag, given, size in (("--items", args.items, m), ("--agents", args.agents, n)):
            if given is not None and given != size:
                raise ParseError(f"{flag} {given} disagrees with {named!r}, which has {size}")
    else:
        if args.items is None or args.agents is None:
            raise ParseError("--items and --agents are required with --profile random")
        m, n = args.items, args.agents
        if m < 1 or n < 1:
            raise ParseError("--items and --agents must be at least 1")
        if m > 5 or n > 4:
            raise ParseError("sweep supports at most 5 items and 4 agents")
    payloads = [(t, m, n, args.seed, named) for t in range(args.trials)]
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(_sweep_trial, payloads, chunksize=8))
    else:
        results = [_sweep_trial(p) for p in payloads]
    results.sort(key=lambda r: r[0])
    hits = sum(1 for _, found, _ in results if found)
    doc = {
        "items": m,
        "agents": n,
        "profile": args.profile,
        "trials": args.trials,
        "seed": args.seed,
        "existence_count": hits,
        "existence_rate": f"{hits}/{args.trials}",
        "no_ce_points": [incomes for _, found, incomes in results if not found],
    }
    _emit(doc)
    return EXIT_OK


def cmd_instance(args) -> int:
    if args.name not in NAMED_INSTANCES:
        raise ParseError(
            f"unknown instance {args.name!r}; available: "
            f"{', '.join(sorted(NAMED_INSTANCES))}"
        )
    _emit(instance_to_document(NAMED_INSTANCES[args.name]()))
    return EXIT_OK


def cmd_repro(args) -> int:
    if not 0 < args.scale <= MAX_SCALE:  # false for nan too
        raise ParseError(f"--scale must be above 0 and at most {MAX_SCALE}, got {args.scale}")
    if not 1 <= args.dmax <= MAX_MAXIMIN_PARTS:
        raise ParseError(f"--dmax must be between 1 and {MAX_MAXIMIN_PARTS}")
    report = existence_table(scale=args.scale, seed=args.seed, d_max=args.dmax)
    for line in report.details:
        print(line)
    print()
    print(format_table(report))
    if report.all_match and report.audits_clean:
        print("\nall cells match the expected classification; audits clean")
        return EXIT_OK
    if not report.audits_clean:
        print("\nAUDIT FAILURE: a produced equilibrium violated a guarantee")
    if not report.all_match:
        print("\nMISMATCH: measured existence differs from the expected table")
    return EXIT_MISMATCH


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cefai",
        description="competitive equilibrium with indivisible items and unequal incomes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve an instance file")
    p_solve.add_argument("instance", help="path to instance JSON ('-' for stdin)")
    p_solve.set_defaults(func=cmd_solve)

    p_verify = sub.add_parser("verify", help="verify a candidate equilibrium")
    p_verify.add_argument("instance")
    p_verify.add_argument("candidate", help="JSON with 'prices' and 'allocation'")
    p_verify.add_argument(
        "--strict-literal",
        action="store_true",
        help="threshold affordability at the own-bundle price instead of the income",
    )
    p_verify.set_defaults(func=cmd_verify)

    p_exists = sub.add_parser("exists", help="exhaustive existence check")
    p_exists.add_argument("instance")
    p_exists.set_defaults(func=cmd_exists)

    p_sweep = sub.add_parser("sweep", help="existence rate over sampled instances")
    p_sweep.add_argument("--items", "-m", type=int)
    p_sweep.add_argument("--agents", "-n", type=int)
    p_sweep.add_argument(
        "--profile",
        default="random",
        help="'random' or a named instance (fixed profile, incomes from its region)",
    )
    p_sweep.add_argument(
        "--trials", type=int, default=100, help=f"sampled instances, 1 to {MAX_TRIALS}"
    )
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.add_argument("--jobs", type=int, default=1)
    p_sweep.set_defaults(func=cmd_sweep)

    p_instance = sub.add_parser("instance", help="print a bundled named instance")
    p_instance.add_argument("name")
    p_instance.set_defaults(func=cmd_instance)

    p_repro = sub.add_parser("repro", help="reproduce the existence summary table")
    p_repro.add_argument(
        "--scale", type=float, default=1.0,
        help=f"sample-count multiplier, above 0 and at most {MAX_SCALE}",
    )
    p_repro.add_argument("--seed", type=int, default=20)
    p_repro.add_argument(
        "--dmax", type=int, default=4, help="share-guarantee audit depth"
    )
    p_repro.set_defaults(func=cmd_repro)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except NotGenericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_GENERIC
    except UnsupportedCaseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED


if __name__ == "__main__":
    sys.exit(main())
