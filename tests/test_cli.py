"""Command-line interface: parsing, documents, exit codes, determinism."""

import copy
import json
import os
from fractions import Fraction

import pytest

from cefai import cli
from cefai.cli import (
    EXIT_INVALID,
    EXIT_NOT_GENERIC,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_UNSUPPORTED,
    INSTANCE_SCHEMA,
    ParseError,
    instance_to_document,
    load_candidate,
    load_instance,
    main,
)
from cefai.instances import counterexample_4x4, counterexample_5x2
from cefai.market import IncomeVector


def aba_instance():
    return {
        "items": ["x", "y", "z"],
        "agents": [
            {
                "name": "Alice",
                "income": "10",
                "preference": {"partial": {"pairs": [["yz", "xz"]]}},
            },
            {
                "name": "Bob",
                "income": "6",
                "preference": {"partial": {"chain": ["x", "y", "z"]}},
            },
            {"name": "Carl", "income": "3", "preference": {"partial": {}}},
        ],
    }


# Agents whose preferences name no bundle, so that only the items matter.
_PLAIN_AGENTS = {
    "agents": [
        {"name": "Alice", "income": "2", "preference": {"partial": {}}},
        {"name": "Bob", "income": "1", "preference": {"partial": {}}},
    ]
}


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip().startswith("{") else out)


class TestSolveCommand:
    def test_worked_example(self, tmp_path, capsys):
        path = write(tmp_path, "aba.json", aba_instance())
        code, doc = run(capsys, "solve", path)
        assert code == EXIT_OK
        assert doc["allocation"] == {"Alice": "yz", "Bob": "x", "Carl": ""}
        assert doc["prices"] == {"x": "6", "y": "13/2", "z": "7/2"}
        assert doc["epsilon"] == "1/2"

    def test_picks_name_the_callers_agents(self, tmp_path, capsys):
        # the richest agent listed second still moves first
        doc = aba_instance()
        alice, bob, carl = doc["agents"]
        doc["agents"] = [bob, alice, carl]
        path = write(tmp_path, "bob-first.json", doc)
        code, out = run(capsys, "solve", path)
        assert code == EXIT_OK
        assert out["order"] == ["Alice", "Bob", "Carl"]
        assert out["allocation"] == {"Bob": "x", "Alice": "yz", "Carl": ""}
        assert all(pick["item"] in out["allocation"][pick["agent"]] for pick in out["picks"])

    def test_unsupported_case_mentions_nonexistence(self, tmp_path, capsys):
        doc = {
            "items": ["w", "x", "y", "z"],
            "agents": [
                {"name": f"a{i}", "income": str(9 - i), "preference": {"partial": {}}}
                for i in range(4)
            ],
        }
        path = write(tmp_path, "m4n4.json", doc)
        code, out = run(capsys, "solve", path)
        assert code == EXIT_UNSUPPORTED

    def test_no_equilibrium_play_runs_the_exhaustive_check(self, tmp_path, capsys):
        _, doc = run(capsys, "instance", "counterexample-4x3")
        path = write(tmp_path, "c43.json", doc)
        code, out = run(capsys, "solve", path)
        assert code == EXIT_INVALID == 2
        assert out["status"] == "no-equilibrium-play"
        assert out["exhaustive_check"] == "no equilibrium exists for this instance"

    def test_not_generic_names_hyperplane(self, tmp_path, capsys):
        doc = aba_instance()
        doc["agents"][0]["income"] = "5"
        doc["agents"][1]["income"] = "3"
        doc["agents"][2]["income"] = "2"
        path = write(tmp_path, "boundary.json", doc)
        code, out = run(capsys, "solve", path)
        assert code == EXIT_NOT_GENERIC
        assert out["hyperplane"] == "a = b + c"


class TestVerifyCommand:
    def test_round_trip(self, tmp_path, capsys):
        path = write(tmp_path, "aba.json", aba_instance())
        code, solved = run(capsys, "solve", path)
        candidate = write(tmp_path, "candidate.json", solved)
        code, doc = run(capsys, "verify", path, candidate)
        assert code == EXIT_OK
        assert doc["valid"] is True

    def test_round_trip_with_multi_character_item_names(self, tmp_path, capsys):
        # bundles of multi-character names are joined with '+'; a ranking
        # and the solver's output must both read back as written
        instance = {
            "items": ["x", "yz"],
            "agents": [
                {"name": "A", "income": "5",
                 "preference": {"ranking": ["", "x", "yz", "x+yz"]}},
                {"name": "B", "income": "3", "preference": {"additive": ["1", "3"]}},
            ],
        }
        path = write(tmp_path, "two.json", instance)
        code, solved = run(capsys, "solve", path)
        assert code == EXIT_OK
        assert sorted(solved["allocation"].values()) == ["x", "yz"]
        candidate = write(tmp_path, "candidate.json", solved)
        code, doc = run(capsys, "verify", path, candidate)
        assert code == EXIT_OK
        assert doc["valid"] is True
        assert load_instance(instance).profile[0].ranking() == [0, 0b01, 0b10, 0b11]

    def test_tampered_price_fails_exactly(self, tmp_path, capsys):
        path = write(tmp_path, "aba.json", aba_instance())
        _, solved = run(capsys, "solve", path)
        solved["prices"]["x"] = "6001/1000"
        candidate = write(tmp_path, "tampered.json", solved)
        code, doc = run(capsys, "verify", path, candidate)
        assert code == EXIT_INVALID
        assert any(v["kind"] == "budget-mismatch" for v in doc["violations"])

    def test_equal_income_single_item(self, tmp_path, capsys):
        instance = {
            "items": ["x"],
            "agents": [
                {"name": "Alice", "income": "1", "preference": {"partial": {}}},
                {"name": "Bob", "income": "1", "preference": {"partial": {}}},
            ],
        }
        path = write(tmp_path, "one.json", instance)
        candidate = write(
            tmp_path,
            "cand.json",
            {"prices": {"x": "1"}, "allocation": {"Alice": "x", "Bob": ""}},
        )
        code, doc = run(capsys, "verify", path, candidate)
        assert code == EXIT_INVALID
        assert doc["violations"][0]["agent"] == "Bob"
        assert doc["violations"][0]["kind"] == "affordable-better-bundle"


class TestExistsCommand:
    def test_witness(self, tmp_path, capsys):
        instance = {
            "items": ["x"],
            "agents": [
                {"name": "Alice", "income": "2", "preference": {"partial": {}}},
                {"name": "Bob", "income": "1", "preference": {"partial": {}}},
            ],
        }
        path = write(tmp_path, "one.json", instance)
        code, doc = run(capsys, "exists", path)
        assert code == EXIT_OK
        assert doc["exists"] and doc["witness"]["prices"] == {"x": "2"}
        assert doc["allocations_checked"] == 1

    def test_allocations_checked_stops_at_witness(self, tmp_path, capsys):
        # Bob (agent 1) must own x, the second allocation enumerated
        instance = {
            "items": ["x"],
            "agents": [
                {"name": "Alice", "income": "1", "preference": {"partial": {}}},
                {"name": "Bob", "income": "2", "preference": {"partial": {}}},
            ],
        }
        path = write(tmp_path, "one.json", instance)
        code, doc = run(capsys, "exists", path)
        assert code == EXIT_OK
        assert doc["witness"]["allocation"] == {"Alice": "", "Bob": "x"}
        assert doc["allocations_checked"] == 2

    def test_none(self, tmp_path, capsys):
        instance = {
            "items": ["x"],
            "agents": [
                {"name": "Alice", "income": "1", "preference": {"partial": {}}},
                {"name": "Bob", "income": "1", "preference": {"partial": {}}},
            ],
        }
        path = write(tmp_path, "one.json", instance)
        code, doc = run(capsys, "exists", path)
        assert code == EXIT_INVALID
        assert doc["exists"] is False
        assert doc["allocations_checked"] == 2


class TestSweepCommand:
    def test_deterministic_across_jobs(self, capsys):
        argv = ["sweep", "--items", "3", "--agents", "2", "--trials", "8", "--seed", "5"]
        code1, doc1 = run(capsys, *argv)
        code2, doc2 = run(capsys, *argv, "--jobs", "2")
        assert code1 == code2 == EXIT_OK
        assert doc1 == doc2

    def test_counterexample_profile_zero_rate(self, capsys):
        code, doc = run(
            capsys, "sweep", "--profile", "counterexample-5x2",
            "--trials", "5", "--seed", "1",
        )
        assert code == EXIT_OK
        assert doc["existence_count"] == 0
        assert len(doc["no_ce_points"]) == 5

    def test_sizes_that_agree_with_the_profile_accepted(self, capsys):
        code, doc = run(
            capsys, "sweep", "--profile", "counterexample-4x3", "--items", "4",
            "--agents", "3", "--trials", "2", "--seed", "1",
        )
        assert code == EXIT_OK
        assert (doc["items"], doc["agents"], doc["trials"]) == (4, 3, 2)

    @pytest.mark.parametrize(
        "argv",
        [
            ["--items", "0", "--agents", "2"],
            ["--items", "3", "--agents", "0"],
            ["--items", "3", "--agents", "2", "--trials", "0"],
            ["--profile", "counterexample-4x3", "--trials", "-1"],
            ["--profile", "counterexample-4x3", "--items", "9", "--agents", "7"],
        ],
    )
    def test_out_of_range_arguments_rejected(self, capsys, argv):
        code = main(["sweep", *argv])
        captured = capsys.readouterr()
        assert code == EXIT_PARSE
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    # Only values that start no worker: the check runs before the pool.
    @pytest.mark.parametrize("jobs", [0, (os.cpu_count() or 1) + 1])
    def test_jobs_out_of_range_rejected(self, capsys, jobs):
        code = main(
            ["sweep", "--items", "2", "--agents", "2", "--trials", "1", "--jobs", str(jobs)]
        )
        captured = capsys.readouterr()
        assert code == EXIT_PARSE
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    # Only values that start no work: the bound is checked before the
    # payloads are built.
    def test_trials_above_the_bound_rejected(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_sweep_trial", None)
        code = main(["sweep", "--items", "2", "--agents", "2",
                     "--trials", str(cli.MAX_TRIALS + 1)])
        captured = capsys.readouterr()
        assert code == EXIT_PARSE and captured.out == ""
        assert captured.err == f"error: --trials must be between 1 and {cli.MAX_TRIALS}\n"


class TestReproCommand:
    @pytest.mark.parametrize(
        "argv",
        [
            ["--dmax", "0"],
            ["--dmax", "7"],
            ["--scale", "nan"],
            ["--scale", "inf"],
            ["--scale", "0"],
            ["--scale", "-1"],
        ],
    )
    def test_out_of_range_arguments_rejected(self, capsys, argv):
        code = main(["repro", *argv])
        captured = capsys.readouterr()
        assert code == EXIT_PARSE
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    def test_scale_bound(self, capsys, monkeypatch):
        # the bound itself passes the check; above it nothing is sampled
        reached = []

        class Reached(Exception):
            pass

        def stop(**kwargs):
            reached.append(kwargs)
            raise Reached

        monkeypatch.setattr(cli, "existence_table", stop)
        with pytest.raises(Reached):
            main(["repro", "--scale", str(cli.MAX_SCALE)])
        assert reached == [{"scale": cli.MAX_SCALE, "seed": 20, "d_max": 4}]
        code = main(["repro", "--scale", str(cli.MAX_SCALE + 0.5)])
        captured = capsys.readouterr()
        assert code == EXIT_PARSE and captured.out == "" and len(reached) == 1
        assert f"--scale must be above 0 and at most {cli.MAX_SCALE}" in captured.err

    def test_bounds_in_help(self, capsys):
        for command, bound in (("sweep", "1 to 1000000"), ("repro", "at most 100")):
            with pytest.raises(SystemExit):
                main([command, "--help"])
            assert bound in " ".join(capsys.readouterr().out.split())


class TestInstanceFiles:
    def test_named_instance_export_parses_back(self, capsys):
        for make in (counterexample_4x4, counterexample_5x2):
            inst = make()
            parsed = load_instance(instance_to_document(inst))
            assert parsed.item_names == inst.item_names
            assert parsed.incomes == inst.reference
            assert parsed.profile == inst.completed_profile()
            assert parsed.region is not None
            assert parsed.region.contains(inst.reference)

    def test_candidate_round_trip(self, tmp_path, capsys):
        path = write(tmp_path, "aba.json", aba_instance())
        _, solved = run(capsys, "solve", path)
        parsed = load_instance(aba_instance())
        pair = load_candidate(solved, parsed)
        assert {
            name: str(pair.prices[j])
            for j, name in enumerate(parsed.item_names)
        } == solved["prices"]

    def test_floats_rejected(self):
        doc = aba_instance()
        doc["agents"][0]["income"] = 10.5
        with pytest.raises(ParseError):
            load_instance(doc)

    def test_ranking_and_additive_preferences(self):
        doc = {
            "items": ["x", "y"],
            "agents": [
                {
                    "name": "r",
                    "income": "3",
                    "preference": {"ranking": ["", "x", "y", "xy"]},
                },
                {"name": "v", "income": "2", "preference": {"additive": ["2", "1"]}},
            ],
        }
        parsed = load_instance(doc)
        assert parsed.profile[0].prefers(0b10, 0b01)
        assert parsed.profile[1].prefers(0b01, 0b10)

    def test_size_groups_in_chain(self):
        doc = {
            "items": ["v", "w", "x", "y", "z"],
            "agents": [
                {
                    "name": "a",
                    "income": "1",
                    "preference": {
                        "partial": {"chain": [{"size": 2, "except": ["vw"]}, "vw"]}
                    },
                },
                {"name": "b", "income": "4/5", "preference": {"partial": {}}},
            ],
        }
        parsed = load_instance(doc)
        pref = parsed.profile[0]
        vw = 0b00011
        for pair_text in ("vx", "xy", "yz"):
            from cefai.core import parse_bundle

            assert pref.prefers(parse_bundle(pair_text, parsed.item_names), vw)

    def test_parse_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code = main(["solve", str(path)])
        assert code == EXIT_PARSE

    @pytest.mark.parametrize(
        "content",
        [
            pytest.param(b'{"items": ' + b"1" * 5000 + b"}", id="integer-too-long"),
            pytest.param(b'{"items": ' + b"[" * 100_000 + b"]" * 100_000 + b"}",
                         id="nesting-too-deep"),
            pytest.param(b'{"items": ["\xff"]}', id="not-utf8"),
        ],
    )
    def test_unreadable_file_exit_code(self, tmp_path, capsys, content):
        path = tmp_path / "broken.json"
        path.write_bytes(content)
        code = main(["solve", str(path)])
        captured = capsys.readouterr()
        assert code == EXIT_PARSE
        assert captured.err.startswith("error: ")

    @pytest.mark.parametrize(
        "instance_patch, candidate",
        [
            pytest.param({"agents": ["Alice", "Bob", "Carl"]}, None,
                         id="agents-not-objects"),
            pytest.param({"region": [["1", "-1"]]}, None, id="region-row-width"),
            pytest.param(
                {"agents": [{"name": "A", "income": "2", "preference": {"partial": "x"}}]},
                None,
                id="partial-not-object",
            ),
            pytest.param(
                {"agents": [{"name": "A", "income": "2",
                             "preference": {"partial": {"pairs": [5]}}}]},
                None,
                id="pair-not-list",
            ),
            pytest.param(
                {"agents": [{"name": "A", "income": "2",
                             "preference": {"partial": {"pairs": [[None, "xz"]]}}}]},
                None,
                id="bundle-not-string",
            ),
            pytest.param(
                {"agents": [{"name": "A", "income": "1e5000",
                             "preference": {"partial": {}}}]},
                None,
                id="income-too-long",
            ),
            pytest.param(
                {},
                {"prices": {"x": "1e5000", "y": "13/2", "z": "7/2"},
                 "allocation": {"Alice": "yz", "Bob": "x", "Carl": ""}},
                id="price-too-long",
            ),
            pytest.param(
                {},
                {"prices": {"x": "6", "y": "13/2", "z": "7/2"},
                 "allocation": {"Alice": "yy", "Bob": "x", "Carl": ""}},
                id="bundle-repeats-item",
            ),
            pytest.param(
                {},
                {"prices": {"x": "6", "y": "13/2", "z": "7/2", "q": "5"},
                 "allocation": {"Alice": "yz", "Bob": "x", "Carl": ""}},
                id="price-unknown-item",
            ),
            pytest.param(
                {},
                {"prices": {"x": "6", "y": "13/2", "z": "7/2"},
                 "allocation": {"Alice": "yz", "Bob": "x", "Carl": "", "Zed": ""}},
                id="allocation-unknown-agent",
            ),
            pytest.param(
                {},
                {"prices": {"x": "6", "y": "13/2", "z": "7/2"},
                 "allocation": ["yz", "x", ""]},
                id="allocation-not-object",
            ),
            pytest.param(
                {"agents": [{"name": "A", "income": "2", "preference": {"partial": {}}},
                            {"name": "A", "income": "1", "preference": {"partial": {}}}]},
                None,
                id="duplicate-agent-names",
            ),
            pytest.param({"items": ["x", ""], **_PLAIN_AGENTS}, None, id="item-name-empty"),
            pytest.param({"items": ["x", "y+z"], **_PLAIN_AGENTS}, None, id="item-name-plus"),
            pytest.param({"items": ["x", "∅"], **_PLAIN_AGENTS}, None,
                         id="item-name-empty-set"),
            pytest.param({"items": ["x", " y"], **_PLAIN_AGENTS}, None,
                         id="item-name-whitespace"),
            pytest.param({"items": [], **_PLAIN_AGENTS}, None, id="items-empty"),
            pytest.param({"items": ["x", None], **_PLAIN_AGENTS}, None,
                         id="item-name-null"),
            pytest.param({"items": [1, "y"], **_PLAIN_AGENTS}, None,
                         id="item-name-number"),
            pytest.param(
                {"agents": [{"name": None, "income": "2", "preference": {"partial": {}}}]},
                None,
                id="agent-name-null",
            ),
            pytest.param(
                {"agents": [{"name": ["A"], "income": "2", "preference": {"partial": {}}}]},
                None,
                id="agent-name-array",
            ),
            pytest.param(
                {"agents": [{"name": "A", "income": "2", "preference": {"partial": {
                    "chain": ["xyz", {"size": 2.7}]}}}]},
                None,
                id="chain-size-float",
            ),
            pytest.param(
                {"agents": [{"name": "A", "income": "2", "preference": {"partial": {
                    "chain": ["xyz", {"size": True}]}}}]},
                None,
                id="chain-size-boolean",
            ),
            pytest.param(
                {"agents": [{"name": "A", "income": "2", "preference": {"partial": {
                    "chain": ["xyz", {"size": "2"}]}}}]},
                None,
                id="chain-size-string",
            ),
            pytest.param(
                {"agents": [{"name": "A", "income": "2",
                             "preference": {"partial": {"pairs": [{"x": 1, "y": 2}]}}}]},
                None,
                id="pair-object",
            ),
            pytest.param(
                {"agents": [{"name": "A", "income": "2",
                             "preference": {"partial": {"pairs": ["yz"]}}}]},
                None,
                id="pair-string",
            ),
            pytest.param(
                {"agents": [{"name": "A", "income": "2",
                             "preference": {"partial": {"pairs": [["yz", "x", "y"]]}}}]},
                None,
                id="pair-three-bundles",
            ),
            pytest.param(
                {"agents": [{"name": "A", "income": "2",
                             "preference": {"partial": {"chain": "zyx"}}}]},
                None,
                id="chain-string",
            ),
            pytest.param(
                {"agents": [{"name": "A", "income": "2", "preference": {"partial": {
                    "chain": ["xyz", {"size": 2, "except": "xy"}]}}}]},
                None,
                id="chain-except-string",
            ),
            pytest.param(
                {"items": ["x", "y"], "agents": [
                    {"name": "A", "income": "2", "preference": {"additive": "12"}}]},
                None,
                id="additive-string",
            ),
            # items named so that the bundle's text form would parse
            pytest.param(
                {"items": ["None", "y"], **_PLAIN_AGENTS},
                {"prices": {"None": "1", "y": "1"}, "allocation": {"Alice": None, "Bob": "y"}},
                id="bundle-null",
            ),
            pytest.param(
                {"items": ["1", "y"], **_PLAIN_AGENTS},
                {"prices": {"1": "1", "y": "1"}, "allocation": {"Alice": 1, "Bob": "y"}},
                id="bundle-number",
            ),
        ],
    )
    def test_malformed_input_exit_code(self, tmp_path, capsys, instance_patch, candidate):
        path = write(tmp_path, "instance.json", {**aba_instance(), **instance_patch})
        if candidate is None:
            argv = ["solve", path]
        else:
            argv = ["verify", path, write(tmp_path, "candidate.json", candidate)]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == EXIT_PARSE
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    def test_unknown_candidate_names_are_named(self):
        inst = load_instance(aba_instance())
        candidate = {"prices": {"x": "6", "y": "13/2", "z": "7/2", "q": "5"},
                     "allocation": {"Alice": "yz", "Bob": "x"}}
        with pytest.raises(ParseError, match="'q'"):
            load_candidate(candidate, inst)
        candidate["prices"].pop("q")
        candidate["allocation"]["Zed"] = ""
        with pytest.raises(ParseError, match="'Zed'"):
            load_candidate(candidate, inst)

    def test_exponent_refused_before_the_value_is_built(self, monkeypatch):
        # Fraction("1e3000000") builds a three-million-digit integer; the
        # exponent alone must refuse it, with no Fraction of it ever made
        def refuse(text):
            raise AssertionError(f"Fraction({text!r}) was built")

        monkeypatch.setattr(cli, "Fraction", refuse)
        for text in ("1e401", "1e3000000", "2.5E-999", "1e+0_500", "-3e" + "9" * 50):
            doc = aba_instance()
            doc["agents"][0]["income"] = text
            with pytest.raises(ParseError, match="exponent"):
                load_instance(doc)
        monkeypatch.undo()
        doc = aba_instance()
        doc["agents"][0]["income"] = "1e3"
        doc["agents"][1]["income"] = "1.5e-3"
        doc["agents"][2]["income"] = "7e-0_039"
        assert load_instance(doc).incomes == IncomeVector.of(
            [1000, Fraction(3, 2000), Fraction(7, 10**39)]
        )

    def test_region_row_without_positive_coefficient(self, tmp_path, capsys):
        # no positive income satisfies -b > 0: rejected before any sampling
        path = write(tmp_path, "instance.json", {**aba_instance(), "region": [["0", "-1", "0"]]})
        code = main(["solve", path])
        captured = capsys.readouterr()
        assert code == EXIT_PARSE
        assert captured.out == ""
        assert captured.err.startswith("error: region: constraint row 0 (0, -1, 0)")
        assert "no positive coefficient" in captured.err

    def test_schema_is_a_json_object(self):
        assert INSTANCE_SCHEMA["type"] == "object"
        assert set(INSTANCE_SCHEMA["required"]) == {"items", "agents"}
        json.dumps(INSTANCE_SCHEMA)  # serializable

    def test_schema_states_the_required_keys(self):
        # every key the documents below hold and the schema describes:
        # dropping it fails to parse exactly when the schema requires it
        # (or its object then holds fewer keys than the schema allows)
        docs = [aba_instance(), instance_to_document(counterexample_4x4())]
        for preference in ({"ranking": ["", "x", "y", "xy"]}, {"additive": ["2", 1]}):
            docs.append({"items": ["x", "y"], "agents": [
                {"name": "A", "income": 3, "preference": preference}]})
        seen = set()
        for doc in docs:
            for path, fails in _schema_keys(INSTANCE_SCHEMA, doc):
                seen.add((path[-1], fails))
                dropped = copy.deepcopy(doc)
                parent = dropped
                for key in path[:-1]:
                    parent = parent[key]
                del parent[path[-1]]
                if fails:
                    with pytest.raises(ParseError):
                        load_instance(dropped)
                else:
                    load_instance(dropped)
        assert {key for key, fails in seen if not fails} == {
            "name", "region", "pairs", "chain"
        }
        assert {key for key, fails in seen if fails} >= {
            "items", "agents", "income", "preference", "ranking", "additive", "partial"
        }

    def test_schema_admits_integer_numbers(self):
        doc = {**aba_instance(), "region": [[1, "-1", 0]]}
        doc["agents"][0]["income"] = 10
        doc["agents"][2]["preference"] = {"additive": [4, "2", 1]}
        parsed = load_instance(doc)
        assert parsed.incomes == IncomeVector.of([10, 6, 3])
        agent = INSTANCE_SCHEMA["properties"]["agents"]["items"]["properties"]
        kinds = agent["preference"]["properties"]
        region = INSTANCE_SCHEMA["properties"]["region"]["items"]
        for schema in (agent["income"], kinds["additive"]["items"], region["items"]):
            assert set(schema["type"]) == {"string", "integer"}


def _schema_keys(schema, doc, path=()):
    """``(path, fails)`` for each key of ``doc`` that ``schema`` describes,
    through objects and arrays: ``fails`` when dropping it breaks
    ``required`` or ``minProperties``."""
    if schema.get("type") == "object":
        for key, sub in schema.get("properties", {}).items():
            if key in doc:
                fails = key in schema.get("required", ()) or (
                    len(doc) - 1 < schema.get("minProperties", 0)
                )
                yield path + (key,), fails
                yield from _schema_keys(sub, doc[key], path + (key,))
    elif schema.get("type") == "array" and "items" in schema:
        for index, element in enumerate(doc):
            yield from _schema_keys(schema["items"], element, path + (index,))
