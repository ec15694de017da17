"""Mutated instance and candidate files at the CLI boundary.

Every input, however malformed, must end in one of the documented exit
codes (0-5) with a message, never in a traceback.
"""

import copy
import io
import json
import traceback
from contextlib import redirect_stderr, redirect_stdout
from functools import reduce
from operator import getitem

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from cefai.cli import instance_to_document, main
from cefai.instances import counterexample_4x3

ABA = {
    "items": ["x", "y", "z"],
    "agents": [
        {"name": "Alice", "income": "10", "preference": {"partial": {"pairs": [["yz", "xz"]]}}},
        {"name": "Bob", "income": "6", "preference": {"partial": {"chain": ["x", "y", "z"]}}},
        {"name": "Carl", "income": "3", "preference": {"partial": {}}},
    ],
}
ABA_CE = {
    "prices": {"x": "6", "y": "13/2", "z": "7/2"},
    "allocation": {"Alice": "yz", "Bob": "x", "Carl": ""},
}
ADDITIVE = {
    "items": ["a", "b", "c", "d"],
    "agents": [
        {"name": "P", "income": "7/2", "preference": {"additive": ["1", "2", "4", "8"]}},
        {
            "name": "Q",
            "income": "2",
            "preference": {"partial": {"chain": ["d", {"size": 1, "except": ["d"]}]}},
        },
    ],
}
ADDITIVE_CANDIDATE = {
    "prices": {"a": "1", "b": "1/2", "c": "1", "d": "2"},
    "allocation": {"P": "abc", "Q": "d"},
}
COUNTEREXAMPLE = instance_to_document(counterexample_4x3())
COUNTEREXAMPLE_CANDIDATE = {
    "prices": {name: "1" for name in COUNTEREXAMPLE["items"]},
    "allocation": {COUNTEREXAMPLE["agents"][0]["name"]: "".join(COUNTEREXAMPLE["items"])},
}
BASES = [(ABA, ABA_CE), (ADDITIVE, ADDITIVE_CANDIDATE), (COUNTEREXAMPLE, COUNTEREXAMPLE_CANDIDATE)]

TRICKY_TEXT = st.sampled_from(
    ["", "0", "-1", "1/0", "0/0", "27/2", "1e400", "1e5000", "nan", "inf", " 2",
     "x", "xy", "xyz", "xx", "abcd", "d", "Alice", "ranking", "partial", "size"]
)
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 20),
    st.integers(),
    st.floats(allow_nan=True),
    TRICKY_TEXT,
    st.text(max_size=6),
)
# Containers hold at most four entries, so a mutated item list keeps m <= 4.
JUNK = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.one_of(TRICKY_TEXT, st.text(max_size=4)), inner, max_size=4),
    ),
    max_leaves=8,
)


def _paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from _paths(value, prefix + (index,))


@st.composite
def mutated(draw, doc):
    """``doc`` with one to three edits: a value replaced by junk, a key or
    list entry deleted, or a list entry duplicated."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        if not path:
            doc = draw(JUNK)
            continue
        parent = reduce(getitem, path[:-1], doc)
        key = path[-1]
        action = draw(st.sampled_from(("replace", "delete", "duplicate")))
        if action == "delete":
            del parent[key]
        elif action == "duplicate" and isinstance(parent, list):
            parent.insert(key, copy.deepcopy(parent[key]))
        else:
            parent[key] = draw(JUNK)
    return doc


@st.composite
def cli_inputs(draw):
    instance, candidate = draw(st.sampled_from(BASES))
    command = draw(st.sampled_from(("verify", "solve", "exists")))
    which = draw(st.sampled_from(("instance", "candidate", "both")))
    if which != "candidate" or command != "verify":
        instance = draw(mutated(instance))
    if command == "verify" and which != "instance":
        candidate = draw(mutated(candidate))
    return command, instance, candidate


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except Exception:
            traceback.print_exc()
            code = None
    return code, err.getvalue()


@given(case=cli_inputs())
@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
def test_mutated_files_exit_cleanly(tmp_path, case):
    command, instance, candidate = case
    instance_path = tmp_path / "instance.json"
    instance_path.write_text(json.dumps(instance))
    argv = [command, str(instance_path)]
    if command == "verify":
        candidate_path = tmp_path / "candidate.json"
        candidate_path.write_text(json.dumps(candidate))
        argv.append(str(candidate_path))
    code, err = run_cli(argv)
    assert "Traceback" not in err, err
    assert code in range(6)


@pytest.mark.parametrize("base", BASES, ids=["aba", "additive", "counterexample-4x3"])
def test_unmutated_bases_parse(tmp_path, base):
    instance, candidate = base
    (tmp_path / "i.json").write_text(json.dumps(instance))
    (tmp_path / "c.json").write_text(json.dumps(candidate))
    code, err = run_cli(["verify", str(tmp_path / "i.json"), str(tmp_path / "c.json")])
    assert err == ""
    assert code in (0, 2)
