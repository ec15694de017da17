"""Source hygiene that no installed linter checks: unused imports."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# The package's __init__ imports names only to export them.
CHECKED = sorted(
    p for p in (ROOT / "src" / "cefai").glob("*.py") if p.name != "__init__.py"
) + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never read as a name.

    ``import a.b`` binds ``a``; ``from __future__`` imports bind nothing.
    With postponed annotations the annotations are still parsed as
    expressions, so a name used only in an annotation counts as used.
    """
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_scanner_flags_unused_and_accepts_used():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json\n"
        "from math import lcm, gcd as g\n"
        "def f(x: json.JSONDecoder) -> int:\n"
        "    return lcm(x, 2)\n"
    )
    assert unused_imports(source) == ["os (line 2)", "g (line 4)"]


@pytest.mark.parametrize("path", CHECKED, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
