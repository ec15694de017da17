"""Source hygiene that no installed linter checks: unused imports,
definitions that neither the package nor the benchmark uses, and
dataclass fields that nothing reads."""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# The package's __init__ imports names only to export them.
MODULES = sorted(
    p for p in (ROOT / "src" / "cefai").glob("*.py") if p.name != "__init__.py"
)
CHECKED = MODULES + sorted((ROOT / "tests").glob("*.py"))
# Where a use of a module's definitions may appear: a definition that only
# tests call is dead code that its tests keep alive.
USERS = sorted(p for d in ("src", "perfbench") for p in (ROOT / d).rglob("*.py"))
# Where a read of a dataclass field may appear.
READERS = USERS + sorted((ROOT / "tests").rglob("*.py"))


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


def _is_static(node: ast.FunctionDef) -> bool:
    return any(
        isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list
    )


def definitions(tree: ast.Module) -> list[tuple[str, bool, int, int]]:
    """Top-level functions and classes, and the public methods of the
    classes, as (name, is a method, first line, last line).  A static
    method is named ``Class.method``, the only way a use can reach it."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.append((node.name, False, node.lineno, node.end_lineno))
        if isinstance(node, ast.ClassDef):
            found.extend(
                (f"{node.name}.{item.name}" if _is_static(item) else item.name,
                 True, item.lineno, item.end_lineno)
                for item in node.body
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
            )
    return found


def uses(tree: ast.Module) -> list[tuple[str, bool, int]]:
    """Every name read or imported, every attribute taken (and, taken from
    a name, as ``name.attribute``), and every part of a string constant
    that spells a dotted name (``getattr`` targets, the benchmark's
    rebinding table), as (name, could name a method, line).  A bare name
    is a variable or a module-level definition, never a method.
    """
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.append((node.id, False, node.lineno))
        elif isinstance(node, ast.ImportFrom):
            found.extend((alias.name, False, node.lineno) for alias in node.names)
        elif isinstance(node, ast.Attribute):
            found.append((node.attr, True, node.end_lineno))
            if isinstance(node.value, ast.Name):
                found.append((f"{node.value.id}.{node.attr}", True, node.end_lineno))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = node.value.split(".")
            if all(part.isidentifier() for part in parts):
                found.extend((part, True, node.lineno) for part in parts)
    return found


def unused_definitions(module: str, sources: dict[str, str]) -> list[str]:
    """Definitions of ``sources[module]`` whose name no source uses outside
    the definition itself."""
    used: dict[str, list[tuple[str, bool, int]]] = {}
    for path, source in sources.items():
        for name, attribute, line in uses(ast.parse(source)):
            used.setdefault(name, []).append((path, attribute, line))
    return [
        f"{name} (line {first})"
        for name, method, first, last in definitions(ast.parse(sources[module]))
        if not any(
            (attribute or not method) and (path != module or not first <= line <= last)
            for path, attribute, line in used.get(name, ())
        )
    ]


def test_dead_code_scanner_flags_unused_and_accepts_used():
    module = (
        "class Box:\n"
        "    def used(self):\n"
        "        return 1\n"
        "    def unused_method(self):\n"
        "        return self.unused_method()\n"
        "    def _private(self):\n"
        "        pass\n"
        "def rebound():\n"
        "    pass\n"
        "def recursive(k):\n"
        "    return recursive(k - 1)\n"
        "unused_method = recursive = 1\n"
    )
    user = 'from m import Box\nBox().used()\nTABLE = ("m", "Box.rebound")\n'
    assert unused_definitions("m", {"m": module, "user": user}) == [
        "unused_method (line 4)", "recursive (line 10)"
    ]
    assert unused_definitions("m", {"m": module}) == [
        "Box (line 1)", "used (line 2)", "unused_method (line 4)",
        "rebound (line 8)", "recursive (line 10)",
    ]


def test_scanner_counts_static_methods_by_class():
    # a static method is used only as Class.method: a method of the same
    # name elsewhere, an instance call or a docstring does not count
    module = (
        "class Box:\n"
        "    @staticmethod\n"
        "    def of(x):\n"
        "        return Box.of(x)\n"
        "    @staticmethod\n"
        "    def used(x):\n"
        "        pass\n"
        "class Other:\n"
        "    @staticmethod\n"
        "    def of(x):\n"
        "        pass\n"
    )
    user = (
        '"""Box.of"""\n'
        "from m import Box, Other\n"
        "Other.of(1)\n"
        "Box.used(2)\n"
        "Box().of(3)\n"
    )
    assert unused_definitions("m", {"m": module, "user": user}) == ["Box.of (line 3)"]


def test_uses_in_tests_do_not_count():
    assert USERS and not any(p.is_relative_to(ROOT / "tests") for p in USERS)
    module = "def kept():\n    pass\ndef tested_only():\n    pass\n"
    package = "from m import kept\nkept()\n"
    test = "from m import kept, tested_only\nassert tested_only() is None\n"
    sources = {"m": module, "package": package}
    assert unused_definitions("m", sources) == ["tested_only (line 3)"]
    assert unused_definitions("m", {**sources, "test": test}) == []


@pytest.fixture(scope="module")
def user_sources():
    return {str(p): p.read_text() for p in USERS}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_definitions(path, user_sources):
    assert unused_definitions(str(path), user_sources) == []


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def dataclass_fields(tree: ast.Module) -> list[tuple[str, str, int]]:
    """The fields of every top-level dataclass, as (class, field, line)."""
    found = []
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and _is_dataclass(node):
            found.extend(
                (node.name, item.target.id, item.lineno)
                for item in node.body
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
            )
    return found


def attributes_read(sources: dict[str, str]) -> set[str]:
    return {
        node.attr
        for source in sources.values()
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def unread_fields(source: str, read: set[str]) -> list[str]:
    """Dataclass fields of a module's ``source`` whose name is not among the
    attributes ``read`` anywhere.  Passing a value to the constructor is not a read."""
    return [
        f"{cls}.{name} (line {line})"
        for cls, name, line in dataclass_fields(ast.parse(source))
        if name not in read
    ]


def test_field_scanner_flags_unread_and_accepts_read():
    module = (
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\n"
        "class Report:\n"
        "    read: int\n"
        "    written_only: int\n"
        "    def total(self):\n"
        "        return self.read\n"
        "@dataclass\n"
        "class Plain:\n"
        "    stored: int = 0\n"
        "class NotADataclass:\n"
        "    annotated: int\n"
    )
    user = "from m import Report, Plain\nReport(read=1, written_only=2)\nPlain(stored=3).stored\n"
    read = attributes_read({"m": module, "user": user})
    assert unread_fields(module, read) == ["Report.written_only (line 5)"]
    assert unread_fields(module, attributes_read({"m": module})) == [
        "Report.written_only (line 5)", "Plain.stored (line 10)"
    ]


@pytest.fixture(scope="module")
def read_attributes():
    return attributes_read({str(p): p.read_text() for p in READERS})


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unread_dataclass_fields(path, read_attributes):
    assert unread_fields(path.read_text(), read_attributes) == []


# How incomes become integers is decided in market alone: every other
# layer reads an IncomeVector's integer form.
SCALING = {"common_scale", "scaled_integers"}


def scaling_imports(source: str) -> list[str]:
    """The scaling helpers that ``source`` imports or takes as attributes."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            found.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute):
            found.append(node.attr)
    return sorted(name for name in found if name in SCALING)


def test_only_market_scales_incomes():
    assert scaling_imports(
        "from .market import IncomeVector, common_scale\nmarket.scaled_integers\n"
    ) == ["common_scale", "scaled_integers"]
    found = {
        p.name: scaling_imports(p.read_text()) for p in MODULES if p.name != "market.py"
    }
    assert {name: used for name, used in found.items() if used} == {}


# The benchmark times a layer by rebinding the functions its table names;
# a function nothing calls would time nothing and read 0.
SPANS = ROOT / "perfbench" / "spans.py"
CALLERS = [*(ROOT / "src" / "cefai").glob("*.py"), ROOT / "perfbench" / "workloads.py"]


def rebindings(source: str) -> list[tuple[str, str]]:
    """The (module, attribute path) pairs that the ``REBINDINGS`` table of
    ``source`` names."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "REBINDINGS"
            for target in node.targets
        ):
            return [(entry.elts[0].value, entry.elts[1].value) for entry in node.value.elts]
    raise LookupError("no REBINDINGS table")


def rebound_functions(source: str) -> list[str]:
    """The attribute paths that the ``REBINDINGS`` table of ``source`` names."""
    return [path for _, path in rebindings(source)]


def unresolved(pairs: list[tuple[str, str]]) -> list[tuple[str, str]]:
    """The (module, attribute path) pairs whose module does not import or
    has nothing at that path: the tracer would skip them and leave their
    metrics null."""
    missing = []
    for module_name, path in pairs:
        try:
            owner = importlib.import_module(module_name)
            for part in path.split("."):
                owner = getattr(owner, part)
        except (ImportError, AttributeError):
            missing.append((module_name, path))
    return missing


def uncalled(paths: list[str], sources: dict[str, str]) -> list[str]:
    """The attribute paths whose function no source calls, by name or as an
    attribute, outside a definition of a function of that name."""
    called = set()
    for source in sources.values():
        tree = ast.parse(source)
        own = [
            (node.name, node.lineno, node.end_lineno)
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef)
        ]
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            if not any(
                name == defined and first <= node.lineno <= last
                for defined, first, last in own
            ):
                called.add(name)
    return [path for path in paths if path.split(".")[-1] not in called]


def test_rebinding_scanner_flags_uncalled_and_accepts_called():
    table = (
        "REBINDINGS = (\n"
        '    ("m", "called", "m.called", None),\n'
        '    ("m", "Box.method", "m.Box.method", len),\n'
        '    ("m", "recursive", "m.recursive", None),\n'
        '    ("m", "listed", "m.listed", None),\n'
        ")\n"
    )
    paths = rebound_functions(table)
    assert paths == ["called", "Box.method", "recursive", "listed"]
    module = (
        "def called():\n"
        "    return recursive(1)\n"
        "def recursive(k):\n"
        "    return recursive(k - 1)\n"
        "class Box:\n"
        "    def method(self):\n"
        "        return listed\n"
    )
    user = "from m import Box, called\ncalled()\nBox().method()\n"
    assert uncalled(paths, {"m": module}) == ["called", "Box.method", "listed"]
    assert uncalled(paths, {"m": module, "user": user}) == ["listed"]
    assert uncalled(paths, {"m": module, "table": table}) == [
        "called", "Box.method", "listed"
    ]


def test_rebound_functions_are_called():
    sources = {str(p): p.read_text() for p in CALLERS}
    assert uncalled(rebound_functions(SPANS.read_text()), sources) == []


def test_resolver_flags_missing_modules_and_attributes():
    pairs = [
        ("cefai.pixep", "spe_outcomes"),
        ("cefai.pixep", "no_such_function"),
        ("cefai.market", "IncomeRegion.sample"),
        ("cefai.market", "IncomeRegion.no_such_method"),
        ("cefai.no_such_module", "solve"),
    ]
    assert unresolved(pairs) == [pairs[1], pairs[3], pairs[4]]


def test_rebound_functions_resolve():
    pairs = rebindings(SPANS.read_text())
    assert pairs and unresolved(pairs) == []


# IncomeVector.of checks that the incomes are positive and not empty; the
# bare constructor skips both, so only market, which defines .of, calls it.
def constructor_calls(source: str, name: str) -> list[int]:
    """The lines of ``source`` that call the class or function ``name``
    itself, bare or as a module attribute (a static method such as
    ``name.of`` is not a call of the class)."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    )


def test_constructor_scanner_flags_bare_calls_only():
    source = (
        "from .market import IncomeVector\n"
        "a = IncomeVector((1, 2))\n"
        "b = IncomeVector.of([1, 2])\n"
        "c = market.IncomeVector((3,))\n"
        "d = isinstance(a, IncomeVector)\n"
    )
    assert constructor_calls(source, "IncomeVector") == [2, 4]


def test_only_market_builds_raw_income_vectors():
    found = {
        p.name: constructor_calls(p.read_text(), "IncomeVector")
        for p in MODULES
        if p.name != "market.py"
    }
    assert {name: lines for name, lines in found.items() if lines} == {}


# PriceVector.scaled checks the prices and sets their integer form, which
# the bare constructor takes unchecked; only market calls that.
def test_price_vector_scanner_flags_bare_calls_only():
    source = (
        "from .market import PriceVector\n"
        "a = PriceVector((1, (1,)))\n"
        "b = PriceVector.of([1, 2])\n"
        "c = PriceVector.scaled([1, 2], 3)\n"
        "d = market.PriceVector(a.integers)\n"
    )
    assert constructor_calls(source, "PriceVector") == [2, 5]


def test_only_market_builds_raw_price_vectors():
    found = {
        p.name: constructor_calls(p.read_text(), "PriceVector")
        for p in MODULES
        if p.name != "market.py"
    }
    assert {name: lines for name, lines in found.items() if lines} == {}


# Two scales meet over their lcm in market alone (market.with_incomes):
# every other layer hands its integers and the incomes to market.
def test_lcm_scanner_flags_calls_only():
    source = (
        "from math import gcd, lcm\n"
        "import math\n"
        "a = lcm(2, 3)\n"
        "b = math.lcm(a, 4)\n"
        "c = gcd(a, b)\n"
        "d = [lcm]\n"
    )
    assert constructor_calls(source, "lcm") == [3, 4]


def test_only_market_calls_lcm():
    found = {
        p.name: constructor_calls(p.read_text(), "lcm") for p in MODULES if p.name != "market.py"
    }
    assert {name: lines for name, lines in found.items() if lines} == {}


def constructor_callers(source: str, name: str) -> list[str]:
    """The innermost function around each call of the class ``name`` that
    :func:`constructor_calls` finds, or ``<module>`` outside any."""
    functions = [
        node for node in ast.walk(ast.parse(source)) if isinstance(node, ast.FunctionDef)
    ]
    callers = []
    for line in constructor_calls(source, name):
        around = [f for f in functions if f.lineno <= line <= f.end_lineno]
        callers.append(max(around, key=lambda f: f.lineno).name if around else "<module>")
    return callers


def test_constructor_caller_scanner_names_the_innermost_function():
    source = (
        "a = Allocation(1, (1,))\n"
        "def outer():\n"
        "    def inner():\n"
        "        return Allocation(1, (1,))\n"
        "    return market.Allocation(1, (1,))\n"
        "class Box:\n"
        "    def build(self):\n"
        "        return isinstance(self, Allocation)\n"
    )
    assert constructor_callers(source, "Allocation") == ["<module>", "inner", "outer"]


# A play is held as bare masks; Allocation's partition check runs only for
# an allocation that becomes a candidate pair or is read from outside.
def test_allocations_built_only_for_candidate_pairs():
    found = {
        (p.stem, caller)
        for p in MODULES
        for caller in constructor_callers(p.read_text(), "Allocation")
    }
    allowed = {("pixep", "execute_to_ce"), ("oracle", "ce_exists"), ("cli", "load_candidate")}
    assert found <= allowed


# The exact simplex lives in lp alone: every other module solves its linear
# systems through it.  A fraction-free pivot step divides a difference of
# two products exactly, ``(e * x - f * z) // d``.
def pivot_steps(source: str) -> list[int]:
    """The lines of ``source`` with a floor division of a difference of two
    products."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.FloorDiv)
        and isinstance(node.left, ast.BinOp)
        and isinstance(node.left.op, ast.Sub)
        and all(
            isinstance(side, ast.BinOp) and isinstance(side.op, ast.Mult)
            for side in (node.left.left, node.left.right)
        )
    )


def test_pivot_step_scanner_flags_exact_eliminations_only():
    source = (
        "row = [(e * x - f * z) // d for x, z in zip(row, pivot)]\n"
        "half = (a - b) // 2\n"
        "scaled = e * x // d\n"
        "cut = (a * b - c) // d\n"
        "step = (e * x - f * z) / d\n"
    )
    assert pivot_steps(source) == [1]


def test_only_lp_pivots():
    found = {p.name: pivot_steps(p.read_text()) for p in MODULES if p.name != "lp.py"}
    assert {name: lines for name, lines in found.items() if lines} == {}
    assert pivot_steps((ROOT / "src" / "cefai" / "lp.py").read_text())


# perfbench repeats its cases, so a cache keyed on a profile or on incomes
# would answer a repeat from memory and flatter the benchmark.  The
# package's caches are keyed by sizes and item structure alone.
MARKET_TYPES = ("PreferenceOrder", "IncomeVector")
MARKET_NAMES = {"profile", "pref", "incomes"}


def cached_functions(source: str) -> dict[str, list[str]]:
    """Each function of ``source`` under ``cache`` or ``lru_cache`` (bare,
    called or as a ``functools`` attribute), with its parameters that are
    named like a profile or incomes or annotated with a preference order or
    an income vector."""
    found = {}
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
        if not any(
            getattr(d, "id", getattr(d, "attr", None)) in ("cache", "lru_cache")
            for d in decorators
        ):
            continue
        args = node.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs]
        params += [a for a in (args.vararg, args.kwarg) if a is not None]
        found[node.name] = [
            p.arg for p in params
            if p.arg in MARKET_NAMES
            or p.annotation is not None
            and any(kind in ast.unparse(p.annotation) for kind in MARKET_TYPES)
        ]
    return found


def test_cache_scanner_flags_market_parameters():
    source = (
        "import functools\n"
        "from functools import cache, lru_cache\n"
        "@cache\n"
        "def by_size(m: int): ...\n"
        "@functools.lru_cache(maxsize=8)\n"
        "def by_order(pref: 'PreferenceOrder', m): ...\n"
        "@lru_cache\n"
        "def by_profile(m, profile): ...\n"
        "@functools.cache\n"
        "def by_incomes(t: IncomeVector, *, scale=1): ...\n"
        "class Box:\n"
        "    @cache\n"
        "    def by_orders(self, *orders: Sequence[PreferenceOrder]): ...\n"
        "def uncached(profile: Sequence[PreferenceOrder]): ...\n"
        "@staticmethod\n"
        "def plain(incomes): ...\n"
    )
    assert cached_functions(source) == {
        "by_size": [],
        "by_order": ["pref"],
        "by_profile": ["profile"],
        "by_incomes": ["t"],
        "by_orders": ["orders"],
    }


def test_no_cache_keyed_on_a_market():
    found = {p.stem: cached_functions(p.read_text()) for p in MODULES}
    keyed = {
        (module, name): params
        for module, functions in found.items()
        for name, params in functions.items()
        if params
    }
    assert keyed == {}
    # the scanner sees the oracle's tables
    assert {"_subsets", "_row_vectors"} <= set(found["oracle"])
