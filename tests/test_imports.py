"""Source hygiene: every imported name in the library and the tests is used,
the library imports nothing but numpy and the standard library, every
name the package exports has a caller outside the tests, every private
function or method of the library has a caller in the library, and the
line plan's rules are read by the plan alone."""
import ast
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for p in (ROOT / "src" / "twistlab").glob("*.py")
                 if p.name != "__init__.py") + sorted((ROOT / "tests").glob("*.py"))

#: Imports kept on purpose, as (module, name).  The benchmark tracer wraps
#: these two where evaluate.py binds them; they go when the library owns
#: its tracing.
EXEMPT = {("evaluate.py", "log_gamma"), ("evaluate.py", "compensated_sum")}


def unused_imports(source: str):
    """(line, name) of each imported name that the module never references."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported.append((node.lineno, alias.asname
                                 or alias.name.split(".")[0]))
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported.append((node.lineno, alias.asname or alias.name))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in used]


def test_checker_finds_unused_names():
    source = ("from __future__ import annotations\nimport os\n"
              "import os.path as osp\nfrom math import pi, tau\nprint(tau)\n")
    assert unused_imports(source) == [(2, "os"), (3, "osp"), (4, "pi")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    found = [f"{path.name}:{line}: {name}"
             for line, name in unused_imports(path.read_text())
             if (path.name, name) not in EXEMPT]
    assert not found, "unused imports: " + ", ".join(found)


#: The library's only runtime dependency besides the standard library.
RUNTIME_DEPS = {"numpy"}


def foreign_imports(source: str):
    """(line, top-level module) of each absolute import outside numpy and the
    standard library; relative imports stay inside the package."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [(node.lineno, name.split(".")[0]) for name in names
                  if name.split(".")[0] not in RUNTIME_DEPS | sys.stdlib_module_names]
    return found


def test_checker_finds_foreign_imports():
    source = ("from __future__ import annotations\nimport numpy as np\n"
              "import scipy.special\nfrom mpmath import mp\nfrom . import errors\n"
              "from .model import X\nimport os.path\n")
    assert foreign_imports(source) == [(3, "scipy"), (4, "mpmath")]


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "twistlab").glob("*.py")),
                         ids=lambda p: p.name)
def test_library_imports_only_numpy_and_stdlib(path):
    found = [f"{path.name}:{line}: {name}"
             for line, name in foreign_imports(path.read_text())]
    assert not found, "undeclared dependencies: " + ", ".join(found)


def names_read(tree):
    """Every name read under `tree`, bare or as an attribute, with repeats."""
    return [node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))]


def referenced_names(source: str):
    """Every name the module reads, bare or as an attribute."""
    return set(names_read(ast.parse(source)))


def test_every_export_has_a_caller():
    package = ROOT / "src" / "twistlab"
    exported = {alias.asname or alias.name
                for node in ast.parse((package / "__init__.py").read_text()).body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    callers = sorted(p for p in package.glob("*.py") if p.name != "__init__.py")
    callers += sorted((ROOT / "perfbench").glob("*.py"))
    used = set().union(*(referenced_names(p.read_text()) for p in callers))
    orphans = sorted(exported - used)
    assert not orphans, "exports no module calls: " + ", ".join(orphans)


def unreferenced_private_defs(sources):
    """(module, line, name) of each private function or method (a leading
    underscore, not a dunder) that no code outside its own body references,
    bare or as an attribute, in any of `sources` (a module -> text map)."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    everywhere = Counter(name for tree in trees.values() for name in names_read(tree))
    found = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and node.name.startswith("_") and not node.name.endswith("__")
                    and everywhere[node.name] == names_read(node).count(node.name)):
                found.append((module, node.lineno, node.name))
    return found


def test_checker_finds_unreferenced_private_defs():
    sources = {
        "a.py": ("def _used():\n    return 1\n\n"
                 "def _only_itself(n):\n    return _only_itself(n - 1)\n\n"
                 "class C:\n    def __init__(self):\n        self._m()\n\n"
                 "    def _m(self):\n        pass\n\n"
                 "    def _dead(self):\n        pass\n"),
        "b.py": "from .a import _used\nprint(_used())\n",
    }
    assert unreferenced_private_defs(sources) == [
        ("a.py", 4, "_only_itself"), ("a.py", 14, "_dead")]


def test_every_private_def_is_referenced():
    package = ROOT / "src" / "twistlab"
    sources = {p.name: p.read_text() for p in sorted(package.glob("*.py"))}
    found = [f"{module}:{line}: {name}"
             for module, line, name in unreferenced_private_defs(sources)]
    assert not found, "private definitions nothing in src/ uses: " + ", ".join(found)


#: The rules of a smoothed line evaluation, which plan_line and LinePlan
#: alone read, and the names of the owners they replaced.
PLAN_RULES = {"_K_TERMS", "_MIN_T_FOR_FE_CORRECTION", "_FE_SAFE_RADIUS",
              "_truncation_count", "near_pole"}
PLAN_OWNERS = {"plan_line", "LinePlan"}
RETIRED = {"default_cutoff", "phase_estimate"}


def plan_rule_leaks(sources):
    """(module, line, name) of each read or import of a PLAN_RULES name
    outside the bodies of plan_line and LinePlan, and of each definition of
    a RETIRED name, in `sources` (a module -> text map)."""
    found = []
    for module, text in sources.items():
        tree = ast.parse(text)
        owned = {id(inner) for node in ast.walk(tree)
                 if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                 and node.name in PLAN_OWNERS for inner in ast.walk(node)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read = node.id
            elif isinstance(node, (ast.Attribute, ast.alias)):
                read = getattr(node, "attr", None) or node.name
            else:
                read = None
            if read in PLAN_RULES and id(node) not in owned:
                found.append((module, node.lineno, read))
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and node.name in RETIRED):
                found.append((module, node.lineno, node.name))
    return found


def test_checker_finds_plan_rule_leaks():
    sources = {
        "a.py": ("_K_TERMS = 2\n\n"
                 "def plan_line():\n    return _K_TERMS\n\n"
                 "class LinePlan:\n    def applied(self):\n"
                 "        return _FE_SAFE_RADIUS\n\n"
                 "def other():\n    return _K_TERMS\n\n"
                 "class E:\n    def phase_estimate(self):\n        pass\n"),
        "b.py": ("from .a import _truncation_count\nfrom . import a\n"
                 "print(a._MIN_T_FOR_FE_CORRECTION)\n"
                 "def H():\n    return a.near_pole(L, 0.5, 1.0, 2.0)\n"),
    }
    assert sorted(plan_rule_leaks(sources)) == [
        ("a.py", 11, "_K_TERMS"), ("a.py", 14, "phase_estimate"),
        ("b.py", 1, "_truncation_count"), ("b.py", 3, "_MIN_T_FOR_FE_CORRECTION"),
        ("b.py", 5, "near_pole")]


def test_plan_rules_have_one_owner():
    package = ROOT / "src" / "twistlab"
    sources = {p.name: p.read_text() for p in sorted(package.glob("*.py"))}
    found = [f"{module}:{line}: {name}"
             for module, line, name in plan_rule_leaks(sources)]
    assert not found, "line-plan rules read outside plan_line/LinePlan: " + ", ".join(found)
