import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "metriclab"


def declared_dependencies():
    with open(ROOT / "pyproject.toml", "rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    return {re.match(r"[A-Za-z0-9_.\-]+", d).group(0).lower().replace("-", "_")
            for d in deps}


def imported_top_level(path):
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_every_import_is_declared():
    allowed = set(sys.stdlib_module_names) | {"metriclab"} | declared_dependencies()
    undeclared = {
        f"{path.name}: {name}"
        for path in sorted(SRC.glob("*.py"))
        for name in imported_top_level(path)
        if name not in allowed
    }
    assert not undeclared, f"imports missing from pyproject.toml dependencies: {sorted(undeclared)}"


def test_runtime_dependencies_are_exactly_the_imports():
    # a declared dependency that src never imports is one more install for
    # nothing; scipy, the search's test oracle, belongs to the test extra
    third_party = {
        name
        for path in sorted(SRC.glob("*.py"))
        for name in imported_top_level(path)
        if name not in set(sys.stdlib_module_names) | {"metriclab"}
    }
    assert declared_dependencies() == third_party


def test_imports_are_module_level():
    local = []
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                local += [f"{path.name}:{node.lineno} in {getattr(fn, 'name', 'lambda')}"
                          for node in ast.walk(fn)
                          if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert not local, f"imports inside functions: {sorted(set(local))}"


def test_growth_imports_only_errors_from_metriclab():
    # growth takes traces and distance evaluators as plain arrays and
    # callables, so it stays independent of maps, metrics and the solver
    path = SRC / "growth.py"
    internal = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            internal.update([node.module] if node.module else [a.name for a in node.names])
        elif isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "metriclab":
            internal.add(node.module.removeprefix("metriclab").lstrip(".") or "metriclab")
        elif isinstance(node, ast.Import):
            internal.update(a.name for a in node.names if a.name.split(".")[0] == "metriclab")
    assert internal == {"errors"}
