"""Source hygiene: no module in the package imports a name it never uses, and
the layers import downwards only."""

import ast
import sys
from pathlib import Path

import pytest

import qdemon

PACKAGE = Path(qdemon.__file__).resolve().parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's imports that no expression reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in bound.items() if name not in read]


def test_checker_finds_an_unused_import():
    source = "import math\nimport numpy as np\nfrom .qmatrix import dag, tensor\nnp.eye(2)\ntensor\n"
    assert unused_imports(source) == ["math (line 1)", "dag (line 3)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def imported_modules(source: str) -> set[str]:
    """Top-level names of the absolute imports and dotted names of the relative
    ones (``.qmatrix``; ``from . import engine`` gives ``.engine``) in a module's source."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name.partition(".")[0] for alias in node.names)
        elif not isinstance(node, ast.ImportFrom):
            continue
        elif not node.level:
            found.add(node.module.partition(".")[0])
        elif node.module:
            found.add("." * node.level + node.module)
        else:
            found.update("." * node.level + alias.name for alias in node.names)
    return found


def test_import_reader_tells_relative_from_absolute():
    source = ("import os.path\nfrom . import engine\nfrom .qmatrix import dag\n"
              "from numpy import eye\n")
    assert imported_modules(source) == {"os", ".engine", ".qmatrix", "numpy"}


def test_engine_imports_only_the_standard_library_and_qmatrix():
    modules = imported_modules((PACKAGE / "engine.py").read_text(encoding="utf-8"))
    assert {m for m in modules if m not in sys.stdlib_module_names} == {".qmatrix"}


def test_circuits_does_not_import_the_engine():
    modules = imported_modules((PACKAGE / "circuits.py").read_text(encoding="utf-8"))
    assert ".engine" not in modules and "qdemon" not in modules
