"""Source hygiene: no module in the package imports a name it never uses, the
layers import downwards only, each public name has one defining module, only
``cli`` builds JSON views, only ``cli.main`` writes, refuses and exits, and importing
the engine loads no other layer."""

import ast
import subprocess
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


def definitions(source: str) -> set[str]:
    """Names a module binds at its top level by ``def``, ``class`` or assignment;
    imported names are not definitions."""
    found = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return found


def public_definitions(source: str) -> set[str]:
    """The names of ``definitions`` that do not start with an underscore."""
    return {name for name in definitions(source) if not name.startswith("_")}


def test_definition_reader_skips_imports_and_private_names():
    source = ("from .spin_demon import I2\nX = Y = 1\nW: int = 0\n_Z = 2\na, (b, c) = 1, (2, 3)\n"
              "def f(): pass\nclass K: pass\nif True:\n    nested = 1\n")
    assert public_definitions(source) == {"X", "Y", "W", "a", "b", "c", "f", "K"}


def test_no_public_name_is_defined_in_two_modules():
    owners = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for name in public_definitions(path.read_text(encoding="utf-8")):
            owners.setdefault(name, []).append(path.name)
    assert {name: files for name, files in owners.items() if len(files) > 1} == {}


def test_only_cli_builds_json_documents():
    # one module decides the output format: no other defines a *_to_json view, public or not
    views = {f"{path.stem}.{name}" for path in sorted(PACKAGE.glob("*.py")) if path.stem != "cli"
             for name in definitions(path.read_text(encoding="utf-8"))
             if name.endswith("_to_json")}
    assert views == set()


def calls_by_function(source: str) -> dict[str, set[str]]:
    """The callees, as source text, of each top-level function of a module, by its
    name; "<module>" holds the calls outside every function."""
    found = {}
    for node in ast.parse(source).body:
        owner = node.name if isinstance(node, ast.FunctionDef) else "<module>"
        found.setdefault(owner, set()).update(
            ast.unparse(call.func) for call in ast.walk(node) if isinstance(call, ast.Call))
    return found


def test_call_reader_names_each_callee_by_its_function():
    source = "import sys\nX = len([])\ndef f(p):\n    p.error(g(1))\n    sys.stderr.write('')\n"
    assert calls_by_function(source) == {"<module>": {"len"}, "f": {"p.error", "g",
                                                                    "sys.stderr.write"}}


def test_cli_main_alone_writes_refuses_and_exits():
    # each cmd_* returns its text and any non-convergence note; main writes both, and
    # turns a refused parameter into the usage error, as _parse does for argv
    source = (PACKAGE / "cli.py").read_text(encoding="utf-8")
    commands = [node for node in ast.parse(source).body
                if isinstance(node, ast.FunctionDef) and node.name.startswith("cmd_")]
    assert len(commands) == 4
    assert [node.name for node in commands
            if "parser" in {a.arg for a in ast.walk(node.args) if isinstance(a, ast.arg)}] == []
    calls = calls_by_function(source)
    assert {name for name, callees in calls.items()
            if callees & {"_write", "sys.stderr.write"}} == {"main"}
    assert {name for name, callees in calls.items()
            if any(c.endswith(".error") for c in callees)} == {"_parse", "main"}


def test_one_engine_search_calls_the_newton_kernel():
    # both optimal policies go through _search, which alone picks p_e's check, xi and the start
    calls = calls_by_function((PACKAGE / "engine.py").read_text(encoding="utf-8"))
    assert {name for name, callees in calls.items() if "_max_net_work" in callees} == {"_search"}


def test_only_the_flux_grid_builds_flux_samples_and_phasors():
    # run_double_mzi reads the cached grid of its sample count and never rebuilds it
    calls = calls_by_function((PACKAGE / "interferometer.py").read_text(encoding="utf-8"))
    assert {name for name, callees in calls.items()
            if callees & {"np.linspace", "np.exp"}} == {"_flux_grid"}


def test_importing_the_engine_loads_no_other_package_module():
    code = (f"import sys; sys.path.insert(0, {str(PACKAGE.parent)!r}); import qdemon.engine; "
            "print(*sorted(m for m in sys.modules if m.partition('.')[0] == 'qdemon'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True).stdout
    assert out.split() == ["qdemon", "qdemon.engine", "qdemon.qmatrix"]
