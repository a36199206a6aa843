"""Every function the package defines runs on a program path.

Under ``sys.setprofile`` the test replays each case of the CLI corpus through
``cli.main`` and runs the first seed-1 ops of each benchmark workload through
``harness.execute``. It then checks that every top-level function and class
method in ``src/qdemon/*.py`` was called. A name that neither the CLI nor a
workload runs does not belong in the package: give it a CLI path, or move it
into the tests that use it.
"""

import ast
import json
import sys
from itertools import islice
from pathlib import Path

import qdemon
from cli_corpus import CORPUS, run_case
from qdemon import cli

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.import_program()

import harness  # noqa: E402
import workloads  # noqa: E402

PACKAGE = Path(qdemon.__file__).resolve().parent
#: seed-1 ops run per workload
OPS = 60


def defined_functions() -> set[tuple[Path, str]]:
    """(file, qualified name) of each top-level function and class method."""
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef):
                found.add((path, node.name))
            elif isinstance(node, ast.ClassDef):
                found.update((path, f"{node.name}.{item.name}") for item in node.body
                             if isinstance(item, ast.FunctionDef))
    return found


def test_checker_reads_functions_and_methods():
    names = {name for path, name in defined_functions() if path.name == "channel.py"}
    assert {"apply_channel", "ChannelConfig.__post_init__", "ChannelConfig._gamma"} <= names


def test_every_function_runs_on_a_program_path(tmp_path):
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add((frame.f_code.co_filename, frame.f_code.co_qualname))

    cases = json.loads(CORPUS.read_text(encoding="utf-8"))["cases"]
    loads = workloads.make_workloads(tmp_path)
    cli._parser.cache_clear()   # so that this run builds, and sees, the one parser
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for case in cases:
            run_case(case["argv"], tmp_path)
        for workload in loads.values():
            for spec in islice(workloads.spec_stream(workload, 1), OPS):
                harness.execute(workload, spec)
    finally:
        sys.setprofile(previous)
    reached = {(Path(f).resolve(), name) for f, name in called}
    missed = sorted(f"{path.stem}.{name}" for path, name in defined_functions() - reached)
    assert not missed, "no program path calls " + ", ".join(missed)
