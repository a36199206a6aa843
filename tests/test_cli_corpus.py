"""The committed CLI corpus: every recorded command line gives the same bytes.

Each case of ``tests/cli_corpus.json`` runs in process through ``cli.main``;
its exit code and the sha256 of its stdout, stderr and ``--output`` file must
match the recording. Under tier-1's warnings-as-errors a case that warns fails.
"""

import json

import pytest

from cli_corpus import CORPUS, run_case, sha256

CASES = json.loads(CORPUS.read_text(encoding="utf-8"))["cases"]


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("corpus")


def test_corpus_covers_every_subcommand_and_kind():
    argvs = [case["argv"] for case in CASES]
    assert {argv[0] for argv in argvs if argv} >= {"channel", "gates", "mzi", "engine"}
    assert {argv[1] for argv in argvs if argv[:1] == ["engine"] and len(argv) > 1} >= {
        "report", "sweep", "frontier", "optimize"}
    flat = [arg for argv in argvs for arg in argv]
    for kind in ("chaotic", "up", "down", "pure", "mixture", "superposition",
                 "ideal", "opt-power", "opt-eta", "fixed:0.01", "power", "eta"):
        assert kind in flat, kind
    assert {case["exit"] for case in CASES} == {0, 2, 3}
    assert 250 <= len(CASES) and 10 <= sum("stdout" in case for case in CASES)


@pytest.mark.parametrize("case", CASES, ids=[case["id"] for case in CASES])
def test_cli_bytes_match_the_corpus(case, out_dir):
    got = run_case(case["argv"], out_dir)
    if "stdout" in case:
        assert (got["stdout"], got["stderr"]) == (case["stdout"], case["stderr"])
    assert (got["exit"], sha256(got["stdout"]), sha256(got["stderr"]), got["output_sha256"]) == (
        case["exit"], case["stdout_sha256"], case["stderr_sha256"], case["output_sha256"])
