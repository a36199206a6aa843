"""A seeded corpus of ``qdemon`` command lines and the bytes each one gives.

    PYTHONPATH=src python tests/cli_corpus.py    # rewrite tests/cli_corpus.json

Every subcommand, ``--input`` and ``--demon`` kind, gate, engine mode, policy
and target is covered, with valid, extreme (1e±300, βΔ at 1e-8 and 40) and
invalid (NaN, ±inf, out of range, unparsable) values. Each case stores its exit
code and the sha256 of its stdout, its stderr and the file it writes with
``--output``; a dozen cases keep their full stdout and stderr as well.
``tests/test_cli_corpus.py`` replays every case in process through
``cli.main`` and compares.

A change that alters output bytes on purpose reruns this script and names
each changed case, and why, in CHANGES.md. The recorded bytes hold for
Python 3.11 and numpy 2.4.6: argparse's wording and numpy's last digits
may differ under other versions. Usage messages are wrapped at 80 columns.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

from qdemon import cli

CORPUS = Path(__file__).with_name("cli_corpus.json")
SEED = 1604075570
#: stands for the ``--output`` file; replaced by a path under a scratch directory
OUT = "{out}"

EXTREMES = ["nan", "inf", "-inf", "1e300", "-1e300", "1e-300", "-1e-300"]


def run_case(argv: list[str], out_dir: Path) -> dict:
    """Run one argv through ``cli.main`` in this process; exit code and the
    sha256 of stdout, stderr and the ``--output`` file (None if none is written)."""
    out_file = out_dir / "out"
    out_file.unlink(missing_ok=True)
    argv = [arg.replace(OUT, str(out_file)) for arg in argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr), \
            mock.patch.dict(os.environ, {"COLUMNS": "80", "LINES": "24"}):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return {"exit": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue(),
            "output_sha256": (sha256(out_file.read_bytes()) if out_file.exists() else None)}


def sha256(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def _num(rng: random.Random, lo: float, hi: float) -> str:
    return repr(rng.uniform(lo, hi))


def _spin_flags(rng: random.Random) -> list[str]:
    flags = []
    for name in ("--theta", "--eta", "--phi", "--alpha", "--beta-phase"):
        if rng.random() < 0.7:
            flags += [name, _num(rng, -7.0, 7.0)]
    return flags


def _channel_cases(rng: random.Random) -> list[list[str]]:
    inputs = [["--input", "chaotic"], ["--input", "up"], ["--input", "down"],
              ["--input", "pure", "--amplitudes", "0.3", "-1.2", "2.5", "0.7"], []]
    demons = [["up"], ["down"], ["mixture", "0.25"], ["mixture", "0"], ["mixture", "1"],
              ["superposition", "1", "-2.5"], ["superposition", "0.7071", "0.7071"]]
    cases = [["channel"]]
    cases += [["channel", *i, "--demon", *d, *_spin_flags(rng)] for i in inputs for d in demons]
    for _ in range(12):
        amps = [_num(rng, -2.0, 2.0) for _ in range(4)]
        cases.append(["channel", "--input", "pure", "--amplitudes", *amps,
                      "--demon", "mixture", _num(rng, 0.0, 1.0), *_spin_flags(rng)])
    for value in EXTREMES:
        cases.append(["channel", f"--theta={value}", "--eta", "1.1"])
        cases.append(["channel", "--demon", "mixture", value])
        cases.append(["channel", "--demon", "superposition", value, "1"])
    cases += [
        ["channel", "--phi=-1e300", "--alpha", "1e300"],
        ["channel", "--input", "pure", "--amplitudes", "0", "0", "0", "0"],
        ["channel", "--input", "pure", "--amplitudes", "nan", "0", "1", "0"],
        ["channel", "--input", "pure", "--amplitudes", "1e300", "0", "1e300", "0"],
        ["channel", "--input", "pure", "--amplitudes", "1e-300", "0", "0", "1e-300"],
        ["channel", "--input", "pure"],
        ["channel", "--input", "mixed"],
        ["channel", "--demon", "sideways"],
        ["channel", "--demon", "up", "0.5"],
        ["channel", "--demon", "mixture"],
        ["channel", "--demon", "mixture", "1.5"],
        ["channel", "--demon", "mixture", "abc"],
        ["channel", "--demon", "superposition", "1"],
        ["channel", "--demon", "superposition", "0", "0"],
        ["channel", "--theta", "abc"],
        ["channel", "--theta", "0.4", "--demon", "down", "--output", OUT],
        ["channel", "--input", "up", f"--output={OUT}"],
    ]
    return cases


def _gates_cases(rng: random.Random) -> list[list[str]]:
    gates = sorted(cli._GATES)
    cases = [["gates", "--which", g, "--format", f] for g in gates for f in ("json", "csv")]
    for _ in range(6):
        cases.append(["gates", "--which", "U14", "--format", rng.choice(["json", "csv"]),
                      "--phase", _num(rng, -7.0, 7.0)])
    for value in EXTREMES:
        cases.append(["gates", "--which", "U14", f"--phase={value}"])
    cases += [
        ["gates", "--which", "SWAP", "--phase", "nan"],  # the phase only reaches U14
        ["gates", "--which", "CZ"],
        ["gates"],
        ["gates", "--which", "U14", "--format", "xml"],
        ["gates", "--which", "HBAR", "--format", "csv", "--output", OUT],
        ["gates", "--which", "UD", "--out", OUT],
    ]
    return cases


def _mzi_cases(rng: random.Random) -> list[list[str]]:
    cases = [["mzi"], ["mzi", "--bypass-demon"], ["mzi", "--chi", "0", "--bypass-demon"],
             ["mzi", "--epsilon", "0.5"], ["mzi", "--epsilon", "0"]]
    for _ in range(16):
        case = ["mzi", "--chi", _num(rng, -4.0, 4.0), "--epsilon", _num(rng, 0.0, 0.5),
                "--flux-steps", str(rng.randint(8, 40)), "--arm-phase", _num(rng, -4.0, 4.0),
                *_spin_flags(rng)]
        cases.append(case + (["--bypass-demon"] if rng.random() < 0.3 else []))
    for value in EXTREMES:
        cases.append(["mzi", f"--chi={value}", "--flux-steps", "8"])
        cases.append(["mzi", f"--arm-phase={value}", "--flux-steps", "8", "--bypass-demon"])
        cases.append(["mzi", f"--epsilon={value}", "--flux-steps", "8"])
        cases.append(["mzi", f"--theta={value}", "--flux-steps", "8"])
    cases += [
        ["mzi", "--flux-steps", "7"],
        ["mzi", "--flux-steps", "8.5"],
        ["mzi", "--epsilon", "0.6"],
        ["mzi", "--flux-steps", "12", "--output", OUT],
    ]
    return cases


POLICIES = ["ideal", "opt-power", "opt-eta", "fixed:0.01", "fixed:0", "fixed:0.5"]


def _engine_cases(rng: random.Random) -> list[list[str]]:
    cases = [["engine", "report"], ["engine", "optimize"], ["engine", "frontier", "--steps", "5"],
             ["engine", "sweep", "--steps", "5"]]
    for policy in POLICIES:
        for _ in range(3):
            cases.append(["engine", "report", "--policy", policy,
                          "--beta-delta", _num(rng, 0.0, 3.0),
                          "--beta-d-delta", _num(rng, 0.5, 12.0)])
        cases.append(["engine", "sweep", "--policy", policy, "--steps", str(rng.randint(1, 6)),
                      "--beta-d-delta", _num(rng, 1.0, 8.0),
                      "--beta-min", _num(rng, 0.0, 0.5),
                      "--beta-max-frac", _num(rng, 0.2, 1.0)])
    for _ in range(8):
        bds = [_num(rng, 0.5, 10.0) for _ in range(rng.randint(1, 3))]
        pe = (["--pe", _num(rng, 0.01, 0.5)] if rng.random() < 0.5
              else ["--pe-min", _num(rng, 0.01, 0.45), "--steps", str(rng.randint(1, 5))])
        cases.append(["engine", "frontier", *pe, "--beta-d-delta", *bds])
    for target in ("power", "eta"):
        for _ in range(5):
            pe = (["--pe", _num(rng, 0.001, 0.5)] if rng.random() < 0.5
                  else ["--beta-delta", _num(rng, 0.0, 6.0)])
            cases.append(["engine", "optimize", "--target", target, *pe,
                          "--beta-d-delta", _num(rng, 0.5, 20.0)])
    # the βΔ ends: 1e-8 (p_e next to 1/2) and 40 (p_e ~ 4e-18)
    for beta_delta in ("1e-8", "40"):
        for policy in POLICIES[:3]:
            cases.append(["engine", "report", "--policy", policy, "--beta-delta", beta_delta,
                          "--beta-d-delta", "40"])
        for target in ("power", "eta"):
            cases.append(["engine", "optimize", "--target", target, "--beta-delta", beta_delta,
                          "--beta-d-delta", "40"])
        cases.append(["engine", "sweep", "--policy", "opt-eta", "--beta-min", beta_delta,
                      "--beta-d-delta", "41", "--steps", "3"])
    for value in EXTREMES:
        cases.append(["engine", "report", f"--beta-delta={value}"])
        cases.append(["engine", "report", f"--beta-d-delta={value}"])
        cases.append(["engine", "optimize", f"--pe={value}"])
        cases.append(["engine", "optimize", "--target", "eta", "--pe", "0.3",
                      f"--beta-d-delta={value}"])
        cases.append(["engine", "frontier", f"--pe={value}"])
        cases.append(["engine", "frontier", f"--pe-min={value}", "--steps", "3"])
        cases.append(["engine", "sweep", f"--beta-min={value}", "--steps", "3"])
        cases.append(["engine", "sweep", f"--beta-max-frac={value}", "--steps", "3"])
        cases.append(["engine", "sweep", "--policy", f"fixed:{value}", "--steps", "3"])
    cases += [
        ["engine", "sweep", "--beta-min", "1e300", "--beta-d-delta", "1e-10", "--steps", "3"],
        ["engine", "sweep", "--beta-d-delta", "1e308", "--beta-max-frac", "10"],
        ["engine", "sweep", "--beta-min=-1e308", "--beta-d-delta", "1e308"],
        ["engine", "report", "--beta-delta", "1", "--policy", "opt-power",
         "--beta-d-delta", "40"],
        ["engine", "report", "--policy", "fixed:abc"],
        ["engine", "report", "--policy", "fixed:0.7"],
        ["engine", "report", "--policy", "greedy"],
        ["engine", "report", "--beta-delta", "-1"],
        ["engine", "report", "--beta-d-delta", "0"],
        ["engine", "optimize", "--pe", "0.5", "--target", "eta"],
        ["engine", "optimize", "--pe", "0"],
        ["engine", "optimize", "--target", "eta", "--pe", "0.3", "--beta-d-delta", "0"],
        ["engine", "optimize", "--target", "speed"],
        ["engine", "sweep", "--steps", "0"],
        ["engine", "sweep", "--steps", "-1"],
        ["engine", "frontier", "--steps", "0"],
        ["engine", "frontier", "--pe", "0.3", "--steps", "0"],
        ["engine", "frontier", "--pe", "0.3", "--beta-d-delta", "2", "4", "40"],
        ["engine", "sweep", "--steps", "2.5"],
        ["engine"],
        ["engine", "fly"],
        ["engine", "report", "--policy", "ideal", "--output", OUT],
        ["engine", "sweep", "--steps", "4", f"--output={OUT}"],
        ["engine", "frontier", "--steps", "3", "--o", OUT],
    ]
    return cases


#: cases that keep their full stdout and stderr next to the hashes
SHOWN = {
    ("channel",),
    ("channel", "--demon", "mixture", "1.5"),
    ("gates", "--which", "U14", "--phase=nan"),
    ("gates", "--which", "CNOT", "--format", "csv"),
    ("mzi", "--flux-steps", "7"),
    ("engine", "report"),
    ("engine", "optimize"),
    ("engine", "sweep", "--steps", "5"),
    ("engine", "frontier", "--steps", "5"),
    ("engine", "sweep", "--beta-min", "1e300", "--beta-d-delta", "1e-10", "--steps", "3"),
    ("engine", "report", "--beta-delta", "1", "--policy", "opt-power", "--beta-d-delta", "40"),
    ("engine",),
}


def corpus_argvs() -> list[tuple[str, list[str]]]:
    """(id, argv) of every case, in a fixed order drawn from ``SEED``."""
    rng = random.Random(SEED)
    cases = [["--version"], [], ["lift"]]
    cases += _channel_cases(rng) + _gates_cases(rng) + _mzi_cases(rng) + _engine_cases(rng)
    return [(f"{(argv or ['none'])[0].lstrip('-')}-{i:03d}", argv)
            for i, argv in enumerate(cases)]


def record(out_dir: Path) -> list[dict]:
    """Run every case; print any warning a case raises, which is a fault to
    mend, not a byte to record."""
    cases = []
    for case_id, argv in corpus_argvs():
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = run_case(argv, out_dir)
        for w in caught:
            print(f"{case_id}: {w.category.__name__}: {w.message}", file=sys.stderr)
        case = {"id": case_id, "argv": argv, "exit": got["exit"],
                "stdout_sha256": sha256(got["stdout"]), "stderr_sha256": sha256(got["stderr"]),
                "output_sha256": got["output_sha256"]}
        if tuple(argv) in SHOWN:
            case.update(stdout=got["stdout"], stderr=got["stderr"])
        cases.append(case)
    return cases


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        cases = record(Path(tmp))
    about = ("qdemon CLI corpus: see tests/cli_corpus.py. Recorded with "
             "Python 3.11 and numpy 2.4.6.")
    lines = ",\n".join(json.dumps(case, ensure_ascii=False) for case in cases)
    # one case per line keeps diffs readable
    CORPUS.write_text(f'{{"about": "{about}", "seed": {SEED}, "cases": [\n{lines}\n]}}\n',
                      encoding="utf-8")
    print(f"{len(cases)} cases written to {CORPUS.name}")
