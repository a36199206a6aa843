"""Every argv gives a documented exit and finite, parseable output.

A hypothesis strategy draws command lines over every subcommand and flag from
the corpus's value set (``tests/cli_corpus.py``: NaN, ±inf, 1e±300, 5e-324,
βΔ at 1e-8 and 40, and 745, next to ordinary and unparsable values) and runs
each through ``cli.main`` in this process, under tier-1's warnings-as-errors.
For each argv:

- the exit code is 0, 2 or 3;
- nothing but ``SystemExit`` escapes ``main``;
- JSON output parses under a ``parse_constant`` that refuses NaN and infinities;
- every CSV cell is a finite float, except ``nan`` in eta_2cy, undefined at zero heat.

The run is seeded with the corpus seed, so the same argvs run every time.
"""

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from cli_corpus import EXTREMES, OUT, POLICIES, SEED
from qdemon import cli

NUMBERS = EXTREMES + ["5e-324", "1e-8", "40", "745", "0", "-0.0", "0.3", "0.5", "1", "2",
                      "-1", "abc"]
#: the value set, and ordinary values, most of them in range (p_e and eps lie in [0, 1/2])
numbers = st.one_of(st.sampled_from(NUMBERS), st.floats(0.0, 0.5).map(repr),
                    st.floats(-10.0, 50.0).map(repr))
#: grid sizes, capped so that one argv stays a few milliseconds
counts = st.one_of(st.integers(1, 256).map(str), st.sampled_from(["-1", "0", "2.5", "abc"]))


def choice(*values):
    return st.sampled_from(values).map(lambda v: (v,))


SPIN = {name: numbers.map(lambda v: (v,))
        for name in ("--theta", "--eta", "--phi", "--alpha", "--beta-phase")}
#: each subcommand's flags, each with a strategy for the words that follow it
FLAGS = {
    "channel": {
        **SPIN,
        "--input": choice("chaotic", "up", "down", "pure", "mixed"),
        "--amplitudes": st.tuples(numbers, numbers, numbers, numbers),
        "--demon": st.one_of(choice("up", "down", "sideways"),
                             st.tuples(st.just("mixture"), numbers),
                             st.tuples(st.just("superposition"), numbers, numbers)),
    },
    "gates": {
        "--which": choice("UD", "VD", "SWAP", "CNOT", "HBAR", "U14", "PSWAP", "CZ"),
        "--phase": numbers.map(lambda v: (v,)),
        "--format": choice("json", "csv"),
    },
    "mzi": {
        **SPIN,
        **{name: numbers.map(lambda v: (v,)) for name in ("--chi", "--epsilon", "--arm-phase")},
        "--flux-steps": counts.map(lambda v: (v,)),
        "--bypass-demon": st.just(()),
    },
    "engine": {
        **{name: numbers.map(lambda v: (v,))
           for name in ("--beta-delta", "--pe", "--pe-min", "--beta-min", "--beta-max-frac")},
        "--beta-d-delta": st.lists(numbers, min_size=1, max_size=3).map(tuple),
        "--policy": st.one_of(st.sampled_from(POLICIES + ["greedy"]),
                              numbers.map(lambda v: f"fixed:{v}")).map(lambda v: (v,)),
        "--steps": counts.map(lambda v: (v,)),
        "--target": choice("power", "eta", "speed"),
    },
}
#: the subcommands, each engine mode as often as each other subcommand
COMMANDS = [["channel"], ["gates"], ["mzi"]] + [
    ["engine", mode] for mode in ("report", "sweep", "frontier", "optimize", "threshold")]


@st.composite
def argvs(draw):
    """A subcommand with up to four of its flags, each given once; a flag of one
    value is written ``--flag=value``, so that argparse reads a value such as
    -inf as a value, not as an option."""
    argv = list(draw(st.sampled_from(COMMANDS)))
    flags = FLAGS[argv[0]]
    for name in draw(st.lists(st.sampled_from(sorted(flags)), max_size=4, unique=True)):
        words = draw(flags[name])
        argv += [f"{name}={words[0]}"] if len(words) == 1 else [name, *words]
    return argv + list(draw(st.sampled_from([(), ("--output", "-"), ("--output", OUT)])))


def refuse(constant):
    raise ValueError(f"JSON holds {constant}")


def check_csv(text: str):
    lines = text.splitlines()
    header = lines[0].split(",")
    assert lines[-1].startswith("# flags: ")
    for line in lines[1:]:
        if line.startswith("#"):
            continue
        cells = line.split(",")
        assert len(cells) == len(header), line
        for name, cell in zip(header, cells):
            value = float(cell)
            assert math.isfinite(value) or (name == "eta_2cy" and cell == "nan"), (name, cell)


@pytest.fixture(scope="module")
def out_file(tmp_path_factory):
    return tmp_path_factory.mktemp("argv") / "out"


@seed(SEED)
@settings(max_examples=2000, deadline=None, derandomize=True, database=None)
@given(argv=argvs())
# inputs that once gave Infinity or -inf: beta_d_delta below BETA_D_MIN, and a
# heat so small that eta_2cy = net/heat overflows
@example(argv=["engine", "sweep", "--beta-d-delta=5e-324", "--steps=2"])
@example(argv=["engine", "report", "--beta-d-delta=5e-309"])
@example(argv=["engine", "optimize", "--target=power", "--beta-d-delta=1e-310", "--pe=0.3"])
@example(argv=["engine", "report", "--beta-delta=0.8472978603872037",
               "--policy=fixed:0.2999999999999999", "--beta-d-delta=1e-300"])
def test_every_argv_exits_documented_with_finite_output(out_file, argv):
    out_file.unlink(missing_ok=True)
    argv = [arg.replace(OUT, str(out_file)) for arg in argv]
    stdout = io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)  # any exception but SystemExit fails the test here
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2, 3)
    text = stdout.getvalue() or (out_file.read_text(encoding="utf-8")
                                 if out_file.exists() else "")
    if text.startswith("{"):
        json.loads(text, parse_constant=refuse)
    elif text:
        check_csv(text)
    assert text or code != 0
