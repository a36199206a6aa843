"""Command-line front end.

Subcommands: channel (run the spin channel once, JSON report), gates (dump a
gate matrix, the engine's partial SWAP ``PSWAP`` among them), mzi (double
Mach-Zehnder CSV), engine (report / sweep / frontier / optimize / threshold).
``engine threshold`` writes {"beta_d_delta", "policy", "max_beta_delta"}: the
largest beta_delta with positive net work, ``engine.minimal_beta``, or null where
the policy yields no work at any beta; it exits 3 where no root is verified. Each
``engine frontier`` entry is its search's epsilon, converged or not. All angles are
radians. CSV output uses 12 significant digits, a header row, and a
trailing comment line recording the flags; the channel JSON records them as
``flags_cli``. Both record every flag except the output destination
(``--output`` in any spelling argparse accepts), which says where the bytes
go, not what they are. Given identical flags, whatever the destination, the
output is byte-identical across runs. This module builds the channel and gate
JSON documents, and one writer, ``_dumps``, emits every JSON document with the
bytes of json's ``dumps(doc, indent=2)``, but null for each NaN or infinite float
at any depth: no document carries a token RFC 8259 forbids. A CSV cell, which
readers parse with float(), writes ``nan`` where eta_2cy is undefined at zero
heat. Every parser reads a negative number as a value, in any form float() reads
(-1e-3, -inf too). An argv that opens with a subcommand goes to that subcommand's
parser alone: the top-level parser handles only help and a missing or unknown
one. An argv whose words after the subcommand are all exact option strings of
plain store options (one value, or "+"), their values and positionals is read
without argparse, into the namespace argparse would give; any other goes to
argparse, which writes every usage error and help text.

Each subcommand returns its output text and None or a non-convergence note.
``main`` alone writes the text (to ``--output``, else stdout), then the note to
stderr, and turns a rejected parameter or state, a size too large to allocate, or
an ``--output`` it cannot open, into the usage error. Exit codes: 0 success, 2
usage error, 3 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import shlex
import sys
from json.encoder import encode_basestring_ascii as _quote

import numpy as np

from . import engine as eng
from .circuits import CNOT_UP, HBAR, SWAP, UD, VD, pswap_gate, u14
from .interferometer import MziConfig, run_double_mzi
from .qmatrix import InvalidStateError, ParameterError, _require_finite
from .spin_demon import SpinDemonParams, demon_state_from_spec, scatter

EXIT_NO_CONVERGENCE = 3


def _write(path, text: str):
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "wb") as fh:
            fh.write(text.encode("utf-8"))


def _recorded_flags(argv: list[str]) -> str:
    """argv, shell-quoted, without the output option and its value.

    Drops ``--output P``, ``--output=P`` and the abbreviations argparse
    accepts (``--out P``, ``--o=P``): no option is named by a proper prefix of
    ``--output``, so such a prefix can only mean ``--output``. A bare ``--``
    ends the options; it and everything after it are kept.
    """
    kept = []
    args = iter(argv)
    for arg in args:
        if arg == "--":
            kept.append(arg)
            kept.extend(args)
            break
        name, eq, _ = arg.partition("=")
        if len(name) > 2 and "--output".startswith(name):
            if not eq:
                next(args, None)
            continue
        kept.append(arg)
    return shlex.join(kept)


#: json's tokens for None and the bools
_TOKENS = {None: "null", True: "true", False: "false"}


def _dumps(value, pad: str = "") -> str:
    """What json's ``dumps(value, indent=2)`` writes, byte for byte, for str, None, bool,
    int, float, list, tuple and dict with str keys, nested at ``pad``, but with null for
    each non-finite float: json's C string escape, type order and tokens, without the
    pure-Python encoder json indents with."""
    if isinstance(value, str):
        return _quote(value)
    if value is None or value is True or value is False:
        return _TOKENS[value]
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return float.__repr__(value) if math.isfinite(value) else "null"
    inner = pad + "  "
    if isinstance(value, (list, tuple)):
        items, ends = [_dumps(v, inner) for v in value], "[]"
    elif isinstance(value, dict):
        items, ends = [_quote(k) + ": " + _dumps(v, inner) for k, v in value.items()], "{}"
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    if not items:
        return ends
    return ends[0] + "\n" + inner + (",\n" + inner).join(items) + "\n" + pad + ends[1]


def _json(doc: dict) -> str:
    return _dumps(doc) + "\n"


def _matrix_json(m: np.ndarray) -> dict:
    """A matrix as {dim, entries: [[re, im], ...]} row-major."""
    entries = [[float(z.real), float(z.imag)] for z in m.reshape(-1)]
    return {"dim": int(m.shape[0]), "entries": entries}


def _report_json(report) -> dict:
    """The channel JSON document of a ChannelReport, less its ``flags_cli``."""
    g = report.gamma
    return {"rho_out": _matrix_json(report.rho_out), "demon_out": _matrix_json(report.demon_out),
            "joint_out": _matrix_json(report.joint_out), "gamma": [float(g.real), float(g.imag)],
            "gamma_abs": float(abs(g)), "entropy_gain": float(report.entropy_gain),
            "lower_bound": float(report.lower_bound), "entropy_out": float(report.entropy_out),
            "unital": bool(report.unital), "flags": list(report.flags),
            "entropy_in": float(report.entropy_in)}


def _csv(rows: list[dict], argv: list[str], footer: list[str] = ()) -> str:
    header = list(rows[0].keys()) if rows else []
    row_format = ",".join(["%.12g"] * len(header))  # format(v, ".12g") for every cell
    lines = [",".join(header)]
    lines += [row_format % tuple([row[k] for k in header]) for row in rows]
    lines.extend(footer)
    lines.append("# flags: " + _recorded_flags(argv))
    return "\n".join(lines) + "\n"


def _linspace(start: float, stop: float, num: int) -> list[float]:
    """``np.linspace(start, stop, num)`` as Python floats, bit for bit: numpy steps
    by (stop - start)/(num - 1) unless that underflows to 0, and ends on stop."""
    div, delta = max(num - 1, 1), stop - start
    step = delta / div
    points = [(i * step if step else i / div * delta) + start for i in range(num)]
    return points[:-1] + [stop] if num > 1 else points


def _spin_params(args) -> SpinDemonParams:
    return SpinDemonParams(theta=args.theta, eta=args.eta, phi=args.phi,
                           alpha=args.alpha, beta_phase=args.beta_phase)


#: each known --demon kind: how many values it takes, and the refusal of any other count
_DEMON_VALUES = {"up": (0, "takes no extra values"), "down": (0, "takes no extra values"),
                 "mixture": (1, "needs one weight"), "superposition": (2, "needs two amplitudes")}


def _demon_from_args(spec: list[str]) -> np.ndarray:
    kind, words = spec[0], spec[1:]
    if kind not in _DEMON_VALUES:
        return demon_state_from_spec(kind)  # refuses the unknown kinds
    count, refusal = _DEMON_VALUES[kind]
    if len(words) != count:
        raise ParameterError(f"--demon {kind} {refusal}")
    try:
        values = [float(word) for word in words]
    except ValueError as exc:
        raise ParameterError(str(exc)) from None
    return demon_state_from_spec(kind, values[0] if count == 1 else values)


def _input_state(args) -> np.ndarray:
    if args.input == "chaotic":
        return demon_state_from_spec("mixture", 0.5)
    if args.input == "pure":
        if args.amplitudes is None:
            raise ParameterError("--input pure requires --amplitudes RE IM RE IM")
        re_a, im_a, re_b, im_b = args.amplitudes
        return demon_state_from_spec("superposition", (complex(re_a, im_a), complex(re_b, im_b)))
    return demon_state_from_spec(args.input)


def cmd_channel(args, argv) -> tuple[str, None]:
    demon = _demon_from_args(args.demon)
    rho_in = _input_state(args)
    doc = _report_json(scatter(rho_in, demon, _spin_params(args)))
    doc["flags_cli"] = _recorded_flags(argv)
    return _json(doc), None


#: each gate: its matrix, or the function of --phase that builds it
_GATES = {"UD": UD, "VD": VD, "SWAP": SWAP, "CNOT": CNOT_UP, "HBAR": HBAR,
          "U14": u14, "PSWAP": pswap_gate}


def cmd_gates(args, argv) -> tuple[str, None]:
    gate = _GATES[args.which]
    matrix = gate(args.phase) if callable(gate) else gate
    if args.format == "json":
        return _json({**_matrix_json(matrix), "gate": args.which}), None
    rows = []
    for i, row in enumerate(matrix):
        entry = {"row": i}
        for j, z in enumerate(row):
            entry[f"re{j}"], entry[f"im{j}"] = float(z.real), float(z.imag)
        rows.append(entry)
    return _csv(rows, argv), None


def cmd_mzi(args, argv) -> tuple[str, None]:
    config = MziConfig(chi=args.chi, epsilon=args.epsilon, flux_samples=args.flux_steps,
                       params=_spin_params(args), arm_phase=args.arm_phase,
                       bypass_demon=args.bypass_demon)
    report = run_double_mzi(config)
    rows = [{"flux_rad": f, "p3": p3, "p4": p4}
            for f, p3, p4 in zip(report.flux, report.p3, report.p4)]
    return _csv(rows, argv, footer=[f"# visibility = {report.visibility:.12g}"]), None


def cmd_engine(args, argv) -> tuple[str, str | None]:
    bd_delta = args.beta_d_delta[0]
    if len(args.beta_d_delta) > 1 and args.mode != "frontier":
        raise ParameterError(f"{args.mode} takes one beta_d_delta, got {len(args.beta_d_delta)}")
    if args.steps < 1 and (args.mode == "sweep" or args.mode == "frontier" and args.pe is None):
        raise ParameterError(f"steps must be at least 1, got {args.steps}")
    if args.mode == "report":
        _, p_e = eng.thermal_wit(args.beta_delta)
        eps = eng.resolve_epsilon(args.policy, p_e, bd_delta)
        report = eng.run_cycle(args.beta_delta, bd_delta, eps)
        doc = dict(vars(report), field_ledger=dict(report.field_ledger),
                   epsilon=eps, policy=args.policy)
        return _json(doc), None

    if args.mode == "threshold":
        beta = eng.minimal_beta(bd_delta, args.policy)
        doc = {"beta_d_delta": bd_delta, "policy": args.policy, "max_beta_delta": beta}
        return _json(doc), None

    if args.mode == "sweep":
        eng._check_beta_d(bd_delta)  # before the sweep end is derived from it
        end = bd_delta * args.beta_max_frac  # checked: linspace makes NaNs of an inf end
        _require_finite(beta_min=args.beta_min, beta_max=end)
        for beta in (args.beta_min, end):  # refused before linspace, which can overflow
            if beta < 0.0:
                raise ParameterError(f"beta must be non-negative, got {beta}")
        if args.beta_min > end:
            raise ParameterError(f"beta_min must not exceed the sweep end {end}, "
                                 f"got {args.beta_min}")
        grid = _linspace(args.beta_min, end, args.steps)
        return _csv(eng.sweep_beta(bd_delta, args.policy, grid), argv), None

    if args.mode == "frontier":
        if args.pe is not None:
            pes = [args.pe]
        else:
            _require_finite(pe_min=args.pe_min)
            pes = _linspace(args.pe_min, 0.5, args.steps)
        return _csv(eng.frontier_epsilons(pes, args.beta_d_delta), argv), None

    # optimize
    _, p_e = eng.thermal_wit(args.beta_delta)
    pe = args.pe if args.pe is not None else p_e
    if args.target == "power":
        result = eng.optimize_epsilon_power(pe, bd_delta)
    else:
        eng._check_beta_d(bd_delta)  # only echoed here; checked as for power
        result = eng.optimize_epsilon_eta(pe)
    doc = dict(vars(result), target=args.target, p_e=pe, beta_d_delta=bd_delta)
    return _json(doc), (None if result.converged else f"residual {result.residual:.3e}")


#: the words each parser reads as negative numbers, so as values, not options: argparse's
#: own -1 and -.5, and the exponent, inf and nan forms float() reads (-1e-3, -inf, -NaN)
_NEGATIVE_NUMBER = re.compile(r"^-((\d+\.?\d*|\.\d+)(e[-+]?\d+)?|inf|infinity|nan)$", re.I)


def _add_spin_flags(p: argparse.ArgumentParser):
    p.add_argument("--theta", type=float, default=0.0)
    p.add_argument("--eta", type=float, default=0.0)
    p.add_argument("--phi", type=float, default=0.0)
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--beta-phase", type=float, default=0.0)


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The ``qdemon`` parser and its subcommand parsers by name."""
    parser = argparse.ArgumentParser(
        prog="qdemon",
        description="Purity-swapping channel, circuits, interferometer and engine "
                    "(angles in radians; energies in units of the level spacing).")
    sub = parser.add_subparsers(dest="command", required=True)

    p_chan = sub.add_parser("channel", help="run the spin channel once (JSON report)")
    _add_spin_flags(p_chan)
    p_chan.add_argument("--input", default="chaotic",
                        choices=["chaotic", "up", "down", "pure"])
    p_chan.add_argument("--amplitudes", type=float, nargs=4, metavar=("ARE", "AIM", "BRE", "BIM"))
    p_chan.add_argument("--demon", nargs="+", default=["up"],
                        metavar="KIND [VAL ...]")

    p_gates = sub.add_parser("gates", help="dump a gate or circuit matrix")
    p_gates.add_argument("--which", required=True, choices=sorted(_GATES))
    p_gates.add_argument("--phase", type=float, default=-np.pi / 2)
    p_gates.add_argument("--format", default="json", choices=["json", "csv"])

    p_mzi = sub.add_parser("mzi", help="double Mach-Zehnder visibility CSV")
    _add_spin_flags(p_mzi)
    p_mzi.set_defaults(eta=np.pi)
    p_mzi.add_argument("--chi", type=float, default=np.pi / 2)
    p_mzi.add_argument("--epsilon", type=float, default=0.0)
    p_mzi.add_argument("--flux-steps", type=int, default=96)
    p_mzi.add_argument("--arm-phase", type=float, default=np.pi / 2)
    p_mzi.add_argument("--bypass-demon", action="store_true")

    p_eng = sub.add_parser("engine", help="two-cycle engine reports and sweeps")
    p_eng.add_argument("mode", choices=["report", "sweep", "frontier", "optimize", "threshold"])
    p_eng.add_argument("--beta-delta", type=float, default=1e-6,
                       help="beta * delta_w of the working reservoir")
    p_eng.add_argument("--beta-d-delta", type=float, nargs="+", default=[2.0],
                       help="beta_d * delta_w (several values allowed for frontier)")
    p_eng.add_argument("--policy", default="ideal",
                       help="ideal | opt-power | opt-eta | fixed:<eps>")
    p_eng.add_argument("--pe", type=float, default=None)
    p_eng.add_argument("--pe-min", type=float, default=0.3)
    p_eng.add_argument("--beta-min", type=float, default=0.0)
    p_eng.add_argument("--beta-max-frac", type=float, default=1.0,
                       help="sweep up to this fraction of beta_d")
    p_eng.add_argument("--steps", type=int, default=101)
    p_eng.add_argument("--target", default="power", choices=["power", "eta"])

    parser._negative_number_matcher = _NEGATIVE_NUMBER
    for p in sub.choices.values():
        p.add_argument("--output", default=None)
        p._negative_number_matcher = _NEGATIVE_NUMBER
    return parser, sub.choices


def _grammar(sub: argparse.ArgumentParser):
    """``_read``'s view of a subcommand parser: (dest, type function, choices, nargs) of
    each plain store option by exact string and of each positional (None if not plain);
    the defaults parse_known_args sets; the dests that must be given, positionals too."""
    plain = {a: (a.dest, a.type or str, a.choices, a.nargs)
             for a in sub._actions if type(a) is argparse._StoreAction
             and (a.nargs is None or a.nargs == "+" and a.option_strings)}
    defaults = {a.dest: a.default
                for a in reversed(sub._actions)  # the first action of a dest sets it
                if a.dest is not argparse.SUPPRESS and a.default is not argparse.SUPPRESS}
    return ({o: plain[a] for a in plain for o in a.option_strings},
            [plain.get(a) for a in sub._get_positional_actions()], {**sub._defaults, **defaults},
            [a.dest for a in sub._actions if a.required or not a.option_strings])


@functools.cache
def _parser():
    """The parsers ``main`` uses and each subcommand's grammar, built on first use:
    parsing leaves them unchanged, so one set per process serves every call."""
    parser, commands = build_parser()
    return parser, commands, {name: _grammar(sub) for name, sub in commands.items()}


def _is_value(word: str) -> bool:
    """Whether every parser reads ``word`` as a value: it opens with no "-", or it is a
    negative number, which no parser reads as an option (none has a negative-number one)."""
    return not word or word[0] != "-" or _NEGATIVE_NUMBER.match(word) is not None


def _read(grammar, argv: list[str]) -> argparse.Namespace | None:
    """The namespace of argv's words after the subcommand, by its ``grammar``, if each is an
    exact plain option string, one of its values (a "+" option takes the run) or a positional,
    each value converts and meets its choices and each required dest is given; else None."""
    options, positionals, defaults, required = grammar
    values, free, words, i = {}, iter(positionals), argv[1:], 0
    while i < len(words):
        entry = options.get(words[i]) or next(free, None)
        if entry is None:
            return None
        dest, convert, choices, nargs = entry
        i = stop = i + (words[i] in options)
        while stop < len(words) and (nargs or stop == i) and _is_value(words[stop]):
            stop += 1
        try:
            got = [convert(word) for word in words[i:stop]]
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
        if not got or choices is not None and any(v not in choices for v in got):
            return None
        values[dest] = got if nargs else got[0]
        i = stop
    if not all(dest in values for dest in required):
        return None
    args = argparse.Namespace()
    vars(args).update({**defaults, "command": argv[0], **values})
    return args


def _parse(argv: list[str]) -> tuple[argparse.ArgumentParser, argparse.Namespace]:
    """(parser, parser.parse_args(argv)) in one pass: an argv that opens with a
    subcommand goes straight to its parser, to which ``parser`` would hand it whole,
    unless ``_read`` takes it; argparse writes every usage error and help text."""
    parser, commands, grammars = _parser()
    if not argv or argv[0] not in commands:
        return parser, parser.parse_args(argv)
    sub = commands[argv[0]]
    args = _read(grammars[argv[0]], argv)
    if args is None:
        args, extra = sub.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if extra:
            parser.error("unrecognized arguments: " + " ".join(extra))
    return parser, args


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, args = _parse(argv)
    try:
        text, failure = {"channel": cmd_channel, "gates": cmd_gates, "mzi": cmd_mzi,
                         "engine": cmd_engine}[args.command](args, argv)
    except (ParameterError, InvalidStateError) as exc:
        parser.error(str(exc))
    except MemoryError as exc:  # e.g. a --flux-steps no host can hold
        parser.error(f"out of memory: {exc}")
    except eng.ConvergenceError as exc:
        text, failure = None, str(exc)
    if text is not None:
        try:
            _write(args.output, text)
        except OSError as exc:  # an --output file that cannot be opened; stdout's own errors pass
            if args.output in (None, "-"):
                raise
            parser.error(f"cannot write --output {args.output}: {exc.strerror}")
    if failure is None:
        return 0
    sys.stderr.write(f"non-convergence: {failure}\n")
    return EXIT_NO_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
