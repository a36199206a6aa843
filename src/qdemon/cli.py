"""Command-line front end.

Subcommands: channel (run the spin channel once, JSON report), gates (dump a
gate matrix), mzi (double Mach-Zehnder CSV), engine (report / sweep /
frontier / optimize). All angles are radians. CSV output uses 12 significant
digits, a header row, and a trailing comment line recording the flags; the
channel JSON records them as ``flags_cli``. Both record every flag except the
output destination (``--output`` in any spelling argparse accepts), which says
where the bytes go, not what they are. Given identical flags, whatever the
destination, the output is byte-identical across runs.

Exit codes: 0 success, 2 usage error (a rejected parameter or state
included), 3 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import functools
import json
import shlex
import sys

import numpy as np

from . import engine as eng
from .channel import report_to_json
from .circuits import CNOT_UP, HBAR, build_SWAP, build_UD, build_VD, u14
from .interferometer import MziConfig, run_double_mzi
from .qmatrix import (InvalidStateError, ParameterError, _require_finite, matrix_to_json,
                      von_neumann_entropy)
from .spin_demon import SpinDemonParams, demon_state_from_spec, scatter

EXIT_USAGE = 2
EXIT_NO_CONVERGENCE = 3


def _fmt(x) -> str:
    return f"{x:.12g}"


def _write(path, text: str):
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


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


def _csv(rows: list[dict], argv: list[str], footer: list[str] = ()) -> str:
    header = list(rows[0].keys()) if rows else []
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(row[k]) for k in header))
    lines.extend(footer)
    lines.append("# flags: " + _recorded_flags(argv))
    return "\n".join(lines) + "\n"


def _spin_params(args) -> SpinDemonParams:
    return SpinDemonParams(theta=args.theta, eta=args.eta, phi=args.phi,
                           alpha=args.alpha, beta_phase=args.beta_phase)


def _demon_from_args(parser, spec: list[str]) -> np.ndarray:
    kind = spec[0]
    try:
        if kind in ("up", "down"):
            if len(spec) != 1:
                parser.error(f"--demon {kind} takes no extra values")
            return demon_state_from_spec(kind)
        if kind == "mixture":
            if len(spec) != 2:
                parser.error("--demon mixture needs one weight")
            return demon_state_from_spec("mixture", spec[1])
        if kind == "superposition":
            if len(spec) != 3:
                parser.error("--demon superposition needs two amplitudes")
            return demon_state_from_spec("superposition", (float(spec[1]), float(spec[2])))
    except (ParameterError, ValueError) as exc:
        parser.error(str(exc))
    parser.error(f"unknown demon kind {kind!r}")


def _input_state(parser, args) -> np.ndarray:
    if args.input == "chaotic":
        return demon_state_from_spec("mixture", 0.5)
    if args.input == "pure":
        if args.amplitudes is None:
            parser.error("--input pure requires --amplitudes RE IM RE IM")
        re_a, im_a, re_b, im_b = args.amplitudes
        return demon_state_from_spec("superposition", (complex(re_a, im_a), complex(re_b, im_b)))
    return demon_state_from_spec(args.input)


def cmd_channel(parser, args, argv) -> int:
    demon = _demon_from_args(parser, args.demon)
    rho_in = _input_state(parser, args)
    report = scatter(rho_in, demon, _spin_params(args))
    doc = report_to_json(report)
    doc["entropy_in"] = von_neumann_entropy(rho_in)
    doc["flags_cli"] = _recorded_flags(argv)
    _write(args.output, json.dumps(doc, indent=2) + "\n")
    return 0


_GATES = {
    "UD": lambda phase: build_UD(),
    "VD": lambda phase: build_VD(),
    "SWAP": lambda phase: build_SWAP(),
    "CNOT": lambda phase: CNOT_UP,
    "HBAR": lambda phase: HBAR,
    "U14": u14,
}


def cmd_gates(parser, args, argv) -> int:
    matrix = _GATES[args.which](args.phase)
    if args.format == "json":
        doc = matrix_to_json(matrix)
        doc["gate"] = args.which
        _write(args.output, json.dumps(doc, indent=2) + "\n")
    else:
        rows = []
        for i, row in enumerate(matrix):
            entry = {"row": i}
            for j, z in enumerate(row):
                entry[f"re{j}"] = float(z.real)
                entry[f"im{j}"] = float(z.imag)
            rows.append(entry)
        _write(args.output, _csv(rows, argv))
    return 0


def cmd_mzi(parser, args, argv) -> int:
    try:
        config = MziConfig(chi=args.chi, epsilon=args.epsilon,
                           flux_samples=args.flux_steps,
                           params=_spin_params(args),
                           arm_phase=args.arm_phase,
                           bypass_demon=args.bypass_demon)
    except ParameterError as exc:
        parser.error(str(exc))
    report = run_double_mzi(config)
    rows = [{"flux_rad": f, "p3": p3, "p4": p4}
            for f, p3, p4 in zip(report.flux, report.p3, report.p4)]
    footer = [f"# visibility = {_fmt(report.visibility)}"]
    _write(args.output, _csv(rows, argv, footer=footer))
    return 0


def cmd_engine(parser, args, argv) -> int:
    bd_delta = args.beta_d_delta[0]
    if args.steps < 1 and (args.mode == "sweep" or args.mode == "frontier" and args.pe is None):
        raise ParameterError(f"steps must be at least 1, got {args.steps}")
    if args.mode == "report":
        _, p_e = eng.thermal_wit(args.beta_delta, 1.0)
        eps = eng.resolve_epsilon(args.policy, p_e, bd_delta)
        report = eng.run_cycle(eng.EngineParams(
            beta=args.beta_delta, beta_d=bd_delta, delta_w=1.0, epsilon=eps))
        doc = dict(vars(report), field_ledger=dict(report.field_ledger),
                   epsilon=eps, policy=args.policy)
        _write(args.output, json.dumps(doc, indent=2) + "\n")
        return 0

    if args.mode == "sweep":
        end = bd_delta * args.beta_max_frac  # checked: linspace makes NaNs of an inf end
        _require_finite(beta_min=args.beta_min, beta_d_delta=bd_delta, beta_max=end)
        for beta in (args.beta_min, end):  # refused before linspace, which can overflow
            if beta < 0.0:
                raise ParameterError(f"beta must be non-negative, got {beta}")
        grid = np.linspace(args.beta_min, end, args.steps)
        rows = eng.sweep_beta(bd_delta, args.policy, grid)
        _write(args.output, _csv(rows, argv))
        return 0

    if args.mode == "frontier":
        if args.pe is not None:
            pes = [args.pe]
        else:
            _require_finite(pe_min=args.pe_min)
            pes = np.linspace(args.pe_min, 0.5, args.steps)
        rows = eng.frontier_epsilons(pes, args.beta_d_delta)
        bad = [r for r in rows if any(v != v for v in r.values())]
        if bad:
            sys.stderr.write(f"non-convergence on {len(bad)} rows\n")
            return EXIT_NO_CONVERGENCE
        _write(args.output, _csv(rows, argv))
        return 0

    # optimize
    _, p_e = eng.thermal_wit(args.beta_delta, 1.0)
    pe = args.pe if args.pe is not None else p_e
    if args.target == "power":
        result = eng.optimize_epsilon_power(pe, bd_delta)
    else:
        # βdΔ is only echoed into the report here; check it as the power target does
        if not 0.0 < bd_delta < np.inf:
            raise ParameterError(f"beta_d_delta must be finite and positive, got {bd_delta}")
        result = eng.optimize_epsilon_eta(pe)
    doc = dict(vars(result), target=args.target, p_e=pe, beta_d_delta=bd_delta)
    _write(args.output, json.dumps(doc, indent=2) + "\n")
    if not result.converged:
        sys.stderr.write(
            f"non-convergence: residual {result.residual:.3e}\n")
        return EXIT_NO_CONVERGENCE
    return 0


def _add_spin_flags(p: argparse.ArgumentParser):
    p.add_argument("--theta", type=float, default=0.0)
    p.add_argument("--eta", type=float, default=0.0)
    p.add_argument("--phi", type=float, default=0.0)
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--beta-phase", type=float, default=0.0)


def build_parser() -> argparse.ArgumentParser:
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
    p_chan.add_argument("--output", default=None)

    p_gates = sub.add_parser("gates", help="dump a gate or circuit matrix")
    p_gates.add_argument("--which", required=True, choices=sorted(_GATES))
    p_gates.add_argument("--phase", type=float, default=-np.pi / 2)
    p_gates.add_argument("--format", default="json", choices=["json", "csv"])
    p_gates.add_argument("--output", default=None)

    p_mzi = sub.add_parser("mzi", help="double Mach-Zehnder visibility CSV")
    _add_spin_flags(p_mzi)
    p_mzi.set_defaults(eta=np.pi)
    p_mzi.add_argument("--chi", type=float, default=np.pi / 2)
    p_mzi.add_argument("--epsilon", type=float, default=0.0)
    p_mzi.add_argument("--flux-steps", type=int, default=96)
    p_mzi.add_argument("--arm-phase", type=float, default=np.pi / 2)
    p_mzi.add_argument("--bypass-demon", action="store_true")
    p_mzi.add_argument("--output", default=None)

    p_eng = sub.add_parser("engine", help="two-cycle engine reports and sweeps")
    p_eng.add_argument("mode", choices=["report", "sweep", "frontier", "optimize"])
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
    p_eng.add_argument("--output", default=None)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built on first use: parsing leaves it
    unchanged, so one per process serves every call."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "channel":
            return cmd_channel(parser, args, argv)
        if args.command == "gates":
            return cmd_gates(parser, args, argv)
        if args.command == "mzi":
            return cmd_mzi(parser, args, argv)
        return cmd_engine(parser, args, argv)
    except (ParameterError, InvalidStateError) as exc:
        parser.error(str(exc))
    except eng.ConvergenceError as exc:
        sys.stderr.write(f"non-convergence: {exc}\n")
        return EXIT_NO_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
