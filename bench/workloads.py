"""The three seeded workloads of the qdemon benchmark.

Each workload turns a seed into an endless stream of op specs (plain numbers,
strings and numpy arrays; qdemon sees nothing else), runs one op per spec by
calling qdemon's public functions, and checks the op's outputs against the
invariants qdemon's docstrings promise. ``values`` of a checked op are the
numbers the reference check compares across commits.

Categorical choices (spin or generic channel, CLI mode and policy, demon
bypass) rotate with the op index instead of being drawn, so runs of any
seed carry the same mix; continuous parameters are drawn.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from itertools import count
from pathlib import Path

import numpy as np

# Modules, not names: the tracer patches module attributes, and ops must
# call through them for the first span of each op to be recorded.
from qdemon import channel, circuits, cli, interferometer, spin_demon

from harness import Declined

TWO_PI = 2.0 * math.pi

#: docstring invariants, with the slack the docstrings themselves allow
GAIN_SLACK = 1e-9
STATE_TOL = 1e-10
GAMMA_SLACK = 1e-12
MI_FLOOR = -1e-10
PROB_TOL = 1e-12
WORK_TOL = 1e-12
RESIDUAL_GATE = 1e-12

MZI_FLUX_SAMPLES = 512
SWEEP_STEPS = 21
FRONTIER_STEPS = 11
BETA_D_DELTA_RANGE = (0.5, 40.0)

SWEEP_HEADER = ["beta_delta", "p_e", "epsilon", "heat", "net_work", "eta_2cy", "eta_carnot"]
#: numeric fields of an ``engine report`` compared with the reference
REPORT_KEYS = ("p_e", "p_g", "heat", "w_minus", "w_plus", "w_out", "w_in", "net_work",
               "eta_local", "eta_2cy", "dit_out_entropy", "epsilon")
LEDGER_KEYS = ("pswap_mid_rotations", "pswap_final_rotations", "extraction_pulse")
OPTIMIZE_KEYS = ("epsilon_star", "objective_value", "p_e", "beta_d_delta")

#: how argparse words its own usage errors; any other ``error:`` of the CLI
#: is a parameter qdemon rejected
USAGE_ERRORS = ("argument ", "unrecognized arguments", "the following arguments",
                "one of the arguments", "ambiguous option")

#: (mode, policy or target) in the order engine_cli ops rotate through them
ENGINE_COMBOS = (
    ("report", "ideal"), ("report", "opt-power"), ("report", "opt-eta"),
    ("sweep", "ideal"), ("sweep", "opt-power"), ("sweep", "opt-eta"),
    ("frontier", None), ("optimize", "power"), ("optimize", "eta"),
)


class OpFailed(Exception):
    """The program exited non-zero other than by declining the request."""


@dataclass
class Checked:
    """Outcome of checking one op: failed invariants, reference values, bytes written."""

    problems: list[str] = field(default_factory=list)
    values: list[float] = field(default_factory=list)
    bytes_out: int = 0


# ---------------------------------------------------------------- generators

def haar_unitary(rng) -> np.ndarray:
    """Haar-random 2x2 unitary (QR of a complex Gaussian, phases fixed)."""
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def bloch_state(radius: float, direction) -> np.ndarray:
    """Qubit density matrix with Bloch vector ``radius * direction``."""
    x, y, z = radius * np.asarray(direction, dtype=float)
    return 0.5 * np.array([[1.0 + z, x - 1j * y], [x + 1j * y, 1.0 - z]])


def random_direction(rng) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def thermal_pe(beta_delta: float) -> float:
    """Excited-state population exp(-x)/(1 + exp(-x)) of a working qubit."""
    b = math.exp(-beta_delta)
    return b / (1.0 + b)


def spec_stream(workload, seed: int):
    """Endless, seed-determined stream of op specs for ``workload``."""
    rng = np.random.default_rng(seed)
    for index in count():
        yield workload.generate(rng, index)


def fingerprint(specs) -> str:
    """Hash of a list of specs, to detect a generator that drifted."""
    h = hashlib.sha256()
    for spec in specs:
        for key in sorted(spec):
            value = spec[key]
            h.update(key.encode())
            if isinstance(value, np.ndarray):
                h.update(np.ascontiguousarray(value).tobytes())
            else:
                h.update(repr(value).encode())
    return h.hexdigest()


# ---------------------------------------------------------------- checks

def _check_qubit_state(problems: list[str], label: str, rho) -> None:
    """Trace 1, Hermitian and PSD for a 2x2 matrix, in closed form."""
    a, b, c, d = rho[0, 0], rho[0, 1], rho[1, 0], rho[1, 1]
    if abs(a + d - 1.0) > STATE_TOL:
        problems.append(f"{label}: trace {a + d}")
    if max(abs(b - c.conjugate()), abs(a.imag), abs(d.imag)) > STATE_TOL:
        problems.append(f"{label}: not Hermitian")
    lam_min = 0.5 * (a.real + d.real) - math.hypot(0.5 * (a.real - d.real), abs(b))
    if lam_min < -STATE_TOL:
        problems.append(f"{label}: eigenvalue {lam_min:.3e}")


def _check_gain(problems: list[str], label: str, gain: float, bound: float) -> None:
    if not gain >= bound - GAIN_SLACK:
        problems.append(f"{label}: gain {gain!r} below bound {bound!r}")


def _matrix_values(m) -> list[float]:
    return [float(x) for z in np.asarray(m).reshape(-1) for x in (z.real, z.imag)]


# ---------------------------------------------------------------- workloads

class ChannelScan:
    """One random channel per op: build the config, apply it, gain/bound,
    mutual information; every 4th op also runs the double-dot protocol."""

    name = "channel_scan"

    def generate(self, rng, index: int) -> dict:
        spin = index % 2 == 0
        phase = index % 8
        if phase in (0, 1):
            radius = 1.0            # pure demon: |gamma| -> 1 on the spin ops
        elif phase in (4, 5):
            radius = 0.0            # maximally mixed demon
        else:
            radius = float(rng.uniform())
        if phase in (0, 1) or (spin and rng.uniform() < 0.5):
            direction = (0.0, 0.0, 1.0 if rng.uniform() < 0.5 else -1.0)
        else:
            direction = random_direction(rng)
        demon = bloch_state(radius, direction)
        r_in = 1.0 if index % 3 == 0 else float(rng.uniform()) ** (1.0 / 3.0)
        spec = {
            "kind": "spin" if spin else "generic",
            "demon": demon,
            "rho_in": bloch_state(r_in, random_direction(rng)),
            "params": tuple(float(x) for x in rng.uniform(0.0, TWO_PI, size=5)),
            "scattering": None,
            "leads": None,
            "dd": None,
            "dd_basis": None,
        }
        if not spin:
            spec["scattering"] = haar_unitary(rng)
            spec["leads"] = tuple(haar_unitary(rng) for _ in range(4))
        if index % 4 == 3:
            spec["dd"] = tuple(float(x) for x in rng.uniform(0.0, TWO_PI, size=4))
            spec["dd_basis"] = "physical" if index % 8 == 3 else "operational"
        return spec

    def run(self, spec):
        if spec["kind"] == "spin":
            config = spin_demon.spin_config(spin_demon.SpinDemonParams(*spec["params"]),
                                             spec["demon"])
        else:
            config = channel.ChannelConfig(scattering=spec["scattering"],
                                           lead_unitaries=spec["leads"],
                                           demon_state=spec["demon"])
        report = channel.apply_channel(spec["rho_in"], config)
        gain_bound = channel.entropy_gain(spec["rho_in"], config)
        mi = channel.mutual_information(report.joint_out)
        dd = None
        if spec["dd"] is not None:
            dd = circuits.double_dot_protocol(spec["rho_in"], spec["demon"],
                                              circuits.DoubleDotConfig(*spec["dd"]),
                                              dot_basis=spec["dd_basis"])
        return config, report, gain_bound, mi, dd

    def check(self, spec, out) -> Checked:
        config, report, (gain, bound), mi, dd = out
        res = Checked()
        p = res.problems
        _check_qubit_state(p, "apply_channel rho_out", report.rho_out)
        _check_gain(p, "apply_channel", report.entropy_gain, report.lower_bound)
        _check_gain(p, "entropy_gain", gain, bound)
        s = config.scattering
        limit = 2.0 * abs(s[0, 0] * s[1, 0].conjugate())
        if abs(report.gamma) > limit + GAMMA_SLACK:
            p.append(f"|gamma| {abs(report.gamma)!r} above 2|s00 s10*| {limit!r}")
        if not mi >= MI_FLOOR:
            p.append(f"mutual information {mi!r}")
        res.values = _matrix_values(report.rho_out) + [
            report.entropy_gain, report.lower_bound,
            report.gamma.real, report.gamma.imag, gain, bound, mi]
        if dd is not None:
            _check_qubit_state(p, "double_dot rho_out", dd.rho_out)
            _check_gain(p, "double_dot", dd.entropy_gain, dd.lower_bound)
            res.values += _matrix_values(dd.rho_out) + [dd.entropy_gain, dd.lower_bound]
        return res


class MziVisibility:
    """One double-MZI run per op over 512 flux samples; every 10th op
    bypasses the demon and every 10th (another) has a pure demon."""

    name = "mzi_visibility"

    def generate(self, rng, index: int) -> dict:
        chi = float(rng.uniform(0.0, 0.5 * math.pi))
        epsilon = float(rng.uniform(0.0, 0.5))
        params = tuple(float(x) for x in rng.uniform(0.0, TWO_PI, size=5))
        return {
            "chi": chi,
            "epsilon": 0.0 if index % 10 == 0 else epsilon,
            "params": params,
            "bypass": index % 10 == 9,
        }

    def run(self, spec):
        return interferometer.run_double_mzi(interferometer.MziConfig(
            chi=spec["chi"], epsilon=spec["epsilon"],
            flux_samples=MZI_FLUX_SAMPLES,
            params=spin_demon.SpinDemonParams(*spec["params"]),
            bypass_demon=spec["bypass"]))

    def check(self, spec, report) -> Checked:
        res = Checked()
        p = res.problems
        p3 = np.asarray(report.p3)
        p4 = np.asarray(report.p4)
        if p3.shape != (MZI_FLUX_SAMPLES,) or p4.shape != (MZI_FLUX_SAMPLES,):
            p.append(f"expected {MZI_FLUX_SAMPLES} samples, got {p3.shape} {p4.shape}")
            return res
        defect = float(np.max(np.abs(p3 + p4 - 1.0)))
        if not defect <= PROB_TOL:
            p.append(f"p3 + p4 deviates from 1 by {defect:.3e}")
        if not (p3.min() >= -PROB_TOL and p3.max() <= 1.0 + PROB_TOL):
            p.append("p3 outside [0, 1]")
        vis = report.visibility
        if not -PROB_TOL <= vis <= 1.0 + PROB_TOL:
            p.append(f"visibility {vis!r} outside [0, 1]")
        res.values = [vis] + [float(x) for x in p3[::64]]
        return res


class EngineCli:
    """One in-process ``qdemon engine ...`` request per op, written to a file.

    beta_d*delta is log-uniform over [0.5, 40], beta*delta uniform in
    [0, beta_d*delta]; ``--pe`` takes the p_e those give, down to ~4e-18.
    """

    name = "engine_cli"

    def __init__(self, out_dir: Path):
        self.out_dir = Path(out_dir)

    def generate(self, rng, index: int) -> dict:
        mode, choice = ENGINE_COMBOS[index % len(ENGINE_COMBOS)]
        lo, hi = (math.log(x) for x in BETA_D_DELTA_RANGE)
        bdd = math.exp(rng.uniform(lo, hi))
        bd = float(rng.uniform(0.0, bdd))
        pe = thermal_pe(bd)
        ext = "json" if mode in ("report", "optimize") else "csv"
        argv = ["engine", mode]
        rows, header = None, None
        if mode == "report":
            argv += ["--beta-delta", repr(bd), "--beta-d-delta", repr(bdd), "--policy", choice]
        elif mode == "sweep":
            argv += ["--beta-d-delta", repr(bdd), "--policy", choice,
                     "--beta-max-frac", repr(bd / bdd), "--steps", str(SWEEP_STEPS)]
            rows, header = SWEEP_STEPS, SWEEP_HEADER
        elif mode == "frontier":
            bdd2 = math.exp(rng.uniform(lo, hi))
            argv += ["--beta-d-delta", repr(bdd), repr(bdd2), "--pe-min", repr(pe),
                     "--steps", str(FRONTIER_STEPS)]
            rows = FRONTIER_STEPS
            header = ["p_e", "eps_eta"] + [f"eps_w_bd{b:g}" for b in (bdd, bdd2)]
        else:
            argv += ["--target", choice, "--beta-d-delta", repr(bdd), "--pe", repr(pe)]
        return {"argv": argv, "ext": ext, "mode": mode, "rows": rows, "header": header}

    def run(self, spec) -> Path:
        """Run the request; raise ``Declined`` when qdemon turns it down the
        documented way (exit EXIT_NO_CONVERGENCE with a non-convergence
        message, or a usage error that carries a rejected parameter)."""
        path = self.out_dir / f"op.{spec['ext']}"
        path.unlink(missing_ok=True)
        err = io.StringIO()
        try:
            with contextlib.redirect_stderr(err):
                code = cli.main(spec["argv"] + ["--output", str(path)])
        except SystemExit as exc:
            message = err.getvalue().rpartition("error: ")[2].strip()
            if exc.code == 2 and message and not message.startswith(USAGE_ERRORS):
                raise Declined(f"rejected parameter: {message}") from None
            raise
        if code == cli.EXIT_NO_CONVERGENCE and err.getvalue().startswith("non-convergence"):
            raise Declined(err.getvalue().strip())
        if code != 0:
            raise OpFailed(f"exit code {code}: {err.getvalue().strip()}")
        return path

    def check(self, spec, path: Path) -> Checked:
        res = Checked()
        p = res.problems
        text = path.read_text(encoding="utf-8")
        res.bytes_out = len(text.encode("utf-8"))
        if spec["mode"] in ("report", "optimize"):
            doc = json.loads(text)
            if spec["mode"] == "report":
                scale = max(1.0, abs(doc["w_plus"]), abs(doc["w_minus"]))
                if abs(doc["w_out"] - (doc["w_plus"] - doc["w_minus"])) > WORK_TOL * scale:
                    p.append("w_out != w_plus - w_minus")
                res.values = ([doc[k] for k in REPORT_KEYS]
                              + [doc["field_ledger"][k] for k in LEDGER_KEYS])
            else:
                if doc["converged"] is not True or not doc["residual"] <= RESIDUAL_GATE:
                    p.append(f"optimize reported exit 0 but converged={doc['converged']}")
                if not 0.0 <= doc["epsilon_star"] <= 0.5:
                    p.append(f"epsilon_star {doc['epsilon_star']!r} outside [0, 1/2]")
                res.values = [doc[k] for k in OPTIMIZE_KEYS]
            return res
        lines = text.splitlines()
        data = [ln for ln in lines[1:] if not ln.startswith("#")]
        if lines[0].split(",") != spec["header"]:
            p.append(f"CSV header {lines[0]!r}, expected {','.join(spec['header'])!r}")
        if len(data) != spec["rows"]:
            p.append(f"CSV has {len(data)} rows, expected {spec['rows']}")
        if not lines[-1].startswith("# flags: "):
            p.append("CSV lacks the trailing flags line")
        res.values = [float(x) for ln in data for x in ln.split(",")]
        return res


def make_workloads(out_dir: Path) -> dict:
    return {w.name: w for w in (ChannelScan(), MziVisibility(), EngineCli(out_dir))}


def values_match(got, want, rtol: float, atol: float) -> bool:
    """Elementwise |got - want| <= rtol*|want| + atol; NaN matches NaN only."""
    if len(got) != len(want):
        return False
    for a, b in zip(got, want):
        if math.isnan(b) or math.isnan(a):
            if not (math.isnan(a) and math.isnan(b)):
                return False
        elif not abs(a - b) <= rtol * abs(b) + atol:
            return False
    return True
