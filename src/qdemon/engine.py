"""Two-cycle heat engine built on the work-extracting partial SWAP.

Two working qubits (level spacing delta_w) thermalise against a single
reservoir at inverse temperature beta, swap their mixedness against a pair of
energy-degenerate demon qubits prepared in near-pure opposite operational
states (impurity epsilon), and the deterministically excited qubit is
drained by a half-Rabi pulse. Restoring the demon pair against a second
reservoir at beta_d costs T_d * (entropy dumped on the pair); that cost is
the only work reduction, so the local heat-to-work conversion runs at unit
efficiency while the overall two-cycle efficiency stays below Carnot.

All energies are reported in the same units as delta_w; entropies in nats.
Every function here is pure; grid sweeps may be evaluated in any order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .circuits import CNOT_UP, HBAR, half_rabi, u14
from .qmatrix import (
    ConvergenceError,
    InvalidStateError,
    ParameterError,
    dag,
    partial_trace,
    tensor,
    von_neumann_entropy,
)

#: open both ends of every epsilon search bracket by this much (keeps ln finite)
EPS_FLOOR = 1e-15

#: cap on beta*delta_w: exp(-745) is the smallest subnormal, so beyond the cap
#: p_e stays 5e-324 (and the heat positive) instead of underflowing to 0.0
BETA_DELTA_CAP = 745.0

_POLICIES = ("ideal", "opt-power", "opt-eta")


def _require_finite(**values: float) -> None:
    """Raise ParameterError for the first NaN or infinite value, which every
    range check would otherwise let through."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ParameterError(f"{name} must be finite, got {value}")


def bit_entropy(x: float) -> float:
    """H[x] = -x ln x - (1-x) ln(1-x) in nats, with H[0] = H[1] = 0."""
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return float(-x * math.log(x) - (1.0 - x) * math.log(1.0 - x))


def bit_entropy_prime(x: float) -> float:
    """H'[x] = ln((1-x)/x); diverges at the endpoints."""
    if not 0.0 < x < 1.0:
        raise ParameterError(f"H' needs x in (0, 1), got {x}")
    return float(math.log((1.0 - x) / x))


@dataclass(frozen=True)
class EngineParams:
    """Inverse temperatures (working reservoir beta, demon reservoir beta_d),
    working-qubit level spacing delta_w > 0, and demon impurity epsilon."""

    beta: float
    beta_d: float
    delta_w: float
    epsilon: float = 0.0

    def __post_init__(self):
        _require_finite(beta=self.beta, beta_d=self.beta_d, delta_w=self.delta_w)
        if self.delta_w <= 0.0:
            raise ParameterError(f"delta_w must be positive, got {self.delta_w}")
        if self.beta < 0.0:
            raise ParameterError(f"beta must be non-negative, got {self.beta}")
        if self.beta_d <= 0.0:
            raise ParameterError(f"beta_d must be positive, got {self.beta_d}")
        if not 0.0 <= self.epsilon <= 0.5:
            raise ParameterError(f"epsilon must lie in [0, 1/2], got {self.epsilon}")


@dataclass(frozen=True)
class CycleReport:
    """Energy/entropy bookkeeping of one engine cycle (a pair of swaps).

    heat = 2 delta_w (p_e - epsilon) is the heat drawn per cycle in steady
    operation; w_out = w_plus - w_minus equals heat, so eta_local = 1
    whenever heat is positive. net_work = w_out - w_in subtracts the demon
    restoration cost; eta_local and eta_2cy are NaN when no heat is absorbed
    (epsilon >= p_e). dit_out_entropy is per demon qubit. field_ledger lists
    the average energy the classical drive exchanges at each stage
    (positive = field supplies energy).
    """

    p_e: float
    p_g: float
    heat: float
    w_minus: float
    w_plus: float
    w_out: float
    w_in: float
    net_work: float
    eta_local: float
    eta_2cy: float
    dit_out_entropy: float
    field_ledger: tuple[tuple[str, float], ...] = field(default=())


@dataclass(frozen=True)
class OptimizationResult:
    """Root-finding outcome for an optimal demon impurity.

    residual is the absolute stationarity-equation value at epsilon_star
    (<= 1e-12 when converged). roots lists every sign change found in the
    bracket scan (normally exactly one).
    """

    epsilon_star: float
    objective_value: float
    converged: bool
    iterations: int
    residual: float
    roots: tuple[float, ...] = field(default=())


def thermal_wit(beta: float, delta_w: float) -> tuple[float, float, np.ndarray]:
    """Gibbs populations (p_g, p_e) and the diagonal state in the (e, g) basis.

    Z = 1 + exp(-beta*delta_w), p_g = 1/Z, p_e = exp(-beta*delta_w)/Z.
    """
    _require_finite(beta=beta, delta_w=delta_w)
    if delta_w <= 0.0:
        raise ParameterError(f"delta_w must be positive, got {delta_w}")
    if beta < 0.0:
        raise ParameterError(f"beta must be non-negative, got {beta}")
    x = min(beta * delta_w, BETA_DELTA_CAP)
    boltz = math.exp(-x)
    z = 1.0 + boltz
    p_g = 1.0 / z
    p_e = boltz / z
    return p_g, p_e, np.diag([p_e, p_g]).astype(complex)


def _net_work_per_delta(p_e: float, eps: float, beta_d_delta: float) -> float:
    x = p_e + eps * (1.0 - 2.0 * p_e)
    return 2.0 * (p_e - eps - (bit_entropy(x) - bit_entropy(eps)) / beta_d_delta)


def _entropy_cost_ratio(p_e: float, eps: float) -> float:
    """(H[p_e + eps(1-2p_e)] - H[eps]) / (p_e - eps); minimising it maximises
    the two-cycle efficiency for every demon temperature."""
    x = p_e + eps * (1.0 - 2.0 * p_e)
    return (bit_entropy(x) - bit_entropy(eps)) / (p_e - eps)


def pswap_route(params: EngineParams, phase: float = -np.pi / 2) -> dict:
    """Density-matrix route through one cycle: states, marginals, and the
    per-stage field energies, all derived from the gate sequence alone.

    Returns a dict with the final wit/dit marginals of both pairs, the
    stage-resolved field ledger, and the energy figures (w_minus, w_plus,
    heat) in the units of delta_w. Used as the independent cross-check of
    the closed-form bookkeeping.
    """
    delta = params.delta_w
    eps = params.epsilon
    _, p_e, rho_w = thermal_wit(params.beta, delta)
    dits = (np.diag([1.0 - eps, eps]).astype(complex),
            np.diag([eps, 1.0 - eps]).astype(complex))

    stages = (CNOT_UP,
              tensor(u14(phase), HBAR),
              CNOT_UP,
              tensor(u14(phase), np.eye(2, dtype=complex)))

    def wit_energy(joint):
        return delta * float(partial_trace(joint, "first")[0, 0].real)

    stage_energy = np.zeros(len(stages))
    finals = []
    for dit in dits:
        joint = tensor(rho_w, dit)
        prev = wit_energy(joint)
        for k, g in enumerate(stages):
            joint = g @ joint @ dag(g)
            now = wit_energy(joint)
            stage_energy[k] += now - prev
            prev = now
        finals.append(joint)

    wit_up = partial_trace(finals[0], "first")
    wit_dn = partial_trace(finals[1], "first")
    dit_up = partial_trace(finals[0], "second")
    dit_dn = partial_trace(finals[1], "second")

    # extraction: half-Rabi NOT on the deterministically excited wit
    pulse = half_rabi(phase)
    wit_dn_after = pulse @ wit_dn @ dag(pulse)
    w_plus = delta * float((wit_dn[0, 0] - wit_dn_after[0, 0]).real)

    w_minus = delta * float((wit_up[0, 0] + wit_dn[0, 0]).real) - 2.0 * p_e * delta
    leftover = delta * float((wit_up[0, 0] + wit_dn_after[0, 0]).real)
    heat = 2.0 * p_e * delta - leftover

    return {
        "wit_marginals": (wit_up, wit_dn),
        "dit_marginals": (dit_up, dit_dn),
        "dit_marginals_unrotated": (dag(HBAR) @ dit_up @ HBAR,
                                    dag(HBAR) @ dit_dn @ HBAR),
        "joints": tuple(finals),
        "stage_field_energy": tuple(float(e) for e in stage_energy),
        "w_minus": w_minus,
        "w_plus": w_plus,
        "heat": heat,
        "dit_entropies": (von_neumann_entropy(dit_up), von_neumann_entropy(dit_dn)),
    }


def run_cycle(params: EngineParams, quantum_check: bool = True) -> CycleReport:
    """Closed-form bookkeeping of one cycle, cross-checked against the
    density-matrix route when ``quantum_check`` is set.

    Per pair of swaps: w_minus = delta_w (1 - 2 p_e) is the average energy
    the drive must supply during the mid-circuit rotations, w_plus =
    (1 - 2 eps) delta_w is extracted by the half-Rabi pulse, heat = w_out =
    2 delta_w (p_e - eps), and w_in = (2/beta_d)(H[p_e + eps(1-2p_e)] -
    H[eps]) restores the demon pair.
    """
    delta = params.delta_w
    eps = params.epsilon
    p_g, p_e, _ = thermal_wit(params.beta, delta)

    x = p_e + eps * (1.0 - 2.0 * p_e)
    heat = 2.0 * delta * (p_e - eps)
    w_minus = delta * (1.0 - 2.0 * p_e)
    w_plus = (1.0 - 2.0 * eps) * delta
    w_out = heat  # identical by construction: w_plus - w_minus up to round-off
    dit_entropy = bit_entropy(x)
    ds_total = 2.0 * (dit_entropy - bit_entropy(eps))
    w_in = ds_total / params.beta_d
    net = w_out - w_in
    eta_local = w_out / heat if heat > 0.0 else math.nan
    eta_2cy = net / heat if heat > 0.0 else math.nan

    if quantum_check:
        route = pswap_route(params)
        checks = (
            abs(route["w_minus"] - w_minus),
            abs(route["w_plus"] - w_plus),
            abs(route["heat"] - heat),
            abs(route["dit_entropies"][0] - dit_entropy),
            abs(route["dit_entropies"][1] - dit_entropy),
            abs(route["stage_field_energy"][1] - w_minus),
            abs(route["stage_field_energy"][3]),
        )
        if max(checks) > 1e-10 * max(1.0, delta):
            raise InvalidStateError(
                f"gate route disagrees with closed forms by {max(checks):.3e}")

    ledger = (
        ("pswap_mid_rotations", w_minus),
        ("pswap_final_rotations", 0.0),
        ("extraction_pulse", -w_plus),
    )
    return CycleReport(
        p_e=p_e, p_g=p_g, heat=heat,
        w_minus=w_minus, w_plus=w_plus, w_out=w_out, w_in=w_in,
        net_work=net, eta_local=eta_local, eta_2cy=eta_2cy,
        dit_out_entropy=dit_entropy, field_ledger=ledger,
    )


def _bisect(f, lo: float, hi: float, max_iter: int = 200):
    """Plain bisection; assumes f(lo) and f(hi) have opposite signs. Stops on
    an exact zero, a bracket narrower than 1e-17, or a midpoint that rounds
    onto an end of the bracket (floats from 1/16 up are more than 1e-17 apart)."""
    flo = f(lo)
    root = 0.5 * (lo + hi)
    for it in range(1, max_iter + 1):
        root = 0.5 * (lo + hi)
        fr = f(root)
        if fr == 0.0 or (hi - lo) < 1e-17 or root in (lo, hi):
            return root, fr, it
        if (fr < 0.0) == (flo < 0.0):
            lo, flo = root, fr
        else:
            hi = root
    return root, f(root), max_iter


def optimize_epsilon_power(p_e: float, beta_d_delta: float) -> OptimizationResult:
    """Demon impurity maximising the net work per cycle.

    Solves s(eps) = xi H'[x] - H'[eps] + beta_d*delta_w = 0, with xi = 1-2p_e
    and x = p_e + eps xi, by bisection on (0, min(p_e, 1/2)). There s' =
    1/(eps(1-eps)) - xi^2/(x(1-x)) > 0 (eps <= x <= 1-eps and xi^2 < 1), and
    the net work N has N' = -2 s/(beta_d delta_w): N is strictly concave, so a
    sign change of s pins its maximum. Without one (the root lies below the
    1e-15 floor, or N rises up to the upper end) N is monotone, and the end
    with the larger N is reported with iterations = 0 and roots = ().
    objective_value is net work in units of delta_w.
    """
    if not 0.0 < p_e <= 0.5:
        raise ParameterError(f"p_e must lie in (0, 1/2], got {p_e}")
    _require_finite(beta_d_delta=beta_d_delta)
    if beta_d_delta <= 0.0:
        raise ParameterError(f"beta_d_delta must be positive, got {beta_d_delta}")
    xi = 1.0 - 2.0 * p_e

    def stationarity(eps: float) -> float:
        return (xi * bit_entropy_prime(p_e + eps * xi)
                - bit_entropy_prime(eps) + beta_d_delta)

    def objective(eps: float) -> float:
        return _net_work_per_delta(p_e, eps, beta_d_delta)

    lo = EPS_FLOOR
    hi = min(p_e, 0.5) - EPS_FLOOR
    if stationarity(lo) * stationarity(hi) < 0.0:
        eps, fr, iters = _bisect(stationarity, lo, hi)
        roots = (eps,)
    else:
        eps, iters, roots = max((lo, hi), key=objective), 0, ()
        fr = stationarity(eps)
    residual = abs(fr)
    return OptimizationResult(
        epsilon_star=eps, objective_value=objective(eps),
        converged=residual <= 1e-12, iterations=iters, residual=residual,
        roots=roots,
    )


def optimize_epsilon_eta(p_e: float) -> OptimizationResult:
    """Demon impurity maximising the two-cycle efficiency.

    The stationarity equation
    [(1-2p_e) H'[p_e + eps(1-2p_e)] - H'[eps]](p_e - eps)
    + H[p_e + eps(1-2p_e)] - H[eps] = 0
    contains no demon temperature, so the root maximises the efficiency for
    every beta_d. The bracket (0, p_e) is scanned on a 1,001-point grid and
    every sign change is bisected; the returned objective is the
    entropy-cost ratio whose minimum the root realises. At p_e = 1/2 the
    root sits exactly on the boundary eps = 1/2. The scan is one array
    operation that repeats the scalar formulas in the same order, and its
    results are those of a point-by-point scalar scan, which a test keeps
    as the oracle. numpy's log may differ from math.log in the last bit; that
    can change a result only where a scan decision (sign, exact zero, least
    |value|) hinges on the last bit of a grid value.
    """
    if not 0.0 < p_e <= 0.5:
        raise ParameterError(f"p_e must lie in (0, 1/2], got {p_e}")
    if p_e == 0.5:
        return OptimizationResult(
            epsilon_star=0.5, objective_value=0.0, converged=True,
            iterations=0, residual=0.0, roots=(0.5,),
        )
    xi = 1.0 - 2.0 * p_e

    def stationarity(eps: float) -> float:
        return ((xi * bit_entropy_prime(p_e + eps * xi) - bit_entropy_prime(eps))
                * (p_e - eps)
                + bit_entropy(p_e + eps * xi) - bit_entropy(eps))

    lo = EPS_FLOOR
    hi = p_e - EPS_FLOOR
    grid = np.linspace(lo, hi, 1001)
    x = p_e + grid * xi
    in_domain = (0.0 < x) & (x < 1.0) & (0.0 < grid) & (grid < 1.0)
    if not in_domain.all():
        # raises the ParameterError of the first grid point outside H's domain
        stationarity(float(grid[np.argmin(in_domain)]))
    # stationarity() on the whole grid, same formulas and operation order
    values = ((xi * np.log((1.0 - x) / x) - np.log((1.0 - grid) / grid))
              * (p_e - grid)
              + (-x * np.log(x) - (1.0 - x) * np.log(1.0 - x))
              - (-grid * np.log(grid) - (1.0 - grid) * np.log(1.0 - grid)))
    zero = values[:-1] == 0.0
    change = values[:-1] * values[1:] < 0.0
    roots = []
    total_iters = 0
    for i in np.flatnonzero(zero | change):
        if zero[i]:
            roots.append(float(grid[i]))
        else:
            root, _, iters = _bisect(stationarity, float(grid[i]), float(grid[i + 1]))
            roots.append(root)
            total_iters += iters
    if not roots:
        best = float(grid[int(np.argmin(np.abs(values)))])
        return OptimizationResult(
            epsilon_star=best, objective_value=_entropy_cost_ratio(p_e, best),
            converged=False, iterations=total_iters,
            residual=abs(stationarity(best)), roots=(),
        )
    best = min(roots, key=lambda r: _entropy_cost_ratio(p_e, r))
    residual = abs(stationarity(best))
    return OptimizationResult(
        epsilon_star=best, objective_value=_entropy_cost_ratio(p_e, best),
        converged=residual <= 1e-12, iterations=total_iters,
        residual=residual, roots=tuple(roots),
    )


def parse_policy(policy: str) -> tuple[str, float | None]:
    """Split a policy string into (name, fixed epsilon or None)."""
    if policy in _POLICIES:
        return policy, None
    if policy.startswith("fixed:"):
        eps = float(policy.split(":", 1)[1])
        if not 0.0 <= eps <= 0.5:
            raise ParameterError(f"fixed epsilon must lie in [0, 1/2], got {eps}")
        return "fixed", eps
    raise ParameterError(
        f"unknown policy {policy!r}; expected ideal, opt-power, opt-eta or fixed:<eps>")


def resolve_epsilon(policy: str, p_e: float, beta_d_delta: float) -> float:
    """Demon impurity selected by a policy at the given operating point."""
    name, fixed = parse_policy(policy)
    if name == "ideal":
        return 0.0
    if name == "fixed":
        return float(fixed)
    if name == "opt-power":
        result = optimize_epsilon_power(p_e, beta_d_delta)
    else:
        result = optimize_epsilon_eta(p_e)
    if not result.converged:
        raise ConvergenceError(
            f"policy {policy} failed to converge at p_e={p_e} "
            f"(residual {result.residual:.3e})")
    return result.epsilon_star


def minimal_beta(beta_d: float, delta_w: float, policy: str = "ideal") -> float:
    """Largest working-reservoir beta with positive net work under a policy.

    Scans beta on 257 points over [0, beta_d], brackets the last sign change
    of the net work, and bisects it. Returns NaN when the engine never produces
    positive work (e.g. the ideal policy at beta_d*delta_w <= 2 ln 2).
    """
    _require_finite(beta_d=beta_d, delta_w=delta_w)
    if beta_d <= 0.0 or delta_w <= 0.0:
        raise ParameterError("beta_d and delta_w must be positive")
    beta_d_delta = beta_d * delta_w

    def net(beta: float) -> float:
        _, p_e, _ = thermal_wit(beta, delta_w)
        eps = resolve_epsilon(policy, p_e, beta_d_delta)
        return _net_work_per_delta(p_e, eps, beta_d_delta)

    grid = np.linspace(0.0, beta_d, 257)
    values = [net(b) for b in grid]
    positive = [i for i, v in enumerate(values) if v > 0.0]
    if not positive:
        return math.nan
    i = positive[-1]
    if i == len(grid) - 1:
        return float(grid[-1])
    root, _, _ = _bisect(net, float(grid[i]), float(grid[i + 1]), max_iter=100)
    return float(root)


def sweep_beta(beta_d_delta: float, policy: str, beta_deltas) -> list[dict]:
    """One row per working temperature: populations, the policy's epsilon,
    heat and net work in units of delta_w, and both efficiencies.

    Rows are pure functions of their grid point (safe to compute in
    parallel); ordering follows the input grid.
    """
    rows = []
    for bd in np.asarray(beta_deltas, dtype=float):
        _, p_e, _ = thermal_wit(float(bd), 1.0)
        eps = resolve_epsilon(policy, p_e, beta_d_delta)
        report = run_cycle(EngineParams(beta=bd, beta_d=beta_d_delta,
                                        delta_w=1.0, epsilon=eps),
                           quantum_check=False)
        rows.append({
            "beta_delta": float(bd),
            "p_e": report.p_e,
            "epsilon": eps,
            "heat": report.heat,
            "net_work": report.net_work,
            "eta_2cy": report.eta_2cy,
            "eta_carnot": 1.0 - bd / beta_d_delta,
        })
    return rows


def frontier_epsilons(pe_values, beta_d_deltas) -> list[dict]:
    """Optimal impurities versus excited-state occupation.

    Each row carries eps_eta (demon-temperature independent) and one
    eps_w column per requested beta_d*delta_w.
    """
    bds = [float(b) for b in beta_d_deltas]
    rows = []
    for pe in np.asarray(pe_values, dtype=float):
        row = {"p_e": float(pe), "eps_eta": optimize_epsilon_eta(float(pe)).epsilon_star}
        for bd in bds:
            row[f"eps_w_bd{bd:g}"] = optimize_epsilon_power(float(pe), bd).epsilon_star
        rows.append(row)
    return rows
