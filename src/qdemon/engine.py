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

from .qmatrix import ConvergenceError, ParameterError, _require_finite

#: both ends of every epsilon search bracket stay this far inside (0, p_e).
#: The logit-space search needs no floor; it stays while the benchmark's
#: recorded outputs and declines rely on roots below it being reported as ends
EPS_FLOOR = 1e-15

#: cap on beta*delta_w: exp(-745) is the smallest subnormal, so beyond the cap
#: p_e stays 5e-324 (and the heat positive) instead of underflowing to 0.0
BETA_DELTA_CAP = 745.0

_POLICIES = ("ideal", "opt-power", "opt-eta")


def bit_entropy(x: float) -> float:
    """H[x] = -x ln x - (1-x) ln(1-x) in nats, with H[0] = H[1] = 0."""
    if not 0.0 < x < 1.0:
        _require_finite(x=x)
        return 0.0
    return float(-x * math.log(x) - (1.0 - x) * math.log1p(-x))


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
        thermal_wit(self.beta, self.delta_w)
        _check_beta_d(self.beta_d)
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
    (<= 1e-12 when converged). roots is (epsilon_star,) when the stationarity
    equation changes sign on the search bracket and () when the answer is an
    end of it. iterations counts Newton steps in t = ln(eps/(1-eps)).
    """

    epsilon_star: float
    objective_value: float
    converged: bool
    iterations: int
    residual: float
    roots: tuple[float, ...] = field(default=())


def _check_beta_d(beta_d: float) -> None:
    _require_finite(beta_d=beta_d)
    if beta_d <= 0.0:
        raise ParameterError(f"beta_d must be positive, got {beta_d}")


def thermal_wit(beta: float, delta_w: float) -> tuple[float, float]:
    """Gibbs populations (p_g, p_e) of a working qubit: Z = 1 + exp(-beta*delta_w),
    p_g = 1/Z, p_e = exp(-beta*delta_w)/Z."""
    _require_finite(beta=beta, delta_w=delta_w)
    if delta_w <= 0.0:
        raise ParameterError(f"delta_w must be positive, got {delta_w}")
    if beta < 0.0:
        raise ParameterError(f"beta must be non-negative, got {beta}")
    boltz = math.exp(-min(beta * delta_w, BETA_DELTA_CAP))
    z = 1.0 + boltz
    return 1.0 / z, boltz / z


def _entropy_rise(p_e: float, eps: float) -> float:
    """H[x] - H[eps], x = p_e + eps(1-2p_e): the entropy a demon qubit takes up."""
    return bit_entropy(p_e + eps * (1.0 - 2.0 * p_e)) - bit_entropy(eps)


def _net_work_per_delta(p_e: float, eps: float, beta_d_delta: float) -> float:
    return 2.0 * (p_e - eps - _entropy_rise(p_e, eps) / beta_d_delta)


def _entropy_cost_ratio(p_e: float, eps: float) -> float:
    """R = (H[p_e + eps(1-2p_e)] - H[eps]) / (p_e - eps); minimising it
    maximises the two-cycle efficiency for every demon temperature."""
    return _entropy_rise(p_e, eps) / (p_e - eps)


def _cycle(p_e: float, eps: float, delta: float, beta_d: float):
    """(heat, H[x], w_in, net work, eta_2cy) of one cycle, x = p_e + eps(1-2p_e)."""
    heat = 2.0 * delta * (p_e - eps)
    dit_entropy = bit_entropy(p_e + eps * (1.0 - 2.0 * p_e))
    w_in = 2.0 * (dit_entropy - bit_entropy(eps)) / beta_d
    net = heat - w_in
    return heat, dit_entropy, w_in, net, net / heat if heat > 0.0 else math.nan


def run_cycle(params: EngineParams) -> CycleReport:
    """Closed-form bookkeeping of one cycle.

    Per pair of swaps: w_minus = delta_w (1 - 2 p_e) is the average energy
    the drive must supply during the mid-circuit rotations, w_plus =
    (1 - 2 eps) delta_w is extracted by the half-Rabi pulse, heat = w_out =
    2 delta_w (p_e - eps), and w_in = (2/beta_d)(H[p_e + eps(1-2p_e)] -
    H[eps]) restores the demon pair. ``tests/test_symbolic.py`` derives these
    figures from the gates of ``circuits.pswap_gate``.
    """
    delta, eps = params.delta_w, params.epsilon
    p_g, p_e = thermal_wit(params.beta, delta)
    heat, dit_entropy, w_in, net, eta_2cy = _cycle(p_e, eps, delta, params.beta_d)
    w_minus = delta * (1.0 - 2.0 * p_e)
    w_plus = (1.0 - 2.0 * eps) * delta
    w_out = heat  # identical by construction: w_plus - w_minus up to round-off
    eta_local = w_out / heat if heat > 0.0 else math.nan

    ledger = (("pswap_mid_rotations", w_minus), ("pswap_final_rotations", 0.0),
              ("extraction_pulse", -w_plus))
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
    lo_negative = f(lo) < 0.0
    root = 0.5 * (lo + hi)
    for it in range(1, max_iter + 1):
        root = 0.5 * (lo + hi)
        fr = f(root)
        if fr == 0.0 or (hi - lo) < 1e-17 or root == lo or root == hi:
            return root, fr, it
        if (fr < 0.0) == lo_negative:
            lo = root
        else:
            hi = root
    return root, f(root), max_iter


#: Newton in t = ln(eps/(1-eps)) (ds/dt in [1/2, 1] on the bracket) ends one
#: evaluation after a step this short, whose error is about its square, or after
#: bisecting a sign bracket this narrow, where the level's round-off swamps s ...
_T_SETTLED = 1e-8
#: ... or at a step below this many ulps of 1 + |t| + |level|: s's round-off
_S_NOISE = 8.0 * 2.0**-52


def _stationarity_base(p_e: float, xi: float, eps: float) -> float:
    """xi H'[x] - H'[eps], x = p_e + eps xi: s(eps) without beta_d*delta_w."""
    return xi * bit_entropy_prime(p_e + eps * xi) - bit_entropy_prime(eps)


def _bracket(p_e: float, xi: float) -> tuple[float, float, float, float]:
    """(lo, hi) = (EPS_FLOOR, min(p_e, 1/2) - EPS_FLOOR) and the base at both.
    H' raises at hi for p_e <= EPS_FLOOR; below 2 EPS_FLOOR hi < lo is refused."""
    lo, hi = EPS_FLOOR, min(p_e, 0.5) - EPS_FLOOR
    ends = (_stationarity_base(p_e, xi, lo), _stationarity_base(p_e, xi, hi))
    if hi < lo:
        raise ParameterError(f"p_e={p_e} leaves no epsilon bracket above {EPS_FLOOR}")
    return lo, hi, *ends


def _max_net_work(p_e, xi, level, bracket, t):
    """(eps, s(eps), Newton steps, root found) for s(eps) = xi H'[x] - H'[eps] +
    level(eps) on the bracket: without a sign change of s, the end where it is
    larger (lo if s >= 0 there); else Newton on s(t) from t, bisecting when a
    step leaves the sign bracket. The step leaves level's slope out: exact for
    a constant level, and for level = R it is Newton's step on R's stationarity
    function (p_e - eps) s, whose t-slope is (p_e - eps) ds/dt."""
    lo, hi, g_lo, g_hi = bracket
    s_lo, s_hi = g_lo + level(lo), g_hi + level(hi)
    if not s_lo * s_hi < 0.0:
        return (lo, s_lo, 0, False) if s_lo >= 0.0 else (hi, s_hi, 0, False)
    a, b = math.log(lo / (1.0 - lo)), math.log(hi / (1.0 - hi))
    t, settled = min(max(t, a), b), False
    for it in range(1, 101):
        eps = min(max(1.0 / (1.0 + math.exp(-t)), lo), hi)
        x = p_e + eps * xi
        lev = level(eps)
        # s(eps) with H' written as bit_entropy_prime writes it
        s = xi * math.log((1.0 - x) / x) - math.log((1.0 - eps) / eps) + lev
        if s < 0.0:
            a = t
        else:
            b = t
        step = s / (1.0 - xi * xi * eps * (1.0 - eps) / (x * (1.0 - x)))
        if settled or abs(step) <= _S_NOISE * (1.0 + abs(t) + abs(lev)):
            break
        if a < t - step < b:
            t, settled = t - step, abs(step) <= _T_SETTLED
        else:
            t, settled = 0.5 * (a + b), b - a <= _T_SETTLED
    return eps, s, it, True


def optimize_epsilon_power(p_e: float, beta_d_delta: float) -> OptimizationResult:
    """Demon impurity maximising the net work per cycle.

    Solves s(eps) = xi H'[x] - H'[eps] + beta_d*delta_w = 0 (xi = 1-2p_e,
    x = p_e + eps xi) on [EPS_FLOOR, min(p_e, 1/2) - EPS_FLOOR]. The net work
    N has N' = -2 s/(beta_d delta_w) with s increasing, so N is strictly
    concave and a sign change of s pins its maximum. In t = ln(eps/(1-eps)),
    s = xi H'[x] + t + beta_d*delta_w with ds/dt = 1 - xi^2 eps(1-eps)/(x(1-x))
    in (0, 1]: Newton from t0 = -xi H'[p_e] - beta_d*delta_w takes a few steps
    (iterations; roots = (eps*,)). Without a sign change (root below the
    floor, or N rising up to the upper end) the end with the larger N is
    reported with iterations = 0 and roots = (). objective_value is net work
    in units of delta_w.
    """
    if not 0.0 < p_e <= 0.5:
        raise ParameterError(f"p_e must lie in (0, 1/2], got {p_e}")
    _require_finite(beta_d_delta=beta_d_delta)
    if beta_d_delta <= 0.0:
        raise ParameterError(f"beta_d_delta must be positive, got {beta_d_delta}")
    xi = 1.0 - 2.0 * p_e
    t0 = -xi * bit_entropy_prime(p_e) - beta_d_delta
    eps, s, iters, inside = _max_net_work(p_e, xi, lambda _: beta_d_delta,
                                          _bracket(p_e, xi), t0)
    return OptimizationResult(
        epsilon_star=eps, objective_value=_net_work_per_delta(p_e, eps, beta_d_delta),
        converged=abs(s) <= 1e-12, iterations=iters, residual=abs(s),
        roots=(eps,) if inside else ())


def optimize_epsilon_eta(p_e: float) -> OptimizationResult:
    """Demon impurity maximising the two-cycle efficiency.

    It minimises R(eps) = (H[x] - H[eps])/(p_e - eps), free of the demon
    temperature. R's stationarity function F(eps) = [xi H'[x] - H'[eps]](p_e -
    eps) + H[x] - H[eps] is (p_e - eps) times opt-power's s with R(eps) in place
    of beta_d*delta_w, and shares its sign, so opt-power's one Newton search with
    level R solves F = 0; iterations counts its steps. converged needs a root
    inside the bracket (roots = (eps*,)) and |F| <= 1e-12 (residual). At
    p_e = 1/2 the root is the boundary eps = 1/2.
    """
    if not 0.0 < p_e <= 0.5:
        raise ParameterError(f"p_e must lie in (0, 1/2], got {p_e}")
    if p_e == 0.5:
        return OptimizationResult(epsilon_star=0.5, objective_value=0.0, converged=True,
                                  iterations=0, residual=0.0, roots=(0.5,))
    xi = 1.0 - 2.0 * p_e
    bracket = _bracket(p_e, xi)
    # eps* tends to p_e^2/e as p_e -> 0 and to p_e - xi/2 as p_e -> 1/2: a start near both
    eps = p_e * p_e / (p_e + xi * (math.e - (2.0 * math.e - 1.0) * p_e))
    eps = min(max(eps, bracket[0]), bracket[1])
    eps, _, iters, inside = _max_net_work(p_e, xi, lambda e: _entropy_cost_ratio(p_e, e),
                                          bracket, math.log(eps / (1.0 - eps)))
    x = p_e + eps * xi
    residual = abs(_stationarity_base(p_e, xi, eps) * (p_e - eps)
                   + bit_entropy(x) - bit_entropy(eps))
    return OptimizationResult(
        epsilon_star=eps, objective_value=_entropy_cost_ratio(p_e, eps),
        converged=inside and residual <= 1e-12, iterations=iters, residual=residual,
        roots=(eps,) if inside else ())


def parse_policy(policy: str) -> tuple[str, float | None]:
    """Split a policy string into (name, fixed epsilon or None)."""
    if policy in _POLICIES:
        return policy, None
    if policy.startswith("fixed:"):
        try:
            eps = float(policy.split(":", 1)[1])
        except ValueError:
            raise ParameterError(f"fixed epsilon must be a number, got {policy!r}") from None
        if not 0.0 <= eps <= 0.5:
            raise ParameterError(f"fixed epsilon must lie in [0, 1/2], got {eps}")
        return "fixed", eps
    raise ParameterError(
        f"unknown policy {policy!r}; expected ideal, opt-power, opt-eta or fixed:<eps>")


def _converged(policy: str, p_e: float, result: OptimizationResult) -> OptimizationResult:
    """``result`` once it has converged; ConvergenceError naming the policy otherwise."""
    if not result.converged:
        raise ConvergenceError(f"policy {policy} failed to converge at p_e={p_e} "
                               f"(residual {result.residual:.3e})")
    return result


def resolve_epsilon(policy: str, p_e: float, beta_d_delta: float) -> float:
    """Demon impurity selected by a policy at the given operating point."""
    return _resolve(policy, *parse_policy(policy), p_e, beta_d_delta)


def _resolve(policy: str, name: str, fixed: float | None, p_e: float,
             beta_d_delta: float) -> float:
    """resolve_epsilon for a policy already parsed into (name, fixed)."""
    if name == "ideal":
        return 0.0
    if name == "fixed":
        return float(fixed)
    result = (optimize_epsilon_power(p_e, beta_d_delta) if name == "opt-power"
              else optimize_epsilon_eta(p_e))
    return _converged(policy, p_e, result).epsilon_star


def minimal_beta(beta_d: float, delta_w: float, policy: str = "ideal") -> float:
    """Largest working-reservoir beta with positive net work under a policy.

    Net work is 2 (p_e - eps)(1 - R/(beta_d delta_w)), R the entropy cost ratio
    at the policy's eps (+inf once p_e <= eps); the optimal policies share R's
    minimum over eps, opt-eta's objective. R rises with beta, so the answer is
    the one root of R = beta_d delta_w on [0, beta_d], bisected; NaN when R at
    beta = 0 is not below beta_d delta_w (e.g. the ideal policy at
    beta_d*delta_w <= 2 ln 2). ParameterError when R at beta_d is not above it
    either: p_e stops falling at BETA_DELTA_CAP, so for the ideal and fixed
    policies beyond about beta_d*delta_w = 745 no root is left to bracket (the
    optimal ones stop converging long before).
    """
    _require_finite(beta_d=beta_d, delta_w=delta_w)
    if beta_d <= 0.0 or delta_w <= 0.0:
        raise ParameterError("beta_d and delta_w must be positive")
    beta_d_delta = beta_d * delta_w
    name, fixed = parse_policy(policy)

    def excess(beta: float) -> float:
        _, p_e = thermal_wit(beta, delta_w)
        if not name.startswith("opt-"):
            if fixed:
                return (_entropy_cost_ratio(p_e, fixed) if p_e > fixed else math.inf) - beta_d_delta
            # R(p_e, 0) with ln p_e = -x - ln(1 + e^-x), exact where p_e is subnormal
            x = min(beta * delta_w, BETA_DELTA_CAP)
            ratio = x + math.log1p(math.exp(-x)) - (1.0 - p_e) * math.log1p(-p_e) / p_e
            return ratio - beta_d_delta
        # eps* lies below the floor wherever p_e <= 2 EPS_FLOOR; opt-eta reports
        # that as non-convergence at 2 EPS_FLOOR, where its bracket is one point
        result = optimize_epsilon_eta(max(p_e, 2.0 * EPS_FLOOR))
        return _converged(policy, p_e, result).objective_value - beta_d_delta

    if not excess(0.0) < 0.0:
        return math.nan
    if not name.startswith("opt-") and not excess(beta_d) > 0.0:
        raise ParameterError(
            f"beta_d*delta_w = {beta_d_delta} lies past what p_e resolves: beta*delta_w "
            f"is capped at BETA_DELTA_CAP = {BETA_DELTA_CAP}, so net work under policy "
            f"{policy} does not change sign on [0, beta_d]")
    return float(_bisect(excess, 0.0, beta_d)[0])


def sweep_beta(beta_d_delta: float, policy: str, beta_deltas) -> list[dict]:
    """One row per working temperature: populations, the policy's epsilon,
    heat and net work in units of delta_w, and both efficiencies.

    Rows are pure functions of their grid point (safe to compute in
    parallel); ordering follows the input grid. Each row holds the fields of
    ``run_cycle`` at its point, computed without building its dataclasses.
    The policy is parsed once, before any row: a bad policy raises first,
    even for an empty grid.
    """
    name, fixed = parse_policy(policy)
    rows = []
    for bd in map(float, beta_deltas):
        _, p_e = thermal_wit(bd, 1.0)
        eps = _resolve(policy, name, fixed, p_e, beta_d_delta)
        _check_beta_d(beta_d_delta)
        heat, _, _, net, eta_2cy = _cycle(p_e, eps, 1.0, beta_d_delta)
        rows.append({"beta_delta": bd, "p_e": p_e, "epsilon": eps, "heat": heat, "net_work": net,
                     "eta_2cy": eta_2cy, "eta_carnot": 1.0 - bd / beta_d_delta})
    return rows


def frontier_epsilons(pe_values, beta_d_deltas) -> list[dict]:
    """Optimal impurities versus excited-state occupation.

    Each row carries eps_eta (demon-temperature independent) and one
    eps_w column per requested beta_d*delta_w.
    """
    bds = [float(b) for b in beta_d_deltas]
    rows = []
    for pe in map(float, pe_values):
        row = {"p_e": pe, "eps_eta": optimize_epsilon_eta(pe).epsilon_star}
        for bd in bds:
            row[f"eps_w_bd{bd:g}"] = optimize_epsilon_power(pe, bd).epsilon_star
        rows.append(row)
    return rows
