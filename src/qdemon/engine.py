"""Two-cycle heat engine built on the work-extracting partial SWAP.

Two working qubits (level spacing Delta) thermalise against a single
reservoir at inverse temperature beta, swap their mixedness against a pair of
energy-degenerate demon qubits prepared in near-pure opposite operational
states (impurity epsilon), and the deterministically excited qubit is
drained by a half-Rabi pulse. Restoring the demon pair against a second
reservoir at beta_d costs T_d * (entropy dumped on the pair); that cost is
the only work reduction, so the local heat-to-work conversion runs at unit
efficiency while the overall two-cycle efficiency stays below Carnot.

Every result depends on Delta only through beta*Delta and beta_d*Delta, and
every energy scales with Delta, so the engine works in units of Delta: it takes
beta_delta = beta*Delta and beta_d_delta = beta_d*Delta, and reports energies
per Delta. Entropies are in nats. Every function here is pure; grid sweeps may
be evaluated in any order.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

from .qmatrix import ConvergenceError, ParameterError, _require_finite

#: both ends of every epsilon search bracket stay this far inside (0, p_e).
#: The logit-space search needs no floor; it stays while the benchmark's
#: recorded outputs and declines rely on roots below it being reported as ends
EPS_FLOOR = 1e-15

#: cap on beta_delta: exp(-745) is the smallest subnormal, so beyond the cap
#: p_e stays 5e-324 (and the heat positive) instead of underflowing to 0.0
BETA_DELTA_CAP = 745.0

#: smallest beta_d_delta (about 7.7e-309): one float above 2 ln 2 / float max, below
#: which the restoration cost 2 dH/beta_d_delta overflows (bit_entropy may exceed
#: ln 2 by an ulp)
BETA_D_MIN = math.nextafter(2.0 * math.log(2.0) / sys.float_info.max, 1.0)

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
class CycleReport:
    """Energy/entropy bookkeeping of one engine cycle (a pair of swaps).

    heat = 2 (p_e - epsilon) is the heat drawn per cycle in steady
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


def _check_beta_d(beta_d_delta: float) -> None:
    if BETA_D_MIN <= beta_d_delta < math.inf:  # valid: one comparison, no call to build kwargs
        return
    _require_finite(beta_d_delta=beta_d_delta)
    if beta_d_delta <= 0.0:
        raise ParameterError(f"beta_d_delta must be positive, got {beta_d_delta}")
    raise ParameterError(f"beta_d_delta must be at least {BETA_D_MIN!r}, below which "
                         f"the restoration cost overflows, got {beta_d_delta}")


def thermal_wit(beta_delta: float) -> tuple[float, float]:
    """Gibbs populations (p_g, p_e) of a working qubit: Z = 1 + exp(-beta_delta),
    p_g = 1/Z, p_e = exp(-beta_delta)/Z."""
    if not 0.0 <= beta_delta < math.inf:  # compared first, as in _check_beta_d
        _require_finite(beta=beta_delta)
        raise ParameterError(f"beta must be non-negative, got {beta_delta}")
    boltz = math.exp(-min(beta_delta, BETA_DELTA_CAP))
    z = 1.0 + boltz
    return 1.0 / z, boltz / z


def _entropy_cost_ratio(p_e: float, eps: float) -> float:
    """R = (H[p_e + eps(1-2p_e)] - H[eps]) / (p_e - eps); minimising it
    maximises the two-cycle efficiency for every demon temperature."""
    return (bit_entropy(p_e + eps * (1.0 - 2.0 * p_e)) - bit_entropy(eps)) / (p_e - eps)


def _cycle(p_e: float, eps: float, beta_d_delta: float):
    """(heat, H[x], w_in, net work, eta_2cy) of one cycle, x = p_e + eps(1-2p_e)."""
    heat = 2.0 * (p_e - eps)
    dit_entropy = bit_entropy(p_e + eps * (1.0 - 2.0 * p_e))
    w_in = 2.0 * (dit_entropy - bit_entropy(eps)) / beta_d_delta
    net = heat - w_in
    return heat, dit_entropy, w_in, net, net / heat if heat > 0.0 else math.nan


def run_cycle(beta_delta: float, beta_d_delta: float, epsilon: float = 0.0) -> CycleReport:
    """Closed-form bookkeeping of one cycle at demon impurity epsilon in [0, 1/2].

    Per pair of swaps: w_minus = 1 - 2 p_e is the average energy the drive
    must supply during the mid-circuit rotations, w_plus = 1 - 2 eps is
    extracted by the half-Rabi pulse, heat = w_out = 2 (p_e - eps), and
    w_in = (2/beta_d_delta)(H[p_e + eps(1-2p_e)] - H[eps]) restores the demon
    pair. ``tests/test_symbolic.py`` derives these figures from the gates of
    ``circuits.pswap_gate``.
    """
    p_g, p_e = thermal_wit(beta_delta)
    _check_beta_d(beta_d_delta)
    if not 0.0 <= epsilon <= 0.5:
        raise ParameterError(f"epsilon must lie in [0, 1/2], got {epsilon}")
    heat, dit_entropy, w_in, net, eta_2cy = _cycle(p_e, epsilon, beta_d_delta)
    w_minus = 1.0 - 2.0 * p_e
    w_plus = 1.0 - 2.0 * epsilon
    w_out = heat  # identical by construction: w_plus - w_minus up to round-off
    eta_local = 1.0 if heat > 0.0 else math.nan

    ledger = (("pswap_mid_rotations", w_minus), ("pswap_final_rotations", 0.0),
              ("extraction_pulse", -w_plus))
    return CycleReport(
        p_e=p_e, p_g=p_g, heat=heat,
        w_minus=w_minus, w_plus=w_plus, w_out=w_out, w_in=w_in,
        net_work=net, eta_local=eta_local, eta_2cy=eta_2cy,
        dit_out_entropy=dit_entropy, field_ledger=ledger,
    )


#: Newton in t = ln(eps/(1-eps)) (ds/dt in [1/2, 1] on the bracket) ends one
#: evaluation after a step this short, whose error is about its square, or after
#: bisecting a sign bracket this narrow, where the level's round-off swamps s ...
_T_SETTLED = 1e-8
#: ... or at a step below this many ulps of 1 + |t| + |level|: s's round-off
_S_NOISE = 8.0 * 2.0**-52
#: t, H' and H at EPS_FLOOR, the lower end of every bracket
_T_FLOOR = math.log(EPS_FLOOR / (1.0 - EPS_FLOOR))
_HP_FLOOR = bit_entropy_prime(EPS_FLOOR)
_H_FLOOR = bit_entropy(EPS_FLOOR)
_exp, _log, _log1p, _STEPS = math.exp, math.log, math.log1p, range(1, 101)  # bound once


def _max_net_work(p_e, xi, bd_delta, t):
    """Root of s(eps) = xi H'[x] - H'[eps] + level, x = p_e + eps xi, on [EPS_FLOOR,
    p_e - EPS_FLOOR] (p_e <= 1/2): level is opt-power's bd_delta, or for None opt-eta's
    R(eps). Without a sign change of s, the end where s is larger (lo if s >= 0
    there); else Newton on s(t) from t, bisecting steps that leave the sign bracket.
    The step leaves level's slope out: exact for a constant, and for R Newton's step
    on F = (p_e - eps) s, whose t-slope is (p_e - eps) ds/dt. Returns (eps, level,
    residual, Newton steps, root found) of the last evaluation, residual |s| or for
    R |F|. H' raises at hi for p_e <= EPS_FLOOR; below 2 EPS_FLOOR hi < lo is refused."""
    # Each call saved is a measurable share of a search, so H' and H are bit_entropy_prime's
    # and bit_entropy's expressions inline, bit for bit; min, max and abs are comparisons
    lo, hi = EPS_FLOOR, p_e - EPS_FLOOR
    x_lo, x_hi = p_e + lo * xi, p_e + hi * xi
    if hi < lo:  # H' refuses x_hi, then hi, at or below 0 first; neither reaches 1
        raise ParameterError(f"p_e={p_e} leaves no epsilon bracket above {EPS_FLOOR}" if hi > 0.0
                             else f"H' needs x in (0, 1), got {hi if x_hi > 0.0 else x_hi}")
    base_lo = xi * _log((1.0 - x_lo) / x_lo) - _HP_FLOOR
    base_hi = xi * _log((1.0 - x_hi) / x_hi) - _log((1.0 - hi) / hi)
    r_level, lev_lo, lev_hi = bd_delta is None, bd_delta, bd_delta
    hx_lo = hx_hi = he_hi = 0.0  # H[x] and H[eps] at the ends, which only R reads
    if r_level:
        hx_lo = -x_lo * _log(x_lo) - (1.0 - x_lo) * _log1p(-x_lo)
        hx_hi = -x_hi * _log(x_hi) - (1.0 - x_hi) * _log1p(-x_hi)
        he_hi = -hi * _log(hi) - (1.0 - hi) * _log1p(-hi)
        lev_lo, lev_hi = (hx_lo - _H_FLOOR) / (p_e - lo), (hx_hi - he_hi) / (p_e - hi)
    s_lo, s_hi = base_lo + lev_lo, base_hi + lev_hi
    it, inside = 0, s_lo * s_hi < 0.0
    if not inside:
        eps, base, lev, hx, he = ((lo, base_lo, lev_lo, hx_lo, _H_FLOOR) if s_lo >= 0.0
                                  else (hi, base_hi, lev_hi, hx_hi, he_hi))
    else:
        a, b, settled, lev, xi2 = _T_FLOOR, _log(hi / (1.0 - hi)), False, bd_delta, xi * xi
        t = a if t < a else b if t > b else t
        for it in _STEPS:
            eps = 1.0 / (1.0 + _exp(-t))
            eps = lo if eps < lo else hi if eps > hi else eps
            x = p_e + eps * xi
            ox, oe = 1.0 - x, 1.0 - eps
            base = xi * _log(ox / x) - _log(oe / eps)
            if r_level:
                hx = -x * _log(x) - ox * _log1p(-x)
                he = -eps * _log(eps) - oe * _log1p(-eps)
                lev = (hx - he) / (p_e - eps)
            s = base + lev
            if s < 0.0:
                a = t
            else:
                b = t
            step = s / (1.0 - xi2 * eps * oe / (x * ox))
            noise = _S_NOISE * (1.0 + (t if t >= 0.0 else -t) + (lev if lev >= 0.0 else -lev))
            if settled or -noise <= step <= noise:
                break
            if a < t - step < b:
                t, settled = t - step, -_T_SETTLED <= step <= _T_SETTLED
            else:
                t, settled = 0.5 * (a + b), b - a <= _T_SETTLED
    res = base * (p_e - eps) + hx - he if r_level else base + lev
    return eps, lev, res if res > 0.0 else 0.0 - res, it, inside  # 0.0 - res: +0.0 at res = -0.0


def _search(p_e: float, level: float | None):
    """The optimal policies' one search, ``_max_net_work`` at level beta_d_delta (opt-power)
    or None (opt-eta's R): (eps*, level, residual, Newton steps, root found, converged), the
    fields ``optimize_epsilon_power`` and ``optimize_epsilon_eta`` report."""
    if not 0.0 < p_e <= 0.5:
        raise ParameterError(f"p_e must lie in (0, 1/2], got {p_e}")
    xi = 1.0 - 2.0 * p_e
    if level is not None:
        t = -xi * bit_entropy_prime(p_e) - level
    elif p_e == 0.5:
        return 0.5, 0.0, 0.0, 0, True, True
    else:  # eps* tends to p_e^2/e as p_e -> 0 and to p_e - xi/2 as p_e -> 1/2: a start near
        # both, raised to the floor so that its t is finite (the search clamps t to the bracket)
        eps = p_e * p_e / (p_e + xi * (math.e - (2.0 * math.e - 1.0) * p_e))
        t = _log(eps / (1.0 - eps)) if eps >= EPS_FLOOR else _T_FLOOR
    found = _max_net_work(p_e, xi, level, t)  # opt-eta converges only on a root found
    return (*found, (level is not None or found[4]) and found[2] <= 1e-12)


def optimize_epsilon_power(p_e: float, beta_d_delta: float) -> OptimizationResult:
    """Demon impurity maximising the net work per cycle.

    Solves s(eps) = xi H'[x] - H'[eps] + beta_d_delta = 0 (xi = 1-2p_e,
    x = p_e + eps xi) on [EPS_FLOOR, min(p_e, 1/2) - EPS_FLOOR]. The net work
    N has N' = -2 s/beta_d_delta with s increasing, so N is strictly
    concave and a sign change of s pins its maximum. In t = ln(eps/(1-eps)),
    s = xi H'[x] + t + beta_d_delta with ds/dt = 1 - xi^2 eps(1-eps)/(x(1-x))
    in (0, 1]: Newton from t0 = -xi H'[p_e] - beta_d_delta takes a few steps
    (iterations; roots = (eps*,)). Without a sign change (root below the
    floor, or N rising up to the upper end) the end with the larger N is
    reported with iterations = 0 and roots = (). objective_value is the
    cycle's net work at eps*.
    """
    _check_beta_d(beta_d_delta)
    eps, _, residual, iters, inside, converged = _search(p_e, beta_d_delta)
    return OptimizationResult(eps, _cycle(p_e, eps, beta_d_delta)[3], converged,
                              iters, residual, (eps,) if inside else ())


def optimize_epsilon_eta(p_e: float) -> OptimizationResult:
    """Demon impurity maximising the two-cycle efficiency.

    It minimises R(eps) = (H[x] - H[eps])/(p_e - eps), free of the demon
    temperature. R's stationarity function F(eps) = [xi H'[x] - H'[eps]](p_e -
    eps) + H[x] - H[eps] is (p_e - eps) times opt-power's s with R(eps) in place
    of beta_d_delta, and shares its sign, so opt-power's one Newton search with
    level R solves F = 0; iterations counts its steps. converged needs a root
    inside the bracket (roots = (eps*,)) and |F| <= 1e-12 (residual). At
    p_e = 1/2 the root is the boundary eps = 1/2.
    """
    eps, ratio, residual, iters, inside, converged = _search(p_e, None)
    return OptimizationResult(eps, ratio, converged, iters, residual, (eps,) if inside else ())


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


def _converged(policy: str, p_e: float, found: tuple) -> tuple:
    """A search's values once converged; ConvergenceError naming the policy otherwise."""
    if not found[5]:
        raise ConvergenceError(f"policy {policy} failed to converge at p_e={p_e} "
                               f"(residual {found[2]:.3e})")
    return found


def resolve_epsilon(policy: str, p_e: float, beta_d_delta: float) -> float:
    """Demon impurity selected by a policy at the given operating point."""
    _check_beta_d(beta_d_delta)
    return _resolve(policy, parse_policy(policy), p_e, beta_d_delta)


def _resolve(policy: str, parsed: tuple[str, float | None], p_e: float,
             beta_d_delta: float) -> float:
    """resolve_epsilon for a policy already parsed by ``parse_policy``."""
    name, fixed = parsed
    if not name.startswith("opt-"):  # ideal, or fixed
        return 0.0 if fixed is None else fixed
    return _converged(policy, p_e, _search(p_e, beta_d_delta if name == "opt-power" else None))[0]


def minimal_beta(beta_d_delta: float, policy: str = "ideal") -> float:
    """Largest working-reservoir beta_delta with positive net work under a policy: the
    root of R = beta_d_delta, R the entropy cost ratio at the policy's eps (+inf once p_e
    <= eps; the optimal policies share its minimum over eps), rising with beta_delta. Ideal
    and fixed policies give NaN if R(0) >= beta_d_delta and ParameterError if R(beta_d_delta)
    <= beta_d_delta (p_e stops falling at BETA_DELTA_CAP). Newton from max(beta_d_delta - 1,
    beta_d_delta/2) takes dR/dbeta_delta = -p_e p_g [H'[x](1 - 2 eps) - R]/(p_e - eps), x =
    p_e + eps(1-2p_e): exact at a fixed eps and, by the envelope theorem, at eps*. Steps out
    of the bracket are bisected; the update one evaluation after a step below _T_SETTLED
    beta_delta is returned once R is seen on both sides of beta_d_delta (if need be just
    above a root reached from below), else ConvergenceError, as where p_e rounds to 1/2."""
    _check_beta_d(beta_d_delta)
    fixed, opt = parse_policy(policy)[1], policy.startswith("opt-")

    def ratio(beta_delta: float) -> tuple[float, float]:  # R and dR/dbeta_delta
        p_g, p_e = thermal_wit(beta_delta)
        hp = min(beta_delta, BETA_DELTA_CAP)  # H'[p_e]: the slope's H'[x](1 - 2 eps) at eps = 0
        if opt:  # eps* < EPS_FLOOR below 2 EPS_FLOOR: a search that does not converge
            eps, r = _converged(policy, p_e, _search(max(p_e, 2.0 * EPS_FLOOR), None))[:2]
        elif fixed:
            eps, r = fixed, _entropy_cost_ratio(p_e, fixed) if p_e > fixed else math.inf
        else:  # R(p_e, 0) with ln p_e = -hp - ln(1 + e^-hp), exact where p_e is subnormal
            eps, r = 0.0, hp + math.log1p(math.exp(-hp)) - (1.0 - p_e) * math.log1p(-p_e) / p_e
        hp = (1.0 - 2.0 * eps) * bit_entropy_prime(p_e + eps * (1.0 - 2.0 * p_e)) if eps else hp
        return r, p_g * (r - hp) * (p_e / (p_e - eps)) if p_e > eps else math.nan

    lo, hi, seen = 0.0, min(beta_d_delta, BETA_DELTA_CAP), not opt  # R above at hi once seen
    if not opt and not ratio(lo)[0] < beta_d_delta:  # R* is 0 there
        return math.nan
    if not opt and not ratio(hi)[0] > beta_d_delta:
        raise ParameterError(
            f"beta_d_delta = {beta_d_delta} lies past what p_e resolves: beta_delta "
            f"is capped at BETA_DELTA_CAP = {BETA_DELTA_CAP}, so net work under policy "
            f"{policy} does not change sign on [0, beta_d_delta]")
    b, settled = min(max(beta_d_delta - 1.0, 0.5 * beta_d_delta), hi), False
    for _ in _STEPS:
        r, slope = ratio(b)
        lo, hi, seen = (b, hi, seen) if r < beta_d_delta else (lo, b, True)
        step = (r - beta_d_delta) / slope if slope > 0.0 else math.nan
        if settled and seen and slope > 0.0:
            return min(max(b - step, lo), hi)
        if settled and not seen:  # reached from below only: evaluate just above the root
            b = min(hi, b - step + abs(step) + 1e-12 * b)  # hi where no slope was found
        elif lo <= b - step <= hi:
            b, settled = b - step, -_T_SETTLED * b <= step <= _T_SETTLED * b
        elif seen and not lo < 0.5 * (lo + hi) < hi:  # lo and hi are adjacent floats
            return b
        else:  # without a sign change seen, bisected until the steps run out
            b, settled = 0.5 * (lo + hi), False
    raise ConvergenceError(f"policy {policy} failed to converge: no root seen below {beta_d_delta}")


def sweep_beta(beta_d_delta: float, policy: str, beta_deltas) -> list[dict]:
    """One row per working temperature: populations, the policy's epsilon,
    heat and net work, and both efficiencies.

    Rows are pure functions of their grid point (safe to compute in
    parallel); ordering follows the input grid. Each row holds the fields of
    ``run_cycle`` at its point, computed without building its dataclasses.
    beta_d_delta is checked and then the policy parsed once, before any row.
    """
    _check_beta_d(beta_d_delta)
    parsed, rows = parse_policy(policy), []
    for bd in map(float, beta_deltas):
        _, p_e = thermal_wit(bd)
        eps = _resolve(policy, parsed, p_e, beta_d_delta)
        heat, _, _, net, eta_2cy = _cycle(p_e, eps, beta_d_delta)
        rows.append({"beta_delta": bd, "p_e": p_e, "epsilon": eps, "heat": heat, "net_work": net,
                     "eta_2cy": eta_2cy, "eta_carnot": 1.0 - bd / beta_d_delta})
    return rows


def frontier_epsilons(pe_values, beta_d_deltas) -> list[dict]:
    """Optimal impurities versus excited-state occupation.

    Each row carries eps_eta (demon-temperature independent) and one eps_w_bd{:g}
    column per requested beta_d_delta, refused before any row if out of range or if
    two values name one column; each entry is the optimiser's epsilon_star, converged or not.
    """
    columns = {}
    for bd in map(float, beta_d_deltas):
        _check_beta_d(bd)
        name = f"eps_w_bd{bd:g}"
        if name in columns:
            raise ParameterError(f"beta_d_delta values {columns[name]!r} and {bd!r} "
                                 f"both name the frontier column {name}")
        columns[name] = bd
    return [{"p_e": pe, "eps_eta": _search(pe, None)[0],
             **{name: _search(pe, bd)[0] for name, bd in columns.items()}}
            for pe in map(float, pe_values)]
