import math

import numpy as np
import pytest

from qdemon import engine as eng
from qdemon.channel import ChannelConfig, ChannelReport, apply_channel
from qdemon.circuits import HBAR, DoubleDotConfig, _pswap_stages, conditional_pi_phase, u14
from qdemon.qmatrix import ParameterError, tensor, von_neumann_entropy
from qdemon.spin_demon import SpinDemonParams, beam_splitter


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_unitary(rng, n=2):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q @ np.diag(np.diag(r) / np.abs(np.diag(r)))


def random_density(rng, n=2):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    m = z @ z.conj().T
    return m / np.trace(m)


def random_pure(rng, n=2):
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return v / np.linalg.norm(v)


def pure_density(vec) -> np.ndarray:
    """Outer product |v><v| of a unit amplitude vector."""
    v = np.asarray(vec, dtype=complex).reshape(-1)
    assert abs(np.linalg.norm(v) - 1.0) <= 1e-12, "not a unit vector"
    return np.outer(v, v.conj())


def dag(m) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(m).conj().T


def half_rabi(phase: float) -> np.ndarray:
    """NOT-up-to-phases pulse u14(ϕ)², the engine's work-extraction pulse."""
    return u14(phase) @ u14(phase)


def partial_trace(rho, keep: str) -> np.ndarray:
    """Reduced 2x2 state of the system ("first") or the demon ("second") qubit
    of a 4x4 two-qubit matrix, by einsum: independent of ``qmatrix._marginals``
    and equal to it bit for bit (``test_partial_trace_matches_einsum_bits``)."""
    spec = "ikjk->ij" if keep == "first" else "kikj->ij"
    return np.einsum(spec, np.asarray(rho, dtype=complex).reshape(2, 2, 2, 2))


def completed_double_dot(rho_in, dot_state, config: DoubleDotConfig) -> ChannelReport:
    """``circuits.double_dot_protocol`` with its dropped rotation h = half_rabi(ϕ)†
    applied, so the outgoing lead pair is (h·d, h): its joint and demon outputs
    equal the spin channel's at ``equivalent_spin_params(config)`` (derived in
    ``test_symbolic.py``)."""
    q = u14(config.tunneling_phase)
    d = conditional_pi_phase(config.interaction_phase)[:2, :2]
    h = dag(half_rabi(config.tunneling_phase))
    leads = (q @ d @ q, q @ q, h @ d, h)
    return apply_channel(rho_in, ChannelConfig(beam_splitter(config.theta, config.eta),
                                               leads, dot_state))


def net_work_per_delta(p_e, eps, bd_delta):
    """Net work per cycle 2 (p_e - eps - (H[x] - H[eps])/beta_d_delta), x = p_e +
    eps(1 - 2 p_e), written as one expression: the oracle for opt-power's
    objective_value, which the package takes from the cycle's bookkeeping."""
    x = p_e + eps * (1.0 - 2.0 * p_e)
    return 2.0 * (p_e - eps - (eng.bit_entropy(x) - eng.bit_entropy(eps)) / bd_delta)


def bisect(f, lo, hi, max_iter=200):
    """Plain bisection, the scan oracles' root polish; assumes f(lo) and f(hi) have
    opposite signs. Returns (root, f(root), steps) on an exact zero, a bracket
    narrower than 1e-17 or a midpoint that rounds onto an end of the bracket
    (floats from 1/16 up are more than 1e-17 apart), else after max_iter steps."""
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


def power_stationarity(p_e, bd_delta, eps):
    """s(eps) = xi H'[p_e + eps xi] - H'[eps] + beta_d_delta, xi = 1 - 2 p_e:
    the function optimize_epsilon_power finds the root of."""
    xi = 1.0 - 2.0 * p_e
    return xi * eng.bit_entropy_prime(p_e + eps * xi) - eng.bit_entropy_prime(eps) + bd_delta


def stationarity_base(p_e, xi, eps):
    """xi H'[x] - H'[eps], x = p_e + eps xi: s(eps) without beta_d_delta."""
    return xi * eng.bit_entropy_prime(p_e + eps * xi) - eng.bit_entropy_prime(eps)


def search_bracket(p_e, xi):
    """(lo, hi) = (EPS_FLOOR, min(p_e, 1/2) - EPS_FLOOR) and the base at both.
    H' raises at hi for p_e <= EPS_FLOOR; below 2 EPS_FLOOR hi < lo is refused."""
    lo, hi = eng.EPS_FLOOR, min(p_e, 0.5) - eng.EPS_FLOOR
    ends = (stationarity_base(p_e, xi, lo), stationarity_base(p_e, xi, hi))
    if hi < lo:
        raise ParameterError(f"p_e={p_e} leaves no epsilon bracket above {eng.EPS_FLOOR}")
    return lo, hi, *ends


def level_search(p_e, xi, level, bracket, t):
    """The optimisers' search as it was with a level callable, the oracle of
    ``engine._max_net_work``: (eps, s(eps), Newton steps, root found) for s(eps) =
    xi H'[x] - H'[eps] + level(eps) on the bracket. Without a sign change of s, the
    end where it is larger (lo if s >= 0 there); else Newton on s(t) from t,
    bisecting when a step leaves the sign bracket."""
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
        s = xi * math.log((1.0 - x) / x) - math.log((1.0 - eps) / eps) + lev
        if s < 0.0:
            a = t
        else:
            b = t
        step = s / (1.0 - xi * xi * eps * (1.0 - eps) / (x * (1.0 - x)))
        if settled or abs(step) <= eng._S_NOISE * (1.0 + abs(t) + abs(lev)):
            break
        if a < t - step < b:
            t, settled = t - step, abs(step) <= eng._T_SETTLED
        else:
            t, settled = 0.5 * (a + b), b - a <= eng._T_SETTLED
    return eps, s, it, True


def oracle_power(p_e, beta_d_delta):
    """``engine.optimize_epsilon_power`` on ``level_search`` with a constant level."""
    if not 0.0 < p_e <= 0.5:
        raise ParameterError(f"p_e must lie in (0, 1/2], got {p_e}")
    eng._check_beta_d(beta_d_delta)
    xi = 1.0 - 2.0 * p_e
    t0 = -xi * eng.bit_entropy_prime(p_e) - beta_d_delta
    eps, s, iters, inside = level_search(p_e, xi, lambda _: beta_d_delta,
                                         search_bracket(p_e, xi), t0)
    return eng.OptimizationResult(
        epsilon_star=eps, objective_value=net_work_per_delta(p_e, eps, beta_d_delta),
        converged=abs(s) <= 1e-12, iterations=iters, residual=abs(s),
        roots=(eps,) if inside else ())


def oracle_eta(p_e):
    """``engine.optimize_epsilon_eta`` on ``level_search`` with R as the level,
    evaluating R and the residual F at eps* afresh."""
    if not 0.0 < p_e <= 0.5:
        raise ParameterError(f"p_e must lie in (0, 1/2], got {p_e}")
    if p_e == 0.5:
        return eng.OptimizationResult(epsilon_star=0.5, objective_value=0.0, converged=True,
                                      iterations=0, residual=0.0, roots=(0.5,))
    xi = 1.0 - 2.0 * p_e
    bracket = search_bracket(p_e, xi)
    eps = p_e * p_e / (p_e + xi * (math.e - (2.0 * math.e - 1.0) * p_e))
    eps = min(max(eps, bracket[0]), bracket[1])
    eps, _, iters, inside = level_search(p_e, xi, lambda e: eng._entropy_cost_ratio(p_e, e),
                                         bracket, math.log(eps / (1.0 - eps)))
    x = p_e + eps * xi
    residual = abs(stationarity_base(p_e, xi, eps) * (p_e - eps)
                   + eng.bit_entropy(x) - eng.bit_entropy(eps))
    return eng.OptimizationResult(
        epsilon_star=eps, objective_value=eng._entropy_cost_ratio(p_e, eps),
        converged=inside and residual <= 1e-12, iterations=iters, residual=residual,
        roots=(eps,) if inside else ())


def ratio_round_off(p_e, eps):
    """A few ulps of the entropies the cost ratio R subtracts, over its
    denominator: how far two evaluations of R may disagree by round-off alone."""
    x = p_e + eps * (1.0 - 2.0 * p_e)
    return 8.0 * math.ulp(1.0) * (eng.bit_entropy(x) + eng.bit_entropy(eps)) / (p_e - eps)


def pswap_route(beta_delta: float, eps: float, phase: float = -np.pi / 2) -> dict:
    """Density-matrix route through one engine cycle at working beta_delta and
    demon impurity eps: states, marginals, and the per-stage field energies,
    all derived from the gate sequence alone.

    Returns a dict with the final wit/dit marginals of both pairs, the
    stage-resolved field ledger, and the energy figures (w_minus, w_plus,
    heat) in units of the level spacing. It is what the tests compare
    ``engine.run_cycle``'s closed forms with.
    """
    p_g, p_e = eng.thermal_wit(beta_delta)
    rho_w = np.diag([p_e, p_g]).astype(complex)
    # both demon branches (dit up, dit down) as one (2, 4, 4) stack, kept per stage
    stacks = [np.stack([tensor(rho_w, np.diag(pops).astype(complex))
                        for pops in ((1.0 - eps, eps), (eps, 1.0 - eps))])]
    for g in _pswap_stages(phase):
        stacks.append(g @ stacks[-1] @ dag(g))
    split = np.reshape(stacks, (len(stacks), 2, 2, 2, 2, 2))
    wits = np.einsum("snikjk->snij", split)
    steps = np.diff(wits[:, :, 0, 0].real, axis=0)
    stage_energy = 0.0 + steps[:, 0] + steps[:, 1]  # summed from +0.0, branch by branch
    wit_up, wit_dn = wits[-1]
    dit_up, dit_dn = np.einsum("nkikj->nij", split[-1])

    # extraction: half-Rabi NOT on the deterministically excited wit
    pulse = half_rabi(phase)
    wit_dn_after = pulse @ wit_dn @ dag(pulse)
    w_plus = float((wit_dn[0, 0] - wit_dn_after[0, 0]).real)

    w_minus = float((wit_up[0, 0] + wit_dn[0, 0]).real) - 2.0 * p_e
    leftover = float((wit_up[0, 0] + wit_dn_after[0, 0]).real)
    heat = 2.0 * p_e - leftover

    return {
        "wit_marginals": (wit_up, wit_dn),
        "dit_marginals": (dit_up, dit_dn),
        "dit_marginals_unrotated": (dag(HBAR) @ dit_up @ HBAR,
                                    dag(HBAR) @ dit_dn @ HBAR),
        "joints": tuple(stacks[-1]),
        "stage_field_energy": tuple(float(e) for e in stage_energy),
        "w_minus": w_minus, "w_plus": w_plus, "heat": heat,
        "dit_entropies": (von_neumann_entropy(dit_up), von_neumann_entropy(dit_dn)),
    }


def equivalent_spin_params(config: DoubleDotConfig) -> SpinDemonParams:
    """Spin-channel phases realised by the double-dot protocol:
    α = φ - ϕ - π/2, β = φ + ϕ + π/2."""
    phi = config.interaction_phase
    tp = config.tunneling_phase
    return SpinDemonParams(
        theta=config.theta,
        eta=config.eta,
        phi=phi,
        alpha=phi - tp - np.pi / 2,
        beta_phase=phi + tp + np.pi / 2,
    )
