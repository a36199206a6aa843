"""Two-cycle engine: bookkeeping, optimisers, positive-work frontier."""

import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from mpmath import mp

from qdemon import engine as eng
from qdemon import qmatrix as qm
from qdemon.circuits import CNOT_UP, HBAR, half_rabi, u14
from conftest import power_stationarity, pswap_route, ratio_round_off

LN2 = math.log(2)


def net_per_delta(p_e, eps, bd_delta):
    x = p_e + eps * (1 - 2 * p_e)
    return 2 * (p_e - eps - (eng.bit_entropy(x) - eng.bit_entropy(eps)) / bd_delta)


def eta_2cy(p_e, eps, bd_delta):
    x = p_e + eps * (1 - 2 * p_e)
    return 1 - (eng.bit_entropy(x) - eng.bit_entropy(eps)) / (bd_delta * (p_e - eps))


def test_bit_entropy_values():
    assert eng.bit_entropy(0.0) == 0.0
    assert eng.bit_entropy(1.0) == 0.0
    assert eng.bit_entropy(-0.5) == eng.bit_entropy(1.5) == 0.0
    assert math.isclose(eng.bit_entropy(0.5), LN2, abs_tol=1e-15)
    assert math.isclose(eng.bit_entropy(0.3), 0.6108643020548935, abs_tol=1e-15)
    assert math.isclose(eng.bit_entropy_prime(0.25), math.log(3), abs_tol=1e-15)


def test_thermal_wit_limits():
    _, p_e_cold = eng.thermal_wit(1e9, 1.0)
    assert p_e_cold < 1e-300  # capped exponent, no overflow
    _, p_e_hot = eng.thermal_wit(0.0, 1.0)
    assert p_e_hot == 0.5
    p_g, p_e = eng.thermal_wit(1.0, 1.0)
    assert math.isclose(p_e, 1.0 / (1.0 + math.e), abs_tol=1e-15)
    assert math.isclose(p_g + p_e, 1.0, abs_tol=1e-15)
    with pytest.raises(qm.ParameterError):
        eng.thermal_wit(1.0, 0.0)
    with pytest.raises(qm.ParameterError):
        eng.thermal_wit(-1.0, 1.0)


def test_thermal_wit_cap_keeps_smallest_subnormal():
    # exp(-BETA_DELTA_CAP) is the smallest subnormal: p_e never reaches 0.0
    for beta_delta in (eng.BETA_DELTA_CAP, 800.0, 1e9):
        p_g, p_e = eng.thermal_wit(beta_delta, 1.0)
        assert p_e == 5e-324 == math.ulp(0.0)
        assert p_g == 1.0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_bit_entropy_rejects_non_finite(bad):
    with pytest.raises(qm.ParameterError, match=re.escape(f"x must be finite, got {bad}")):
        eng.bit_entropy(bad)


@pytest.mark.parametrize("policy", ["fixed:abc", "fixed:", "fixed:0.1x"])
def test_parse_policy_rejects_unparsable_fixed_epsilon(policy):
    with pytest.raises(qm.ParameterError, match=re.escape(
            f"fixed epsilon must be a number, got {policy!r}")):
        eng.parse_policy(policy)


def test_params_validation():
    with pytest.raises(qm.ParameterError):
        eng.EngineParams(beta=1.0, beta_d=2.0, delta_w=-1.0)
    with pytest.raises(qm.ParameterError):
        eng.EngineParams(beta=1.0, beta_d=2.0, delta_w=1.0, epsilon=0.7)
    with pytest.raises(qm.ParameterError):
        eng.EngineParams(beta=1.0, beta_d=0.0, delta_w=1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_engine_inputs_rejected(bad):
    calls = {
        "thermal_wit(beta)": lambda: eng.thermal_wit(bad, 1.0),
        "thermal_wit(delta_w)": lambda: eng.thermal_wit(1.0, bad),
        "EngineParams(beta)": lambda: eng.EngineParams(beta=bad, beta_d=2.0, delta_w=1.0),
        "EngineParams(beta_d)": lambda: eng.EngineParams(beta=1.0, beta_d=bad, delta_w=1.0),
        "EngineParams(delta_w)": lambda: eng.EngineParams(beta=1.0, beta_d=2.0, delta_w=bad),
        "optimize_epsilon_power": lambda: eng.optimize_epsilon_power(0.3, bad),
        "minimal_beta(beta_d)": lambda: eng.minimal_beta(bad, 1.0),
        "minimal_beta(delta_w)": lambda: eng.minimal_beta(2.0, bad),
    }
    for name, call in calls.items():
        with pytest.raises(qm.ParameterError, match="must be finite"):
            call()
            pytest.fail(f"{name} accepted {bad}")


def test_ideal_cycle_unit_local_efficiency():
    report = eng.run_cycle(eng.EngineParams(beta=0.8, beta_d=2.0, delta_w=1.5))
    assert math.isclose(report.heat, 2 * report.p_e * 1.5, abs_tol=1e-15)
    assert report.w_out == report.heat
    assert report.eta_local == 1.0
    assert math.isclose(report.w_plus - report.w_minus, report.w_out, abs_tol=1e-12)


def test_cycle_impurity_equal_to_occupation_yields_nothing():
    _, p_e = eng.thermal_wit(1.0, 1.0)
    report = eng.run_cycle(eng.EngineParams(beta=1.0, beta_d=2.0, delta_w=1.0,
                                            epsilon=p_e))
    assert abs(report.w_out) < 1e-15
    assert math.isnan(report.eta_local)
    assert math.isnan(report.eta_2cy)


def test_cycle_beta_zero_costs_no_average_field_energy():
    report = eng.run_cycle(eng.EngineParams(beta=0.0, beta_d=2.0, delta_w=1.0,
                                            epsilon=0.1))
    assert report.w_minus == 0.0
    ledger = dict(report.field_ledger)
    assert ledger["pswap_mid_rotations"] == 0.0
    assert ledger["pswap_final_rotations"] == 0.0
    assert math.isclose(ledger["extraction_pulse"], -0.8, abs_tol=1e-15)


def test_cycle_efficiency_identity_at_zero_impurity():
    beta, beta_d, delta = 0.7, 2.5, 1.3
    report = eng.run_cycle(eng.EngineParams(beta=beta, beta_d=beta_d, delta_w=delta))
    z = 1.0 + math.exp(-beta * delta)
    expected = 1.0 - beta / beta_d - math.log(z) / (beta_d * delta * report.p_e)
    assert math.isclose(report.eta_2cy, expected, abs_tol=1e-12)


def test_entropy_cycle_cost_never_negative():
    for beta_delta in (0.0, 0.1, 0.5, 1.0, 3.0):
        for eps in (0.0, 0.1, 0.3, 0.49):
            r = eng.run_cycle(eng.EngineParams(beta=beta_delta, beta_d=2.0,
                                               delta_w=1.0, epsilon=eps))
            assert r.w_in >= -1e-15


@pytest.mark.parametrize("beta_delta", [0.0, 0.3, 1.2, 4.0])
@pytest.mark.parametrize("eps", [0.0, 0.07, 0.3])
def test_gate_route_matches_closed_forms(beta_delta, eps):
    params = eng.EngineParams(beta=beta_delta, beta_d=2.0, delta_w=1.0, epsilon=eps)
    report = eng.run_cycle(params)
    route = pswap_route(params)
    assert abs(route["w_minus"] - report.w_minus) < 1e-10
    assert abs(route["w_plus"] - report.w_plus) < 1e-10
    assert abs(route["heat"] - report.heat) < 1e-10
    assert abs(route["dit_entropies"][0] - report.dit_out_entropy) < 1e-10
    assert abs(route["dit_entropies"][1] - report.dit_out_entropy) < 1e-10
    # the wits inherit the demon impurity deterministically
    wit_up, wit_dn = route["wit_marginals"]
    assert np.allclose(wit_up, np.diag([eps, 1 - eps]), atol=1e-12)
    assert np.allclose(wit_dn, np.diag([1 - eps, eps]), atol=1e-12)
    # undoing the circuit's final demon rotation exposes the advertised dit states
    p_e = report.p_e
    r_plus_eps = np.diag([(1 - eps) * (1 - p_e) + eps * p_e,
                          (1 - eps) * p_e + eps * (1 - p_e)])
    r_minus_eps = np.diag([(1 - eps) * p_e + eps * (1 - p_e),
                           (1 - eps) * (1 - p_e) + eps * p_e])
    un_up, un_dn = route["dit_marginals_unrotated"]
    assert np.allclose(un_up, r_plus_eps, atol=1e-12)
    assert np.allclose(un_dn, r_minus_eps, atol=1e-12)


def test_gate_route_phase_independent():
    # the drive phase moves individual amplitudes but no energy averages
    params = eng.EngineParams(beta=0.9, beta_d=2.0, delta_w=1.0, epsilon=0.12)
    base = pswap_route(params)
    for phase in (0.0, 0.7, 2.2):
        other = pswap_route(params, phase=phase)
        for key in ("w_minus", "w_plus", "heat"):
            assert math.isclose(base[key], other[key], abs_tol=1e-12)


def branch_by_branch_route(params, phase=-np.pi / 2):
    """pswap_route as it once ran, one dit branch after the other with the
    stage gates rebuilt per call: the oracle for the stacked route."""
    delta, eps = params.delta_w, params.epsilon
    p_g, p_e = eng.thermal_wit(params.beta, delta)
    rho_w = np.diag([p_e, p_g]).astype(complex)
    dits = (np.diag([1.0 - eps, eps]).astype(complex), np.diag([eps, 1.0 - eps]).astype(complex))
    stages = (CNOT_UP, qm.tensor(u14(phase), HBAR), CNOT_UP,
              qm.tensor(u14(phase), np.eye(2, dtype=complex)))

    def wit_energy(joint):
        return delta * float(qm.partial_trace(joint, "first")[0, 0].real)

    stage_energy = np.zeros(len(stages))
    finals = []
    for dit in dits:
        joint = qm.tensor(rho_w, dit)
        prev = wit_energy(joint)
        for k, g in enumerate(stages):
            joint = g @ joint @ qm.dag(g)
            now = wit_energy(joint)
            stage_energy[k] += now - prev
            prev = now
        finals.append(joint)
    wit_up, wit_dn = (qm.partial_trace(j, "first") for j in finals)
    dit_up, dit_dn = (qm.partial_trace(j, "second") for j in finals)
    pulse = half_rabi(phase)
    wit_dn_after = pulse @ wit_dn @ qm.dag(pulse)
    return {
        "wit_marginals": (wit_up, wit_dn),
        "dit_marginals": (dit_up, dit_dn),
        "dit_marginals_unrotated": (qm.dag(HBAR) @ dit_up @ HBAR, qm.dag(HBAR) @ dit_dn @ HBAR),
        "joints": tuple(finals),
        "stage_field_energy": tuple(float(e) for e in stage_energy),
        "w_minus": delta * float((wit_up[0, 0] + wit_dn[0, 0]).real) - 2.0 * p_e * delta,
        "w_plus": delta * float((wit_dn[0, 0] - wit_dn_after[0, 0]).real),
        "heat": 2.0 * p_e * delta - delta * float((wit_up[0, 0] + wit_dn_after[0, 0]).real),
        "dit_entropies": (qm.von_neumann_entropy(dit_up), qm.von_neumann_entropy(dit_dn)),
    }


def route_bytes(route):
    return {key: [np.asarray(v).tobytes() for v in (value if isinstance(value, tuple) else (value,))]
            for key, value in route.items()}


def test_stacked_route_is_bit_identical_to_branch_by_branch():
    rng = np.random.default_rng(3)
    for _ in range(60):
        delta_w = float(rng.choice([1.0, math.exp(rng.uniform(-7.0, 7.0))]))
        params = eng.EngineParams(beta=float(rng.uniform(0.0, 40.0)) / delta_w, beta_d=50.0,
                                  delta_w=delta_w,
                                  epsilon=float(rng.choice([0.0, 0.5, rng.uniform(0.0, 0.5)])))
        phase = float(rng.choice([-np.pi / 2, rng.uniform(-np.pi, np.pi)]))
        assert (route_bytes(pswap_route(params, phase))
                == route_bytes(branch_by_branch_route(params, phase)))


def test_stage_field_energies():
    params = eng.EngineParams(beta=0.6, beta_d=2.0, delta_w=2.0, epsilon=0.05)
    route = pswap_route(params)
    stage = route["stage_field_energy"]
    assert abs(stage[0]) < 1e-12 and abs(stage[2]) < 1e-12  # interactions are free
    report = eng.run_cycle(params)
    assert math.isclose(stage[1], report.w_minus, abs_tol=1e-12)
    assert abs(stage[3]) < 1e-12  # final rotations balance on average


def test_optimize_power_closed_form_at_half():
    for bd in (1.0, 2.0, 4.0):
        result = eng.optimize_epsilon_power(0.5, bd)
        assert result.converged
        assert result.residual <= 1e-12
        assert abs(result.epsilon_star - 1.0 / (1.0 + math.exp(bd))) <= 1e-10


def test_optimize_power_hot_regime_approximation():
    _, p_e = eng.thermal_wit(0.05, 1.0)
    xi = 1 - 2 * p_e
    for bd in (1.0, 2.0):
        approx = 1.0 / (1.0 + math.exp(bd + eng.bit_entropy_prime(p_e) * xi))
        result = eng.optimize_epsilon_power(p_e, bd)
        assert abs(result.epsilon_star - approx) < 5e-3


def test_optimize_power_monotone_in_demon_temperature():
    _, p_e = eng.thermal_wit(0.4, 1.0)
    values = [eng.optimize_epsilon_power(p_e, bd).epsilon_star
              for bd in (1.0, 2.0, 4.0, 8.0)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_optimize_power_true_maximum_on_grid():
    _, p_e = eng.thermal_wit(0.2, 1.0)
    result = eng.optimize_epsilon_power(p_e, 2.0)
    best = net_per_delta(p_e, result.epsilon_star, 2.0)
    for eps in np.arange(1e-3, min(p_e, 0.5), 1e-3):
        assert best >= net_per_delta(p_e, float(eps), 2.0) - 1e-12


def test_optimize_power_nonconvergence_below_floor():
    result = eng.optimize_epsilon_power(0.5, 50.0)
    assert not result.converged
    assert result.residual > 1e-12


def test_optimize_eta_boundary_case():
    result = eng.optimize_epsilon_eta(0.5)
    assert result.epsilon_star == 0.5
    assert result.converged


def test_optimize_eta_cubic_expansion():
    for p_e in (0.45, 0.46, 0.475, 0.49):
        xi = 1 - 2 * p_e
        assert xi <= 0.1
        approx = p_e - xi / 2 + (2.0 / 3.0) * xi ** 3
        result = eng.optimize_epsilon_eta(p_e)
        assert result.converged
        assert abs(result.epsilon_star - approx) <= 1e-3


def test_optimize_eta_single_root_reported():
    for p_e in (0.32, 0.41, 0.47):
        result = eng.optimize_epsilon_eta(p_e)
        assert len(result.roots) == 1
        assert result.residual <= 1e-12


def scalar_eta_scan(p_e):
    """optimize_epsilon_eta as it once was, a 1,001-point scan with every
    sign change bisected: the oracle the single Newton search must not fall
    behind, and whose H' domain errors it keeps."""
    if not 0.0 < p_e <= 0.5:
        raise qm.ParameterError(f"p_e must lie in (0, 1/2], got {p_e}")
    if p_e == 0.5:
        return eng.OptimizationResult(
            epsilon_star=0.5, objective_value=0.0, converged=True,
            iterations=0, residual=0.0, roots=(0.5,),
        )
    xi = 1.0 - 2.0 * p_e

    def stationarity(eps):
        return ((xi * eng.bit_entropy_prime(p_e + eps * xi) - eng.bit_entropy_prime(eps))
                * (p_e - eps)
                + eng.bit_entropy(p_e + eps * xi) - eng.bit_entropy(eps))

    grid = np.linspace(eng.EPS_FLOOR, p_e - eng.EPS_FLOOR, 1001)
    values = [stationarity(g) for g in grid]
    roots = []
    total_iters = 0
    for i in range(len(grid) - 1):
        if values[i] == 0.0:
            roots.append(float(grid[i]))
        elif values[i] * values[i + 1] < 0.0:
            root, _, iters = eng._bisect(stationarity, float(grid[i]), float(grid[i + 1]))
            roots.append(root)
            total_iters += iters
    if not roots:
        best = float(grid[int(np.argmin(np.abs(values)))])
        return eng.OptimizationResult(
            epsilon_star=best, objective_value=eng._entropy_cost_ratio(p_e, best),
            converged=False, iterations=total_iters,
            residual=abs(stationarity(best)), roots=(),
        )
    best = min(roots, key=lambda r: eng._entropy_cost_ratio(p_e, r))
    residual = abs(stationarity(best))
    return eng.OptimizationResult(
        epsilon_star=best, objective_value=eng._entropy_cost_ratio(p_e, best),
        converged=residual <= 1e-12, iterations=total_iters,
        residual=residual, roots=tuple(roots),
    )


def dinkelbach_eta(p_e):
    """optimize_epsilon_eta as it was before the single search: Dinkelbach's
    iteration lambda <- R(eps_power(lambda)) (W. Dinkelbach, "On nonlinear
    fractional programming", Management Science 13(7), 1967), each pass an
    opt-power search at beta_d*delta_w = lambda, stopping once lambda fails to
    fall by more than 4 ulps. The search no longer hands back its last t, so
    each pass starts from ln(eps/(1-eps)) of the last eps."""
    if p_e == 0.5:
        return eng.OptimizationResult(epsilon_star=0.5, objective_value=0.0, converged=True,
                                      iterations=0, residual=0.0, roots=(0.5,))
    xi = 1.0 - 2.0 * p_e
    bracket = eng._bracket(p_e, xi)
    eps = p_e * p_e / (p_e + xi * (math.e - (2.0 * math.e - 1.0) * p_e))
    eps = min(max(eps, bracket[0]), bracket[1])
    lam, iters = eng._entropy_cost_ratio(p_e, eps), 0
    for _ in range(60):
        eps, _, steps, inside = eng._max_net_work(p_e, xi, lambda _, lam=lam: lam, bracket,
                                                  math.log(eps / (1.0 - eps)))
        iters += steps
        ratio = eng._entropy_cost_ratio(p_e, eps)
        if not ratio < lam - 4.0 * math.ulp(lam):
            break
        lam = ratio
    x = p_e + eps * xi
    residual = abs(eng._stationarity_base(p_e, xi, eps) * (p_e - eps)
                   + eng.bit_entropy(x) - eng.bit_entropy(eps))
    return eng.OptimizationResult(
        epsilon_star=eps, objective_value=ratio, converged=inside and residual <= 1e-12,
        iterations=iters, residual=residual, roots=(eps,) if inside else ())


def mp_eta_root(p_e):
    """eps* at 50 digits: R's stationarity function F(eps) = [xi H'[x] -
    H'[eps]](p_e - eps) + H[x] - H[eps] solved with mpmath's Illinois method
    in t = ln(eps/(1-eps)) over opt-eta's bracket (p_e taken exactly)."""
    with mp.workdps(50):
        p = mp.mpf(p_e)
        xi = 1 - 2 * p

        def entropy(y):
            return -y * mp.log(y) - (1 - y) * mp.log1p(-y)

        def stationarity(t):
            eps = 1 / (1 + mp.exp(-t))
            x = p + eps * xi
            return ((xi * mp.log((1 - x) / x) - mp.log((1 - eps) / eps)) * (p - eps)
                    + entropy(x) - entropy(eps))

        lo, hi = mp.mpf(eng.EPS_FLOOR), p - mp.mpf(eng.EPS_FLOOR)
        t = mp.findroot(stationarity, (mp.log(lo / (1 - lo)), mp.log(hi / (1 - hi))),
                        solver="illinois")
        return 1 / (1 + mp.exp(-t))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(p_e=st.floats(math.log(2 * eng.EPS_FLOOR), math.log(0.5), exclude_max=True).map(math.exp))
@example(p_e=2 * eng.EPS_FLOOR)
@example(p_e=0.5 - 1e-4)
@example(p_e=0.5 - 1e-7)
def test_optimize_eta_matches_dinkelbach(p_e):
    assume(p_e < 0.5)
    want, got = dinkelbach_eta(p_e), eng.optimize_epsilon_eta(p_e)
    # closer to 1/2 both answers are set by round-off (ROADMAP item 7)
    if 0.5 - p_e >= 1e-7:
        assert got.converged == want.converged
        assert (abs(got.objective_value - want.objective_value)
                <= ratio_round_off(p_e, want.epsilon_star))
    if 0.5 - p_e >= 1e-4:
        assert abs(got.epsilon_star - want.epsilon_star) <= 1e-11 * want.epsilon_star


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(beta_delta=st.floats(math.log(1e-4), math.log(16.0)).map(math.exp))
@example(beta_delta=1e-4)
@example(beta_delta=16.0)
def test_optimize_eta_matches_mpmath_root(beta_delta):
    _, p_e = eng.thermal_wit(beta_delta, 1.0)
    result = eng.optimize_epsilon_eta(p_e)
    want = mp_eta_root(p_e)
    assert result.converged
    assert float(abs(result.epsilon_star - want)) <= 1e-11 * float(want)


def test_optimize_eta_no_worse_than_scalar_scan():
    rng = np.random.default_rng(1604)
    edges = [2e-15, 1e-10, 0.4999, 0.5, 0.49999999]
    sample = np.concatenate([np.exp(rng.uniform(math.log(2e-15), math.log(0.5), 120)),
                             rng.uniform(0.0, 0.5, 30), edges])
    converged = 0
    for p_e in sample.tolist():
        want = scalar_eta_scan(p_e)
        got = eng.optimize_epsilon_eta(p_e)
        if want.converged:
            # R is flat at its minimum: its round-off, not the search, sets the margin
            assert got.converged and got.residual <= 1e-12, p_e
            slack = 0.0 if p_e == 0.5 else ratio_round_off(p_e, want.epsilon_star)
            assert got.objective_value <= want.objective_value + slack, p_e
            converged += 1
    # both kinds of point are sampled: roots inside the bracket and below its floor
    assert 0 < converged < len(sample)


@pytest.mark.parametrize("p_e", [1.0000001e-15, 1.5e-15, 1.9999999e-15])
def test_optimizers_reject_an_empty_bracket(p_e):
    # min(p_e, 1/2) - EPS_FLOOR < EPS_FLOOR: no impurity lies above the floor
    for optimize in (eng.optimize_epsilon_eta, lambda pe: eng.optimize_epsilon_power(pe, 2.0)):
        with pytest.raises(qm.ParameterError, match="no epsilon bracket"):
            optimize(p_e)
    assert eng.optimize_epsilon_power(2e-15, 2.0).epsilon_star == eng.EPS_FLOOR


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")  # oracle at 5e-324
@pytest.mark.parametrize("p_e", [1e-15, 5e-16, 1e-16, 5e-324, 0.0, -0.1, 0.6,
                                 math.nan, math.inf])
def test_optimize_eta_raises_where_scalar_scan_raises(p_e):
    with pytest.raises(qm.ParameterError):
        scalar_eta_scan(p_e)
    # both optimisers decline a p_e without an impurity bracket the same way
    with pytest.raises(qm.ParameterError) as want:
        eng.optimize_epsilon_power(p_e, 2.0)
    with pytest.raises(qm.ParameterError, match=re.escape(str(want.value))):
        eng.optimize_epsilon_eta(p_e)


def test_optimize_eta_demon_temperature_invariant():
    # the policy resolution must return bit-identical impurities whatever the
    # demon temperature of the surrounding sweep
    _, p_e = eng.thermal_wit(0.4, 1.0)
    values = {eng.resolve_epsilon("opt-eta", p_e, bd) for bd in (1.0, 2.0, 4.0)}
    assert len(values) == 1
    reference = eng.optimize_epsilon_eta(p_e).epsilon_star
    assert abs(values.pop() - reference) <= 1e-10


def test_optimize_eta_true_maximum_on_grid():
    _, p_e = eng.thermal_wit(0.5, 1.0)
    star = eng.optimize_epsilon_eta(p_e).epsilon_star
    best = eta_2cy(p_e, star, 2.0)
    for eps in np.arange(1e-3, p_e - 1e-3, 1e-3):
        assert best >= eta_2cy(p_e, float(eps), 2.0) - 1e-12


def test_policy_parsing():
    assert eng.resolve_epsilon("ideal", 0.4, 2.0) == 0.0
    assert eng.resolve_epsilon("fixed:0.2", 0.4, 2.0) == 0.2
    with pytest.raises(qm.ParameterError):
        eng.resolve_epsilon("bogus", 0.4, 2.0)
    with pytest.raises(qm.ParameterError):
        eng.resolve_epsilon("fixed:0.9", 0.4, 2.0)


def test_point_of_zero_ideal_work_at_threshold():
    # at beta -> 0 the ideal engine's net work crosses zero when the demon
    # reservoir sits exactly at 2 ln 2 per level spacing
    assert abs(net_per_delta(0.5, 0.0, 2 * LN2)) < 1e-9
    assert net_per_delta(0.5, 0.0, 2 * LN2 + 0.01) > 0
    assert net_per_delta(0.5, 0.0, 2 * LN2 - 0.01) < 0


@pytest.mark.parametrize("beta_d, delta_w", [(0.0, 1.0), (-2.0, 1.0), (2.0, 0.0), (2.0, -1.0)])
def test_minimal_beta_rejects_non_positive_scales(beta_d, delta_w):
    with pytest.raises(qm.ParameterError, match="beta_d and delta_w must be positive"):
        eng.minimal_beta(beta_d, delta_w)


def test_minimal_beta_ideal_never_positive_below_threshold():
    assert math.isnan(eng.minimal_beta(1.0, 1.0, "ideal"))
    assert math.isnan(eng.minimal_beta(2 * LN2 - 1e-3, 1.0, "ideal"))


def test_minimal_beta_ideal_cold_regime():
    beta_m = eng.minimal_beta(20.0, 1.0, "ideal")
    assert abs(beta_m - 19.0) / 19.0 < 0.02


@pytest.mark.parametrize("beta_d, delta_w, policy", [
    (760.0, 1.0, "ideal"), (1000.0, 1.0, "ideal"), (380.0, 2.0, "ideal"),
    (760.0, 1.0, "fixed:0"),
])
def test_minimal_beta_raises_past_the_population_cap(beta_d, delta_w, policy):
    # p_e stops falling at BETA_DELTA_CAP, so R never reaches beta_d*delta_w and
    # net work never changes sign; the bisection once returned beta_d itself
    with pytest.raises(qm.ParameterError, match="BETA_DELTA_CAP"):
        eng.minimal_beta(beta_d, delta_w, policy)


def test_minimal_beta_below_the_population_cap_unchanged():
    assert eng.minimal_beta(700.0, 1.0, "ideal") == 699.0


@pytest.mark.parametrize("delta_w", [1.0, 2.0])
@pytest.mark.parametrize("policy", ["ideal", "fixed:0"])
def test_minimal_beta_exact_where_p_e_is_subnormal(delta_w, policy):
    # R = beta*delta_w + 1 up to e^-beta*delta_w, so the root is beta_d - 1/delta_w;
    # ln p_e taken from a subnormal p_e once put it 0.092 off at beta_d*delta_w = 744
    for beta_d_delta in np.linspace(700.0, 744.0, 45):
        beta_d = float(beta_d_delta) / delta_w
        assert abs(eng.minimal_beta(beta_d, delta_w, policy) - (beta_d - 1.0 / delta_w)) <= 1e-12


def test_minimal_beta_hot_regime_optimized():
    for policy in ("opt-power", "opt-eta"):
        beta_m = eng.minimal_beta(0.1, 1.0, policy)
        assert abs(beta_m / 0.1 - 0.5) <= 0.05
    # the two optimised frontiers coincide
    bw = eng.minimal_beta(2.0, 1.0, "opt-power")
    be = eng.minimal_beta(2.0, 1.0, "opt-eta")
    assert abs(bw - be) < 1e-6


def policy_net_work(delta_w, policy, bd_delta):
    """Net work per delta_w at a working beta under the policy's own eps."""
    def net(beta):
        p_e = eng.thermal_wit(beta, delta_w)[1]
        return eng._net_work_per_delta(p_e, eng.resolve_epsilon(policy, p_e, bd_delta),
                                       bd_delta)
    return net


def scan_minimal_beta(beta_d, delta_w, policy):
    """minimal_beta as it once was: the net work on 257 points over
    [0, beta_d], its last sign change bisected. The oracle for the single root."""
    net = policy_net_work(delta_w, policy, beta_d * delta_w)
    grid = np.linspace(0.0, beta_d, 257)
    positive = [i for i, beta in enumerate(grid) if net(float(beta)) > 0.0]
    if not positive:
        return math.nan
    i = positive[-1]
    if i == len(grid) - 1:
        return float(grid[-1])
    return eng._bisect(net, float(grid[i]), float(grid[i + 1]), max_iter=100)[0]


def minimal_beta_outcome(find, *args):
    """("no convergence" | "nan" | "number", value) of a minimal-beta search."""
    try:
        value = find(*args)
    except qm.ConvergenceError:
        return "no convergence", None
    return ("nan", None) if math.isnan(value) else ("number", value)


def test_minimal_beta_matches_the_scan():
    rng = np.random.default_rng(11)
    seen = set()
    for _ in range(600):
        bd_delta = math.exp(rng.uniform(math.log(0.1), math.log(60.0)))
        delta_w = math.exp(rng.uniform(math.log(0.1), math.log(10.0)))
        policy = ("ideal", "opt-power", "opt-eta",
                  f"fixed:{rng.uniform(0.0, 0.5)!r}")[rng.integers(4)]
        case = (bd_delta / delta_w, delta_w, policy)
        want, want_value = minimal_beta_outcome(scan_minimal_beta, *case)
        got, value = minimal_beta_outcome(eng.minimal_beta, *case)
        seen.add(got)
        if (want, got) == ("no convergence", "number"):
            # the scan also solves at grid points colder than the root, where
            # eps* drops below the floor; net work changes sign at the root,
            # with the policy's optimiser converged on both sides
            net = policy_net_work(delta_w, policy, bd_delta)
            assert net(value * (1.0 - 1e-9)) > 0.0 > net(value * (1.0 + 1e-9)), case
            continue
        assert got == want, case
        if got == "number":
            assert abs(value - want_value) <= 1e-11 * want_value, case
    assert seen == {"no convergence", "nan", "number"}


def test_carnot_bound_on_grid():
    beta_d = 2.0
    for beta in np.linspace(0.0, 2.0, 21):
        for eps in np.linspace(0.0, 0.5, 21):
            r = eng.run_cycle(eng.EngineParams(beta=beta, beta_d=beta_d,
                                               delta_w=1.0, epsilon=eps))
            if r.net_work > 0:
                assert r.eta_2cy <= 1.0 - beta / beta_d + 1e-9


def test_sweep_rows_and_determinism():
    grid = np.linspace(0.0, 2.0, 15)
    rows_a = eng.sweep_beta(2.0, "opt-power", grid)
    rows_b = eng.sweep_beta(2.0, "opt-power", grid)
    assert rows_a == rows_b
    assert [r["beta_delta"] for r in rows_a] == list(grid)
    for row in rows_a:
        assert set(row) == {"beta_delta", "p_e", "epsilon", "heat",
                            "net_work", "eta_2cy", "eta_carnot"}
        assert math.isclose(row["eta_carnot"], 1 - row["beta_delta"] / 2.0,
                            abs_tol=1e-12)


def cycle_row(beta_d_delta, policy, bd):
    """A sweep row as ``run_cycle`` gives it: the oracle for sweep_beta's arithmetic."""
    _, p_e = eng.thermal_wit(bd, 1.0)
    eps = eng.resolve_epsilon(policy, p_e, beta_d_delta)
    r = eng.run_cycle(eng.EngineParams(beta=bd, beta_d=beta_d_delta, delta_w=1.0, epsilon=eps))
    return {"beta_delta": bd, "p_e": r.p_e, "epsilon": eps, "heat": r.heat,
            "net_work": r.net_work, "eta_2cy": r.eta_2cy, "eta_carnot": 1.0 - bd / beta_d_delta}


def outcome(fn, *args):
    """The bits of fn's rows, or the type and message of what it raised."""
    try:
        rows = fn(*args)
    except (qm.ParameterError, qm.ConvergenceError) as exc:
        return type(exc), str(exc)
    return [{k: float(v).hex() for k, v in row.items()} for row in rows]


policies = st.one_of(st.sampled_from(["ideal", "opt-power", "opt-eta"]),
                     st.floats(0.0, 0.5).map(lambda eps: f"fixed:{eps!r}"))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(policy=policies, beta_d_delta=st.floats(1e-3, 60.0),
       beta_deltas=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 60.0),
                                      st.floats(eng.BETA_DELTA_CAP, 1e300)), max_size=4))
@example(policy="ideal", beta_d_delta=2.0, beta_deltas=[0.0, 1.0, 800.0])
@example(policy="fixed:0.5", beta_d_delta=2.0, beta_deltas=[0.0, 2.0])
@example(policy="opt-eta", beta_d_delta=40.0, beta_deltas=[0.0, 20.0, 40.0])
def test_sweep_rows_are_the_cycle(policy, beta_d_delta, beta_deltas):
    got = outcome(eng.sweep_beta, beta_d_delta, policy, beta_deltas)
    rows = [outcome(lambda: [cycle_row(beta_d_delta, policy, bd)]) for bd in beta_deltas]
    failed = [r for r in rows if not isinstance(r, list)]
    assert got == (failed[0] if failed else [row for r in rows for row in r])


@pytest.mark.parametrize("policy", ["ideal", "fixed:0.1", "opt-power", "opt-eta"])
@pytest.mark.parametrize("beta_d_delta", [0.0, -1.0, math.nan, math.inf])
def test_sweep_refuses_beta_d_delta_as_the_cycle_does(policy, beta_d_delta):
    want = outcome(lambda: [cycle_row(beta_d_delta, policy, 1.0)])
    assert outcome(eng.sweep_beta, beta_d_delta, policy, [1.0]) == want
    assert not isinstance(want, list)
    assert eng.sweep_beta(beta_d_delta, policy, []) == []


@pytest.mark.parametrize("policy", ["bogus", "fixed:0.9", "fixed:x"])
@pytest.mark.parametrize("grid", [[], [-1.0], [math.nan, 1.0], [1.0, 2.0]])
def test_sweep_refuses_a_bad_policy_before_any_row(policy, grid):
    # the policy is parsed once, ahead of the grid and beta_d_delta checks
    with pytest.raises(qm.ParameterError) as want:
        eng.parse_policy(policy)
    with pytest.raises(qm.ParameterError) as got:
        eng.sweep_beta(-1.0, policy, grid)
    assert str(got.value) == str(want.value)


def test_sweep_parses_its_policy_once():
    with mock.patch.object(eng, "parse_policy", wraps=eng.parse_policy) as parse:
        rows = eng.sweep_beta(2.0, "fixed:0.1", np.linspace(0.0, 2.0, 21))
    assert len(rows) == 21 and parse.call_count == 1


@pytest.mark.parametrize("policy", ["ideal", "fixed:0.1", "opt-power", "opt-eta"])
def test_sweep_row_builds_no_dataclass(policy):
    # a row is arithmetic: one population, no EngineParams or CycleReport to validate
    with mock.patch.object(eng, "thermal_wit", wraps=eng.thermal_wit) as wit, \
         mock.patch.object(eng, "EngineParams", wraps=eng.EngineParams) as params, \
         mock.patch.object(eng, "CycleReport", wraps=eng.CycleReport) as report:
        rows = eng.sweep_beta(2.0, policy, np.linspace(0.0, 2.0, 21))
    assert len(rows) == wit.call_count == 21
    assert params.call_count == report.call_count == 0


def test_frontier_epsilon_orderings():
    rows = eng.frontier_epsilons([0.35, 0.42, 0.5], [1.0, 2 * LN2, 2.0])
    for row in rows:
        assert row["eps_w_bd1"] > row["eps_w_bd1.38629"] > row["eps_w_bd2"]
    # the efficiency-optimal impurity is the demon-temperature-free column
    assert math.isclose(rows[-1]["eps_eta"], 0.5, abs_tol=1e-12)


def golden_max(f, lo, hi, max_iter=300):
    """The golden-section fallback optimize_epsilon_power used before it
    returned a bracket end: the oracle for the no-sign-change branch."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    it = 0
    while (b - a) > 1e-14 and it < max_iter:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
        it += 1
    x = 0.5 * (a + b)
    return x, it


def confirm_maximum(objective, eps_star, lo, hi):
    """The finite-difference maximum check optimize_epsilon_power once ran."""
    step = 1e-6
    center = objective(eps_star)
    left = objective(max(lo, eps_star - step))
    right = objective(min(hi, eps_star + step))
    return center >= left - 1e-12 and center >= right - 1e-12


def power_bracket(p_e):
    return eng.EPS_FLOOR, min(p_e, 0.5) - eng.EPS_FLOOR


def no_sign_change_cases():
    rng = np.random.default_rng(7557)
    # root below the floor: s > 0 on the whole bracket, the objective falls
    for _ in range(40):
        _, p_e = eng.thermal_wit(rng.uniform(0.0, 5.0), 1.0)
        yield p_e, float(np.exp(rng.uniform(math.log(36.0), math.log(300.0)))), "lo"
    # s(hi) < 0 once beta_d*delta_w falls below -s(hi) at beta_d*delta_w = 0
    # (about ln 2 cold, beta_delta hot): the objective rises to hi
    for _ in range(40):
        _, p_e = eng.thermal_wit(rng.uniform(0.5, 20.0), 1.0)
        threshold = -power_stationarity(p_e, 0.0, power_bracket(p_e)[1])
        yield p_e, threshold * rng.uniform(0.05, 0.95), "hi"


@pytest.mark.parametrize("p_e,bd_delta,end", list(no_sign_change_cases()))
def test_optimize_power_without_sign_change_returns_bracket_end(p_e, bd_delta, end):
    lo, hi = power_bracket(p_e)
    s_lo, s_hi = power_stationarity(p_e, bd_delta, lo), power_stationarity(p_e, bd_delta, hi)
    assert (s_lo > 0.0 and s_hi > 0.0) if end == "lo" else (s_lo < 0.0 and s_hi < 0.0)

    def objective(eps):
        return net_per_delta(p_e, eps, bd_delta)

    golden, _ = golden_max(objective, lo, hi)
    golden_converged = (abs(power_stationarity(p_e, bd_delta, golden)) <= 1e-12
                        and confirm_maximum(objective, golden, lo, hi))
    result = eng.optimize_epsilon_power(p_e, bd_delta)
    assert result.epsilon_star == (lo if end == "lo" else hi)
    assert abs(result.epsilon_star - golden) <= 1e-12
    assert result.converged is golden_converged is False
    assert result.iterations == 0
    assert result.roots == ()
    assert result.residual == abs(power_stationarity(p_e, bd_delta, result.epsilon_star))
    assert result.objective_value == eng._net_work_per_delta(p_e, result.epsilon_star, bd_delta)


@pytest.mark.parametrize("target", ["power", "eta"])
def test_newton_safeguard_bisects_a_step_that_leaves_the_bracket(target):
    # from the bracket's upper end, right of the root, the first Newton step
    # overshoots the sign bracket's lower end, so the search must bisect
    p_e, xi = 0.3, 0.4
    if target == "power":
        level, public = (lambda _: 30.0), eng.optimize_epsilon_power(p_e, 30.0)
    else:
        level, public = ((lambda eps: eng._entropy_cost_ratio(p_e, eps)),
                         eng.optimize_epsilon_eta(p_e))
    bracket = eng._bracket(p_e, xi)
    lo, hi = bracket[:2]
    start = math.log(hi / (1.0 - hi))
    x = p_e + hi * xi
    s = eng._stationarity_base(p_e, xi, hi) + level(hi)
    step = s / (1.0 - xi * xi * hi * (1.0 - hi) / (x * (1.0 - x)))
    assert s > 0.0 and start - step < math.log(lo / (1.0 - lo))
    eps, s, _, inside = eng._max_net_work(p_e, xi, level, bracket, start)
    assert inside and abs(s) <= 1e-12
    assert abs(eps - public.epsilon_star) <= 1e-12 * public.epsilon_star


def test_optimize_power_root_at_upper_end_converges():
    # beta = beta_d: s(hi) ~ 2 xi^3 ~ 1e-19, so the upper end solves the
    # stationarity equation, though round-off in the objective (~1e-10 here)
    # hides the maximum from a search on the objective within ~1e-9 of it
    _, p_e = eng.thermal_wit(1e-6, 1.0)
    result = eng.optimize_epsilon_power(p_e, 1e-6)
    assert result.epsilon_star == power_bracket(p_e)[1]
    assert result.converged and result.residual <= 1e-12
    assert result.iterations == 0 and result.roots == ()


def width_only_bisect(f, lo, hi, max_iter=200):
    """The bisection without the stop on a midpoint that rounds onto an end."""
    flo = f(lo)
    root = 0.5 * (lo + hi)
    for it in range(1, max_iter + 1):
        root = 0.5 * (lo + hi)
        fr = f(root)
        if fr == 0.0 or (hi - lo) < 1e-17:
            return root, fr, it
        if (fr < 0.0) == (flo < 0.0):
            lo, flo = root, fr
        else:
            hi = root
    return root, f(root), max_iter


def test_bisect_returns_its_last_midpoint_when_max_iter_runs_out():
    # midpoints 1.5, 1.25, 1.375 of x^2 - 2 on [1, 2]: none stops the loop
    assert eng._bisect(lambda x: x * x - 2.0, 1.0, 2.0, max_iter=3) == (1.375, 1.375**2 - 2.0, 3)


@pytest.mark.parametrize("max_iter", [200, 100])
def test_bisect_stops_when_midpoint_reaches_bracket_end(max_iter):
    _, p_e = eng.thermal_wit(1e-6, 1.0)  # the `engine optimize` defaults
    cases = [
        (lambda eps: power_stationarity(p_e, 2.0, eps), *power_bracket(p_e)),
        (lambda x: x * x - 2.0, 1.0, 2.0),
        (math.cos, 1.0, 2.0),
    ]
    for f, lo, hi in cases:
        want_root, want_fr, want_iters = width_only_bisect(f, lo, hi, max_iter)
        root, fr, iters = eng._bisect(f, lo, hi, max_iter)
        assert want_root > 0.05 and want_iters == max_iter  # the old loop spun to the cap
        assert (root, fr) == (want_root, want_fr)
        assert iters < max_iter
    result = eng.optimize_epsilon_power(p_e, 2.0)
    assert result.converged and result.iterations < 200
    want = width_only_bisect(*cases[0])[0]
    assert abs(result.epsilon_star - want) <= 4 * math.ulp(want)
    assert abs(power_stationarity(p_e, 2.0, result.epsilon_star)) <= 1e-12
