"""Two-cycle engine: bookkeeping, optimisers, positive-work frontier."""

import math
import re

import numpy as np
import pytest

from qdemon import engine as eng
from qdemon import qmatrix as qm

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
    assert math.isclose(eng.bit_entropy(0.5), LN2, abs_tol=1e-15)
    assert math.isclose(eng.bit_entropy(0.3), 0.6108643020548935, abs_tol=1e-15)
    assert math.isclose(eng.bit_entropy_prime(0.25), math.log(3), abs_tol=1e-15)


def test_thermal_wit_limits():
    _, p_e_cold, _ = eng.thermal_wit(1e9, 1.0)
    assert p_e_cold < 1e-300  # capped exponent, no overflow
    _, p_e_hot, _ = eng.thermal_wit(0.0, 1.0)
    assert p_e_hot == 0.5
    p_g, p_e, rho = eng.thermal_wit(1.0, 1.0)
    assert math.isclose(p_e, 1.0 / (1.0 + math.e), abs_tol=1e-15)
    assert math.isclose(p_g + p_e, 1.0, abs_tol=1e-15)
    assert np.allclose(rho, np.diag([p_e, p_g]), atol=1e-15)
    with pytest.raises(qm.ParameterError):
        eng.thermal_wit(1.0, 0.0)
    with pytest.raises(qm.ParameterError):
        eng.thermal_wit(-1.0, 1.0)


def test_thermal_wit_cap_keeps_smallest_subnormal():
    # exp(-BETA_DELTA_CAP) is the smallest subnormal: p_e never reaches 0.0
    for beta_delta in (eng.BETA_DELTA_CAP, 800.0, 1e9):
        p_g, p_e, _ = eng.thermal_wit(beta_delta, 1.0)
        assert p_e == 5e-324 == math.ulp(0.0)
        assert p_g == 1.0


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
    _, p_e, _ = eng.thermal_wit(1.0, 1.0)
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
                                               delta_w=1.0, epsilon=eps),
                              quantum_check=False)
            assert r.w_in >= -1e-15


@pytest.mark.parametrize("beta_delta", [0.0, 0.3, 1.2, 4.0])
@pytest.mark.parametrize("eps", [0.0, 0.07, 0.3])
def test_gate_route_matches_closed_forms(beta_delta, eps):
    params = eng.EngineParams(beta=beta_delta, beta_d=2.0, delta_w=1.0, epsilon=eps)
    report = eng.run_cycle(params)  # raises internally on disagreement
    route = eng.pswap_route(params)
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
    base = eng.pswap_route(params)
    for phase in (0.0, 0.7, 2.2):
        other = eng.pswap_route(params, phase=phase)
        for key in ("w_minus", "w_plus", "heat"):
            assert math.isclose(base[key], other[key], abs_tol=1e-12)


def test_stage_field_energies():
    params = eng.EngineParams(beta=0.6, beta_d=2.0, delta_w=2.0, epsilon=0.05)
    route = eng.pswap_route(params)
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
    _, p_e, _ = eng.thermal_wit(0.05, 1.0)
    xi = 1 - 2 * p_e
    for bd in (1.0, 2.0):
        approx = 1.0 / (1.0 + math.exp(bd + eng.bit_entropy_prime(p_e) * xi))
        result = eng.optimize_epsilon_power(p_e, bd)
        assert abs(result.epsilon_star - approx) < 5e-3


def test_optimize_power_monotone_in_demon_temperature():
    _, p_e, _ = eng.thermal_wit(0.4, 1.0)
    values = [eng.optimize_epsilon_power(p_e, bd).epsilon_star
              for bd in (1.0, 2.0, 4.0, 8.0)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_optimize_power_true_maximum_on_grid():
    _, p_e, _ = eng.thermal_wit(0.2, 1.0)
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
    """optimize_epsilon_eta as a point-by-point scalar scan: the oracle for
    the array scan, which must give identical results."""
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


def test_optimize_eta_identical_to_scalar_scan():
    rng = np.random.default_rng(1604)
    edges = [1.0000001e-15, 1.5e-15, 2e-15, 1e-10, 0.4999, 0.5, 0.49999999]
    sample = np.concatenate([np.exp(rng.uniform(math.log(1e-15), math.log(0.5), 120)),
                             rng.uniform(0.0, 0.5, 30), edges])
    converged = 0
    for p_e in sample.tolist():
        want = scalar_eta_scan(p_e)
        got = eng.optimize_epsilon_eta(p_e)
        for name in ("epsilon_star", "objective_value", "residual", "converged",
                     "iterations", "roots"):
            assert getattr(got, name) == getattr(want, name), (p_e, name)
        converged += want.converged
    # both branches are exercised: converged roots and the argmin fallback
    assert 0 < converged < len(sample)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")  # oracle at 5e-324
@pytest.mark.parametrize("p_e", [1e-15, 5e-16, 1e-16, 5e-324, 0.0, -0.1, 0.6,
                                 math.nan, math.inf])
def test_optimize_eta_raises_where_scalar_scan_raises(p_e):
    with pytest.raises(qm.ParameterError) as want:
        scalar_eta_scan(p_e)
    with pytest.raises(qm.ParameterError, match=re.escape(str(want.value))):
        eng.optimize_epsilon_eta(p_e)


def test_optimize_eta_demon_temperature_invariant():
    # the policy resolution must return bit-identical impurities whatever the
    # demon temperature of the surrounding sweep
    _, p_e, _ = eng.thermal_wit(0.4, 1.0)
    values = {eng.resolve_epsilon("opt-eta", p_e, bd) for bd in (1.0, 2.0, 4.0)}
    assert len(values) == 1
    reference = eng.optimize_epsilon_eta(p_e).epsilon_star
    assert abs(values.pop() - reference) <= 1e-10


def test_optimize_eta_true_maximum_on_grid():
    _, p_e, _ = eng.thermal_wit(0.5, 1.0)
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


def test_minimal_beta_ideal_never_positive_below_threshold():
    assert math.isnan(eng.minimal_beta(1.0, 1.0, "ideal"))
    assert math.isnan(eng.minimal_beta(2 * LN2 - 1e-3, 1.0, "ideal"))


def test_minimal_beta_ideal_cold_regime():
    beta_m = eng.minimal_beta(20.0, 1.0, "ideal")
    assert abs(beta_m - 19.0) / 19.0 < 0.02


def test_minimal_beta_hot_regime_optimized():
    for policy in ("opt-power", "opt-eta"):
        beta_m = eng.minimal_beta(0.1, 1.0, policy)
        assert abs(beta_m / 0.1 - 0.5) <= 0.05
    # the two optimised frontiers coincide
    bw = eng.minimal_beta(2.0, 1.0, "opt-power")
    be = eng.minimal_beta(2.0, 1.0, "opt-eta")
    assert abs(bw - be) < 1e-6


def test_carnot_bound_on_grid():
    beta_d = 2.0
    for beta in np.linspace(0.0, 2.0, 21):
        for eps in np.linspace(0.0, 0.5, 21):
            r = eng.run_cycle(eng.EngineParams(beta=beta, beta_d=beta_d,
                                               delta_w=1.0, epsilon=eps),
                              quantum_check=False)
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


def test_frontier_epsilon_orderings():
    rows = eng.frontier_epsilons([0.35, 0.42, 0.5], [1.0, 2 * LN2, 2.0])
    for row in rows:
        assert row["eps_w_bd1"] > row["eps_w_bd1.38629"] > row["eps_w_bd2"]
    # the efficiency-optimal impurity is the demon-temperature-free column
    assert math.isclose(rows[-1]["eps_eta"], 0.5, abs_tol=1e-12)
