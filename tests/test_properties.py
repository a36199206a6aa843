"""Property tests of the invariants the channel, interferometer and engine
docstrings state."""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qdemon import channel as ch
from qdemon import engine as eng
from qdemon.circuits import DoubleDotConfig, double_dot_protocol
from qdemon.interferometer import MziConfig, run_double_mzi
from qdemon.spin_demon import SpinDemonParams, spin_config
from conftest import power_stationarity, random_density, random_unitary

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)

angles = st.floats(-np.pi, np.pi, allow_nan=False)
seeds = st.integers(0, 2**32 - 1)
# demon up-weights, with the pure and nearly pure edges where |γ| -> 1
weights = st.one_of(st.sampled_from([0.0, 1.0, 1e-15, 1.0 - 1e-15, 0.5]),
                    st.floats(0.0, 1.0))


def assert_report_invariants(report):
    out = report.rho_out
    assert abs(np.trace(out) - 1.0) <= 1e-10
    assert np.abs(out - out.conj().T).max() <= 1e-10
    assert np.linalg.eigvalsh(out).min() >= -1e-10
    assert report.entropy_gain >= report.lower_bound - 1e-9
    assert np.isfinite(report.lower_bound)


@PROPERTY
@given(seed=seeds)
def test_haar_channel_invariants(seed):
    rng = np.random.default_rng(seed)
    config = ch.ChannelConfig(random_unitary(rng), tuple(random_unitary(rng) for _ in range(4)),
                              random_density(rng))
    report = ch.apply_channel(random_density(rng), config)
    assert_report_invariants(report)
    s = config.scattering
    assert abs(report.gamma) <= 2.0 * abs(s[0, 0] * np.conj(s[1, 0])) + 1e-12


@PROPERTY
@given(theta=angles, eta=angles, phi=angles, alpha=angles, beta=angles, p=weights, seed=seeds)
@example(theta=0.0, eta=np.pi, phi=0.0, alpha=0.0, beta=0.0, p=1.0, seed=0)
@example(theta=0.3, eta=1.1, phi=0.7, alpha=0.2, beta=-0.4, p=0.0, seed=1)
def test_spin_channel_invariants(theta, eta, phi, alpha, beta, p, seed):
    config = spin_config(SpinDemonParams(theta, eta, phi, alpha, beta), np.diag([p, 1.0 - p]))
    report = ch.apply_channel(random_density(np.random.default_rng(seed)), config)
    assert_report_invariants(report)
    s = config.scattering
    assert abs(report.gamma) <= 2.0 * abs(s[0, 0] * np.conj(s[1, 0])) + 1e-12


@PROPERTY
@given(tunneling=angles, interaction=angles, theta=angles, eta=angles, p=weights,
       seed=seeds, complete=st.booleans())
def test_double_dot_invariants(tunneling, interaction, theta, eta, p, seed, complete):
    config = DoubleDotConfig(tunneling, interaction, theta, eta)
    report = double_dot_protocol(random_density(np.random.default_rng(seed)),
                                 np.diag([p, 1.0 - p]), config, complete_rotation=complete)
    assert_report_invariants(report)


@PROPERTY
@given(chi=st.floats(0.0, np.pi), epsilon=st.one_of(st.sampled_from([0.0, 0.5]),
                                                    st.floats(0.0, 0.5)),
       theta=angles, eta=angles, phi=angles, arm=angles, bypass=st.booleans(),
       samples=st.integers(8, 256))
@example(chi=np.pi / 2, epsilon=0.0, theta=0.0, eta=np.pi, phi=0.0, arm=np.pi / 2,
         bypass=False, samples=96)
@example(chi=np.pi / 2, epsilon=0.5, theta=0.0, eta=np.pi, phi=0.0, arm=np.pi / 2,
         bypass=False, samples=96)
def test_mzi_probabilities_sum_to_one(chi, epsilon, theta, eta, phi, arm, bypass, samples):
    report = run_double_mzi(MziConfig(chi=chi, epsilon=epsilon, flux_samples=samples,
                                      params=SpinDemonParams(theta, eta, phi),
                                      arm_phase=arm, bypass_demon=bypass))
    assert np.abs(report.p3 + report.p4 - 1.0).max() <= 1e-12
    assert report.p3.min() >= -1e-12 and report.p3.max() <= 1.0 + 1e-12


# beta*delta_w of the working reservoir, with the edges beta*delta_w -> 0
# (p_e -> 1/2) and p_e -> 0 (p_e = 1.3e-14 at 32, one decade above the floor)
beta_deltas = st.one_of(st.sampled_from([0.0, 1e-12, 1e-6, 32.0]), st.floats(0.0, 32.0))
beta_d_deltas = st.floats(1e-2, 1e3)


@PROPERTY
@given(beta_delta=beta_deltas, bd_delta=beta_d_deltas)
def test_power_stationarity_increases_on_bracket(beta_delta, bd_delta):
    _, p_e, _ = eng.thermal_wit(beta_delta, 1.0)
    grid = np.linspace(eng.EPS_FLOOR, min(p_e, 0.5) - eng.EPS_FLOOR, 65)
    s = [power_stationarity(p_e, bd_delta, float(eps)) for eps in grid]
    assert all(a < b for a, b in zip(s, s[1:]))
    xi = 1.0 - 2.0 * p_e
    x = p_e + grid * xi
    assert (1.0 / (grid * (1.0 - grid)) - xi**2 / (x * (1.0 - x)) > 0.0).all()


@PROPERTY
@given(beta_delta=beta_deltas, bd_delta=beta_d_deltas)
@example(beta_delta=1e-6, bd_delta=2.0)
@example(beta_delta=0.0, bd_delta=1e-2)
def test_power_optimum_is_a_local_maximum(beta_delta, bd_delta):
    _, p_e, _ = eng.thermal_wit(beta_delta, 1.0)
    result = eng.optimize_epsilon_power(p_e, bd_delta)
    lo, hi = eng.EPS_FLOOR, min(p_e, 0.5) - eng.EPS_FLOOR
    assert lo <= result.epsilon_star <= hi
    if result.converged:
        assert result.residual <= 1e-12
        best = result.objective_value
        for eps in (max(lo, result.epsilon_star - 1e-6), min(hi, result.epsilon_star + 1e-6)):
            assert best >= eng._net_work_per_delta(p_e, eps, bd_delta) - 1e-12


@PROPERTY
@given(beta_delta=beta_deltas, bd_delta=beta_d_deltas,
       delta_w=st.one_of(st.just(1.0), st.floats(1e-3, 1e3)))
@example(beta_delta=0.0, bd_delta=2.0, delta_w=1.0)
@example(beta_delta=32.0, bd_delta=40.0, delta_w=1.0)
def test_cycle_at_power_optimum_balances_and_stays_below_carnot(beta_delta, bd_delta, delta_w):
    _, p_e, _ = eng.thermal_wit(beta_delta, 1.0)
    eps = eng.optimize_epsilon_power(p_e, bd_delta).epsilon_star
    beta, beta_d = beta_delta / delta_w, bd_delta / delta_w
    r = eng.run_cycle(eng.EngineParams(beta=beta, beta_d=beta_d, delta_w=delta_w,
                                       epsilon=eps), quantum_check=False)
    assert abs(r.w_out - (r.w_plus - r.w_minus)) <= 1e-12 * delta_w
    if r.heat > 0.0:
        # eta_2cy <= 1 - beta/beta_d, times heat > 0 so that a vanishing heat
        # cannot blow the round-off of net_work up
        assert r.net_work <= (1.0 - beta / beta_d) * r.heat + 1e-12 * delta_w
        if r.heat > 1e-6 * delta_w:
            assert r.eta_2cy <= 1.0 - beta / beta_d + 1e-9
    else:
        assert math.isnan(r.eta_2cy)
