"""Property tests of the invariants the channel, interferometer and engine
docstrings state."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qdemon import channel as ch
from qdemon import engine as eng
from qdemon.circuits import DoubleDotConfig, double_dot_protocol
from qdemon.interferometer import MziConfig, run_double_mzi
from qdemon.qmatrix import ConvergenceError
from qdemon.spin_demon import SpinDemonParams, spin_config
from conftest import (completed_double_dot, net_work_per_delta, power_stationarity, pswap_route,
                      random_density, random_unitary, ratio_round_off)

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
    protocol = completed_double_dot if complete else double_dot_protocol
    report = protocol(random_density(np.random.default_rng(seed)), np.diag([p, 1.0 - p]), config)
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


# beta_delta of the working reservoir, with the edges beta_delta -> 0
# (p_e -> 1/2) and p_e -> 0 (p_e = 1.3e-14 at 32, one decade above the floor)
beta_deltas = st.one_of(st.sampled_from([0.0, 1e-12, 1e-6, 32.0]), st.floats(0.0, 32.0))
beta_d_deltas = st.floats(1e-2, 1e3)


@PROPERTY
@given(beta_delta=beta_deltas, bd_delta=beta_d_deltas)
def test_power_stationarity_increases_on_bracket(beta_delta, bd_delta):
    _, p_e = eng.thermal_wit(beta_delta)
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
    _, p_e = eng.thermal_wit(beta_delta)
    result = eng.optimize_epsilon_power(p_e, bd_delta)
    lo, hi = eng.EPS_FLOOR, min(p_e, 0.5) - eng.EPS_FLOOR
    assert lo <= result.epsilon_star <= hi
    if result.converged:
        assert result.residual <= 1e-12
        best = result.objective_value
        for eps in (max(lo, result.epsilon_star - 1e-6), min(hi, result.epsilon_star + 1e-6)):
            assert best >= net_work_per_delta(p_e, eps, bd_delta) - 1e-12


@PROPERTY
@given(beta_delta=beta_deltas, bd_delta=beta_d_deltas)
@example(beta_delta=0.0, bd_delta=2.0)
@example(beta_delta=32.0, bd_delta=40.0)
def test_cycle_at_power_optimum_balances_and_stays_below_carnot(beta_delta, bd_delta):
    _, p_e = eng.thermal_wit(beta_delta)
    eps = eng.optimize_epsilon_power(p_e, bd_delta).epsilon_star
    r = eng.run_cycle(beta_delta, bd_delta, eps)
    assert abs(r.w_out - (r.w_plus - r.w_minus)) <= 1e-12
    if r.heat > 0.0:
        # eta_2cy <= 1 - beta/beta_d, times heat > 0 so that a vanishing heat
        # cannot blow the round-off of net_work up
        assert r.net_work <= (1.0 - beta_delta / bd_delta) * r.heat + 1e-12
        if r.heat > 1e-6:
            assert r.eta_2cy <= 1.0 - beta_delta / bd_delta + 1e-9
    else:
        assert math.isnan(r.eta_2cy)


# beta_delta from 0 through BETA_DELTA_CAP (where p_e stops at 5e-324) far
# past it, eps with both ends of [0, 1/2]
route_beta_deltas = st.one_of(
    st.sampled_from([0.0, eng.BETA_DELTA_CAP, 2 * eng.BETA_DELTA_CAP, 1e300]),
    st.floats(0.0, 2 * eng.BETA_DELTA_CAP),
    st.floats(math.log(1e-300), math.log(1e300)).map(math.exp))
route_epsilons = st.one_of(st.sampled_from([0.0, 0.5, 1e-300]), st.floats(0.0, 0.5))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(beta_delta=route_beta_deltas, eps=route_epsilons)
@example(beta_delta=0.0, eps=0.0)
@example(beta_delta=0.0, eps=0.5)
@example(beta_delta=eng.BETA_DELTA_CAP, eps=0.0)
@example(beta_delta=2 * eng.BETA_DELTA_CAP, eps=0.5)
@example(beta_delta=1e300, eps=0.25)
@example(beta_delta=1.0, eps=0.0)
@example(beta_delta=1.0, eps=0.5)
@example(beta_delta=eng.BETA_DELTA_CAP, eps=0.1)
@example(beta_delta=2 * eng.BETA_DELTA_CAP, eps=0.3)
def test_gate_route_matches_closed_forms_over_the_valid_range(beta_delta, eps):
    r, route = eng.run_cycle(beta_delta, 2.0, eps), pswap_route(beta_delta, eps)
    stage = route["stage_field_energy"]
    gaps = {"w_minus": route["w_minus"] - r.w_minus, "w_plus": route["w_plus"] - r.w_plus,
            "heat": route["heat"] - r.heat,
            "dit_up_entropy": route["dit_entropies"][0] - r.dit_out_entropy,
            "dit_down_entropy": route["dit_entropies"][1] - r.dit_out_entropy,
            "mid_rotations": stage[1] - r.w_minus, "final_rotations": stage[3]}
    assert max(abs(g) for g in gaps.values()) <= 1e-10, gaps


# excited populations for opt-eta, log-uniform down to two floors, with the
# edges p_e -> 2 EPS_FLOOR (the narrowest bracket) and p_e -> 1/2 (beta_delta -> 0)
eta_pes = st.one_of(
    st.sampled_from([2 * eng.EPS_FLOOR, 2.5e-15, 1e-12, 0.5 - 1e-6, 0.5 - 1e-12, 0.5]),
    st.floats(math.log(2 * eng.EPS_FLOOR), math.log(0.5)).map(math.exp),
    st.floats(2 * eng.EPS_FLOOR, 0.5))


@PROPERTY
@given(p_e=eta_pes)
@example(p_e=2 * eng.EPS_FLOOR)
@example(p_e=0.5)
def test_eta_optimum_beats_its_neighbours(p_e):
    result = eng.optimize_epsilon_eta(p_e)
    lo, hi = eng.EPS_FLOOR, p_e - eng.EPS_FLOOR
    star = result.epsilon_star
    if not result.converged or p_e == 0.5:
        return
    assert lo <= star <= hi and result.residual <= 1e-12
    assert result.objective_value == eng._entropy_cost_ratio(p_e, star)
    for delta in (1e-6, 1e-3 * star, 1e-3 * (p_e - star)):
        for eps in (max(lo, star - delta), min(hi, star + delta)):
            assert (result.objective_value
                    <= eng._entropy_cost_ratio(p_e, eps) + ratio_round_off(p_e, eps))


@PROPERTY
@given(p_e=eta_pes, bd_delta=beta_d_deltas,
       policy=st.sampled_from(["opt-eta", "fixed:0", "fixed:0.5"]))
@example(p_e=2 * eng.EPS_FLOOR, bd_delta=40.0, policy="opt-eta")
@example(p_e=0.5, bd_delta=2.0, policy="opt-eta")
@example(p_e=0.5, bd_delta=1e-2, policy="fixed:0")
def test_cycle_at_eta_optimum_balances_and_stays_below_carnot(p_e, bd_delta, policy):
    name, fixed = eng.parse_policy(policy)
    eps = fixed if name == "fixed" else eng.optimize_epsilon_eta(p_e).epsilon_star
    beta_delta = eng.bit_entropy_prime(p_e)
    if bd_delta <= beta_delta:
        return  # no Carnot window: the demon reservoir is not the colder one
    r = eng.run_cycle(beta_delta, bd_delta, eps)
    assert abs(r.w_out - (r.w_plus - r.w_minus)) <= 1e-12
    if r.heat > 0.0:
        assert r.net_work <= (1.0 - beta_delta / bd_delta) * r.heat + 1e-12
        if r.heat > 1e-6:
            assert r.eta_2cy <= 1.0 - beta_delta / bd_delta + 1e-9
    else:
        assert math.isnan(r.eta_2cy)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(p_e=eta_pes, bd_delta=beta_d_deltas)
@example(p_e=0.5, bd_delta=1e-2)
@example(p_e=0.5 - 1e-12, bd_delta=1e3)
# round-off makes the sign of s near these roots random: without the round-off
# stop, Newton steps leave the collapsed sign bracket and bisection spins to the cap
@example(p_e=1.1963389572118127e-09, bd_delta=12.163959564779178)
@example(p_e=7.841790901344699e-12, bd_delta=2.230765139808152)
# within ~1e-8 of 1/2 R's round-off swamps s: opt-eta's Newton steps leave a sign
# bracket narrower than a settled step, and without the stop on bisecting it the
# search ran to its 100-step cap
@example(p_e=0.4999999999959, bd_delta=2.0)
@example(p_e=0.4999999988002822, bd_delta=2.0)
def test_optimizer_step_counts_stay_small(p_e, bd_delta):
    # a slip in a stop rule shows up here before it shows up as a latency tail
    assert eng.optimize_epsilon_power(p_e, bd_delta).iterations <= 6
    with mock.patch.object(eng, "_max_net_work", wraps=eng._max_net_work) as solve:
        result = eng.optimize_epsilon_eta(p_e)
    assert solve.call_count == (p_e < 0.5)  # one search; eps* = 1/2 needs none
    assert result.iterations <= 6


@pytest.mark.xfail(strict=True, reason="ROADMAP item 7")
def test_optimize_eta_step_count_within_7e_9_of_half():
    # the draws above never land where 1/2 - p_e < 7e-9; there opt-eta's steps chase
    # R's round-off, and this p_e takes 8
    assert eng.optimize_epsilon_eta(0.4999999993876208).iterations <= 6


@PROPERTY
# beta_d_delta over [1e-2, 60] and over the range the products of beta_d in
# [1e-2, 60] and delta_w in [1e-2, 1e2] once spanned
@given(bd_delta=st.one_of(st.floats(1e-2, 60.0), st.floats(1e-4, 6e3)))
@example(bd_delta=17.0)   # eps* falls below the floor past the root
@example(bd_delta=40.0)   # p_e falls below 2 EPS_FLOOR before beta_d_delta
def test_optimal_policies_share_minimal_beta(bd_delta):
    # the best net work over eps is positive exactly where min R < beta_d_delta
    outcomes = []
    for policy in ("opt-power", "opt-eta"):
        try:
            outcomes.append(repr(eng.minimal_beta(bd_delta, policy)))
        except ConvergenceError:
            outcomes.append("no convergence")
    assert outcomes[0] == outcomes[1]


@PROPERTY
@given(beta_deltas=st.lists(st.floats(1e-6, 16.5), min_size=2, max_size=2, unique=True))
@example(beta_deltas=[1e-6, 16.5])
def test_minimal_cost_ratio_falls_with_p_e(beta_deltas):
    # beta_delta <= 16.5 keeps p_e where opt-eta's root lies above EPS_FLOOR
    (p_cold, cold), (p_hot, hot) = (
        (p_e, eng.optimize_epsilon_eta(p_e))
        for p_e in sorted(eng.thermal_wit(b)[1] for b in beta_deltas))
    assert cold.converged and hot.converged
    assert cold.objective_value >= hot.objective_value - (
        ratio_round_off(p_cold, cold.epsilon_star) + ratio_round_off(p_hot, hot.epsilon_star))


@PROPERTY
@given(eps=st.one_of(st.just(0.0), st.floats(0.0, 0.49)),
       fractions=st.lists(st.floats(1e-6, 1.0), min_size=2, max_size=2, unique=True))
@example(eps=0.0, fractions=[1e-6, 1.0])
def test_cost_ratio_falls_with_p_e(eps, fractions):
    p_cold, p_hot = sorted(eps + (0.5 - eps) * f for f in fractions)
    assert eng._entropy_cost_ratio(p_cold, eps) >= eng._entropy_cost_ratio(p_hot, eps) - (
        ratio_round_off(p_cold, eps) + ratio_round_off(p_hot, eps))
