"""Property tests of the invariants the channel and interferometer docstrings state."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qdemon import channel as ch
from qdemon.circuits import DoubleDotConfig, double_dot_protocol
from qdemon.interferometer import MziConfig, run_double_mzi
from qdemon.spin_demon import SpinDemonParams, spin_config
from conftest import random_density, random_unitary

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
