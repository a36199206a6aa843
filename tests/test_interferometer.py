"""Double Mach-Zehnder: dephasing, restoration, fringe visibility."""

import math
import re

import numpy as np
import pytest

from qdemon import interferometer
from qdemon import qmatrix as qm
from qdemon.interferometer import MziConfig, run_double_mzi
from qdemon.spin_demon import SpinDemonParams, beam_splitter, scatter

I2 = np.eye(2, dtype=complex)


def dilated_dephase(rho, chi):
    """Oracle: loop 1's dephasing as an ancilla dilation, a rotation by χ controlled
    on the second arm; its closed form shrinks the off-diagonals by cos χ."""
    rot = np.array([[np.cos(chi), -np.sin(chi)],
                    [np.sin(chi), np.cos(chi)]], dtype=complex)
    controlled = np.block([[I2, np.zeros((2, 2))], [np.zeros((2, 2)), rot]])
    ancilla = np.diag([1.0, 0.0]).astype(complex)
    joint = controlled @ qm.tensor(rho, ancilla) @ controlled.conj().T
    return qm.partial_trace(joint, "first")


def arm_phase(rho, angle):
    p = np.diag([np.exp(1j * angle), 1.0])
    return p @ rho @ p.conj().T


def looped_mzi(config):
    """Oracle: the double MZI with the dilated dephasing and one splitter
    product per flux sample."""
    out_split = beam_splitter(0.0, np.pi)
    rho = out_split @ np.diag([1.0, 0.0]).astype(complex) @ out_split.conj().T
    rho = dilated_dephase(arm_phase(rho, config.arm_phase), config.chi)
    if config.bypass_demon:
        s_mid = beam_splitter(config.params.theta, config.params.eta)
        rho = s_mid @ rho @ s_mid.conj().T
    else:
        demon = config.epsilon * I2 + (1.0 - 2.0 * config.epsilon) * np.diag([1.0, 0.0])
        rho = scatter(rho, demon, config.params).rho_out
    flux = np.linspace(0.0, 2.0 * np.pi, config.flux_samples, endpoint=False)
    p3 = np.empty(config.flux_samples)
    p4 = np.empty(config.flux_samples)
    for i, phase in enumerate(flux):
        out = out_split @ arm_phase(rho, phase) @ out_split.conj().T
        p3[i] = out[0, 0].real
        p4[i] = out[1, 1].real
    return p3, p4


def test_fringes_match_looped_oracle(rng):
    configs = [MziConfig(chi=chi, epsilon=eps, bypass_demon=bypass)
               for chi in (0.0, 1.0, np.pi / 2) for eps in (0.0, 0.2, 0.5)
               for bypass in (False, True)]
    # angles far beyond one turn: the closed forms must reduce them as the gates do
    for big, turn in ((1e6, 1e6), (-1e6, -1e6), (1e15, 1e6), (-1e15, -1e6)):
        params = SpinDemonParams(theta=turn, eta=-turn, phi=0.3)
        configs += [MziConfig(chi=chi, epsilon=0.2, params=params, arm_phase=a,
                              bypass_demon=bypass)
                    for chi, a in ((big, -big), (0.7, big)) for bypass in (False, True)]
    for _ in range(20):
        params = SpinDemonParams(*rng.uniform(-np.pi, np.pi, size=5))
        configs.append(MziConfig(chi=rng.uniform(0, np.pi), epsilon=rng.uniform(0, 0.5),
                                 flux_samples=int(rng.integers(8, 200)), params=params,
                                 arm_phase=rng.uniform(-np.pi, np.pi)))
    for config in configs:
        report = run_double_mzi(config)
        p3, p4 = looped_mzi(config)
        assert np.abs(report.p3 - p3).max() <= 1e-14
        assert np.abs(report.p4 - p4).max() <= 1e-14


def test_demon_path_forgets_dephasing_and_arm_phase(rng):
    # the purity swap's output does not depend on its input state, so neither
    # loop 1's dephasing nor its arm phase reaches the fringes
    for _ in range(5):
        params = SpinDemonParams(*rng.uniform(-np.pi, np.pi, size=5))
        eps = rng.uniform(0.0, 0.5)
        runs = [run_double_mzi(MziConfig(chi=chi, epsilon=eps, params=params, arm_phase=a))
                for chi in (0.0, 0.4, np.pi / 2, 2.0, -1e6)
                for a in (np.pi / 2, 0.0, -1.3, 1e6)]
        for run in runs[1:]:
            assert np.abs(run.p3 - runs[0].p3).max() <= 1e-15


def test_scatter_runs_once_with_the_demon_and_never_without(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return scatter(*args)

    monkeypatch.setattr(interferometer, "scatter", counted)
    for bypass, expected in ((False, 1), (True, 0)):
        calls.clear()
        run_double_mzi(MziConfig(chi=0.8, epsilon=0.1, bypass_demon=bypass))
        assert len(calls) == expected


def test_full_dephasing_pure_demon_restores_visibility():
    report = run_double_mzi(MziConfig(chi=np.pi / 2, epsilon=0.0))
    assert report.visibility >= 0.999


def test_full_dephasing_chaotic_demon_kills_visibility():
    report = run_double_mzi(MziConfig(chi=np.pi / 2, epsilon=0.5))
    assert report.visibility <= 0.001


def test_visibility_law_canonical_phases():
    # with the default (grid-aligned) phases the fringes hit their extremes
    # exactly and visibility equals 1 - 2*epsilon
    for eps in (0.0, 0.05, 0.1, 0.2, 0.25, 0.35, 0.45, 0.5):
        report = run_double_mzi(MziConfig(chi=np.pi / 2, epsilon=eps))
        assert math.isclose(report.visibility, 1.0 - 2.0 * eps, abs_tol=1e-12)


def test_visibility_law_generic_phases(rng):
    # off-grid interference offsets: the law holds to flux-sampling accuracy
    for _ in range(5):
        params = SpinDemonParams(theta=rng.uniform(-np.pi, np.pi),
                                 eta=rng.uniform(-np.pi, np.pi),
                                 phi=rng.uniform(-np.pi, np.pi))
        eps = rng.uniform(0.0, 0.4)
        report = run_double_mzi(MziConfig(chi=np.pi / 2, epsilon=eps,
                                          flux_samples=128, params=params))
        assert abs(report.visibility - (1.0 - 2.0 * eps)) < 2e-3


def test_visibility_monotone_in_impurity():
    grid = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5]
    vis = [run_double_mzi(MziConfig(chi=np.pi / 2, epsilon=e)).visibility
           for e in grid]
    assert all(a >= b - 1e-12 for a, b in zip(vis, vis[1:]))


def test_probabilities_normalised():
    report = run_double_mzi(MziConfig(chi=1.0, epsilon=0.2))
    assert np.allclose(report.p3 + report.p4, 1.0, atol=1e-12)
    assert report.p3.min() >= -1e-12 and report.p3.max() <= 1.0 + 1e-12


def test_bypass_coherent_full_visibility():
    report = run_double_mzi(MziConfig(chi=0.0, epsilon=0.0, bypass_demon=True))
    assert report.visibility > 0.999999


def test_bypass_dephased_no_restoration():
    report = run_double_mzi(MziConfig(chi=np.pi / 2, epsilon=0.0, bypass_demon=True))
    assert report.visibility <= 1e-10


def test_demon_restores_regardless_of_partial_dephasing():
    for chi in (0.3, 0.8, 1.2):
        report = run_double_mzi(MziConfig(chi=chi, epsilon=0.0))
        assert report.visibility >= 0.999


def test_config_validation():
    with pytest.raises(qm.ParameterError):
        MziConfig(epsilon=0.6)
    with pytest.raises(qm.ParameterError):
        MziConfig(epsilon=-0.1)
    with pytest.raises(qm.ParameterError):
        MziConfig(flux_samples=4)


def test_flux_samples_must_be_an_integer():
    for bad in (96.5, 96.0, math.nan, "96"):
        with pytest.raises(qm.ParameterError, match="flux_samples must be an integer"):
            MziConfig(flux_samples=bad)
    with pytest.raises(qm.ParameterError, match="flux_samples must be at least 8"):
        MziConfig(flux_samples=True)
    assert run_double_mzi(MziConfig(flux_samples=np.int64(16))).p3.shape == (16,)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_angles_rejected(bad):
    calls = {
        "MziConfig(chi)": ("chi", lambda: MziConfig(chi=bad)),
        "MziConfig(arm_phase)": ("arm_phase", lambda: MziConfig(arm_phase=bad)),
    }
    for label, (name, call) in calls.items():
        with pytest.raises(qm.ParameterError, match=re.escape(f"{name} must be finite, got {bad}")):
            call()
            pytest.fail(f"{label} accepted {bad}")
