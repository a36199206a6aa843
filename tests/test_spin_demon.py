"""Spin realisation: splitter, demon rotations, purity exchange."""

import math
import re

import numpy as np
import pytest

from qdemon import qmatrix as qm
from qdemon import spin_demon as sd
from conftest import pure_density, random_density, random_pure

I2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
UP = np.diag([1.0, 0.0]).astype(complex)
DOWN = np.diag([0.0, 1.0]).astype(complex)
HBAR = np.array([[1, 1], [-1, 1]], dtype=complex) / np.sqrt(2)


def xy_states(theta: float, eta: float, phi: float) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal equatorial output pair of the maximally purifying channel.

    (e^{i(φ+θ)}|0> ± e^{iη}|1>)/√2; the channel sends every input onto the
    first (demon up) or second (demon down) of these.
    """
    up = np.array([np.exp(1j * (phi + theta)), np.exp(1j * eta)], dtype=complex)
    dn = np.array([np.exp(1j * (phi + theta)), -np.exp(1j * eta)], dtype=complex)
    return up / np.sqrt(2), dn / np.sqrt(2)


def test_beam_splitter_hadamard_type():
    assert np.allclose(sd.beam_splitter(0.0, np.pi), HBAR, atol=1e-12)


def test_beam_splitter_unitary_and_balance(rng):
    for _ in range(30):
        theta, eta = rng.uniform(-2 * np.pi, 2 * np.pi, size=2)
        s = sd.beam_splitter(theta, eta)
        assert np.allclose(s.conj().T @ s, I2, atol=1e-12)
        assert math.isclose(abs(s[0, 0] * np.conj(s[1, 0])), 0.5, abs_tol=1e-12)


def test_demon_unitaries_special_cases():
    u1, u3 = sd.demon_unitaries(sd.SpinDemonParams())
    assert np.allclose(u1, SX, atol=1e-12)
    assert np.allclose(u3, -SZ, atol=1e-12)
    comm = u1 @ u3 - u3 @ u1
    assert math.isclose(np.linalg.norm(comm, 2), 2.0, abs_tol=1e-12)


def test_demon_unitaries_never_commute(rng):
    for _ in range(20):
        params = sd.SpinDemonParams(*rng.uniform(-np.pi, np.pi, size=5))
        u1, u3 = sd.demon_unitaries(params)
        assert np.linalg.norm(u1 @ u3 - u3 @ u1, 2) > 0.1


def test_scatter_chaotic_with_pure_demon():
    params = sd.SpinDemonParams(theta=0.2, eta=1.4, phi=0.6)
    report = sd.scatter(I2 / 2, UP, params)
    up_xy, _ = xy_states(params.theta, params.eta, params.phi)
    expected_joint = qm.tensor(pure_density(up_xy), I2 / 2)
    assert np.allclose(report.joint_out, expected_joint, atol=1e-12)
    assert report.flags == ()


def test_scatter_pure_input_demon_takeover(rng):
    # the demon inherits the input amplitudes with the advertised phases
    params = sd.SpinDemonParams(theta=0.5, eta=-0.8, phi=1.2, alpha=0.3, beta_phase=0.9)
    for _ in range(10):
        a, b = random_pure(rng)
        rho_in = pure_density([a, b])
        report = sd.scatter(rho_in, UP, params)
        psi = (a * np.exp(1j * params.alpha) * np.array([0.0, 1.0])
               + b * np.exp(-1j * (params.eta + params.theta)) * np.array([1.0, 0.0]))
        assert np.allclose(report.demon_out, pure_density(psi), atol=1e-12)


def test_scatter_swaps_entropies_for_pure_demon(rng):
    for _ in range(40):
        params = sd.SpinDemonParams(*rng.uniform(-np.pi, np.pi, size=5))
        demon = UP if rng.random() < 0.5 else DOWN
        rho_in = random_density(rng)
        report = sd.scatter(rho_in, demon, params)
        assert abs(qm.von_neumann_entropy(report.rho_out)) <= 1e-10
        assert abs(qm.von_neumann_entropy(report.demon_out)
                   - qm.von_neumann_entropy(rho_in)) <= 1e-10


def test_scatter_mixture_demon_branch_structure(rng):
    # diagonal demon mixtures: the joint output is the weighted sum of the
    # two product branches; each branch demon state carries the input spectrum
    params = sd.SpinDemonParams(theta=0.7, eta=0.2, phi=-1.0, alpha=0.4, beta_phase=-0.6)
    c = np.exp(-1j * (params.eta + params.theta))
    for _ in range(20):
        p_up = rng.uniform()
        rho_in = random_density(rng)
        evals, evecs = np.linalg.eigh(rho_in)
        r_plus = np.zeros((2, 2), dtype=complex)
        r_minus = np.zeros((2, 2), dtype=complex)
        for weight, vec in zip(evals, evecs.T):
            a, b = vec
            psi_p = (b * c * np.array([1.0, 0.0])
                     + a * np.exp(1j * params.alpha) * np.array([0.0, 1.0]))
            psi_m = (a * np.exp(1j * params.beta_phase) * np.array([1.0, 0.0])
                     + b * c * np.array([0.0, 1.0]))
            r_plus += weight * np.outer(psi_p, psi_p.conj())
            r_minus += weight * np.outer(psi_m, psi_m.conj())
        up_xy, dn_xy = xy_states(params.theta, params.eta, params.phi)
        expected = (p_up * qm.tensor(pure_density(up_xy), r_plus)
                    + (1 - p_up) * qm.tensor(pure_density(dn_xy), r_minus))
        report = sd.scatter(rho_in, np.diag([p_up, 1 - p_up]), params)
        assert np.allclose(report.joint_out, expected, atol=1e-12)
        # system side still swaps onto the demon weights
        assert abs(qm.von_neumann_entropy(report.rho_out)
                   - qm.von_neumann_entropy(np.diag([p_up, 1 - p_up]))) <= 1e-10


def test_scatter_flags_non_diagonal_demon():
    params = sd.SpinDemonParams(theta=0.1, eta=0.2)
    demon = pure_density(np.array([1.0, 1.0]) / np.sqrt(2))
    report = sd.scatter(I2 / 2, demon, params)
    assert "demon-not-diagonal" in report.flags
    # no purity exchange: the chaotic input stays chaotic
    assert math.isclose(qm.von_neumann_entropy(report.rho_out), math.log(2),
                        abs_tol=1e-10)
    assert abs(report.gamma) < 1e-12


def test_xy_states_orthonormal(rng):
    for _ in range(20):
        theta, eta, phi = rng.uniform(-np.pi, np.pi, size=3)
        up, dn = xy_states(theta, eta, phi)
        assert math.isclose(np.linalg.norm(up), 1.0, abs_tol=1e-12)
        assert math.isclose(np.linalg.norm(dn), 1.0, abs_tol=1e-12)
        assert abs(np.vdot(up, dn)) < 1e-12


def test_xy_states_zero_angles():
    up, dn = xy_states(0.0, 0.0, 0.0)
    assert np.allclose(up, np.array([1.0, 1.0]) / np.sqrt(2), atol=1e-12)
    assert np.allclose(dn, np.array([1.0, -1.0]) / np.sqrt(2), atol=1e-12)


def test_scatter_output_matches_xy_and_ignores_input(rng):
    for _ in range(100):
        theta, eta, phi = rng.uniform(-np.pi, np.pi, size=3)
        params = sd.SpinDemonParams(theta=theta, eta=eta, phi=phi)
        up_xy, dn_xy = xy_states(theta, eta, phi)
        rho_in = random_density(rng)
        assert np.allclose(sd.scatter(rho_in, UP, params).rho_out,
                           pure_density(up_xy), atol=1e-10)
        assert np.allclose(sd.scatter(rho_in, DOWN, params).rho_out,
                           pure_density(dn_xy), atol=1e-10)


def test_gamma_closed_form_up_demon(rng):
    from qdemon.channel import gamma
    for _ in range(30):
        theta, eta, phi, alpha, beta = rng.uniform(-np.pi, np.pi, size=5)
        params = sd.SpinDemonParams(theta, eta, phi, alpha, beta)
        s = sd.beam_splitter(theta, eta)
        expected = 2.0 * s[0, 0] * np.conj(s[1, 0]) * np.exp(1j * phi)
        assert abs(gamma(sd.spin_config(params, UP)) - expected) < 1e-12


def test_demon_state_from_spec_kinds():
    assert np.allclose(sd.demon_state_from_spec("up"), UP)
    assert np.allclose(sd.demon_state_from_spec("down"), DOWN)
    assert np.allclose(sd.demon_state_from_spec("mixture", 0.25), np.diag([0.25, 0.75]))
    sup = sd.demon_state_from_spec("superposition", (1.0, 1.0))
    assert np.allclose(sup, np.ones((2, 2)) / 2, atol=1e-12)


@pytest.mark.parametrize("amplitudes", [(np.nan, 1.0), (1.0, np.inf), (0.0, 0.0)])
def test_demon_state_from_spec_rejects_bad_superposition(amplitudes):
    with pytest.raises(qm.ParameterError, match="finite and not both vanish"):
        sd.demon_state_from_spec("superposition", amplitudes)


def test_superposition_keeps_the_plain_norm_bits():
    # wherever the plain norm neither under- nor overflows no rescaling happens:
    # the state is the plain-norm one, bit for bit
    rng = np.random.default_rng(5)
    for _ in range(2000):
        parts = rng.choice([-1.0, 0.0, 1.0], 4) * np.exp(rng.uniform(np.log(1e-150), np.log(1e150), 4))
        parts[rng.integers(4)] = np.exp(rng.uniform(np.log(1e-150), np.log(1e150)))
        a, b = complex(parts[0], parts[1]), complex(parts[2], parts[3])
        vec = np.array([a, b])
        old = pure_density(vec / np.linalg.norm(vec))
        assert sd.demon_state_from_spec("superposition", (a, b)).tobytes() == old.tobytes(), (a, b)


def test_demon_state_from_spec_rejects_nan_mixture():
    with pytest.raises(qm.ParameterError):
        sd.demon_state_from_spec("mixture", float("nan"))


@pytest.mark.parametrize("kind", ["sideways", "Up", ""])
def test_demon_state_from_spec_rejects_an_unknown_kind(kind):
    with pytest.raises(qm.ParameterError, match=f"unknown demon kind {kind!r}"):
        sd.demon_state_from_spec(kind, 0.5)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_angles_rejected(bad):
    calls = {
        "beam_splitter(theta)": ("theta", lambda: sd.beam_splitter(bad, 0.0)),
        "beam_splitter(eta)": ("eta", lambda: sd.beam_splitter(0.0, bad)),
        **{f"SpinDemonParams({name})": (name, lambda name=name: sd.SpinDemonParams(**{name: bad}))
           for name in ("theta", "eta", "phi", "alpha", "beta_phase")},
    }
    for label, (name, call) in calls.items():
        with pytest.raises(qm.ParameterError, match=re.escape(f"{name} must be finite, got {bad}")):
            call()
            pytest.fail(f"{label} accepted {bad}")
