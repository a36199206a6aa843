"""Dilated channel: unitality, the coherence parameter, entropy-gain bound."""

import math
import re
from functools import partial

import numpy as np
import pytest

from qdemon import channel as ch
from qdemon import qmatrix as qm
from qdemon.circuits import DoubleDotConfig, double_dot_protocol
from qdemon.spin_demon import SpinDemonParams, beam_splitter, scatter, spin_config
from conftest import (completed_double_dot, dag, partial_trace, pure_density, random_density,
                      random_pure, random_unitary)

I2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
UP = np.diag([1.0, 0.0]).astype(complex)
DOWN = np.diag([0.0, 1.0]).astype(complex)


def random_config(rng, demon=None):
    return ch.ChannelConfig(
        scattering=random_unitary(rng),
        lead_unitaries=tuple(random_unitary(rng) for _ in range(4)),
        demon_state=random_density(rng) if demon is None else demon,
    )


def unital_config(rng):
    # equal rotations on both incoming leads and both outgoing leads make the
    # two effective demon operations identical, so the coherence vanishes
    u_in = random_unitary(rng)
    u_out = random_unitary(rng)
    return ch.ChannelConfig(
        scattering=random_unitary(rng),
        lead_unitaries=(u_in, u_in, u_out, u_out),
        demon_state=random_density(rng),
    )


def sum_of_hops_unitary(config):
    """U = Σ s[b,a] hop(b,a) ⊗ (u_out[b] u_in[a]), summed over Kronecker terms
    with hop(b,a) = |b><a|: the assembly joint_unitary replaced."""
    s = config.scattering
    u1, u2, u3, u4 = config.lead_unitaries
    u = np.zeros((4, 4), dtype=complex)
    for b, u_out in enumerate((u3, u4)):
        for a, u_in in enumerate((u1, u2)):
            hop = np.zeros((2, 2), dtype=complex)
            hop[b, a] = 1.0
            u += s[b, a] * np.kron(hop, u_out @ u_in)
    return u


def test_joint_unitary_matches_sum_of_hops_bit_for_bit(rng):
    configs = [random_config(rng) for _ in range(100)]
    configs += [spin_config(SpinDemonParams(*rng.uniform(0.0, 2 * np.pi, size=5)), UP)
                for _ in range(100)]
    configs += [ch.ChannelConfig(I2, (SX, I2, -SZ, I2), DOWN),
                ch.ChannelConfig(SX, (I2, SX, I2, I2), UP),
                spin_config(SpinDemonParams(), I2 / 2)]
    for config in configs:
        assert ch.joint_unitary(config).tobytes() == sum_of_hops_unitary(config).tobytes()


def test_joint_unitary_trivial_leads(rng):
    s = random_unitary(rng)
    config = ch.ChannelConfig(s, (I2, I2, I2, I2), UP)
    assert np.allclose(ch.joint_unitary(config), qm.tensor(s, I2), atol=1e-12)


def test_joint_unitary_is_unitary():
    config = ch.ChannelConfig(beam_splitter(0.0, np.pi), (SX, I2, -SZ, I2), UP)
    u = ch.joint_unitary(config)
    assert np.allclose(u.conj().T @ u, np.eye(4), atol=1e-12)


def test_joint_unitary_random_configs_unitary(rng):
    for _ in range(50):
        u = ch.joint_unitary(random_config(rng))
        assert np.allclose(u.conj().T @ u, np.eye(4), atol=1e-12)


def test_joint_unitary_action_on_up_up():
    # maximal-purification phases: the outgoing system factorises onto the
    # equatorial state and the demon flips with the alpha phase
    theta, eta, phi = 0.4, 1.3, 0.0
    params = SpinDemonParams(theta=theta, eta=eta, phi=phi)
    u = ch.joint_unitary(spin_config(params, UP))
    vec_in = np.kron([1.0, 0.0], [1.0, 0.0])
    up_xy = np.array([np.exp(1j * (phi + theta)), np.exp(1j * eta)]) / np.sqrt(2)
    expected = np.kron(up_xy, [0.0, 1.0])
    assert np.allclose(u @ vec_in, expected, atol=1e-12)


def test_apply_channel_trivial_is_unitary_conjugation(rng):
    s = random_unitary(rng)
    config = ch.ChannelConfig(s, (I2, I2, I2, I2), random_density(rng))
    rho = random_density(rng)
    report = ch.apply_channel(rho, config)
    assert np.allclose(report.rho_out, s @ rho @ s.conj().T, atol=1e-12)
    assert abs(report.entropy_gain) < 1e-10


def test_apply_channel_maximal_purification():
    params = SpinDemonParams(theta=0.0, eta=np.pi, phi=0.0)
    report = ch.apply_channel(I2 / 2, spin_config(params, UP))
    assert qm.von_neumann_entropy(report.rho_out) < 1e-10
    assert np.allclose(report.demon_out, I2 / 2, atol=1e-12)
    assert math.isclose(report.entropy_gain, -math.log(2), abs_tol=1e-9)


def test_apply_channel_superposition_demon_reproduces_chaos(rng):
    # a balanced demon superposition kills the coherence parameter: the
    # chaotic state (and any lead-diagonal state) comes out chaotic, and no
    # input can lose entropy
    params = SpinDemonParams(theta=0.2, eta=2.0, phi=0.5)
    demon = pure_density(np.array([1.0, 1.0]) / np.sqrt(2))
    config = spin_config(params, demon)
    assert abs(ch.gamma(config)) < 1e-12
    assert np.allclose(ch.apply_channel(I2 / 2, config).rho_out, I2 / 2, atol=1e-12)
    for _ in range(10):
        p = rng.uniform()
        diag_in = np.diag([p, 1 - p]).astype(complex)
        assert np.allclose(ch.apply_channel(diag_in, config).rho_out,
                           I2 / 2, atol=1e-12)
        report = ch.apply_channel(random_density(rng), config)
        assert report.entropy_gain >= -1e-10


def test_apply_channel_preserves_trace_hermiticity_positivity(rng):
    for _ in range(200):
        report = ch.apply_channel(random_density(rng), random_config(rng))
        out = report.rho_out
        assert abs(np.trace(out) - 1.0) < 1e-10
        assert np.allclose(out, out.conj().T, atol=1e-10)
        assert np.linalg.eigvalsh(out).min() > -1e-10


def test_channel_on_identity_commuting_rotations():
    config = ch.ChannelConfig(beam_splitter(0.7, 0.1), (SZ, I2, SZ, I2), UP)
    report = ch.apply_channel(I2 / 2, config)
    assert report.unital
    assert np.allclose(report.rho_out, I2 / 2, atol=1e-12)


def test_channel_on_identity_matches_apply(rng):
    # Φ(1/2) = (1/2)[[1, γ], [γ*, 1]], derived symbolically in test_symbolic.py
    for _ in range(50):
        config = random_config(rng)
        g = ch.gamma(config)
        report = ch.apply_channel(I2 / 2, config)
        assert np.allclose(report.rho_out, 0.5 * np.array([[1.0, g], [np.conj(g), 1.0]]),
                           atol=1e-12)
        assert report.unital == (abs(g) <= ch.UNITAL_TOL)


def test_gamma_maximal_value_and_sign():
    theta, eta, phi = 0.3, 1.1, 0.7
    params = SpinDemonParams(theta=theta, eta=eta, phi=phi, alpha=0.2, beta_phase=-0.4)
    s = beam_splitter(theta, eta)
    expected = 2.0 * s[0, 0] * np.conj(s[1, 0]) * np.exp(1j * phi)
    g_up = ch.gamma(spin_config(params, UP))
    g_down = ch.gamma(spin_config(params, DOWN))
    assert abs(g_up - expected) < 1e-12
    assert abs(abs(g_up) - 1.0) < 1e-12
    assert abs(g_down + expected) < 1e-12


def matrix_product_gamma(config):
    """γ = s00 s10* Tr{r (u1† u4† u3 u1 - u2† u4† u3 u2)} by numpy 2x2 products:
    the evaluation the scalar contraction replaced."""
    s = config.scattering
    u1, u2, u3, u4 = config.lead_unitaries
    u4_dag = dag(u4)
    bracket = dag(u1) @ u4_dag @ u3 @ u1 - dag(u2) @ u4_dag @ u3 @ u2
    m = (config.demon_state @ bracket).tolist()
    return complex(s[0, 0] * np.conj(s[1, 0]) * (0j + m[0][0] + m[1][1]))


def test_gamma_matches_matrix_product_oracle(rng):
    # bit equality cannot be had: numpy's 2x2 products round differently
    demons = {"pure": lambda: pure_density(random_pure(rng)), "up": lambda: UP,
              "down": lambda: DOWN, "mixed": lambda: random_density(rng),
              "superposition": lambda: pure_density(np.array([1.0, 1.0]) / np.sqrt(2)),
              "maximally mixed": lambda: I2 / 2}
    for kind, demon in demons.items():
        for _ in range(150):
            for config in (random_config(rng, demon()),
                           spin_config(SpinDemonParams(*rng.uniform(-np.pi, np.pi, size=5)),
                                       demon())):
                g = ch.gamma(config)
                assert type(g) is complex
                assert abs(g - matrix_product_gamma(config)) <= 1e-15, kind
                s = config.scattering
                assert abs(g) <= 2.0 * abs(s[0, 0] * np.conj(s[1, 0])) + 1e-15, kind


def test_gamma_superposition_demon_vanishes():
    params = SpinDemonParams(theta=0.3, eta=1.1, phi=0.7)
    demon = pure_density(np.array([1.0, 1.0]) / np.sqrt(2))
    assert abs(ch.gamma(spin_config(params, demon))) < 1e-12


def test_gamma_magnitude_bound(rng):
    for _ in range(200):
        config = random_config(rng)
        g = ch.gamma(config)
        s = config.scattering
        cap = 2.0 * abs(s[0, 0] * np.conj(s[1, 0]))
        assert abs(g) <= cap + 1e-12
        assert cap <= 1.0 + 1e-12


def test_entropy_gain_chaotic_maximal():
    params = SpinDemonParams(theta=0.0, eta=np.pi, phi=0.0)
    gain, bound = ch.entropy_gain(I2 / 2, spin_config(params, UP))
    assert math.isclose(gain, -math.log(2), abs_tol=1e-9)
    assert gain >= bound - 1e-9


def test_entropy_gain_half_coherence():
    # demon mixture with weight 0.75 scales the maximal coherence to 1/2
    params = SpinDemonParams(theta=0.0, eta=np.pi, phi=0.0)
    config = spin_config(params, np.diag([0.75, 0.25]))
    assert math.isclose(abs(ch.gamma(config)), 0.5, abs_tol=1e-12)
    gain, _ = ch.entropy_gain(I2 / 2, config)
    expected = -(1.5 * math.log(1.5) + 0.5 * math.log(0.5)) / 2.0
    assert math.isclose(expected, -0.130812035941, abs_tol=1e-9)
    assert math.isclose(gain, expected, abs_tol=1e-10)
    # cross-check against the spectral entropy of the image of the chaotic state
    out = ch.apply_channel(I2 / 2, config).rho_out
    assert math.isclose(qm.von_neumann_entropy(out) - math.log(2), gain, abs_tol=1e-12)


def test_entropy_gain_bound_randomized(rng):
    for _ in range(300):
        config = random_config(rng)
        gain, bound = ch.entropy_gain(random_density(rng), config)
        assert gain >= bound - 1e-9


def test_unital_configs_never_decrease_entropy(rng):
    for _ in range(100):
        config = unital_config(rng)
        assert abs(ch.gamma(config)) < 1e-12
        gain, _ = ch.entropy_gain(I2 / 2, config)
        assert gain >= -1e-10
        gain_rand, _ = ch.entropy_gain(random_density(rng), config)
        assert gain_rand >= -1e-10


def test_population_map_is_bare_scattering(rng):
    # demon rotations acting on the degenerate environment leave the lead
    # populations following the classical |s|^2 map (diagonal demons)
    for _ in range(50):
        theta, eta, phi, alpha, beta = rng.uniform(-np.pi, np.pi, size=5)
        params = SpinDemonParams(theta, eta, phi, alpha, beta)
        p = rng.uniform()
        config = spin_config(params, np.diag([p, 1 - p]))
        rho = random_density(rng)
        out = ch.apply_channel(rho, config).rho_out
        smap = np.abs(config.scattering) ** 2
        assert np.allclose(np.diag(out).real, smap @ np.diag(rho).real, atol=1e-12)


def count_calls(monkeypatch, owner, name):
    """Replace ``owner.name`` by a wrapper that logs each call; returns the log."""
    calls, fn = [], getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_apply_channel_makes_no_kron_and_three_decompositions(rng, monkeypatch):
    configs = (random_config(rng),
               spin_config(SpinDemonParams(*rng.uniform(0.0, 2 * np.pi, size=5)), UP))
    kron = count_calls(monkeypatch, np, "kron")
    eigvalsh = count_calls(monkeypatch, np.linalg, "eigvalsh")
    eigh = count_calls(monkeypatch, np.linalg, "eigh")
    for config in configs:
        eigvalsh.clear()
        ch.apply_channel(random_density(rng), config)
        # the input's validation, then one entropy each for input and output
        assert (len(kron), len(eigvalsh), len(eigh)) == (0, 3, 0)


def test_mutual_information_makes_three_decompositions(rng, monkeypatch):
    joint = ch.apply_channel(random_density(rng), random_config(rng)).joint_out
    eigvalsh = count_calls(monkeypatch, np.linalg, "eigvalsh")
    eigh = count_calls(monkeypatch, np.linalg, "eigh")
    ch.mutual_information(joint)
    # the joint state's validation (which gives S_AB), then S_A and S_B
    assert (len(eigvalsh), len(eigh)) == (3, 0)


def test_mutual_information_takes_s_ab_from_the_validation(rng):
    for _ in range(50):
        joint = ch.apply_channel(random_density(rng), random_config(rng)).joint_out
        s_a = qm.von_neumann_entropy(partial_trace(joint, "first"))
        s_b = qm.von_neumann_entropy(partial_trace(joint, "second"))
        assert ch.mutual_information(joint) == s_a + s_b - qm.von_neumann_entropy(joint)


def test_mutual_information_product_state(rng):
    joint = qm.tensor(random_density(rng), random_density(rng))
    assert abs(ch.mutual_information(joint)) < 1e-10


def test_mutual_information_bell():
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / np.sqrt(2)
    joint = np.outer(bell, bell.conj())
    assert math.isclose(ch.mutual_information(joint), 2 * math.log(2), abs_tol=1e-10)


def test_mutual_information_refuses_a_valid_one_qubit_state(rng):
    with pytest.raises(qm.InvalidStateError, match="^mutual_information expects a 4x4 state$"):
        ch.mutual_information(random_density(rng))


def test_mutual_information_after_maximal_swap():
    params = SpinDemonParams(theta=0.1, eta=0.9, phi=0.3)
    report = ch.apply_channel(I2 / 2, spin_config(params, UP))
    mi = ch.mutual_information(report.joint_out)
    assert -1e-10 <= mi <= 1e-10


def test_bound_stays_finite_at_maximal_coherence():
    # |gamma| reaches 1 only up to round-off; the output lies on the upper
    # eigenvector of Phi(1) (c = 1), so the ln(1 - |gamma|) term carries no
    # weight and the bound stays finite and attained
    params = SpinDemonParams(theta=0.0, eta=np.pi, phi=0.0)
    report = ch.apply_channel(I2 / 2, spin_config(params, UP))
    assert np.isfinite(report.lower_bound)
    assert report.entropy_gain >= report.lower_bound - 1e-9
    assert math.isclose(report.lower_bound, -math.log(2), abs_tol=1e-9)


def test_bound_floor_pinned_at_unit_coherence_aligned():
    # |gamma| = 1, c = 1: the floored eigenvalue has zero weight
    assert ch._bound(np.full((2, 2), 0.5, dtype=complex), 1.0 + 0j) == (-math.log(2), True)
    # a splitter with exact entries (1 ± i)/2, the spin rotations and an up demon give
    # gamma = i exactly; apply_channel appends the flag after the caller's
    s = np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]]) / 2
    config = ch.ChannelConfig(s, (SX, I2, -SZ, I2), UP)
    report = ch.apply_channel(I2 / 2, config, extra_flags=("caller-flag",))
    assert config._gamma == 1j
    assert report.lower_bound == -math.log(2)
    assert report.flags == ("caller-flag", "bound-clipped")


def test_bound_floor_pinned_at_unit_coherence_misaligned():
    # |gamma| = 1, c < 1: ln(1 - |gamma|) is floored at LOG_EIG_FLOOR
    assert qm.LOG_EIG_FLOOR == 1e-300
    for c in (0.0, 0.5, -1.0):
        rho_out = np.array([[0.5, c / 2], [c / 2, 0.5]], dtype=complex)
        bound, clipped = ch._bound(rho_out, 1.0 + 0j)
        expected = -0.5 * ((1 + c) * math.log(2) + (1 - c) * math.log(1e-300))
        assert math.isfinite(bound)
        assert math.isclose(bound, expected, rel_tol=1e-15)
        assert clipped


def test_bound_zero_and_unflagged_without_coherence(rng):
    assert ch._bound(random_density(rng), 0j) == (0.0, False)
    report = ch.apply_channel(random_density(rng), unital_config(rng))
    assert report.gamma == 0
    assert report.lower_bound == 0.0
    assert report.flags == ()
    assert report.unital


def spectral_bound(rho_out, g, floor=1e-300):
    """Oracle: -Tr{rho_out ln Phi(1)} by eigendecomposition of Phi(1), with
    its eigenvalues floored (the matrix logarithm the closed form replaced)."""
    phi_id = np.array([[1.0, g], [np.conj(g), 1.0]], dtype=complex)
    w, v = np.linalg.eigh(phi_id)
    clipped = bool(np.any(w.real < floor))
    log_phi = v @ np.diag(np.log(np.clip(w.real, floor, None))) @ v.conj().T
    return float(-np.real(np.trace(rho_out @ log_phi))), clipped


def oracle_cases(rng):
    for _ in range(100):
        yield random_density(rng), random_config(rng)
    for _ in range(50):
        yield random_density(rng), unital_config(rng)
    demons = [UP, DOWN, np.diag([1 - 1e-13, 1e-13]), np.diag([0.75, 0.25]), I2 / 2,
              pure_density(np.array([1.0, 1.0]) / np.sqrt(2))]
    for demon in demons:
        for _ in range(25):
            params = SpinDemonParams(*rng.uniform(-np.pi, np.pi, size=5))
            yield random_density(rng), spin_config(params, demon)


def test_bound_matches_spectral_oracle(rng):
    gammas = []
    for rho_in, config in oracle_cases(rng):
        report = ch.apply_channel(rho_in, config)
        bound, clipped = spectral_bound(report.rho_out, report.gamma)
        assert abs(report.lower_bound - bound) <= 1e-12
        if 1.0 - abs(report.gamma) > 1e-6:
            assert "bound-clipped" not in report.flags and not clipped
        gammas.append(abs(report.gamma))
    # the seeded cases reach both edges
    assert min(gammas) <= 1e-12 and max(gammas) >= 1.0 - 1e-15


def test_double_dot_bound_matches_spectral_oracle(rng):
    for _ in range(100):
        config = DoubleDotConfig(*rng.uniform(-np.pi, np.pi, size=4))
        dot = UP if rng.uniform() < 0.5 else random_density(rng)
        protocol = completed_double_dot if rng.uniform() < 0.5 else double_dot_protocol
        report = protocol(random_density(rng), dot, config)
        bound, _ = spectral_bound(report.rho_out, report.gamma)
        assert abs(report.lower_bound - bound) <= 1e-12


def bits(*values):
    return tuple(float(v).hex() for v in values)


def test_entropy_gain_is_apply_channel_fields(rng):
    # generic and spin channels; mixed, pure and maximally mixed demons and inputs
    for i in range(200):
        demon = (random_density(rng), UP, pure_density(random_pure(rng)), I2 / 2)[i % 4]
        rho_in = (random_density(rng), pure_density(random_pure(rng)), I2 / 2)[i % 3]
        if i % 8 < 4:
            fresh = partial(ch.ChannelConfig, random_unitary(rng),
                            tuple(random_unitary(rng) for _ in range(4)), demon)
        else:
            fresh = partial(spin_config, SpinDemonParams(*rng.uniform(0.0, 2 * np.pi, size=5)),
                            demon)
        gain_first = ch.entropy_gain(rho_in, fresh())   # builds U and γ itself
        config = fresh()
        report = ch.apply_channel(rho_in, config)
        want = bits(report.entropy_gain, report.lower_bound)
        assert bits(*gain_first) == bits(*ch.entropy_gain(rho_in, config)) == want


def test_config_builds_u_and_gamma_once(rng, monkeypatch):
    builds = count_calls(monkeypatch, ch, "joint_unitary")
    gammas = count_calls(monkeypatch, ch, "gamma")
    for config in (random_config(rng),
                   spin_config(SpinDemonParams(*rng.uniform(0.0, 2 * np.pi, size=5)), UP)):
        builds.clear()
        gammas.clear()
        for _ in range(2):
            ch.apply_channel(random_density(rng), config)
            ch.entropy_gain(random_density(rng), config)
        assert (len(builds), len(gammas)) == (1, 1)
        assert config._unitary.tobytes() == ch.joint_unitary(config).tobytes()
        assert not config._unitary.flags.writeable
        g, fresh = config._gamma, ch.gamma(config)
        assert type(g) is type(fresh) and bits(g.real, g.imag) == bits(fresh.real, fresh.imag)


def test_entropy_gain_makes_two_decompositions(rng, monkeypatch):
    config = random_config(rng)
    ch.apply_channel(random_density(rng), config)
    kron = count_calls(monkeypatch, np, "kron")
    eigvalsh = count_calls(monkeypatch, np.linalg, "eigvalsh")
    eigh = count_calls(monkeypatch, np.linalg, "eigh")
    ch.entropy_gain(random_density(rng), config)
    # the input's validation, which gives S(ρ_in), then S(ρ_out)
    assert (len(kron), len(eigvalsh), len(eigh)) == (0, 2, 0)


@pytest.mark.parametrize("n", [1, 3, 4])
def test_channel_paths_refuse_a_valid_state_that_is_not_a_qubit(rng, n):
    rho_in = random_density(rng, n)
    config = random_config(rng)
    message = f"rho_in must be a 2x2 state, got shape {(n, n)}"
    for call in (lambda: ch.apply_channel(rho_in, config),
                 lambda: ch.entropy_gain(rho_in, config),
                 lambda: scatter(rho_in, UP, SpinDemonParams()),
                 lambda: double_dot_protocol(rho_in, UP, DoubleDotConfig())):
        with pytest.raises(qm.InvalidStateError, match=re.escape(message)):
            call()


def test_config_validation_rejects_bad_members(rng):
    with pytest.raises(qm.InvalidStateError):
        ch.ChannelConfig(np.eye(2) * 2, (I2, I2, I2, I2), UP)
    with pytest.raises(qm.InvalidStateError):
        ch.ChannelConfig(I2, (I2, I2, I2, I2), np.diag([0.7, 0.7]))


def test_config_validation_names_the_faulty_member(rng):
    def message(*args):
        with pytest.raises(ValueError) as err:
            ch.ChannelConfig(*args)
        return type(err.value), str(err.value)

    # a non-unitary lead after a unitary scattering matrix and leads
    assert message(I2, (I2, I2, np.diag([1.0, 2.0]), I2), UP) == (
        qm.InvalidStateError, "matrix is not unitary (defect 3.000e+00)")
    # two faulty leads: the first one is reported
    assert message(I2, (I2, np.diag([1.0, 1.5]), I2, 2 * I2), UP)[1] == \
        "matrix is not unitary (defect 1.250e+00)"
    for bad in (np.nan, np.inf, -np.inf):
        lead = I2.copy()
        lead[0, 1] = bad
        assert message(I2, (I2, I2, I2, lead), UP) == (
            qm.InvalidStateError, "entries must be finite, got NaN or inf")
    assert message(np.ones((2, 3)), (I2, I2, I2, I2), UP) == (
        qm.InvalidStateError, "expected a square matrix, got shape (2, 3)")
    assert message(I2, (I2, I2, np.eye(4), I2), UP) == (
        qm.InvalidStateError, "lead/demon matrix 3 must be 2x2")
    assert message(I2, (I2, I2, I2), UP) == (
        qm.InvalidStateError, "expected exactly four lead unitaries")
    assert message(I2, (I2, I2, I2, I2), np.eye(4) / 4) == (
        qm.InvalidStateError, "lead/demon matrix demon_state must be 2x2")


def test_config_members_are_read_only_copies(rng):
    s, leads = random_unitary(rng), tuple(random_unitary(rng) for _ in range(4))
    config = ch.ChannelConfig(s, leads, UP)
    for given, kept in zip((s, *leads, UP), (config.scattering, *config.lead_unitaries,
                                            config.demon_state)):
        assert kept.tobytes() == given.astype(complex).tobytes()
        assert not kept.flags.writeable and not np.shares_memory(kept, given)
