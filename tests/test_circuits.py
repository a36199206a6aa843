"""Gate identities, partial-SWAP semantics, and the double-dot protocol."""

import math
import re

import numpy as np
import pytest

from qdemon import channel as ch
from qdemon import circuits as qc
from qdemon import qmatrix as qm
from qdemon.channel import ChannelConfig, apply_channel, gamma
from qdemon.spin_demon import beam_splitter, spin_config
from conftest import (completed_double_dot, equivalent_spin_params, half_rabi, partial_trace,
                      pure_density, random_density, random_pure)

I2 = np.eye(2, dtype=complex)

UD_MATRIX = 0.5 * np.array([[1, -1, -1, 1],
                            [1, 1, 1, 1],
                            [-1, -1, 1, 1],
                            [-1, 1, -1, 1]], dtype=complex)

VD_MATRIX = np.array([[1, 0, 0, 0],
                      [0, 0, 1, 0],
                      [0, 0, 0, 1],
                      [0, 1, 0, 0]], dtype=complex)

SWAP_MATRIX = np.array([[1, 0, 0, 0],
                        [0, 0, 1, 0],
                        [0, 1, 0, 0],
                        [0, 0, 0, 1]], dtype=complex)


def test_u14_reduces_to_hbar():
    assert np.allclose(qc.u14(-np.pi / 2), qc.HBAR, atol=1e-12)


def test_u14_square_is_half_rabi(rng):
    for phase in rng.uniform(-np.pi, np.pi, size=10):
        pulse = qc.u14(phase) @ qc.u14(phase)
        up = np.array([1.0, 0.0])
        down = np.array([0.0, 1.0])
        assert np.allclose(pulse @ up, 1j * np.exp(-1j * phase) * down, atol=1e-12)
        assert np.allclose(pulse @ down, 1j * np.exp(1j * phase) * up, atol=1e-12)


def test_cnot_self_inverse():
    assert np.allclose(qc.CNOT_UP @ qc.CNOT_UP, np.eye(4), atol=1e-12)
    assert np.allclose(qc.CNOT_DOWN @ qc.CNOT_DOWN, np.eye(4), atol=1e-12)


def build_gates(phase: float) -> dict[str, np.ndarray]:
    """The gate set, embedded in the joint basis (4x4 each)."""
    return {
        "CNOT_on_demon_control_up": qc.CNOT_UP.copy(),
        "CNOT_on_demon_control_down": qc.CNOT_DOWN.copy(),
        "HBAR_system": qm.tensor(qc.HBAR, I2),
        "HBAR_demon": qm.tensor(I2, qc.HBAR),
        "U14_system": qm.tensor(qc.u14(phase), I2),
        "U14_demon": qm.tensor(I2, qc.u14(phase)),
    }


def test_build_gates_unitary_and_commuting_factors(rng):
    gates = build_gates(0.37)
    assert set(gates) == {
        "CNOT_on_demon_control_up", "CNOT_on_demon_control_down",
        "HBAR_system", "HBAR_demon", "U14_system", "U14_demon",
    }
    for g in gates.values():
        assert np.allclose(g.conj().T @ g, np.eye(4), atol=1e-12)
    assert np.allclose(gates["HBAR_system"] @ gates["U14_demon"],
                       gates["U14_demon"] @ gates["HBAR_system"], atol=1e-12)


def test_ud_matches_printed_matrix():
    assert np.allclose(qc.UD, UD_MATRIX, atol=1e-12)
    ud = qc.UD
    assert np.allclose(ud.conj().T @ ud, np.eye(4), atol=1e-12)


def test_ud_purifies_chaotic_system():
    ud = qc.UD
    joint = ud @ qm.tensor(I2 / 2, np.diag([1.0, 0.0])) @ ud.conj().T
    system = partial_trace(joint, "first")
    assert qm.von_neumann_entropy(system) < 1e-10


def test_vd_matches_printed_matrix():
    assert np.allclose(qc.VD, VD_MATRIX, atol=1e-12)


def test_vd_basis_state_actions():
    vd = qc.VD
    e = [np.eye(4)[:, i] for i in range(4)]
    assert np.allclose(vd @ e[0], e[0], atol=1e-12)   # up-sector fixed point
    assert np.allclose(vd @ e[2], e[1], atol=1e-12)   # swap within up sector
    assert np.allclose(vd @ e[1], e[3], atol=1e-12)   # down sector: swap + NOT
    assert np.allclose(vd @ e[3], e[2], atol=1e-12)


def test_vd_swaps_against_basis_demons(rng):
    vd = qc.VD
    for _ in range(20):
        a, b = random_pure(rng)
        system = np.array([a, b])
        out_up = vd @ np.kron(system, [1.0, 0.0])
        assert np.allclose(out_up, np.kron([1.0, 0.0], system), atol=1e-12)
        out_dn = vd @ np.kron(system, [0.0, 1.0])
        swapped = np.array([b, a])
        assert np.allclose(out_dn, np.kron([0.0, 1.0], swapped), atol=1e-12)


def test_swap_matches_printed_matrix():
    assert np.allclose(qc.SWAP, SWAP_MATRIX, atol=1e-12)
    assert np.allclose(qc.SWAP @ qc.SWAP, np.eye(4), atol=1e-12)


def test_swap_exchanges_product_states(rng):
    swap = qc.SWAP
    for _ in range(10):
        psi = random_pure(rng)
        chi = random_pure(rng)
        assert np.allclose(swap @ np.kron(psi, chi), np.kron(chi, psi), atol=1e-12)


def build_minimal_pswap() -> np.ndarray:
    """Two-CNOT partial SWAP with exchanged controller.

    CNOT on the *system* controlled by the demon's second state, then CNOT on
    the demon controlled by the system's second state. Equal to VD
    exactly under this package's conventions (equivalently: the up-active
    pair conjugated by σ_x ⊗ σ_x).
    """
    cnot_on_system_demon_down = np.array([[1, 0, 0, 0],
                                          [0, 0, 0, 1],
                                          [0, 0, 1, 0],
                                          [0, 1, 0, 0]], dtype=complex)
    return cnot_on_system_demon_down @ qc.CNOT_DOWN


def test_minimal_pswap_equals_vd():
    minimal = build_minimal_pswap()
    assert np.allclose(minimal, qc.VD, atol=1e-12)
    # equivalent statement: the up-active controller pair conjugated by X⊗X
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    cnot_on_system_up = np.array([[0, 0, 1, 0],
                                  [0, 1, 0, 0],
                                  [1, 0, 0, 0],
                                  [0, 0, 0, 1]], dtype=complex)
    conj = qm.tensor(sx, sx)
    assert np.allclose(conj @ cnot_on_system_up @ qc.CNOT_UP @ conj,
                       qc.VD, atol=1e-12)


def pswap_counterexample(demon) -> bool:
    """True when the partial SWAP fails to swap against this demon state.

    The circuit swaps (up to a fixed local rotation) exactly when the map
    x ↦ VD(x ⊗ demon) factorises as (fixed system state) ⊗ (unitary · x);
    that holds for the operational basis states and fails for genuine
    superpositions. Checked as a rank condition on the reshaped map.
    """
    v = np.asarray(demon, dtype=complex).reshape(-1)
    norm = np.linalg.norm(v)
    if not abs(norm - 1.0) <= qm.ATOL:     # NaN and inf entries fail too
        raise qm.InvalidStateError(f"state vector norm is {norm}, expected 1")
    if v.size != 2:
        raise qm.ParameterError("demon must be a single-qubit amplitude pair")
    vd = qc.VD
    images = [(vd @ np.kron(basis, v)).reshape(2, 2) for basis in np.eye(2)]
    stacked = np.stack(images, axis=2).reshape(2, 4)  # rows: system-out
    singular = np.linalg.svd(stacked, compute_uv=False)
    return bool(singular[1] > 1e-9)


def test_pswap_counterexample_basis_demons():
    assert pswap_counterexample(np.array([1.0, 0.0])) is False
    assert pswap_counterexample(np.array([0.0, 1.0])) is False


def test_pswap_counterexample_rejects_a_non_qubit_demon():
    # a unit vector, so only the size check refuses it
    with pytest.raises(qm.ParameterError, match="single-qubit amplitude pair"):
        pswap_counterexample(np.array([0.5, 0.5, 0.5, 0.5]))


def test_pswap_counterexample_superposition():
    demon = np.array([1.0, 1.0]) / np.sqrt(2)
    assert pswap_counterexample(demon) is True
    # explicit witness: system |up> against the balanced demon entangles
    out = qc.VD @ np.kron([1.0, 0.0], demon)
    expected_if_swapped = np.kron(demon, [1.0, 0.0])
    assert not np.allclose(out, expected_if_swapped, atol=1e-6)


def test_interaction_acts_as_flip_on_operational_states(rng):
    for _ in range(20):
        phi, varphi = rng.uniform(-np.pi, np.pi, size=2)
        quarter = qc.u14(varphi)
        u_block = np.diag([np.exp(1j * phi), -np.exp(1j * phi)])
        op_up = quarter[:, 0]
        op_dn = quarter[:, 1]
        assert np.allclose(u_block @ op_up,
                           -1j * np.exp(1j * (phi - varphi)) * op_dn, atol=1e-12)
        assert np.allclose(u_block @ op_dn,
                           1j * np.exp(1j * (phi + varphi)) * op_up, atol=1e-12)


def test_quarter_rotation_conjugation_identity(rng):
    # sandwiching the interaction between quarter rotations yields the
    # diagonal-with-relative-pi operation on the operational states
    for _ in range(20):
        phi, varphi = rng.uniform(-np.pi, np.pi, size=2)
        quarter = qc.u14(varphi)
        u_block = np.diag([np.exp(1j * phi), -np.exp(1j * phi)])
        conj = quarter.conj().T @ u_block @ quarter
        op_up = quarter[:, 0]
        op_dn = quarter[:, 1]
        assert np.allclose(conj @ op_up, -np.exp(1j * phi) * op_up, atol=1e-12)
        assert np.allclose(conj @ op_dn, np.exp(1j * phi) * op_dn, atol=1e-12)


def reference_channel_report(rho_in, dot_state, config):
    """The spin-channel run the double-dot protocol is equivalent to (matched phases)."""
    return apply_channel(rho_in, spin_config(equivalent_spin_params(config), dot_state))


def test_protocol_equals_channel_on_system(rng):
    for _ in range(100):
        config = qc.DoubleDotConfig(
            tunneling_phase=rng.uniform(-np.pi, np.pi),
            interaction_phase=rng.uniform(-np.pi, np.pi),
            theta=rng.uniform(-np.pi, np.pi),
            eta=rng.uniform(-np.pi, np.pi),
        )
        rho_in = random_density(rng)
        dot = np.diag([1.0, 0.0]).astype(complex)
        protocol = qc.double_dot_protocol(rho_in, dot, config)
        reference = reference_channel_report(rho_in, dot, config)
        assert np.allclose(protocol.rho_out, reference.rho_out, atol=1e-12)
        assert abs(protocol.gamma - reference.gamma) < 1e-12


def test_protocol_completion_matches_channel_joint(rng):
    for _ in range(30):
        config = qc.DoubleDotConfig(
            tunneling_phase=rng.uniform(-np.pi, np.pi),
            interaction_phase=rng.uniform(-np.pi, np.pi),
            theta=rng.uniform(-np.pi, np.pi),
            eta=rng.uniform(-np.pi, np.pi),
        )
        rho_in = random_density(rng)
        dot = random_density(rng)
        completed = completed_double_dot(rho_in, dot, config)
        reference = reference_channel_report(rho_in, dot, config)
        assert np.allclose(completed.joint_out, reference.joint_out, atol=1e-12)
        assert np.allclose(completed.demon_out, reference.demon_out, atol=1e-12)


def reference_double_dot(rho_in, dot, config, complete_rotation):
    """The protocol as its own joint evolution: D·(s ⊗ q)·D on ρ_in ⊗ q·dot·q†, with
    D = conditional_pi_phase(φ), q = u14(ϕ), s the splitter, and the dropped
    rotation 1 ⊗ half_rabi(ϕ)† applied on request. Returns (joint, γ)."""
    quarter = qc.u14(config.tunneling_phase)
    d = qc.conditional_pi_phase(config.interaction_phase)
    sequence = d @ qm.tensor(beam_splitter(config.theta, config.eta), quarter) @ d
    joint = sequence @ qm.tensor(rho_in, quarter @ dot @ quarter.conj().T) @ sequence.conj().T
    if complete_rotation:
        undo = qm.tensor(I2, half_rabi(config.tunneling_phase).conj().T)
        joint = undo @ joint @ undo.conj().T
    return joint, gamma(spin_config(equivalent_spin_params(config), dot))


@pytest.mark.parametrize("complete", [False, True])
def test_protocol_matches_its_joint_evolution(rng, complete):
    dots = {"pure": lambda: pure_density(random_pure(rng)),
            "diagonal": lambda: np.diag([p := rng.uniform(), 1.0 - p]).astype(complex),
            "general": lambda: random_density(rng)}
    for kind, make_dot in dots.items():
        for _ in range(100):
            config = qc.DoubleDotConfig(*rng.uniform(-np.pi, np.pi, size=4))
            rho_in, dot = random_density(rng), make_dot()
            protocol = completed_double_dot if complete else qc.double_dot_protocol
            report = protocol(rho_in, dot, config)
            joint, g = reference_double_dot(rho_in, dot, config, complete)
            for got, want in ((report.joint_out, joint),
                              (report.rho_out, partial_trace(joint, "first")),
                              (report.demon_out, partial_trace(joint, "second"))):
                assert np.abs(got - want).max() <= 2e-15, kind
            assert abs(report.gamma - g) <= 4e-15, kind


def test_protocol_equivalent_phases():
    config = qc.DoubleDotConfig(tunneling_phase=0.4, interaction_phase=1.1)
    params = equivalent_spin_params(config)
    assert math.isclose(params.alpha, 1.1 - 0.4 - np.pi / 2, abs_tol=1e-12)
    assert math.isclose(params.beta_phase, 1.1 + 0.4 + np.pi / 2, abs_tol=1e-12)


def test_protocol_dot_basis_flagged():
    config = qc.DoubleDotConfig()
    dot = np.diag([1.0, 0.0]).astype(complex)
    phys = qc.double_dot_protocol(I2 / 2, dot, config, dot_basis="physical")
    oper = qc.double_dot_protocol(I2 / 2, dot, config, dot_basis="operational")
    assert "dot-basis-physical" in phys.flags
    assert "dot-basis-operational" in oper.flags
    with pytest.raises(qm.ParameterError):
        qc.double_dot_protocol(I2 / 2, dot, config, dot_basis="z")


def test_protocol_validates_once_and_builds_one_config(monkeypatch, rng):
    # rho_in and the dot are each decomposed once to validate them, rho_out and
    # rho_in once more for the entropies; the leads and splitter, made from checked
    # angles, go into one config unchecked
    eig_calls, unitary_checks, state_checks, configs = [], [], [], []
    eigvalsh, built = np.linalg.eigvalsh, ChannelConfig._built
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: eig_calls.append(1) or eigvalsh(m))
    monkeypatch.setattr(ch, "check_unitary",
                        lambda u: unitary_checks.append(1) or qm.check_unitary(u))
    monkeypatch.setattr(ch, "check_density_matrix",
                        lambda r: state_checks.append(r) or qm.check_density_matrix(r))
    monkeypatch.setattr(ChannelConfig, "_built",
                        classmethod(lambda cls, *arrays: configs.append(1) or built(*arrays)))
    for basis in ("physical", "operational"):
        for log in (eig_calls, unitary_checks, state_checks, configs):
            log.clear()
        config = qc.DoubleDotConfig(*rng.uniform(-np.pi, np.pi, size=4))
        rho_in, dot = random_density(rng), random_density(rng)
        qc.double_dot_protocol(rho_in, dot, config, dot_basis=basis)
        assert (len(eig_calls), len(unitary_checks), len(configs)) == (4, 0, 1)
        assert [id(r) for r in state_checks] == [id(dot), id(rho_in)]   # the dot checked first


def test_canonical_phases_give_real_circuits():
    # interaction phase 0 and tunneling phase -pi/2 wipe all imaginary parts
    config = qc.DoubleDotConfig(tunneling_phase=-np.pi / 2, interaction_phase=0.0)
    params = equivalent_spin_params(config)
    assert abs(params.alpha) < 1e-12
    assert abs(params.beta_phase) < 1e-12
    for matrix in (qc.UD, qc.VD, qc.SWAP,
                   qc.u14(-np.pi / 2), qc.pswap_gate(-np.pi / 2)):
        assert np.abs(matrix.imag).max() < 1e-12


def test_pswap_gate_routes_demon_up_inputs_to_ground():
    pswap = qc.pswap_gate(-np.pi / 2)
    ground = np.array([0.0, 1.0])
    demon_up = np.array([1.0, 0.0])
    for system in (np.array([1.0, 0.0]), np.array([0.0, 1.0])):
        out = (pswap @ np.kron(system, demon_up)).reshape(2, 2)
        _, singular, _ = np.linalg.svd(out)
        assert singular[1] < 1e-12  # output stays a product state
        system_marginal = out @ out.conj().T
        assert math.isclose(abs(system_marginal[1, 1]), 1.0, abs_tol=1e-12)


def test_pswap_gate_is_bit_identical_to_the_inline_product():
    # oracle: the partial SWAP as one inline product, independent of _pswap_stages
    rng = np.random.default_rng(11)
    for phase in [-np.pi / 2, 0.0, *rng.uniform(-np.pi, np.pi, 50), *rng.uniform(-1e3, 1e3, 10)]:
        phase = float(phase)
        inline = (qm.tensor(qc.u14(phase), I2) @ qc.CNOT_UP
                  @ qm.tensor(qc.u14(phase), qc.HBAR) @ qc.CNOT_UP)
        assert qc.pswap_gate(phase).tobytes() == inline.tobytes(), phase


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_angles_rejected(bad):
    calls = {
        "u14": ("phase", lambda: qc.u14(bad)),
        "pswap_gate": ("phase", lambda: qc.pswap_gate(bad)),
        "conditional_pi_phase": ("phi", lambda: qc.conditional_pi_phase(bad)),
        **{f"DoubleDotConfig({name})": (name, lambda name=name: qc.DoubleDotConfig(**{name: bad}))
           for name in ("tunneling_phase", "interaction_phase", "theta", "eta")},
    }
    for label, (name, call) in calls.items():
        with pytest.raises(qm.ParameterError, match=re.escape(f"{name} must be finite, got {bad}")):
            call()
            pytest.fail(f"{label} accepted {bad}")
