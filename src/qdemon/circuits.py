"""Gate-level form of the purifying channel and the partial-SWAP circuits.

Two-qubit matrices act on the product basis {|0,up>, |0,down>, |1,up>,
|1,down>} with the system qubit on the left. The CNOT convention follows the
physical interaction: the *system* controls, active on its first basis state
(upper 2x2 block flips the demon).

The purification circuit, its permutation form, and the full SWAP: composing
CNOT · (H̄ ⊗ H̄) · CNOT purifies a mixed system against an operational-basis
demon; two extra Hadamard-type gates reduce it to a pure relabelling that
swaps states exactly in the demon-up sector and swaps-up-to-NOT in the
demon-down sector; one more CNOT (control active on the down state) promotes
it to the textbook SWAP.

The engine's partial SWAP is written once, as four stages: ``pswap_gate``
multiplies them out, and ``pswap_route`` pushes the engine's states through
them, the gate route the tests compare with ``engine.run_cycle``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelReport, channel_report, gamma
from .engine import EngineParams, thermal_wit
from .qmatrix import (ParameterError, _require_finite, check_density_matrix,
                      check_pure_state, dag, tensor, von_neumann_entropy)
from .spin_demon import SpinDemonParams, beam_splitter, spin_config

I2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)

#: Hadamard-type gate σ_z·H; equals the beam splitter at (θ, η) = (0, π)
HBAR = SIGMA_Z @ HADAMARD

#: CNOT on the demon, control = system, active on the system's first state
CNOT_UP = np.array([[0, 1, 0, 0],
                    [1, 0, 0, 0],
                    [0, 0, 1, 0],
                    [0, 0, 0, 1]], dtype=complex)

#: CNOT on the demon, control = system, active on the system's second state
CNOT_DOWN = np.array([[1, 0, 0, 0],
                      [0, 1, 0, 0],
                      [0, 0, 0, 1],
                      [0, 0, 1, 0]], dtype=complex)


def u14(phase: float) -> np.ndarray:
    """Quarter-Rabi rotation (1/√2)[[1, i e^{iϕ}], [i e^{-iϕ}, 1]].

    Reduces to HBAR at ϕ = -π/2; its square is the half-Rabi NOT
    [[0, i e^{iϕ}], [i e^{-iϕ}, 0]].
    """
    _require_finite(phase=phase)
    return np.array([[1.0, 1j * np.exp(1j * phase)],
                     [1j * np.exp(-1j * phase), 1.0]], dtype=complex) / np.sqrt(2)


def half_rabi(phase: float) -> np.ndarray:
    """NOT-up-to-phases pulse u14(ϕ)²; used for work extraction."""
    return u14(phase) @ u14(phase)


def conditional_pi_phase(phi: float) -> np.ndarray:
    """Joint interaction: relative π on the demon's physical states, gated on
    the system's first state; diag(e^{iφ}, -e^{iφ}, 1, 1)."""
    _require_finite(phi=phi)
    return np.diag([np.exp(1j * phi), -np.exp(1j * phi), 1.0, 1.0]).astype(complex)


def build_UD() -> np.ndarray:
    """Purification circuit CNOT · (H̄ ⊗ H̄) · CNOT."""
    return CNOT_UP @ tensor(HBAR, HBAR) @ CNOT_UP


def build_VD() -> np.ndarray:
    """Basis-reduced partial SWAP (H̄⁻¹ ⊗ H̄) · UD; a pure permutation."""
    return tensor(np.linalg.inv(HBAR), HBAR) @ build_UD()


def build_SWAP() -> np.ndarray:
    """Full SWAP = CNOT(control active on system-down) · VD."""
    return CNOT_DOWN @ build_VD()


def _pswap_stages(phase: float) -> tuple[np.ndarray, ...]:
    """The partial SWAP's four gates in the order they act: CNOT, u14 ⊗ H̄, CNOT, u14 ⊗ 1."""
    return CNOT_UP, tensor(u14(phase), HBAR), CNOT_UP, tensor(u14(phase), I2)


def pswap_gate(phase: float = -np.pi / 2) -> np.ndarray:
    """Work-extracting partial SWAP used by the engine:
    (u14 ⊗ 1) · CNOT · (u14 ⊗ H̄) · CNOT.

    The u14 factors act on the system (working) qubit in its energy basis;
    the demon-side Hadamard-type rotation happens between the two
    interactions.
    """
    s1, s2, s3, s4 = _pswap_stages(phase)
    return s4 @ s3 @ s2 @ s1


def pswap_route(params: EngineParams, phase: float = -np.pi / 2) -> dict:
    """Density-matrix route through one engine cycle: states, marginals, and
    the per-stage field energies, all derived from the gate sequence alone.

    Returns a dict with the final wit/dit marginals of both pairs, the
    stage-resolved field ledger, and the energy figures (w_minus, w_plus,
    heat) in the units of delta_w. It is what the tests compare
    ``engine.run_cycle``'s closed forms with.
    """
    delta, eps = params.delta_w, params.epsilon
    _, p_e, rho_w = thermal_wit(params.beta, delta)
    # both demon branches (dit up, dit down) as one (2, 4, 4) stack, kept per stage
    stacks = [np.stack([tensor(rho_w, np.diag(pops).astype(complex))
                        for pops in ((1.0 - eps, eps), (eps, 1.0 - eps))])]
    for g in _pswap_stages(phase):
        stacks.append(g @ stacks[-1] @ dag(g))
    split = np.reshape(stacks, (len(stacks), 2, 2, 2, 2, 2))
    wits = np.einsum("snikjk->snij", split)
    steps = np.diff(delta * wits[:, :, 0, 0].real, axis=0)
    stage_energy = 0.0 + steps[:, 0] + steps[:, 1]  # summed from +0.0, branch by branch
    wit_up, wit_dn = wits[-1]
    dit_up, dit_dn = np.einsum("nkikj->nij", split[-1])

    # extraction: half-Rabi NOT on the deterministically excited wit
    pulse = half_rabi(phase)
    wit_dn_after = pulse @ wit_dn @ dag(pulse)
    w_plus = delta * float((wit_dn[0, 0] - wit_dn_after[0, 0]).real)

    w_minus = delta * float((wit_up[0, 0] + wit_dn[0, 0]).real) - 2.0 * p_e * delta
    leftover = delta * float((wit_up[0, 0] + wit_dn_after[0, 0]).real)
    heat = 2.0 * p_e * delta - leftover

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


def pswap_counterexample(demon) -> bool:
    """True when the partial SWAP fails to swap against this demon state.

    The circuit swaps (up to a fixed local rotation) exactly when the map
    x ↦ VD(x ⊗ demon) factorises as (fixed system state) ⊗ (unitary · x);
    that holds for the operational basis states and fails for genuine
    superpositions. Checked as a rank condition on the reshaped map.
    """
    v = check_pure_state(demon)
    if v.size != 2:
        raise ParameterError("demon must be a single-qubit amplitude pair")
    vd = build_VD()
    images = []
    for j in range(2):
        basis = np.zeros(2, dtype=complex)
        basis[j] = 1.0
        images.append((vd @ tensor(basis, v)).reshape(2, 2))
    stacked = np.stack(images, axis=2).reshape(2, 4)  # rows: system-out
    singular = np.linalg.svd(stacked, compute_uv=False)
    return bool(singular[1] > 1e-9)


@dataclass(frozen=True)
class DoubleDotConfig:
    """Angles of the double-dot protocol: tunneling phase ϕ (argument of the
    tunneling amplitude), interaction phase φ, and splitter angles (θ, η)."""

    tunneling_phase: float = -np.pi / 2
    interaction_phase: float = 0.0
    theta: float = 0.0
    eta: float = np.pi

    def __post_init__(self):
        _require_finite(**vars(self))


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


def double_dot_protocol(rho_in, dot_state, config: DoubleDotConfig,
                        dot_basis: str = "physical",
                        complete_rotation: bool = False) -> ChannelReport:
    """Four-step protocol: prepare the dot with a quarter rotation, interact,
    scatter the system while rotating the dot by another quarter, interact
    again. The trailing inverse quarter rotation is dropped.

    dot_basis="physical" treats ``dot_state`` as written in the localised
    basis (the preparation rotation is part of the protocol);
    "operational" treats it as coordinates in the rotated operational basis.
    Either way the system output equals the spin-channel output with matched
    phases. With ``complete_rotation=True`` the dropped rotation is applied,
    which also maps the joint/demon output onto the spin channel's (expressed
    in the operational basis).
    """
    if dot_basis not in ("physical", "operational"):
        raise ParameterError(f"unknown dot basis {dot_basis!r}")
    rho_in = check_density_matrix(rho_in)
    # the equivalent spin channel validates the dot once; the dot coordinates
    # in the operational frame equal the matrix as given, so γ comes from it
    spin = spin_config(equivalent_spin_params(config), dot_state)
    dot = spin.demon_state

    quarter = u14(config.tunneling_phase)
    # the operational-basis change matrix IS the preparation rotation, so both
    # basis conventions prepare the same physical dot state
    dot_phys = quarter @ dot @ dag(quarter)

    interaction = conditional_pi_phase(config.interaction_phase)
    sequence = (interaction
                @ tensor(beam_splitter(config.theta, config.eta), quarter)
                @ interaction)
    joint = sequence @ tensor(rho_in, dot_phys) @ dag(sequence)

    flags = [f"dot-basis-{dot_basis}"]
    if complete_rotation:
        undo = tensor(I2, dag(half_rabi(config.tunneling_phase)))
        joint = undo @ joint @ dag(undo)
        flags.append("rotation-completed")

    return channel_report(rho_in, joint, gamma(spin), tuple(flags))
