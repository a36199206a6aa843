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

The double-dot protocol is the four-lead channel of ``channel`` with lead
unitaries (q·d·q, q·q, d, 1), q = u14(ϕ), d = e^{iφ}σ_z; its ``dot_basis``
changes only a flag, since both conventions prepare the same physical dot. It
drops the trailing rotation that would make its joint output the spin
channel's; ``completed_double_dot`` in ``tests/conftest.py`` applies it, as the
oracle for that equivalence.

The engine's partial SWAP is written once, as four stages that ``pswap_gate``
multiplies out (``qdemon gates --which PSWAP`` dumps it).
``tests/test_symbolic.py`` pushes the engine's states through the stages and
derives ``engine.run_cycle``'s ledger, and derives the double-dot protocol's
equivalence to the spin channel.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .channel import ChannelConfig, ChannelReport, _check_demon, apply_channel
from .qmatrix import ParameterError, _require_finite, tensor
from .spin_demon import I2, beam_splitter

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

#: purification circuit CNOT · (H̄ ⊗ H̄) · CNOT
UD = CNOT_UP @ tensor(HBAR, HBAR) @ CNOT_UP
#: basis-reduced partial SWAP (H̄⁻¹ ⊗ H̄) · UD; a pure permutation
VD = tensor(np.linalg.inv(HBAR), HBAR) @ UD
#: full SWAP = CNOT(control active on system-down) · VD
SWAP = CNOT_DOWN @ VD
for _gate in (SIGMA_Z, HADAMARD, HBAR, CNOT_UP, CNOT_DOWN, UD, VD, SWAP):
    _gate.setflags(write=False)     # shared: `qdemon gates --which UD` returns UD itself


def u14(phase: float) -> np.ndarray:
    """Quarter-Rabi rotation (1/√2)[[1, i e^{iϕ}], [i e^{-iϕ}, 1]].

    Reduces to HBAR at ϕ = -π/2; its square is the half-Rabi NOT
    [[0, i e^{iϕ}], [i e^{-iϕ}, 0]].
    """
    _require_finite(phase=phase)
    return np.array([[1.0, 1j * cmath.exp(1j * phase)],
                     [1j * cmath.exp(-1j * phase), 1.0]]) / np.sqrt(2)


def conditional_pi_phase(phi: float) -> np.ndarray:
    """Joint interaction: relative π on the demon's physical states, gated on
    the system's first state; diag(e^{iφ}, -e^{iφ}, 1, 1)."""
    _require_finite(phi=phi)
    e = cmath.exp(1j * phi)
    return np.diag([e, -e, 1.0, 1.0])


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


def double_dot_protocol(rho_in, dot_state, config: DoubleDotConfig,
                        dot_basis: str = "physical") -> ChannelReport:
    """Four-step protocol: prepare the dot with a quarter rotation q = u14(ϕ),
    interact, scatter the system by s = beam_splitter(θ, η) while rotating the
    dot by another quarter, interact again; the trailing inverse quarter
    rotation is dropped. It is the four-lead channel with lead unitaries
    (q·d·q, q·q, d, 1), d = e^{iφ}σ_z being the upper block of
    ``conditional_pi_phase``, and ``dot_state`` as its demon state.

    Dropping the rotation leaves the system output as it is: with it the
    joint and demon outputs would equal the spin channel's at α = φ - ϕ - π/2,
    β = φ + ϕ + π/2 (``completed_double_dot`` in ``tests/conftest.py`` is that
    channel, and ``tests/test_symbolic.py`` derives the equivalence). Both
    ``dot_basis`` conventions ("physical", "operational") prepare the same
    physical dot, so it changes only the ``dot-basis-*`` flag.
    """
    if dot_basis not in ("physical", "operational"):
        raise ParameterError(f"unknown dot basis {dot_basis!r}")
    q = u14(config.tunneling_phase)
    d = conditional_pi_phase(config.interaction_phase)[:2, :2]
    s = beam_splitter(config.theta, config.eta)   # from checked angles: stored unchecked
    built = ChannelConfig._built(s, q @ d @ q, q @ q, d, I2, _check_demon(dot_state))
    return apply_channel(rho_in, built, (f"dot-basis-{dot_basis}",))
