"""Spin realisation of the purifying channel.

Concrete ingredient set: a symmetric beam splitter s(θ, η), a spin-flip
rotation on incoming lead 0 and a conditional π-phase on outgoing lead 0
(nothing on leads 1). With the demon prepared in an operational basis state
this maximises |γ| and swaps the purity of the flying qubit with the demon:
the outgoing system state is polarised in the equatorial plane and does not
depend on the input state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelConfig, ChannelReport, apply_channel
from .qmatrix import ATOL, ParameterError, _require_finite, pure_density

I2 = np.eye(2, dtype=complex)


@dataclass(frozen=True)
class SpinDemonParams:
    """Angles of the splitter (theta, eta), interaction phase phi, and the
    two free phases of the spin-flip rotation.

    ``beta_phase`` is named to avoid any collision with inverse temperature.
    """

    theta: float = 0.0
    eta: float = 0.0
    phi: float = 0.0
    alpha: float = 0.0
    beta_phase: float = 0.0

    def __post_init__(self):
        _require_finite(**vars(self))


def beam_splitter(theta: float, eta: float) -> np.ndarray:
    """Symmetric reflectionless splitter (1/√2)[[e^{iθ}, -e^{-iη}], [e^{iη}, e^{-iθ}]].

    |s00 s10*| = 1/2 for every (θ, η), the largest value a unitary 2x2
    matrix admits.
    """
    _require_finite(theta=theta, eta=eta)
    return np.array(
        [[np.exp(1j * theta), -np.exp(-1j * eta)],
         [np.exp(1j * eta), np.exp(-1j * theta)]], dtype=complex) / np.sqrt(2)


def demon_unitaries(params: SpinDemonParams) -> tuple[np.ndarray, np.ndarray]:
    """The two non-commuting demon rotations (u1, u3).

    u1 exchanges the operational states with phases e^{iα}, e^{iβ};
    u3 is diagonal with a relative π: u3|up> = -e^{iφ}|up>,
    u3|down> = +e^{iφ}|down>.
    """
    u1 = np.array([[0.0, np.exp(1j * params.beta_phase)],
                   [np.exp(1j * params.alpha), 0.0]], dtype=complex)
    u3 = np.array([[-np.exp(1j * params.phi), 0.0],
                   [0.0, np.exp(1j * params.phi)]], dtype=complex)
    return u1, u3


def spin_config(params: SpinDemonParams, demon_state) -> ChannelConfig:
    """ChannelConfig with the rotations on leads 0 only (u2 = u4 = identity)."""
    u1, u3 = demon_unitaries(params)
    return ChannelConfig(
        scattering=beam_splitter(params.theta, params.eta),
        lead_unitaries=(u1, I2, u3, I2),
        demon_state=np.asarray(demon_state, dtype=complex),
    )


def xy_states(theta: float, eta: float, phi: float) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal equatorial output pair of the maximally purifying channel.

    (e^{i(φ+θ)}|0> ± e^{iη}|1>)/√2; the channel sends every input onto the
    first (demon up) or second (demon down) of these.
    """
    _require_finite(theta=theta, eta=eta, phi=phi)
    up = np.array([np.exp(1j * (phi + theta)), np.exp(1j * eta)], dtype=complex)
    dn = np.array([np.exp(1j * (phi + theta)), -np.exp(1j * eta)], dtype=complex)
    return up / np.sqrt(2), dn / np.sqrt(2)


def scatter(rho_in, demon, params: SpinDemonParams) -> ChannelReport:
    """Run the spin channel on ``rho_in`` with demon state ``demon``.

    For demons diagonal in the operational basis the output factorises into
    an equatorial system state and demon states that carry the input's
    spectrum; non-diagonal demon preparations still define a valid channel
    but no purity exchange happens — the report is flagged rather than
    rejected.
    """
    config = spin_config(params, demon)     # validates the demon state once
    r = config.demon_state
    flags = ("demon-not-diagonal",) if max(abs(r[0, 1]), abs(r[1, 0])) > ATOL else ()
    return apply_channel(rho_in, config, extra_flags=flags)


def demon_state_from_spec(kind: str, value=None) -> np.ndarray:
    """Build a demon density matrix from a small textual spec.

    kind: "up" | "down" | "mixture" (value = weight of up) |
    "superposition" (value = [a, b] amplitudes, normalised here).
    """
    if kind == "up":
        return np.diag([1.0, 0.0]).astype(complex)
    if kind == "down":
        return np.diag([0.0, 1.0]).astype(complex)
    if kind == "mixture":
        p = float(value)
        if not 0.0 <= p <= 1.0:
            raise ParameterError(f"mixture weight must be in [0, 1], got {p}")
        return np.diag([p, 1.0 - p]).astype(complex)
    if kind == "superposition":
        a, b = value
        vec = np.array([complex(a), complex(b)])
        scale = np.abs(vec.view(float)).max()
        with np.errstate(over="ignore"):
            norm = np.linalg.norm(vec)
        if norm in (0.0, np.inf) and 0.0 < scale < np.inf:  # finite, but the squares under/overflow
            vec = (vec.view(float) / scale).view(complex)
            norm = np.linalg.norm(vec)
        if not 0.0 < norm < np.inf:
            raise ParameterError("amplitudes must be finite and not both vanish")
        return pure_density(vec / norm)
    raise ParameterError(f"unknown demon kind {kind!r}")

