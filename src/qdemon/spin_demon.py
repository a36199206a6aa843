"""Spin realisation of the purifying channel.

Concrete ingredient set: a symmetric beam splitter s(θ, η), a spin-flip
rotation on incoming lead 0 and a conditional π-phase on outgoing lead 0
(nothing on leads 1). With the demon prepared in an operational basis state
this maximises |γ| and swaps the purity of the flying qubit with the demon:
the outgoing system state is polarised in the equatorial plane and does not
depend on the input state.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .channel import ChannelConfig, ChannelReport, _check_demon, apply_channel
from .qmatrix import ATOL, ParameterError, _require_finite

I2 = np.eye(2, dtype=complex)
I2.setflags(write=False)    # shared by every spin and double-dot config, stored unchecked


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
        [[cmath.exp(1j * theta), -cmath.exp(-1j * eta)],
         [cmath.exp(1j * eta), cmath.exp(-1j * theta)]]) / np.sqrt(2)


def demon_unitaries(params: SpinDemonParams) -> tuple[np.ndarray, np.ndarray]:
    """The two non-commuting demon rotations (u1, u3).

    u1 exchanges the operational states with phases e^{iα}, e^{iβ};
    u3 is diagonal with a relative π: u3|up> = -e^{iφ}|up>,
    u3|down> = +e^{iφ}|down>.
    """
    u1 = np.array([[0j, cmath.exp(1j * params.beta_phase)],
                   [cmath.exp(1j * params.alpha), 0j]])
    e = cmath.exp(1j * params.phi)     # np.exp's bits, without a ufunc call per phase
    u3 = np.array([[-e, 0j], [0j, e]])
    return u1, u3


def spin_config(params: SpinDemonParams, demon_state) -> ChannelConfig:
    """ChannelConfig with the rotations on leads 0 only (u2 = u4 = 1); checks only the demon."""
    return _spin_config(params, _check_demon(demon_state))


def _spin_config(params: SpinDemonParams, demon: np.ndarray) -> ChannelConfig:
    """spin_config of a 2x2 demon that the package built or checked; checks nothing."""
    u1, u3 = demon_unitaries(params)
    return ChannelConfig._built(beam_splitter(params.theta, params.eta), u1, I2, u3, I2, demon)


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
    if kind in ("up", "down", "mixture"):
        p = float(value) if kind == "mixture" else float(kind == "up")
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
        vec = vec / norm
        return np.outer(vec, vec.conj())
    raise ParameterError(f"unknown demon kind {kind!r}")

