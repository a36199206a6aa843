"""Double Mach-Zehnder test bench for the purifying channel.

Loop 1 dephases the flying qubit by entangling it with an ancilla qubit;
the channel sits at the intermediate scatterer (which doubles as loop 2's
input splitter) and restores purity from the demon; loop 2 converts the
recovered coherence into flux-dependent oscillations of the output
probabilities.

Both loops are evaluated in closed form. Tracing the loop-1 ancilla out
again only scales the off-diagonals by cos χ, and the flux enters as a pure
relative phase on one arm, so loop 2's output probabilities are
1/2 ± Re(e^{iΦ} ρ01) of the state leaving the channel.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .qmatrix import ParameterError, _require_finite, check_density_matrix, dag
from .spin_demon import SpinDemonParams, beam_splitter, scatter

I2 = np.eye(2, dtype=complex)

#: outer splitters of both loops (Hadamard-type)
_OUTER_SPLITTER = beam_splitter(0.0, np.pi)


@dataclass(frozen=True)
class MziConfig:
    """Dephasing angle χ (π/2 = full), demon impurity ε in [0, 1/2], the flux
    grid size, and the channel phases.

    ``arm_phase`` (default π/2) balances loop 1's output so that the
    coherent, demon-bypassed case interferes fully; the demon path does not
    depend on it. ``bypass_demon`` replaces the channel by its bare splitter.
    """

    chi: float = np.pi / 2
    epsilon: float = 0.0
    flux_samples: int = 96
    params: SpinDemonParams = field(default_factory=SpinDemonParams)
    arm_phase: float = np.pi / 2
    bypass_demon: bool = False

    def __post_init__(self):
        if not 0.0 <= self.epsilon <= 0.5:
            raise ParameterError(f"epsilon must lie in [0, 1/2], got {self.epsilon}")
        if self.flux_samples < 8:
            raise ParameterError("flux_samples must be at least 8")
        _require_finite(chi=self.chi, arm_phase=self.arm_phase)


@dataclass(frozen=True)
class VisibilityReport:
    """Sampled output probabilities and their fringe visibility.

    p3 + p4 = 1 at every flux sample; visibility = (max-min)/(max+min) of p3.
    """

    flux: np.ndarray
    p3: np.ndarray
    p4: np.ndarray
    visibility: float


def dephase(rho, chi: float) -> np.ndarray:
    """Entangle with a fresh ancilla via a rotation of angle χ controlled on
    the second arm, then trace the ancilla out.

    The dilation's closed form: off-diagonals shrink by cos χ, populations
    are untouched; χ = π/2 is full decoherence.
    """
    _require_finite(chi=chi)
    c = np.cos(chi)
    return check_density_matrix(rho) * np.array([[1.0, c], [c, 1.0]])


def _arm_phase(rho: np.ndarray, angle: float) -> np.ndarray:
    p = np.diag([np.exp(1j * angle), 1.0])
    return p @ rho @ dag(p)


def run_double_mzi(config: MziConfig) -> VisibilityReport:
    """Propagate one flying qubit through both loops for every flux sample.

    Pipeline: input splitter, loop-1 arm phase, dephasing, channel at the
    intermediate scatterer (demon state ε·1 + (1-2ε)|up><up|), flux phase on
    one arm of loop 2, output splitter, then read the two output
    probabilities. The flux only enters after the channel, so the channel
    runs once and every sample comes from the same closed form
    1/2 ± Re(e^{iΦ} ρ01).
    """
    rho = np.diag([1.0, 0.0]).astype(complex)
    rho = _OUTER_SPLITTER @ rho @ dag(_OUTER_SPLITTER)
    rho = _arm_phase(rho, config.arm_phase)
    rho = dephase(rho, config.chi)

    if config.bypass_demon:
        s_mid = beam_splitter(config.params.theta, config.params.eta)
        rho = s_mid @ rho @ dag(s_mid)
    else:
        demon = (config.epsilon * I2
                 + (1.0 - 2.0 * config.epsilon) * np.diag([1.0, 0.0]))
        rho = scatter(rho, demon, config.params).rho_out

    flux = np.linspace(0.0, 2.0 * np.pi, config.flux_samples, endpoint=False)
    fringe = (np.exp(1j * flux) * rho[0, 1]).real
    p3 = 0.5 + fringe
    p4 = 0.5 - fringe
    hi, lo = p3.max(), p3.min()
    visibility = float((hi - lo) / (hi + lo))
    return VisibilityReport(flux=flux, p3=p3, p4=p4, visibility=visibility)
