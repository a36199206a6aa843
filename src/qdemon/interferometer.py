"""Double Mach-Zehnder test bench for the purifying channel.

Loop 1 dephases the flying qubit by entangling it with an ancilla qubit;
the channel sits at the intermediate scatterer (which doubles as loop 2's
input splitter) and restores purity from the demon; loop 2 converts the
recovered coherence into flux-dependent oscillations of the output
probabilities.

Both loops are evaluated in closed form, derived in ``tests/test_symbolic.py``.
Loop 1 (splitter s(0, π), arm phase a, dephasing χ) leaves ρ = [[1/2, z],
[z*, 1/2]], z = -(1/2) cos χ e^{ia}. The bypass's bare splitter s(θ, η) makes
ρ01 = (e^{2iθ} z - e^{-2iη} z*)/2; the demon path depends on neither χ nor a.
The flux is a relative phase on one arm, so loop 2 outputs 1/2 ± Re(e^{iΦ} ρ01)
of the scattered state. The flux grid and its phasors e^{iΦ} are built once per
sample count; only the last count's grid is kept.
"""

from __future__ import annotations

import cmath
import functools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .channel import apply_channel
from .qmatrix import ParameterError, _require_finite
from .spin_demon import SpinDemonParams, _spin_config


@dataclass(frozen=True)
class MziConfig:
    """Dephasing angle χ (π/2 = full), demon impurity ε in [0, 1/2], the flux
    grid size (an integer >= 8), and the channel phases.

    ``arm_phase`` a (default π/2) balances loop 1's ρ01 = z = -(1/2) cos χ e^{ia}
    so that the coherent bypass, ρ01 = (e^{2iθ} z - e^{-2iη} z*)/2 from the bare
    splitter s(θ, η), interferes fully; the demon path depends on neither χ nor a.
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
        try:
            if operator.index(self.flux_samples) < 8:    # numpy integers pass, floats do not
                raise ParameterError("flux_samples must be at least 8")
        except TypeError:
            raise ParameterError(f"flux_samples must be an integer, got {self.flux_samples!r}")
        _require_finite(chi=self.chi, arm_phase=self.arm_phase)


@dataclass(frozen=True, eq=False)
class VisibilityReport:
    """Sampled output probabilities and their fringe visibility.

    p3 + p4 = 1 at every flux sample; visibility = (max-min)/(max+min) of p3.
    ``flux`` is the read-only grid that every run at this sample count shares.
    """

    flux: np.ndarray
    p3: np.ndarray
    p4: np.ndarray
    visibility: float


@functools.lru_cache(maxsize=1)
def _flux_grid(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n flux samples Φ in [0, 2π) and their phasors e^{iΦ}, both read-only."""
    flux = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    phasor = np.exp(1j * flux)
    flux.flags.writeable = phasor.flags.writeable = False
    return flux, phasor


def run_double_mzi(config: MziConfig) -> VisibilityReport:
    """Propagate one flying qubit through both loops for every flux sample.

    Loop 1 leaves ρ01 = z = -(1/2) cos χ e^{ia}; the bypass makes it
    (e^{2iθ} z - e^{-2iη} z*)/2, and ``apply_channel`` gives it on a config with the demon
    diag(1-ε, ε), built unchecked, whatever χ and a are. Every flux sample is 1/2 ± Re(e^{iΦ} ρ01),
    on the grid built once per sample count (only the last count's grid is kept).
    """
    z = -0.5 * math.cos(config.chi) * cmath.exp(1j * config.arm_phase)
    if config.bypass_demon:
        theta, eta = config.params.theta, config.params.eta
        coherence = 0.5 * (cmath.exp(2j * theta) * z - cmath.exp(-2j * eta) * z.conjugate())
    else:
        rho = np.array([[0.5, z], [z.conjugate(), 0.5]])
        demon = np.array([[1.0 - config.epsilon, 0.0], [0.0, config.epsilon]], dtype=complex)
        coherence = apply_channel(rho, _spin_config(config.params, demon)).rho_out[0, 1]
    flux, phasor = _flux_grid(config.flux_samples)
    fringe = (phasor * coherence).real
    p3 = 0.5 + fringe
    p4 = 0.5 - fringe
    hi, lo = p3.max(), p3.min()
    visibility = float((hi - lo) / (hi + lo))
    return VisibilityReport(flux=flux, p3=p3, p4=p4, visibility=visibility)
