import math

import numpy as np
import pytest

from qdemon import engine as eng
from qdemon.circuits import HBAR, DoubleDotConfig, _pswap_stages, half_rabi
from qdemon.qmatrix import dag, tensor, von_neumann_entropy
from qdemon.spin_demon import SpinDemonParams


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_unitary(rng, n=2):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q @ np.diag(np.diag(r) / np.abs(np.diag(r)))


def random_density(rng, n=2):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    m = z @ z.conj().T
    return m / np.trace(m)


def random_pure(rng, n=2):
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return v / np.linalg.norm(v)


def power_stationarity(p_e, bd_delta, eps):
    """s(eps) = xi H'[p_e + eps xi] - H'[eps] + beta_d*delta_w, xi = 1 - 2 p_e:
    the function optimize_epsilon_power finds the root of."""
    xi = 1.0 - 2.0 * p_e
    return xi * eng.bit_entropy_prime(p_e + eps * xi) - eng.bit_entropy_prime(eps) + bd_delta


def ratio_round_off(p_e, eps):
    """A few ulps of the entropies the cost ratio R subtracts, over its
    denominator: how far two evaluations of R may disagree by round-off alone."""
    x = p_e + eps * (1.0 - 2.0 * p_e)
    return 8.0 * math.ulp(1.0) * (eng.bit_entropy(x) + eng.bit_entropy(eps)) / (p_e - eps)


def pswap_route(params: eng.EngineParams, phase: float = -np.pi / 2) -> dict:
    """Density-matrix route through one engine cycle: states, marginals, and
    the per-stage field energies, all derived from the gate sequence alone.

    Returns a dict with the final wit/dit marginals of both pairs, the
    stage-resolved field ledger, and the energy figures (w_minus, w_plus,
    heat) in the units of delta_w. It is what the tests compare
    ``engine.run_cycle``'s closed forms with.
    """
    delta, eps = params.delta_w, params.epsilon
    p_g, p_e = eng.thermal_wit(params.beta, delta)
    rho_w = np.diag([p_e, p_g]).astype(complex)
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
