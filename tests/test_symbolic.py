"""The closed forms the package states, derived symbolically with sympy.

Every derivation starts from the package's own matrices: the fixed gates made
exact (``exact``), and the angle-dependent ones written in sympy and first
pinned to the package's functions at random angles
(``test_sympy_matrices_are_the_packages``). The joint unitary, γ and the
marginals are the package's own code (``channel.joint_unitary``,
``channel.gamma``, ``qmatrix._marginals``) run on sympy entries.
"""

import types

import numpy as np
import sympy as sp

from qdemon import channel
from qdemon.circuits import (HBAR, _pswap_stages, conditional_pi_phase, half_rabi, pswap_gate,
                             u14)
from qdemon.qmatrix import _marginals
from qdemon.spin_demon import SpinDemonParams, beam_splitter, demon_unitaries

I = sp.I
theta, eta, phi, alpha, beta, tphase, chi, arm = sp.symbols(
    "theta eta phi alpha beta varphi chi a", real=True)
eps, p_e, delta, p = sp.symbols("epsilon p_e delta p", real=True)
z, c = sp.symbols("z c")


def splitter(th, et):
    """beam_splitter(θ, η)."""
    return sp.Matrix([[sp.exp(I * th), -sp.exp(-I * et)],
                      [sp.exp(I * et), sp.exp(-I * th)]]) / sp.sqrt(2)


def spin_rotations(al, be, ph):
    """demon_unitaries: u1 on incoming lead 0, u3 on outgoing lead 0."""
    return (sp.Matrix([[0, sp.exp(I * be)], [sp.exp(I * al), 0]]),
            sp.diag(-sp.exp(I * ph), sp.exp(I * ph)))


def quarter(ph):
    """u14(ϕ)."""
    return sp.Matrix([[1, I * sp.exp(I * ph)], [I * sp.exp(-I * ph), 1]]) / sp.sqrt(2)


def pi_phase(ph):
    """conditional_pi_phase(φ)."""
    return sp.diag(sp.exp(I * ph), -sp.exp(I * ph), 1, 1)


def exact(m):
    """A fixed package matrix in sympy, its entries (0, ±1, ±i, ±1/√2, ...) made
    exact once their round-off below 1e-12 is dropped."""
    rounded = [[complex(round(x.real, 12), round(x.imag, 12)) for x in row] for row in m]
    out = sp.Matrix(rounded).applyfunc(lambda x: sp.nsimplify(x, [sp.sqrt(2)]))
    assert np.abs(numeric(out) - m).max() <= 1e-15
    return out


def numeric(m):
    return np.array(m.evalf(), dtype=complex)


def config(scattering, leads, demon=None):
    """What ``joint_unitary`` and ``gamma`` read of a ChannelConfig, in sympy."""
    return types.SimpleNamespace(scattering=np.array(scattering), lead_unitaries=tuple(leads),
                                 demon_state=demon)


def joint_output(cfg, rho):
    u = sp.Matrix(channel.joint_unitary(cfg))
    return u * sp.kronecker_product(rho, cfg.demon_state) * u.H


def marginals(joint):
    """(system, demon) reduced states of a 4x4 sympy matrix."""
    return tuple(sp.Matrix(m) for m in _marginals(joint.tolist()))


def vanishes(m) -> bool:
    return sp.simplify(sp.expand(m)) == sp.zeros(*m.shape)


def test_sympy_matrices_are_the_packages():
    rng = np.random.default_rng(11)
    for th, et, ph, al, be in rng.uniform(-7.0, 7.0, size=(5, 5)):
        u1, u3 = demon_unitaries(SpinDemonParams(phi=ph, alpha=al, beta_phase=be))
        pairs = [(splitter(th, et), beam_splitter(th, et)), (quarter(ph), u14(ph)),
                 (quarter(ph) ** 2, half_rabi(ph)), (pi_phase(ph), conditional_pi_phase(ph)),
                 *zip(spin_rotations(al, be, ph), (u1, u3))]
        for ours, theirs in pairs:
            assert np.abs(numeric(ours) - theirs).max() <= 1e-15


def test_spin_channel_with_a_diagonal_demon_forgets_its_input():
    # the MZI's demon step: every input goes to [[1/2, (1/2-ε)e^{i(φ+θ-η)}], [c.c., 1/2]]
    u1, u3 = spin_rotations(alpha, beta, phi)
    cfg = config(splitter(theta, eta), (u1, sp.eye(2), u3, sp.eye(2)), sp.diag(1 - eps, eps))
    rho_out, _ = marginals(joint_output(cfg, sp.Matrix([[p, z], [sp.conjugate(z), 1 - p]])))
    coherence = (sp.Rational(1, 2) - eps) * sp.exp(I * (phi + theta - eta))
    half = sp.Rational(1, 2)
    assert vanishes(rho_out - sp.Matrix([[half, coherence], [sp.conjugate(coherence), half]]))


def unitary(tag):
    """A general 2x2 unitary,
    e^{iδ}[[cos t e^{ia}, -sin t e^{-ib}], [sin t e^{ib}, cos t e^{-ia}]]."""
    d, t, a, b = sp.symbols(f"delta_{tag} t_{tag} a_{tag} b_{tag}", real=True)
    return sp.exp(I * d) * sp.Matrix([[sp.cos(t) * sp.exp(I * a), -sp.sin(t) * sp.exp(-I * b)],
                                      [sp.sin(t) * sp.exp(I * b), sp.cos(t) * sp.exp(-I * a)]])


def test_maximally_mixed_input_goes_to_gamma_over_two():
    # Φ(1/2) = (1/2)[[1, γ], [γ*, 1]] for every splitter, lead rotations and demon
    demon = sp.Matrix([[p, c], [sp.conjugate(c), 1 - p]])
    cfg = config(unitary("s"), [unitary(k) for k in "1234"], demon)
    rho_out, _ = marginals(joint_output(cfg, sp.eye(2) / 2))
    g = channel.gamma(cfg)
    assert vanishes(rho_out - sp.Matrix([[1, g], [sp.conjugate(g), 1]]) / 2)


def test_double_dot_leads_are_the_spin_channel_at_matched_phases():
    # leads (q·d·q, q·q, h·d, h): the spin channel at α = φ - ϕ - π/2, β = φ + ϕ + π/2
    q, d = quarter(tphase), pi_phase(phi)[:2, :2]
    h = (q * q).H
    s = splitter(theta, eta)
    u1, u3 = spin_rotations(phi - tphase - sp.pi / 2, phi + tphase + sp.pi / 2, phi)
    # equal joint unitaries give equal joint outputs for every input and dot state
    completed = sp.Matrix(channel.joint_unitary(config(s, (q * d * q, q * q, h * d, h))))
    spin = sp.Matrix(channel.joint_unitary(config(s, (u1, sp.eye(2), u3, sp.eye(2)))))
    assert vanishes(completed - spin)
    # without the trailing rotation h the joint state differs by 1 ⊗ h only
    dropped = sp.Matrix(channel.joint_unitary(config(s, (q * d * q, q * q, d, sp.eye(2)))))
    assert vanishes(sp.kronecker_product(sp.eye(2), h) * dropped - completed)


def test_partial_swap_stages_give_the_cycle_ledger():
    # run_cycle's closed forms from the four gates of pswap_gate, both dit branches
    stages = [exact(g) for g in _pswap_stages(-np.pi / 2)]
    assert vanishes(stages[3] * stages[2] * stages[1] * stages[0] - exact(pswap_gate()))
    branches = []
    for dit in (sp.diag(1 - eps, eps), sp.diag(eps, 1 - eps)):
        joints = [sp.kronecker_product(sp.diag(p_e, 1 - p_e), dit)]
        for g in stages:
            joints.append(g * joints[-1] * g.H)
        branches.append([marginals(j) for j in joints])
    stage_energy = [delta * sum(b[k + 1][0][0, 0] - b[k][0][0, 0] for b in branches)
                    for k in range(4)]
    (wit_up, dit_up), (wit_dn, dit_dn) = branches[0][-1], branches[1][-1]
    pulse = exact(half_rabi(-np.pi / 2))
    drained = pulse * wit_dn * pulse.H
    w_plus = delta * (wit_dn[0, 0] - drained[0, 0])
    w_minus = delta * (wit_up[0, 0] + wit_dn[0, 0]) - 2 * p_e * delta
    heat = 2 * p_e * delta - delta * (wit_up[0, 0] + drained[0, 0])
    assert vanishes(sp.Matrix(stage_energy) - sp.Matrix([0, delta * (1 - 2 * p_e), 0, 0]))
    assert vanishes(sp.Matrix([w_plus - delta * (1 - 2 * eps), w_minus - delta * (1 - 2 * p_e),
                               heat - 2 * delta * (p_e - eps)]))
    # each dit, its final rotation undone, holds x = p_e + ε(1 - 2p_e): S = H[x]
    x = p_e + eps * (1 - 2 * p_e)
    hbar = exact(HBAR)
    assert vanishes(hbar.H * dit_up * hbar - sp.diag(1 - x, x))
    assert vanishes(hbar.H * dit_dn * hbar - sp.diag(x, 1 - x))


def test_interferometer_loops_in_closed_form():
    # loop 1: splitter s(0, π), arm phase a, dephasing χ as an ancilla dilation
    s_loop = splitter(0, sp.pi)
    phase = sp.diag(sp.exp(I * arm), 1)
    rho = phase * s_loop * sp.diag(1, 0) * s_loop.H * phase.H
    rotation = sp.Matrix([[sp.cos(chi), -sp.sin(chi)], [sp.sin(chi), sp.cos(chi)]])
    controlled = sp.diag(sp.eye(2), rotation)
    joint = controlled * sp.kronecker_product(rho, sp.diag(1, 0)) * controlled.H
    loop1, _ = marginals(joint)
    zeta = -sp.cos(chi) * sp.exp(I * arm) / 2
    assert vanishes(loop1 - sp.Matrix([[1, 2 * zeta], [2 * sp.conjugate(zeta), 1]]) / 2)
    # the bypass's bare splitter s(θ, η) on [[1/2, z], [z*, 1/2]]
    s = splitter(theta, eta)
    bypassed = s * sp.Matrix([[sp.Rational(1, 2), z], [sp.conjugate(z), sp.Rational(1, 2)]]) * s.H
    assert vanishes(sp.Matrix([bypassed[0, 1] - (sp.exp(2 * I * theta) * z
                                                 - sp.exp(-2 * I * eta) * sp.conjugate(z)) / 2]))
    # loop 2: flux Φ on one arm, then s(0, π): p3 = 1/2 + Re(e^{iΦ} ρ01) for any unit-trace ρ
    flux = sp.Symbol("Phi", real=True)
    rho = sp.Matrix([[p, z], [sp.conjugate(z), 1 - p]])
    out = s_loop * sp.diag(sp.exp(I * flux), 1) * rho * sp.diag(sp.exp(-I * flux), 1) * s_loop.H
    fringe = sp.exp(I * flux) * z
    p3 = sp.Rational(1, 2) + (fringe + sp.conjugate(fringe)) / 2
    assert vanishes(sp.Matrix([out[0, 0] - p3]))
