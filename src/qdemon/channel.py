"""Environment-dilated qubit channel over a four-lead reflectionless scatterer.

The flying qubit enters in one of two incoming leads and leaves in one of two
outgoing leads; a demon qubit is rotated by a lead-dependent unitary each time
the flying qubit passes. Incoming leads map to matrix positions 0, 1 and the
outgoing leads reuse the same positions (the up/down labels switch meaning
between the incoming and outgoing bases; both bases share index slots).

The channel is the partial trace of the joint unitary

    U = Σ_{out,in} s[out, in] |out><in| ⊗ (u_out · u_in)

over the demon. Applied to the maximally mixed input it always yields
(1/2)[[1, γ], [γ*, 1]] (derived in ``tests/test_symbolic.py``); γ = 0 makes
the channel unital, |γ| = 1 marks maximal purification.

A ``ChannelConfig`` builds U and γ on first use and keeps them, so
``apply_channel`` and ``entropy_gain`` on one config build each once; the
cached values are those ``joint_unitary`` and ``gamma`` return, bit for bit.
``ChannelConfig(...)`` checks its arrays; ``_built`` keeps the spin, double-dot and MZI builders'.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .qmatrix import (
    LOG_EIG_FLOOR,
    InvalidStateError,
    _density_spectrum,
    _marginals,
    _spectrum_entropy,
    check_density_matrix,
    check_unitary,
    tensor,
    von_neumann_entropy,
)

#: |γ| at or below this counts as unital
UNITAL_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class ChannelConfig:
    """Scattering matrix, four per-lead demon rotations, and the demon state.

    ``lead_unitaries`` is ordered (u1, u2, u3, u4): u1/u2 act when the flying
    qubit passes incoming lead 0/1, u3/u4 when it leaves through outgoing
    lead 0/1. ``ChannelConfig(...)`` checks every array and keeps read-only copies.
    Configs and reports hold arrays, so they compare and hash by identity.
    """

    scattering: np.ndarray
    lead_unitaries: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    demon_state: np.ndarray

    def __post_init__(self):
        mats = (self.scattering, *self.lead_unitaries)
        if len(mats) != 5:
            raise InvalidStateError("expected exactly four lead unitaries")
        for name, m in zip(("scattering", *"1234"), mats):   # arrays skip np.shape's dispatch
            if getattr(m, "shape", None) != (2, 2) and np.shape(m) != (2, 2):
                check_unitary(m)    # its own fault first: non-square, non-finite, non-unitary
                raise InvalidStateError(f"lead/demon matrix {name} must be 2x2")
        self._keep(check_unitary(np.array(mats, dtype=complex)), _check_demon(self.demon_state))

    @classmethod
    def _built(cls, s, u1, u2, u3, u4, demon) -> ChannelConfig:
        """Arrays the package built from checked input, kept as ChannelConfig(...) but unchecked."""
        return object.__new__(cls)._keep(np.array((s, u1, u2, u3, u4), dtype=complex), demon)

    def _keep(self, us: np.ndarray, demon: np.ndarray) -> ChannelConfig:
        """Set the fields, read-only, from a (5, 2, 2) stack of unitaries and a demon state."""
        us.setflags(write=False); demon.setflags(write=False)
        vars(self).update(scattering=us[0], lead_unitaries=(us[1], us[2], us[3], us[4]),
                          demon_state=demon)    # vars(): past the frozen __setattr__
        return self

    # U and γ of the read-only members above, built on first use by the module's
    # joint_unitary and gamma as they are bound then (so a wrapper sees each build).
    # cached_property writes the instance dict, past the frozen __setattr__.
    @cached_property
    def _unitary(self) -> np.ndarray:
        u = joint_unitary(self)
        u.setflags(write=False)
        return u

    @cached_property
    def _gamma(self) -> complex:
        return gamma(self)


def _check_demon(demon) -> np.ndarray:
    """A copy of a checked demon state; the state check's fault precedes the 2x2 refusal."""
    r = check_density_matrix(demon)
    if r.shape != (2, 2):
        raise InvalidStateError("lead/demon matrix demon_state must be 2x2")
    return r.copy()


@dataclass(frozen=True, eq=False)
class ChannelReport:
    """Full bookkeeping of one channel application.

    ``entropy_gain`` >= ``lower_bound`` - 1e-9 always holds; ``entropy_out``
    and ``entropy_in`` are S(``rho_out``) and S(ρ_in), the gain's two terms;
    ``unital`` is |γ| <= 1e-12.
    ``flags`` collects soft diagnostics ("bound-clipped" when the bound's
    smaller eigenvalue 1 - |γ| of Φ(1) had to be floored at ``LOG_EIG_FLOOR``
    to keep its logarithm finite, "demon-not-diagonal" from the spin wrapper).
    """

    rho_out: np.ndarray
    demon_out: np.ndarray
    joint_out: np.ndarray
    gamma: complex
    entropy_gain: float
    lower_bound: float
    entropy_out: float
    entropy_in: float
    unital: bool
    flags: tuple[str, ...] = field(default=())


def joint_unitary(config: ChannelConfig) -> np.ndarray:
    """Assemble the 4x4 joint unitary U = Σ s[b,a] |b><a| ⊗ (u_out[b] u_in[a]).

    |b><a| ⊗ M puts M in block (b, a): U[2b:2b+2, 2a:2a+2] = s[b,a] u_out[b] u_in[a].
    Adding 0.0 turns a -0.0 from s·0 into +0.0, as the sum of Kronecker terms did.
    """
    s = config.scattering
    leads = np.array(config.lead_unitaries)         # u1, u2 (incoming), u3, u4 (outgoing)
    blocks = leads[2:, None] @ leads[:2]            # [b, a] = u_out[b] u_in[a]
    return (s[:, :, None, None] * blocks).transpose(0, 2, 1, 3).reshape(4, 4) + 0.0


def gamma(config: ChannelConfig) -> complex:
    """Off-diagonal coherence the channel imprints on the maximally mixed input.

    γ = s[0,0] s*[1,0] Tr{ r (u1† u4† u3 u1 - u2† u4† u3 u2) }, bounded by
    |γ| <= 2 |s00 s10*| <= 1; it vanishes whenever the two effective demon
    rotations commute. Each trace is the Frobenius product
    Tr{r u† u4† u3 u} = Σ_kj conj((u4 u)_kj) (u3 u r)_kj, on Python complexes.
    """
    (s00, _), (s10, _) = config.scattering.tolist()
    u1, u2, u3, u4 = (u.tolist() for u in config.lead_unitaries)
    r = config.demon_state.tolist()
    traces = []
    for u in (u1, u2):
        (a00, a01), (a10, a11) = _mul(u4, u)
        (b00, b01), (b10, b11) = _mul(_mul(u3, u), r)
        traces.append((a00.conjugate() * b00 + a01.conjugate() * b01)
                      + (a10.conjugate() * b10 + a11.conjugate() * b11))
    return s00 * s10.conjugate() * (traces[0] - traces[1])


def _mul(a, b) -> tuple:
    """a @ b for 2x2 matrices given as rows of Python complexes."""
    (a00, a01), (a10, a11) = a
    (b00, b01), (b10, b11) = b
    return ((a00 * b00 + a01 * b10, a00 * b01 + a01 * b11),
            (a10 * b00 + a11 * b10, a10 * b01 + a11 * b11))


def entropy_gain(rho_in, config: ChannelConfig) -> tuple[float, float]:
    """Entropy change of the flying qubit and its information-theoretic floor.

    Returns (gain, bound) with gain = S(Φρ) - S(ρ) and
    bound = -Tr{Φρ · ln Φ(1)}, evaluated in closed form on
    Φ(1) = [[1, γ], [γ*, 1]] (see :func:`_bound`); the same two
    fields :func:`apply_channel` reports, bit for bit, and the same refusals.
    gain >= bound - 1e-9 for every config and input; for unital configs the
    bound is zero and the entropy cannot decrease.

    It builds no report: S(ρ) comes from the eigenvalues of ρ's validation,
    and U and γ from the config's cache.
    """
    rho_in, evals, _ = _density_spectrum(rho_in)
    rho_out, _ = _marginals(_evolve(rho_in, config).tolist())
    bound, _ = _bound(rho_out, config._gamma)
    return _spectrum_entropy(np.linalg.eigvalsh(rho_out)) - _spectrum_entropy(evals), bound


def _bound(rho_out: np.ndarray, g: complex) -> tuple[float, bool]:
    """The bound -Tr{ρ_out ln Φ(1)} in closed form, and whether 1 - |γ| was floored.

    Φ(1) = [[1, γ], [γ*, 1]] has eigenvalues 1 ± a (a = |γ|) with
    projectors (1/2)[[1, ±γ/a], [±γ*/a, 1]], so with c = 2 Re(ρ_out[1,0] γ)/a

        bound = -(1/2)[(1 + c) ln(1 + a) + (1 - c) ln(max(1 - a, LOG_EIG_FLOOR))]

    and the bound is 0 at a = 0. The flag is set exactly when 1 - a falls below
    the floor.
    """
    a = abs(g)
    bound, clipped = 0.0, False
    if a > 0.0:
        c = 2.0 * (complex(rho_out[1, 0]) * g).real / a
        clipped = 1.0 - a < LOG_EIG_FLOOR
        bound = -0.5 * ((1.0 + c) * math.log(1.0 + a)
                        + (1.0 - c) * math.log(max(1.0 - a, LOG_EIG_FLOOR)))
    return bound, clipped


def _evolve(rho_in: np.ndarray, config: ChannelConfig) -> np.ndarray:
    """U (ρ ⊗ r) U† for a validated ρ; a ρ of any size but 2x2 raises."""
    if rho_in.shape != (2, 2):
        raise InvalidStateError(f"rho_in must be a 2x2 state, got shape {rho_in.shape}")
    u = config._unitary
    return u @ tensor(rho_in, config.demon_state) @ u.conj().T


def apply_channel(rho_in, config: ChannelConfig,
                  extra_flags: tuple[str, ...] = ()) -> ChannelReport:
    """Evolve system ⊗ demon jointly, trace out the demon, report everything.

    The joint evolution is unitary, so the output is a valid state whenever
    the inputs are; trace and positivity are preserved exactly up to
    round-off. A valid ``rho_in`` of any size but 2x2 raises InvalidStateError.
    "bound-clipped" follows ``extra_flags`` when :func:`_bound` floored 1 - |γ|.
    """
    # S(ρ_in) could come from this validation's eigenvalues, as in entropy_gain, but
    # bench/tests/test_bench.py pins >= 3 eigvalsh per call: ROADMAP item 1 first
    rho_in = check_density_matrix(rho_in)
    joint = _evolve(rho_in, config)
    g = config._gamma
    rho_out, demon_out = _marginals(joint.tolist())
    bound, clipped = _bound(rho_out, g)
    entropy_out = _spectrum_entropy(np.linalg.eigvalsh(rho_out))  # built here: no validation
    entropy_in = von_neumann_entropy(rho_in)
    return ChannelReport(
        rho_out=rho_out, demon_out=demon_out, joint_out=joint, gamma=g,
        entropy_gain=entropy_out - entropy_in, lower_bound=bound, entropy_out=entropy_out,
        entropy_in=entropy_in, unital=bool(abs(g) <= UNITAL_TOL),
        flags=tuple(extra_flags) + (("bound-clipped",) if clipped else ()))


def mutual_information(joint) -> float:
    """I = S(A) + S(B) - S(AB) of a two-qubit state, in nats (>= -1e-10)."""
    joint, evals, rows = _density_spectrum(joint)
    if joint.shape != (4, 4):
        raise InvalidStateError("mutual_information expects a 4x4 state")
    rho_a, rho_b = _marginals(rows)
    # S(AB) from the validation's eigenvalues; the marginals of the state just
    # validated need no validation of their own
    return (_spectrum_entropy(np.linalg.eigvalsh(rho_a))
            + _spectrum_entropy(np.linalg.eigvalsh(rho_b)) - _spectrum_entropy(evals))

