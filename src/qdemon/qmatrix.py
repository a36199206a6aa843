"""Dense complex linear algebra for one- and two-qubit states.

Everything in this package operates on plain ``numpy`` arrays of complex128:
2x2 and 4x4 matrices (states, gates). Joint two-qubit objects live in the
product basis

    {|0>|0>, |0>|1>, |1>|0>, |1>|1>}

with the *system* qubit as the left (row-major) factor and the
demon/environment qubit on the right.

Entropies are in nats (k_B = 1, natural logarithm). All functions are pure
and never mutate their inputs, so they are safe to call from any number of
concurrent workers.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

#: default elementwise (absolute) tolerance for matrix equality checks
ATOL = 1e-12

#: most negative eigenvalue a matrix may have and still count as a state
EIG_NEG_TOL = -1e-10

#: floor applied to the eigenvalue 1 - |γ| of Φ(1) before taking its logarithm
LOG_EIG_FLOOR = 1e-300


class InvalidStateError(ValueError):
    """A matrix failed a state/unitarity validation check."""


class ParameterError(ValueError):
    """A numeric parameter is outside its admissible range."""


class ConvergenceError(RuntimeError):
    """An iterative solver failed to converge."""


def _require_finite(**values: float) -> None:
    """Raise ParameterError for the first NaN or infinite value, which every
    range check would otherwise let through."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ParameterError(f"{name} must be finite, got {value}")


def check_unitary(u) -> np.ndarray:
    """Validate U†U = 1 for a matrix, or each of a stack (..., n, n), and
    return the coerced array. Raises InvalidStateError for NaN or infinite
    entries and when a unitarity defect exceeds ``ATOL``, quoting the first.
    """
    u = np.asarray(u, dtype=complex)
    if u.ndim < 2 or u.shape[-1] != u.shape[-2]:
        raise InvalidStateError(f"expected a square matrix, got shape {u.shape}")
    if not np.isfinite(u).all():
        raise InvalidStateError("entries must be finite, got NaN or inf")
    defect = np.abs(u.conj().swapaxes(-1, -2) @ u - np.eye(u.shape[-1]))
    if not defect.size or defect.max() > ATOL:  # one reduction when every matrix passes
        worst = defect.max(axis=(-2, -1))
        bad = worst[worst > ATOL]
        if bad.size:
            raise InvalidStateError(f"matrix is not unitary (defect {bad[0]:.3e})")
    return u


def check_density_matrix(rho) -> np.ndarray:
    """Validate finiteness, Hermiticity, unit trace and positivity of a
    density matrix.

    Eigenvalues are allowed to dip to ``EIG_NEG_TOL`` below zero to absorb
    round-off from upstream arithmetic.
    """
    return _density_spectrum(rho)[0]


def _density_spectrum(rho, atol: float = ATOL) -> tuple[np.ndarray, np.ndarray, list]:
    """check_density_matrix's validation; returns the matrix, the eigenvalues
    its positivity check computed, and its rows as Python complexes."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise InvalidStateError(f"expected a square matrix, got shape {rho.shape}")
    rows = rho.tolist()     # one pass on Python scalars: the diagonal, and max and sum
    # of |ρ_ij - ρ*_ji| over i <= j. A NaN or inf entry (or an overflow) makes the
    # sum non-finite, and only then are the entries checked one by one
    herm, total, diag = 0.0, 0.0, []
    try:
        for i, row in enumerate(rows):
            diag.append(row[i])
            for j in range(i, len(row)):
                d = abs(row[j] - rows[j][i].conjugate())
                total += d
                if d > herm:
                    herm = d
    except OverflowError:   # abs() of a finite difference past the largest float
        herm = total = math.inf
    # np.trace's sum, bit for bit: in order up to three terms, pairwise at four
    tr = (sum(diag, 0j) if len(diag) < 4
          else 0j + ((diag[0] + diag[1]) + (diag[2] + diag[3])) if len(diag) == 4
          else rho.trace())
    if not (math.isfinite(total) or all(cmath.isfinite(z) for row in rows for z in row)):
        raise InvalidStateError("entries must be finite, got NaN or inf")
    if herm > atol:
        raise InvalidStateError("density matrix is not Hermitian")
    if abs(tr - 1.0) > max(atol, 1e-10):
        raise InvalidStateError(f"density matrix trace is {tr}, expected 1")
    evals = np.linalg.eigvalsh(rho)
    if evals[0] < EIG_NEG_TOL:   # eigvalsh sorts ascending
        raise InvalidStateError(
            f"density matrix has negative eigenvalue {evals[0]:.3e}")
    return rho, evals, rows


def tensor(a, b) -> np.ndarray:
    """Kronecker product of two square matrices.

    A broadcast outer product, a[:, None, :, None] * b[None, :, None, :], reshaped:
    np.kron's products, bit for bit. Satisfies (A⊗B)(C⊗D) = AC ⊗ BD and realises
    the module docstring's joint basis order.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(len(a) * len(b), -1)


def _marginals(r: list) -> tuple[np.ndarray, np.ndarray]:
    """Both reduced states (system, demon) of a 4x4 matrix given by its rows: the
    sums an einsum makes, 0 + a + b (so -0.0 + -0.0 gives +0.0 as there)."""
    return (np.array([[0j + r[0][0] + r[1][1], 0j + r[0][2] + r[1][3]],
                      [0j + r[2][0] + r[3][1], 0j + r[2][2] + r[3][3]]]),
            np.array([[0j + r[0][0] + r[2][2], 0j + r[0][1] + r[2][3]],
                      [0j + r[1][0] + r[3][2], 0j + r[1][1] + r[3][3]]]))


def von_neumann_entropy(rho) -> float:
    """Spectral entropy S = -Σ λ ln λ in nats, with 0·ln 0 = 0.

    Validates ``rho`` as check_density_matrix does, with Hermiticity and trace
    tolerance 1e-10, and takes the eigenvalues from that check. Raises
    InvalidStateError if an eigenvalue falls below ``EIG_NEG_TOL``; smaller
    negative round-off is clipped to zero before the logarithm.
    """
    return _spectrum_entropy(_density_spectrum(rho, 1e-10)[1])


def _spectrum_entropy(evals: np.ndarray) -> float:
    """-Σ λ ln λ over eigenvalues clipped to [0, 1], with 0·ln 0 = 0. On Python
    floats, with np.log (math.log can differ in the last bit) and the sum negated
    last, so a pure state keeps numpy's -0.0."""
    total = 0.0
    for lam in evals.tolist():
        if lam > 0.0:
            lam = min(lam, 1.0)
            total += lam * float(np.log(lam))
    return -total

