"""Core matrix routines: tensor products, partial traces, spectral entropy."""

import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qdemon import qmatrix as qm
from qdemon.channel import mutual_information
from conftest import partial_trace, pure_density, random_density, random_pure, random_unitary

I2 = np.eye(2, dtype=complex)
HBAR = np.array([[1, 1], [-1, 1]], dtype=complex) / np.sqrt(2)


def brute_partial_trace(joint, keep):
    """Independent contraction over explicit computational indices."""
    out = np.zeros((2, 2), dtype=complex)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                if keep == "first":
                    out[i, j] += joint[2 * i + k, 2 * j + k]
                else:
                    out[i, j] += joint[2 * k + i, 2 * k + j]
    return out


def test_tensor_identity():
    assert np.array_equal(qm.tensor(I2, I2), np.eye(4))


def test_tensor_basis_ordering():
    # |0><0| on the system, |1><1| on the demon: the joint state |0>|1>
    first, second = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    assert np.array_equal(qm.tensor(first, second), np.diag([0, 1, 0, 0]))


def test_tensor_hbar_pair():
    expected = 0.5 * np.array([[1, 1, 1, 1],
                               [-1, 1, -1, 1],
                               [-1, -1, 1, 1],
                               [1, -1, -1, 1]])
    assert np.allclose(qm.tensor(HBAR, HBAR), expected, atol=1e-12)


def test_tensor_mixed_product_rule(rng):
    for _ in range(20):
        a, b, c, d = (random_unitary(rng) for _ in range(4))
        lhs = qm.tensor(a, b) @ qm.tensor(c, d)
        rhs = qm.tensor(a @ c, b @ d)
        assert np.allclose(lhs, rhs, atol=1e-12)


def test_tensor_associative_bilinear(rng):
    for _ in range(20):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        c = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        assert np.allclose(qm.tensor(qm.tensor(a, b), c),
                           qm.tensor(a, qm.tensor(b, c)), atol=1e-12)
        x, y = rng.normal(size=2)
        assert np.allclose(qm.tensor(x * a + y * c, b),
                           x * qm.tensor(a, b) + y * qm.tensor(c, b), atol=1e-12)


@pytest.mark.parametrize("shapes", [((4, 4), (4, 4)), ((1, 1), (2, 2)), ((2, 2), (2, 2)),
                                    ((4, 4), (2, 2)), ((2, 2), (4, 4))])
def test_tensor_is_kron_bit_for_bit(rng, shapes):
    def draw(shape):
        z = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        z[rng.uniform(size=shape) < 0.25] = 0.0        # exact zeros, signed by the products
        return z
    for _ in range(20):
        a, b = draw(shapes[0]), draw(shapes[1])
        got, want = qm.tensor(a, b), np.kron(a, b)
        assert got.shape == want.shape and np.array_equal(got, want)
        assert got.tobytes() == want.tobytes()


def unitarity_defect(u):
    """The per-matrix defect max|U†U - 1| as computed before stacks were accepted."""
    return np.abs(u.conj().T @ u - np.eye(u.shape[0])).max()


def near_unitary(rng, n, defect):
    """A Haar unitary with one column scaled so that its defect is about ``defect``."""
    u = random_unitary(rng, n)
    u[:, n - 1] *= math.sqrt(1.0 + defect)
    return u


@pytest.mark.parametrize("stack_shape", [(5,), (3,), (2, 3)])
@pytest.mark.parametrize("n", [2, 4])
def test_check_unitary_stack_matches_per_matrix_check(rng, stack_shape, n):
    # defects drawn within a few 1e-15 of ATOL: the stacked check must decide,
    # and name the first failing matrix, exactly as the per-matrix check does
    for _ in range(40):
        mats = [near_unitary(rng, n, qm.ATOL + rng.integers(-4, 5) * 1e-15)
                for _ in range(math.prod(stack_shape))]
        defects = [unitarity_defect(u) for u in mats]
        stack = np.array(mats).reshape(*stack_shape, n, n)
        failing = [d for d in defects if d > qm.ATOL]
        if not failing:
            assert qm.check_unitary(stack).tobytes() == stack.tobytes()
            continue
        with pytest.raises(qm.InvalidStateError) as err:
            qm.check_unitary(stack)
        assert str(err.value) == f"matrix is not unitary (defect {failing[0]:.3e})"


def test_check_unitary_stack_agrees_with_single_matrices(rng):
    stack = np.array([random_unitary(rng, 2) for _ in range(5)])
    assert qm.check_unitary(stack).tobytes() == stack.tobytes()
    for u in stack:
        assert qm.check_unitary(u).tobytes() == u.tobytes()
    stack[3, 1, 1] = 2.0
    with pytest.raises(qm.InvalidStateError) as batched:
        qm.check_unitary(stack)
    with pytest.raises(qm.InvalidStateError) as single:
        qm.check_unitary(stack[3])
    assert str(batched.value) == str(single.value)
    # with two failing matrices the message quotes the first, not the larger
    stack[1] = near_unitary(rng, 2, 1e-6)
    with pytest.raises(qm.InvalidStateError) as batched:
        qm.check_unitary(stack)
    assert str(batched.value) == f"matrix is not unitary (defect {unitarity_defect(stack[1]):.3e})"


def test_check_unitary_rejects_just_above_atol(rng):
    for n in (2, 4):
        u = near_unitary(rng, n, 1.01 * qm.ATOL)
        assert unitarity_defect(u) > qm.ATOL
        with pytest.raises(qm.InvalidStateError, match="not unitary"):
            qm.check_unitary(u)
        with pytest.raises(qm.InvalidStateError, match="not unitary"):
            qm.check_unitary(np.array([random_unitary(rng, n), u]))
        ok = near_unitary(rng, n, 0.5 * qm.ATOL)
        qm.check_unitary(ok)
        qm.check_unitary(np.array([ok, random_unitary(rng, n)]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_check_unitary_stack_rejects_non_finite(rng, bad):
    stack = np.array([random_unitary(rng) for _ in range(5)])
    stack[4, 0, 1] = bad
    with pytest.raises(qm.InvalidStateError) as err:
        qm.check_unitary(stack)
    assert str(err.value) == "entries must be finite, got NaN or inf"


@pytest.mark.parametrize("shape", [(2,), (2, 3), (5, 2, 3)])
def test_check_unitary_rejects_non_square(shape):
    with pytest.raises(qm.InvalidStateError) as err:
        qm.check_unitary(np.ones(shape))
    assert str(err.value) == f"expected a square matrix, got shape {shape}"


def marginals(joint) -> tuple[np.ndarray, np.ndarray]:
    """Both reduced states (system, demon) of a 4x4 matrix, as the channel takes them."""
    return qm._marginals(np.asarray(joint, dtype=complex).tolist())


def test_partial_trace_product_state(rng):
    rho = random_density(rng)
    r = random_density(rng)
    system, demon = marginals(qm.tensor(rho, r))
    assert np.allclose(system, rho, atol=1e-12)
    assert np.allclose(demon, r, atol=1e-12)


def test_partial_trace_bell_state():
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / np.sqrt(2)
    for reduced in marginals(np.outer(bell, bell.conj())):
        assert np.allclose(reduced, I2 / 2, atol=1e-12)


def test_partial_trace_equal_weight_mixture_of_branches(rng):
    # two orthogonal system branches carrying different demon states; the
    # demon marginal must be the equal mixture of the branch states
    up_xy = np.array([1.0, 1.0]) / np.sqrt(2)
    dn_xy = np.array([1.0, -1.0]) / np.sqrt(2)
    r_plus = random_density(rng)
    r_minus = random_density(rng)
    joint = 0.5 * qm.tensor(np.outer(up_xy, up_xy.conj()), r_plus) \
        + 0.5 * qm.tensor(np.outer(dn_xy, dn_xy.conj()), r_minus)
    expected = (r_plus + r_minus) / 2
    assert np.allclose(marginals(joint)[1], expected, atol=1e-12)
    assert np.allclose(brute_partial_trace(joint, "second"), expected, atol=1e-12)


def test_partial_trace_matches_brute_force(rng):
    for _ in range(50):
        joint = random_density(rng, 4)
        for keep, reduced in zip(("first", "second"), marginals(joint)):
            assert np.allclose(reduced, brute_partial_trace(joint, keep), atol=1e-12)


def test_partial_trace_preserves_trace(rng):
    for _ in range(50):
        joint = random_density(rng, 4)
        for reduced in marginals(joint):
            assert abs(np.trace(reduced) - 1.0) < 1e-12


def test_entropy_pure_states(rng):
    for _ in range(10):
        rho = pure_density(random_pure(rng))
        assert qm.von_neumann_entropy(rho) < 1e-12


def test_entropy_chaotic():
    assert math.isclose(qm.von_neumann_entropy(I2 / 2), math.log(2), abs_tol=1e-12)


def test_entropy_diagonal_value():
    # -0.3 ln 0.3 - 0.7 ln 0.7
    expected = 0.6108643020548935
    rho = np.diag([0.3, 0.7]).astype(complex)
    assert math.isclose(qm.von_neumann_entropy(rho), expected, abs_tol=1e-12)


def test_entropy_range(rng):
    for _ in range(30):
        s = qm.von_neumann_entropy(random_density(rng, 4))
        assert -1e-12 <= s <= math.log(4) + 1e-12


def test_entropy_unitary_invariance(rng):
    for _ in range(30):
        rho = random_density(rng, 4)
        u = random_unitary(rng, 4)
        s0 = qm.von_neumann_entropy(rho)
        s1 = qm.von_neumann_entropy(u @ rho @ u.conj().T)
        assert abs(s0 - s1) <= 1e-10


def test_entropy_rejects_negative_eigenvalue():
    bad = np.diag([1.1, -0.1]).astype(complex)
    with pytest.raises(qm.InvalidStateError):
        qm.von_neumann_entropy(bad)


def two_decomposition_entropy(rho):
    """The entropy as it was computed before it reused the validator's
    eigenvalues: validate, then decompose a second time."""
    rho = qm._density_spectrum(rho, 1e-10)[0]
    evals = np.clip(np.linalg.eigvalsh(rho).real, 0.0, 1.0)
    nz = evals[evals > 0.0]
    return float(-np.sum(nz * np.log(nz)))


def test_entropy_identical_to_two_decomposition_oracle(rng):
    states = [random_density(rng, n) for n in (2, 4) for _ in range(100)]
    states += [pure_density(random_pure(rng, n)) for n in (2, 4) for _ in range(20)]
    states += [I2 / 2, np.eye(4) / 4, np.diag([1.0, 0.0]), np.diag([0.5, 0.5 + 5e-11])]
    skew = random_density(rng, 2)
    skew[0, 1] += 5e-11  # Hermitian within the entropy's 1e-10, not within 1e-12
    states.append(skew)
    for rho in states:
        assert qm.von_neumann_entropy(rho) == two_decomposition_entropy(rho)


def test_entropy_decomposes_once(monkeypatch, rng):
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(1) or eigvalsh(m))
    for n in (2, 4):
        calls.clear()
        qm.von_neumann_entropy(random_density(rng, n))
        assert len(calls) == 1


@pytest.mark.parametrize("bad", [
    np.diag([0.7, 0.7]),                      # trace
    np.array([[0.5, 1e-9], [0.0, 0.5]]),      # Hermiticity
    np.diag([1.1, -0.1]),                     # positivity
    np.full((2, 2), np.nan),                  # finiteness
    np.ones((2, 3)) / 2,                      # shape
])
def test_entropy_rejects_what_the_validator_rejects(bad):
    with pytest.raises(qm.InvalidStateError) as want:
        qm.check_density_matrix(bad)
    with pytest.raises(qm.InvalidStateError) as got:
        qm.von_neumann_entropy(bad)
    assert str(got.value) == str(want.value)


def test_hermiticity_check_matches_numpy_defect(rng):
    # the validator takes max|ρ - ρ†| on Python scalars; it must decide as the
    # numpy expression does, for every entry pair and on the diagonal
    for n in (2, 3, 4):
        for _ in range(200):
            rho = random_density(rng, n)
            i, j = rng.integers(0, n, size=2)
            rho[i, j] += complex(*rng.normal(size=2)) * 10.0 ** rng.uniform(-13, -11)
            defect = np.abs(rho - rho.conj().T).max()
            if defect > qm.ATOL:
                with pytest.raises(qm.InvalidStateError, match="not Hermitian"):
                    qm.check_density_matrix(rho)
            else:
                qm.check_density_matrix(rho)


def test_hermiticity_check_reads_the_diagonal():
    with pytest.raises(qm.InvalidStateError, match="not Hermitian"):
        qm.check_density_matrix(np.diag([0.5 + 1e-9j, 0.5 - 1e-9j]))


def test_hermiticity_defect_past_the_largest_float_is_not_hermitian():
    # finite entries whose |ρ01 - ρ10*| overflows: an infinite defect, not an OverflowError
    rho = np.array([[0.5, 1.5e308 + 1.5e308j], [0.0, 0.5]])
    joint = np.diag([0.25] * 4).astype(complex)
    joint[0, 3] = 1.5e308 + 1.5e308j
    for call in (lambda: qm.check_density_matrix(rho), lambda: qm.von_neumann_entropy(rho),
                 lambda: mutual_information(joint)):
        with pytest.raises(qm.InvalidStateError, match="^density matrix is not Hermitian$"):
            call()


NON_FINITE = (np.nan, np.inf, -np.inf, complex(0.0, np.nan))


@pytest.mark.parametrize("bad", NON_FINITE)
def test_validators_reject_non_finite_entries(bad):
    u = np.eye(2, dtype=complex)
    u[1, 1] = bad
    with pytest.raises(qm.InvalidStateError, match="finite"):
        qm.check_unitary(u)
    rho = np.diag([0.5, 0.5]).astype(complex)
    rho[0, 1] = rho[1, 0] = bad
    with pytest.raises(qm.InvalidStateError, match="finite"):
        qm.check_density_matrix(rho)


def test_entropy_rejects_nan_matrix():
    with pytest.raises(qm.InvalidStateError):
        qm.von_neumann_entropy(np.full((2, 2), np.nan))


def test_check_unitary_rejects_nonunitary():
    with pytest.raises(qm.InvalidStateError):
        qm.check_unitary(np.array([[1, 0], [0, 2.0]]))


def test_check_density_rejects_bad_trace():
    with pytest.raises(qm.InvalidStateError):
        qm.check_density_matrix(np.diag([0.7, 0.7]))


# ---------------------------------------------------------------- numpy oracles
# The L0 primitives work on Python scalars around numpy's eigensolver; these
# are the numpy expressions they replaced, kept to pin the same bits and the
# same errors.

ORACLE = settings(max_examples=300, deadline=None, derandomize=True, database=None)


def bits(x) -> bytes:
    return struct.pack("<d", x)


def numpy_spectrum_entropy(evals):
    evals = np.clip(evals.real, 0.0, 1.0)
    nz = evals[evals > 0.0]
    return float(-np.sum(nz * np.log(nz)))


def numpy_density_spectrum(rho, atol=qm.ATOL):
    rho = np.asarray(rho, dtype=complex)    # the checks of the former qmatrix.as_matrix
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise qm.InvalidStateError(f"expected a square matrix, got shape {rho.shape}")
    if not np.isfinite(rho).all():
        raise qm.InvalidStateError("entries must be finite, got NaN or inf")
    with np.errstate(over="ignore"):    # finite entries whose difference overflows
        herm = np.abs(rho - rho.conj().T).max()
    if herm > atol:
        raise qm.InvalidStateError("density matrix is not Hermitian")
    tr = rho.trace()
    if abs(tr - 1.0) > max(atol, 1e-10):
        raise qm.InvalidStateError(f"density matrix trace is {tr}, expected 1")
    evals = np.linalg.eigvalsh(rho)
    if evals[0] < qm.EIG_NEG_TOL:
        raise qm.InvalidStateError(f"density matrix has negative eigenvalue {evals[0]:.3e}")
    return rho, evals


def spectrum_outcome(fn, rho, atol=qm.ATOL):
    """The matrix and eigenvalue bytes ``fn`` returns, or its error message."""
    try:
        m, evals = fn(rho, atol)[:2]
    except qm.InvalidStateError as exc:
        return str(exc)
    return m.tobytes(), evals.tobytes()


# eigenvalues as eigvalsh returns them and past [0, 1]: exact ones and zeros of
# both signs, round-off below zero, subnormals and values above one
eigenvalues = st.one_of(
    st.sampled_from([1.0, 0.0, -0.0, -1e-10, -1e-17, 5e-324, 1e-300, 1.0 + 2**-52, 0.5]),
    st.floats(-1e-10, 1.5))


@ORACLE
@given(st.lists(eigenvalues, min_size=1, max_size=4))
@example([0.0, 1.0])
@example([-0.0, 1.0])
@example([-1e-17, 1.0])
@example([-1e-17, 0.0, 0.0, 1.0])
@example([0.5, 0.5])
def test_spectrum_entropy_matches_numpy_bits(values):
    evals = np.array(values)
    assert bits(qm._spectrum_entropy(evals)) == bits(numpy_spectrum_entropy(evals))


def test_spectrum_entropy_matches_numpy_bits_on_states(rng):
    states = [random_density(rng, n) for n in (2, 4) for _ in range(500)]
    states += [pure_density(random_pure(rng, n)) for n in (2, 4) for _ in range(100)]
    for rho in states:
        evals = np.linalg.eigvalsh(rho)
        assert bits(qm._spectrum_entropy(evals)) == bits(numpy_spectrum_entropy(evals))
    # a pure state's -0.0 survives
    assert bits(qm._spectrum_entropy(np.array([0.0, 1.0]))) == bits(-0.0)


# entries with zeros of both signs, so the sums' signs of zero are pinned too
entries = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.25]), st.floats(-1e3, 1e3))


@ORACLE
@given(st.lists(entries, min_size=32, max_size=32))
@example([-0.0] * 32)
def test_partial_trace_matches_einsum_bits(parts):
    m = np.empty((4, 4), dtype=complex)
    m.real = np.reshape(parts[:16], (4, 4))
    m.imag = np.reshape(parts[16:], (4, 4))
    for keep, got in zip(("first", "second"), marginals(m)):
        assert got.shape == (2, 2) and got.dtype == complex
        assert got.tobytes() == partial_trace(m, keep).tobytes()


@pytest.mark.parametrize("n", [2, 4])
@pytest.mark.parametrize("bad", NON_FINITE + (complex(np.inf, 0.0), complex(0.0, -np.inf)))
def test_density_spectrum_rejects_each_non_finite_entry(rng, n, bad):
    for i in range(n):
        for j in range(n):
            rho = random_density(rng, n)
            rho[i, j] = bad
            want = spectrum_outcome(numpy_density_spectrum, rho)
            assert want == "entries must be finite, got NaN or inf"
            assert spectrum_outcome(qm._density_spectrum, rho) == want


@pytest.mark.parametrize("shape", [(2, 3), (3, 2), (4,), (2, 2, 2), (1, 2, 2), ()])
def test_density_spectrum_rejects_shapes_as_as_matrix_does(shape):
    rho = np.full(shape, 0.5)
    want = spectrum_outcome(numpy_density_spectrum, rho)
    assert want == f"expected a square matrix, got shape {shape}"
    assert spectrum_outcome(qm._density_spectrum, rho) == want


@ORACLE
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([1, 2, 3, 4, 5, 8]),
       scale=st.one_of(st.just(1.0), st.floats(0.5, 1.5)),
       skew=st.one_of(st.just(0.0), st.floats(-1e-9, 1e-9)),
       diag_imag=st.one_of(st.sampled_from([0.0, -0.0, 1e-13]), st.floats(-1e-9, 1e-9)),
       shift=st.one_of(st.just(0.0), st.floats(-0.2, 0.0)),
       atol=st.sampled_from([qm.ATOL, 1e-10]))
@example(seed=0, n=2, scale=1.4, skew=0.0, diag_imag=0.0, shift=0.0, atol=qm.ATOL)
@example(seed=0, n=2, scale=1.0, skew=1e-9, diag_imag=0.0, shift=0.0, atol=qm.ATOL)
@example(seed=0, n=4, scale=1.0, skew=0.0, diag_imag=0.0, shift=-0.2, atol=qm.ATOL)
@example(seed=0, n=2, scale=1.2, skew=0.0, diag_imag=1e-13, shift=0.0, atol=1e-10)
@example(seed=1, n=4, scale=1.4375, skew=0.0, diag_imag=0.0, shift=0.0, atol=qm.ATOL)
def test_density_spectrum_matches_numpy_checks(seed, n, scale, skew, diag_imag, shift, atol):
    # a valid state, then a trace, Hermiticity or positivity fault, or none
    rng = np.random.default_rng(seed)
    rho = random_density(rng, n) * scale
    i, j = rng.integers(0, n, size=2)
    rho[i, j] += skew
    rho[i, i] += complex(0.0, diag_imag)
    if shift:
        v = random_pure(rng, n)
        rho = rho + shift * np.outer(v, v.conj()) - shift * np.eye(n) / n
    assert (spectrum_outcome(qm._density_spectrum, rho, atol)
            == spectrum_outcome(numpy_density_spectrum, rho, atol))


@pytest.mark.parametrize("rho", [
    np.diag([0.7, 0.7]), np.diag([0.7 - 0.0j, 0.7 - 0.0j]), np.diag([1.1, -0.1]),
    np.array([[0.5, 1e-9], [0.0, 0.5]]), np.eye(4) / 4, np.eye(4) / 3,
    np.zeros((0, 0)),
])
def test_density_spectrum_matches_numpy_checks_at_edges(rho):
    want = (spectrum_outcome(numpy_density_spectrum, rho) if rho.size
            else "density matrix trace is 0j, expected 1")
    assert spectrum_outcome(qm._density_spectrum, rho) == want


def ulps(x, k):
    """``x`` moved by ``k`` units in the last place."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


def edge_cases(n, atol):
    """(label, matrix, rejected?) with one fault a few ulps either side of where
    the check rejects it; the faults sit where they can be set exactly."""
    flat = np.diag([1.0 / n] * n).astype(complex)
    for k in range(-3, 4):
        herm = ulps(atol, k)
        for label, (i, j, value) in {"off-diagonal": (0, n - 1, herm),
                                     "imaginary off-diagonal": (n - 1, 0, 1j * herm),
                                     "imaginary diagonal": (1, 1, 1.0 / n + 0.5j * herm)}.items():
            rho = flat.copy()
            rho[i, j] = value           # |ρ_ij - ρ*_ji| is exactly ``herm``
            yield f"{label} {k:+d}", rho, herm > atol
        for side in (1.0, -1.0):        # trace 1 ± 1e-10, whatever atol
            top = ulps(1.0 + side * 1e-10, k)
            rho = np.zeros((n, n), dtype=complex)
            rho[0, 0] = top             # the trace is exactly ``top``
            yield f"trace {side:+} {k:+d}", rho, abs(top - 1.0) > max(atol, 1e-10)
        low = ulps(qm.EIG_NEG_TOL, k)
        rho = np.zeros((n, n), dtype=complex)
        rho[0, 0], rho[1, 1] = 1.0 - low, low   # eigvalsh returns a diagonal as it is
        yield f"eigenvalue {k:+d}", rho, low < qm.EIG_NEG_TOL


@pytest.mark.parametrize("n", [2, 4])
@pytest.mark.parametrize("atol", [qm.ATOL, 1e-10])
def test_density_spectrum_decides_as_numpy_a_few_ulps_from_each_tolerance(n, atol):
    outcomes = set()
    for label, rho, rejected in edge_cases(n, atol):
        got = spectrum_outcome(qm._density_spectrum, rho, atol)
        assert got == spectrum_outcome(numpy_density_spectrum, rho, atol), label
        assert isinstance(got, str) == rejected, label
        outcomes.add((label.rsplit(" ", 1)[0], rejected))
    assert len(outcomes) == 2 * 6     # each fault seen both accepted and rejected


@pytest.mark.parametrize("n", [2, 4])
def test_density_spectrum_huge_finite_entries_are_not_hermitian(n):
    # finite entries whose |ρ_ij - ρ*_ji|, or only the sum of those, overflows:
    # the entries are finite, so the Hermiticity check, not the finiteness one, rejects
    for value in (1e308, 8e307):
        rho = np.diag([1.0 / n] * n).astype(complex)
        rho[0, 1], rho[1, 0] = value, -value
        rho[n - 2, n - 1], rho[n - 1, n - 2] = value, -value
        want = spectrum_outcome(numpy_density_spectrum, rho)
        assert want == "density matrix is not Hermitian"
        assert spectrum_outcome(qm._density_spectrum, rho) == want
