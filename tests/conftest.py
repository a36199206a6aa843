import math

import numpy as np
import pytest

from qdemon import engine as eng


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
