import math

import numpy as np
import pytest

from qdist import DensityOperator
from qdist.phase_space import simpson_weights


def random_density(rng: np.random.Generator, dim: int) -> DensityOperator:
    """Full-rank random state from a complex Ginibre matrix."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T
    return DensityOperator(m / np.trace(m).real)


def random_pure_density(rng: np.random.Generator, dim: int) -> DensityOperator:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    v /= np.linalg.norm(v)
    return DensityOperator(np.outer(v, v.conj()))


def annihilation(dim: int) -> np.ndarray:
    """Boson lowering operator: a|n> = sqrt(n)|n-1>, truncated to dim."""
    a = np.zeros((dim, dim), dtype=complex)
    n = np.arange(1, dim)
    a[n - 1, n] = np.sqrt(n)
    return a


def dense_moments(mat: np.ndarray, cutoff: int) -> np.ndarray:
    """Tr(adag^k a^l mat) for k, l = 0..cutoff from dense powers of the lowering operator.

    The reference for the moment kernel in ``qdist.states``, which reads
    diagonals instead; orders at or above the dim give 0 here too.
    """
    a = annihilation(mat.shape[0])
    powers = [np.linalg.matrix_power(a, k) for k in range(cutoff + 1)]
    # Tr(adag^k X) = <a^k, X> in the Frobenius inner product
    return np.array([[np.vdot(pk, pl @ mat) for pl in powers] for pk in powers])


def bessel_pp_distance(n1: float, n2: float, n: int = 1025) -> float:
    """The pp form of the HS distance between two thermal states, from a dense Bessel kernel.

    The reference for the factored kernel in ``qdist.phase_space``: the
    same radial Simpson nodes, with the n x n pairing kernel
    K(r, s) = i0e(2rs) e^{-(r-s)^2} = I_0(2rs) e^{-r^2-s^2} built whole.
    """
    from scipy.special import i0e

    rmax = math.sqrt(40.0 * max(n1, n2)) + 2.0
    r = np.linspace(0.0, rmax, n)
    w = simpson_weights(n, r[1] - r[0])
    f = np.exp(-(r**2) / n1) / n1 - np.exp(-(r**2) / n2) / n2
    rr, ss = np.meshgrid(r, r, indexing="ij")
    kernel = i0e(2.0 * rr * ss) * np.exp(-((rr - ss) ** 2))
    g = w * r * f
    return math.sqrt(max(4.0 * float(g @ kernel @ g), 0.0))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
