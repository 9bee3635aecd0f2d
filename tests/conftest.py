import numpy as np
import pytest

from qdist import DensityOperator


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


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
