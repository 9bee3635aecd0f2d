import math

import numpy as np
import pytest

from qdist import DensityOperator, Tomogram, classical_divergence
from qdist.closed_forms import parse_metric
from qdist.phase_space import oscillator_eigenfunctions, simpson_weights
from qdist.states import adaptive_dim, build_state, coherent_amplitudes, quadrature_moments
from qdist.tomography import VACUUM_SIGMA, _angular_rule, _kink_angles, _marginals, default_x_grid


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


def dense_power(mat: np.ndarray, p: float) -> np.ndarray:
    """mat^p of a PSD Hermitian matrix from its eigendecomposition, the thresholded eigen-root.

    Eigenvalues up to dim * eps * max(eigenvalue) count as exact zeros,
    the null threshold ``qdist.fock_core.DensityOperator`` applies.
    """
    vals, vecs = np.linalg.eigh(mat)
    tiny = mat.shape[0] * np.finfo(float).eps * vals[-1]
    out = (vecs * np.where(vals > tiny, vals, 0.0) ** p) @ vecs.conj().T
    return 0.5 * (out + out.conj().T)


def _square_diagonal(delta: np.ndarray) -> np.ndarray:
    """diag(delta^2) of a Hermitian matrix, real."""
    return np.einsum("ij,ji->i", delta, delta).real


def _trace_product(x: np.ndarray, y: np.ndarray) -> float:
    return float(np.einsum("ij,ji->", x, y).real)


def dense_metric(metric: str, a, b) -> float:
    """A density metric of ``qdist.distances.METRICS`` between two states, from their dense ``mat``.

    The reference for the factored kernels in ``qdist.distances``: trace
    products, thresholded eigen-roots, the SVD fidelity, diag(delta^2)
    and the dense moment table, with Z = N for the polarized forms.
    """
    base, p = parse_metric(metric)
    m1, m2 = a.mat, b.mat
    z = np.arange(a.dim, dtype=float)
    dd = _square_diagonal(m1 - m2)
    if base == "hs":
        return math.sqrt(max(_trace_product(m1, m1) + _trace_product(m2, m2) - 2.0 * _trace_product(m1, m2), 0.0))
    if base == "hs-p":
        return float(np.linalg.norm(dense_power(m1, p) - dense_power(m2, p)))
    if base == "bu":
        fid = float(np.linalg.svd(dense_power(m2, 0.5) @ dense_power(m1, 0.5), compute_uv=False).sum())
        return math.sqrt(max(2.0 - 2.0 * fid, 0.0))
    if base == "jmg":
        return 0.5 * float(np.abs(np.linalg.eigvalsh(m1 - m2)).sum())
    if base == "dn":
        return math.sqrt(max(float(z @ dd), 0.0))
    if base == "dn-sqrt":
        return math.sqrt(max(float(z @ _square_diagonal(dense_power(m1, 0.5) - dense_power(m2, 0.5))), 0.0))
    if base == "DZ":
        t_norm = float(dd.sum())
        if t_norm < 1e-14:
            return 0.0
        return math.sqrt(max(float(z @ dd) - float(np.sqrt(z) @ dd) ** 2 / t_norm, 0.0))
    if base == "Da":
        m = dense_moments((m1 - m2) @ (m1 - m2), 1)
        t_norm = float(m[0, 0].real)
        if t_norm < 1e-14:
            return 0.0
        return math.sqrt(max(m[1, 1].real - abs(m[0, 1]) ** 2 / t_norm, 0.0))
    raise ValueError(f"no dense reference for {metric!r}")


def dense_husimi(mat: np.ndarray, grid) -> np.ndarray:
    """Q(alpha) = c^dag rho c on the grid from the dense matrix, c the coherent amplitudes.

    The reference for the factored Husimi kernel in ``qdist.phase_space``.
    """
    qq, pp = np.meshgrid(grid.q_axis, grid.p_axis, indexing="ij")
    c = coherent_amplitudes(((qq + 1j * pp) / math.sqrt(2.0)).ravel(), mat.shape[0])
    q = np.einsum("am,mn,an->a", c.conj(), mat, c, optimize=True).real
    return q.reshape(grid.nq, grid.n_p)


def dense_wigner(mat: np.ndarray, grid) -> np.ndarray:
    """W(q, p) on the grid from the whole fine-grid position matrix psi rho psi^T and complex phases.

    The reference for the Wigner kernel in ``qdist.phase_space``, which
    forms only the two parity halves of that matrix, in real arithmetic:
    W(q_j, p) = dq [r_jj + 2 Re sum_b e^{i p b dq} r_{2j-b, 2j+b}] on the
    fine grid at half the q-spacing, with no mass or bandwidth check.
    """
    nq, nf, dq = grid.nq, 2 * grid.nq - 1, grid.dq
    psi = oscillator_eigenfunctions(np.linspace(grid.q_min, grid.q_max, nf), mat.shape[0])
    r = psi @ mat @ psi.T
    a = 2 * np.arange(nq)
    b = np.arange(1, nq)
    rows, cols = a[None, :] - b[:, None], a[None, :] + b[:, None]
    valid = (rows >= 0) & (cols <= nf - 1)
    g = np.zeros((nq - 1, nq), dtype=complex)
    g[valid] = r[rows[valid], cols[valid]]
    phases = np.exp(1j * np.outer(grid.p_axis, b * dq))
    return (dq * (r[a, a].real[None, :] + 2.0 * (phases @ g).real)).T


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


def table_marginals(spec, thetas: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The unnormalized unit-radius marginal of a non-coherent spec, one eigenfunction table per row.

    The reference for the Fock-basis route of ``qdist.tomography._marginals``,
    which walks the eigenfunction levels once over the whole block: per
    row, the points x dim table ``oscillator_eigenfunctions(row, dim)``
    against the state's factor, and for the number state |n> the closed
    form psi_n(X/r)^2 / r at r = |(cos theta, sin theta)|.
    """
    w = np.empty_like(x)
    if spec.family == "fock":
        n = spec.params["n"]
        for i, (theta, row) in enumerate(zip(thetas, x)):
            r = math.sqrt(math.cos(theta) ** 2 + math.sin(theta) ** 2)
            w[i] = oscillator_eigenfunctions(row / r, n + 1)[:, n] ** 2 / r
        return w
    f = build_state(spec, adaptive_dim(spec)).factor(1.0)
    for i, (theta, row) in enumerate(zip(thetas, x)):
        psi = oscillator_eigenfunctions(row, f.shape[0])
        if f.ndim == 1:
            w[i] = psi**2 @ f
        else:
            v = np.exp(-1j * theta * np.arange(f.shape[0]))[:, None] * f
            w[i] = ((psi @ v.real) ** 2 + (psi @ v.imag) ** 2).sum(axis=1)
    return w


def per_node_tomographic_distance(spec_a, spec_b, kind: str, angular_nodes: int = 64) -> float:
    """``qdist.tomography.tomographic_distance`` one angular node at a time, every node of the rule.

    The reference for the blocked evaluation: at each node its own
    ``default_x_grid``, one ``Tomogram`` per state from a one-row call of
    its marginal, and ``classical_divergence``, summed node by node; a
    diagonal pair takes every node here too.
    """
    (moments_a, _, marginal_a), (moments_b, _, marginal_b) = _marginals(spec_a), _marginals(spec_b)
    thetas, tweights = _angular_rule(_kink_angles(moments_a, moments_b), angular_nodes)
    total = 0.0
    for theta, tw in zip(thetas, tweights):
        (ma, sa), (mb, sb) = (quadrature_moments(m, theta) for m in (moments_a, moments_b))
        x = default_x_grid(min(ma, mb), max(ma, mb), VACUUM_SIGMA, max(sa, sb))
        ta, tb = (Tomogram(math.cos(theta), math.sin(theta), x, marginal(np.array([theta]), x[None])[0])
                  for marginal in (marginal_a, marginal_b))
        total += tw * classical_divergence(ta, tb, kind)
    return total


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
