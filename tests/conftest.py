import math

import numpy as np
import pytest

from qdist import DensityOperator, Tomogram, classical_divergence
from qdist.closed_forms import parse_metric
from qdist.phase_space import oscillator_eigenfunctions
from qdist.states import FAMILIES, adaptive_dim, build_state, coherent_amplitudes, quadrature_moments
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


def bessel_pp_distance(n1: float, n2: float, r: np.ndarray, w: np.ndarray) -> float:
    """The pp form of the HS distance between two thermal states, from a dense Bessel kernel.

    The reference for the factored kernel in ``qdist.phase_space``: on the
    form's own radial nodes ``r`` and weights ``w``, the plain difference of
    the two P functions, with the n x n pairing kernel
    K(r, s) = i0e(2rs) e^{-(r-s)^2} = I_0(2rs) e^{-r^2-s^2} built whole.
    Each n x n array is 8 n^2 bytes (118 MB at 3,840 nodes), so it takes
    at most 1,300 nodes.
    """
    from scipy.special import i0e

    assert r.size <= 1300, f"{r.size} radial nodes: the dense kernel takes at most 1,300"
    f = np.exp(-(r**2) / n1) / n1 - np.exp(-(r**2) / n2) / n2
    rr, ss = np.meshgrid(r, r, indexing="ij")
    kernel = i0e(2.0 * rr * ss) * np.exp(-((rr - ss) ** 2))
    g = w * r * f
    return math.sqrt(max(4.0 * float(g @ kernel @ g), 0.0))


def table_marginals(spec, thetas: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The unnormalized unit-radius marginal of a non-coherent spec, one eigenfunction table per row.

    The reference for ``qdist.tomography._marginals``: for the Fock-basis
    route, which walks the eigenfunction levels once over the whole block,
    and for the squeezed and thermal states' Gaussian one.  Per row, the
    points x dim table ``oscillator_eigenfunctions(row, dim)`` against the
    state's factor, and for the number state |n> the closed form
    psi_n(X/r)^2 / r at r = |(cos theta, sin theta)|.  The dim is
    ``adaptive_dim``, the one the Fock-basis route builds at; a Gaussian
    state's marginal has no truncation, so its reference is built at twice
    that, where the truncation's own error in the marginal (up to 2.6e-8
    relative at ``adaptive_dim``) falls below 1e-14.
    """
    w = np.empty_like(x)
    if spec.family == "fock":
        n = spec.params["n"]
        for i, (theta, row) in enumerate(zip(thetas, x)):
            r = math.sqrt(math.cos(theta) ** 2 + math.sin(theta) ** 2)
            w[i] = oscillator_eigenfunctions(row / r, n + 1)[:, n] ** 2 / r
        return w
    dim = adaptive_dim(spec) * (1 if FAMILIES[spec.family].ladder is None else 2)
    f = build_state(spec, dim).factor(1.0)
    for i, (theta, row) in enumerate(zip(thetas, x)):
        psi = oscillator_eigenfunctions(row, f.shape[0])
        if f.ndim == 1:
            w[i] = psi**2 @ f
        else:
            v = np.exp(-1j * theta * np.arange(f.shape[0]))[:, None] * f
            w[i] = ((psi @ v.real) ** 2 + (psi @ v.imag) ** 2).sum(axis=1)
    return w


def gaussian_moments(spec):
    """<a>, <a^2> and <adag a> of a coherent, thermal or squeezed-vacuum spec, written out here."""
    if spec.family == "coherent":
        a = spec.params["alpha"]
        return a, a * a, abs(a) ** 2
    if spec.family == "thermal":
        return 0j, 0j, spec.params["nbar"]
    z = spec.params["zeta"]
    return 0j, z / (1.0 - abs(z) ** 2), abs(z) ** 2 / (1.0 - abs(z) ** 2)


def gaussian_quadratures(spec, thetas: np.ndarray):
    """Mean and variance of a Gaussian spec's unit-radius tomogram at each angle.

    The mean is sqrt(2) Re(<a> e^{-i theta}), the variance
    <adag a> - |<a>|^2 + 1/2 + Re((<a^2> - <a>^2) e^{-2 i theta}).
    """
    m, a2, n = gaussian_moments(spec)
    rot = np.exp(-1j * thetas)
    return math.sqrt(2.0) * (m * rot).real, n - abs(m) ** 2 + 0.5 + ((a2 - m * m) * rot * rot).real


def _normal_mass(mean: float, var: float, lo: float, hi: float) -> float:
    """The mass of the normal density on [lo, hi], from erfc at its two ends."""
    s = math.sqrt(2.0 * var)
    if lo >= mean:
        return 0.5 * (math.erfc((lo - mean) / s) - math.erfc((hi - mean) / s))
    if hi <= mean:
        return 0.5 * (math.erfc((mean - hi) / s) - math.erfc((mean - lo) / s))
    return 1.0 - 0.5 * (math.erfc((mean - lo) / s) + math.erfc((hi - mean) / s))


def _normal_kolmogorov(m1: float, v1: float, m2: float, v2: float) -> float:
    """int |p - q| dX for two normal densities: their masses between the points where they cross.

    log p - log q = a X^2 + b X + c; its roots, taken by the form that
    does not cancel, cut the line into the intervals where p - q keeps
    one sign.
    """
    a = (v1 - v2) / (2.0 * v1 * v2)
    b = m1 / v1 - m2 / v2
    c = m2 * m2 / (2.0 * v2) - m1 * m1 / (2.0 * v1) + 0.5 * math.log(v2 / v1)
    if a == 0.0:
        roots = [] if b == 0.0 else [-c / b]
    else:
        q = -0.5 * (b + math.copysign(math.sqrt(max(b * b - 4.0 * a * c, 0.0)), b))
        roots = sorted([q / a, c / q]) if q != 0.0 else []
    edges = [-math.inf, *roots, math.inf]
    return sum(abs(_normal_mass(m1, v1, lo, hi) - _normal_mass(m2, v2, lo, hi)) for lo, hi in zip(edges, edges[1:]))


def gaussian_divergences(m1, v1, m2, v2, kind: str) -> np.ndarray:
    """The divergence ``kind`` between normal densities of means m and variances v, entrywise, in closed form.

    With d = m1 - m2 and the Bhattacharyya coefficient
    BC = (1 + (v1 - v2)^2 / (4 v1 v2))^(-1/4) exp(-d^2 / (4 (v1 + v2))):
    Hellinger sqrt(2 - 2 BC), Bhattacharyya -log BC, symmetric Kullback
    ((v1 - v2)^2 + d^2 (v1 + v2)) / (2 v1 v2), and Kolmogorov by erfc at
    the crossings.  1 - BC is formed as -expm1(log BC), without cancellation.
    """
    m1, v1, m2, v2 = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (m1, v1, m2, v2)))
    d2 = (m1 - m2) ** 2
    log_bc = -0.25 * np.log1p((v1 - v2) ** 2 / (4.0 * v1 * v2)) - d2 / (4.0 * (v1 + v2))
    if kind == "hellinger":
        return np.sqrt(-2.0 * np.expm1(log_bc))
    if kind == "bhattacharyya":
        return -log_bc
    if kind == "kullback":
        return ((v1 - v2) ** 2 + d2 * (v1 + v2)) / (2.0 * v1 * v2)
    if kind == "kolmogorov":
        return np.vectorize(_normal_kolmogorov)(m1, v1, m2, v2)
    raise ValueError(f"no Gaussian closed form for {kind!r}")


def gaussian_tomographic_distance(spec_a, spec_b, kind: str, angular_nodes: int = 64) -> float:
    """``qdist.tomography.tomographic_distance`` of two Gaussian specs from the closed forms at each angle.

    The reference for the Gaussian marginals: ``gaussian_divergences`` at
    every node of ``_angular_rule`` (a diagonal pair takes them all here),
    with no X grid and no marginal.
    """
    moments_a, moments_b = gaussian_moments(spec_a), gaussian_moments(spec_b)
    thetas, weights = _angular_rule(_kink_angles(moments_a, moments_b), angular_nodes)
    (m1, v1), (m2, v2) = gaussian_quadratures(spec_a, thetas), gaussian_quadratures(spec_b, thetas)
    return float(weights @ gaussian_divergences(m1, v1, m2, v2, kind))


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
