"""Dense linear algebra for single-mode states in a truncated number basis.

Everything downstream (distance functionals, quasiprobability grids,
tomograms) stands on the three state kinds defined here: ``FockVector``
for pure states, ``DiagonalState`` for mixed states diagonal in the
number basis (the thermal family) and ``DensityOperator`` for any other
mixed state.  Each checks its defining invariants on construction and
is treated as immutable afterwards, so they are safe to share between
workers.  Each exposes ``dim``, ``populations``, ``mat`` and
``factor(p)``.  The first two kinds store only a vector and build
``mat``, a dim x dim matrix, on each access, up to ``MAX_DENSE_DIM``.

``factor(p)`` is what the kernels read, and the one place that says
whether rho^p is diagonal: a 1-d d with rho^p = diag(d) exactly when it
is (a diagonal state, a number state or an exactly diagonal matrix),
else a 2-d W with rho^p = W W^dag (a pure state's amplitudes as one
column, a matrix's eigenvectors scaled by eigenvalue^(p/2)).
``_product_diagonal`` reads the diagonals of a product of two factors, by ``_row_products``;
``trace_product``, ``purity`` and every kernel in ``distances`` read them.

One floor, ``NOISE_FLOOR``, bounds the eigenvalues a ``DensityOperator``
accepts and ``_clamped_sqrt``, the one clamp for every square root in the
package of a quantity that rounding can push below 0.

All arithmetic is double precision; there are no mixed-precision paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatchError,
    NotHermitianError,
    NotPositiveSemidefiniteError,
    NumericalToleranceError,
    StateValidationError,
    TruncationInfeasibleError,
)

NORM_TOL = 1e-10
HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-10
# An eigenvalue or a square in [NOISE_FLOOR, 0) is rounding noise and reads as 0;
# below the floor the input is corrupt or a cancellation failed, so it raises.
NOISE_FLOOR = -1e-10
# Largest dim at which ``FockVector.mat``, ``DiagonalState.mat`` and
# ``hermitian_sqrt`` build a dim x dim matrix; above it they raise before allocating.
MAX_DENSE_DIM = 4096


def _clamped_sqrt(sq):
    """sqrt of a quantity nonnegative in exact arithmetic, entrywise for an array of them: noise down to
    ``NOISE_FLOOR`` reads as 0, below it raises."""
    array = isinstance(sq, np.ndarray)
    low = sq.min() if array else sq
    if low < NOISE_FLOOR:
        raise NumericalToleranceError(f"square {low:.3e} below {NOISE_FLOOR}")
    return np.sqrt(np.maximum(sq, 0.0)) if array else math.sqrt(max(sq, 0.0))


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _check_dims(a, b) -> None:
    """The one check that two states share a dim."""
    if a.dim != b.dim:
        raise DimensionMismatchError(f"dims {a.dim} != {b.dim}")


def _check_dense_dim(dim: int) -> None:
    if dim > MAX_DENSE_DIM:
        raise TruncationInfeasibleError(f"a dense dim x dim matrix stops at dim {MAX_DENSE_DIM}, got {dim}")


@dataclass(frozen=True)
class FockVector:
    """Pure state: complex amplitudes c_n over |0>, ..., |dim-1>.

    ``tail_mass`` records the probability discarded when the state was
    truncated to this basis (0 for states with finite support).  It is
    metadata only and does not enter equality or any computation.
    """

    amp: np.ndarray
    tail_mass: float = 0.0

    def __post_init__(self):
        amp = np.array(self.amp, dtype=complex)
        if amp.ndim != 1 or amp.size < 1:
            raise StateValidationError("amplitudes must form a non-empty 1-d sequence")
        norm2 = float(np.vdot(amp, amp).real)
        if not abs(norm2 - 1.0) <= NORM_TOL:  # NaN and inf fail too
            raise StateValidationError(f"state not normalized: sum |c_n|^2 = {norm2!r}")
        object.__setattr__(self, "amp", _readonly(amp))

    @property
    def dim(self) -> int:
        return self.amp.size

    @property
    def populations(self) -> np.ndarray:
        """|c_n|^2, the diagonal of ``mat`` bit for bit."""
        return (self.amp * self.amp.conj()).real

    @property
    def mat(self) -> np.ndarray:
        """|psi><psi|, PSD by construction: built on each access, never cached or re-validated."""
        _check_dense_dim(self.dim)
        return _readonly(np.outer(self.amp, self.amp.conj()))

    def factor(self, p: float) -> np.ndarray:
        """A projector is its own power: the populations (1-d) for a number state, else the amplitudes as one column."""
        return self.populations if np.count_nonzero(self.amp) == 1 else self.amp[:, None]

    def overlap(self, other: "FockVector") -> complex:
        """<self|other>."""
        _check_dims(self, other)
        return complex(np.vdot(self.amp, other.amp))


@dataclass(frozen=True)
class DiagonalState:
    """Mixed state diagonal in the number basis: populations p_n >= 0 summing to 1."""

    populations: np.ndarray
    tail_mass: float = 0.0

    def __post_init__(self):
        pop = np.array(self.populations, dtype=float)
        if pop.ndim != 1 or pop.size < 1:
            raise StateValidationError("populations must form a non-empty 1-d sequence")
        if not (pop >= 0.0).all():  # NaN fails too
            raise NotPositiveSemidefiniteError(f"populations must be nonnegative, min {pop.min()!r}")
        if not abs(pop.sum() - 1.0) <= TRACE_TOL:
            raise StateValidationError(f"populations sum to {pop.sum()!r}, not 1")
        object.__setattr__(self, "populations", _readonly(pop))

    @property
    def dim(self) -> int:
        return self.populations.size

    @property
    def mat(self) -> np.ndarray:
        """diag(p), built on each access as ``FockVector.mat`` is."""
        _check_dense_dim(self.dim)
        return _readonly(np.diag(self.populations).astype(complex))

    def factor(self, p: float) -> np.ndarray:
        """The populations to the p, a 1-d d with rho^p = diag(d)."""
        return self.populations**p


@dataclass(frozen=True)
class DensityOperator:
    """Mixed state: Hermitian, trace-one, positive-semidefinite matrix.

    The constructor's eigendecomposition validates every matrix: an
    eigenvalue below ``NOISE_FLOOR`` raises.  An exactly diagonal matrix's
    ``factor`` is its populations to the p, noise below 0 clamped, and keeps
    no eigenvectors.  Any other matrix keeps the eigenpairs above one null
    threshold, dim * eps * max(eigenvalue), since a power of eigensolver
    noise in a null space would inject errors of order eps^p per
    rank-deficient direction.
    """

    mat: np.ndarray
    tail_mass: float = 0.0
    _eig: tuple | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        mat = np.array(self.mat, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] < 1:
            raise StateValidationError(f"density matrix must be square, got {mat.shape}")
        if not np.isfinite(mat).all():  # before eigh, which fails on NaN or inf
            raise StateValidationError("density matrix has a NaN or infinite entry")
        herm_defect = float(np.abs(mat - mat.conj().T).max())
        if not herm_defect <= HERMITICITY_TOL:
            raise NotHermitianError(f"hermiticity defect {herm_defect:.3e}")
        tr = complex(np.trace(mat))
        if not abs(tr - 1.0) <= TRACE_TOL:
            raise StateValidationError(f"trace {tr!r} differs from 1")
        vals, vecs = np.linalg.eigh(mat)
        if vals[0] < NOISE_FLOOR:
            raise NotPositiveSemidefiniteError(f"eigenvalue {vals[0]:.3e} below {NOISE_FLOOR}")
        keep = vals > mat.shape[0] * np.finfo(float).eps * vals[-1]
        diagonal = np.count_nonzero(mat) == np.count_nonzero(mat.diagonal())
        object.__setattr__(self, "mat", _readonly(mat))
        object.__setattr__(self, "_eig", None if diagonal else (vals[keep], vecs[:, keep]))

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def factor(self, p: float) -> np.ndarray:
        """rho^p: populations^p if ``mat`` is diagonal, else W W^dag, W the kept eigenvectors x eigenvalue^(p/2)."""
        if self._eig is None:
            return np.maximum(self.populations, 0.0) ** p
        vals, vecs = self._eig
        return vecs * vals ** (0.5 * p)

    @property
    def populations(self) -> np.ndarray:
        """The diagonal of ``mat``, real."""
        return self.mat.diagonal().real


def outer(psi: FockVector) -> DensityOperator:
    """Projector |psi><psi| of a normalized pure state, validated as a DensityOperator."""
    return DensityOperator(psi.mat, tail_mass=psi.tail_mass)


def _product_diagonal(x, y, k: int = 0) -> np.ndarray:
    """Diagonal at offset k (``np.diagonal``'s convention) of the product XY of two factored operators.

    A factor is a 1-d d for X = diag(d) or a 2-d W for X = W W^dag.  XY
    is diag(d_x d_y), or U V^dag with U, V picked below, whose offset-k
    diagonal sum_j U_ij conj(V_{i+k,j}) costs O(dim x rank).
    """
    if x.ndim == 1 and y.ndim == 1:
        return x * y if k == 0 else np.zeros(x.size - abs(k))
    if y.ndim == 1:
        u, v = x, y[:, None] * x  # W W^dag diag(d) = W (d W)^dag, d real
    elif x.ndim == 1:
        u, v = x[:, None] * y, y
    else:
        g = x.conj().T @ y  # W_x W_x^dag W_y W_y^dag = (W_x g) W_y^dag
        u, v = (x * g if x.shape[1] == 1 else x @ g), y  # one column scales elementwise, bit for bit
    return _row_products(u, v, k)


def _row_products(u, v, k: int = 0) -> np.ndarray:
    """Diagonal at offset k of U V^dag, sum_j U_ij conj(V_{i+k,j}), for two dim x rank arrays."""
    return (u[max(-k, 0) : len(u) - max(k, 0)] * v[max(k, 0) : len(u) - max(-k, 0)].conj()).sum(axis=1)


def trace_product(a, b) -> float:
    """Re Tr(AB) for two states of any kind and equal dimension, from their factors.

    For Hermitian inputs the trace is real up to roundoff; an imaginary
    part above 1e-12 indicates corrupted inputs and raises.
    """
    _check_dims(a, b)
    t = complex(_product_diagonal(a.factor(1.0), b.factor(1.0)).sum())
    if abs(t.imag) > 1e-12:
        raise NumericalToleranceError(f"Tr(AB) has imaginary part {t.imag:.3e}")
    return float(t.real)


def purity(rho: DensityOperator) -> float:
    """Tr rho^2, between 1/dim (maximally mixed) and 1 (pure)."""
    p = trace_product(rho, rho)
    eps = 1e-9
    if not (1.0 / rho.dim - eps <= p <= 1.0 + eps):
        raise NumericalToleranceError(f"purity {p!r} outside [1/dim, 1]")
    return p


def hermitian_sqrt(rho) -> np.ndarray:
    """The PSD Hermitian S with S^2 = rho, for a state of any kind, from ``factor(0.5)``; dense, so capped as ``mat``."""
    _check_dense_dim(rho.dim)
    w = rho.factor(0.5)
    return np.diag(w) if w.ndim == 1 else w @ w.conj().T


def trace_norm(delta: np.ndarray) -> float:
    """Sum of |eigenvalue| for a Hermitian matrix (difference of states)."""
    delta = np.asarray(delta, dtype=complex)
    defect = float(np.abs(delta - delta.conj().T).max())
    if defect > 1e-10:
        raise NotHermitianError(f"hermiticity defect {defect:.3e}")
    return float(np.abs(np.linalg.eigvalsh(delta)).sum())

