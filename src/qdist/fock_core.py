"""Dense linear algebra for single-mode states in a truncated number basis.

Everything downstream (distance functionals, quasiprobability grids,
tomograms) stands on the two value types defined here: ``FockVector`` for
pure states and ``DensityOperator`` for mixed ones.  Both check their
defining invariants on construction and are treated as immutable
afterwards, so they are safe to share between workers.  Both expose
``mat`` and ``dim``, so a kernel that reads only those takes either.

All arithmetic is double precision; there are no mixed-precision paths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    NotHermitianError,
    NotPositiveSemidefiniteError,
    NumericalToleranceError,
    StateValidationError,
)

NORM_TOL = 1e-10
HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-10
# Eigenvalues in [EIG_FLOOR, 0) are truncation noise and get clamped to 0;
# anything below the floor means the matrix is genuinely corrupted, so we
# fail loudly instead of repairing it.
EIG_FLOOR = -1e-10


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


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
        if abs(norm2 - 1.0) > NORM_TOL:
            raise StateValidationError(f"state not normalized: sum |c_n|^2 = {norm2!r}")
        object.__setattr__(self, "amp", _readonly(amp))

    @property
    def dim(self) -> int:
        return self.amp.size

    @property
    def mat(self) -> np.ndarray:
        """|psi><psi|, PSD by construction: built on each access, never cached or re-validated."""
        return _readonly(np.outer(self.amp, self.amp.conj()))

    def overlap(self, other: "FockVector") -> complex:
        """<self|other>."""
        if self.dim != other.dim:
            raise DimensionMismatchError(f"dims {self.dim} != {other.dim}")
        return complex(np.vdot(self.amp, other.amp))


@dataclass(frozen=True)
class DensityOperator:
    """Mixed state: Hermitian, trace-one, positive-semidefinite matrix."""

    mat: np.ndarray
    tail_mass: float = 0.0

    def __post_init__(self):
        mat = np.array(self.mat, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] < 1:
            raise StateValidationError(f"density matrix must be square, got {mat.shape}")
        herm_defect = float(np.abs(mat - mat.conj().T).max())
        if herm_defect > HERMITICITY_TOL:
            raise NotHermitianError(f"hermiticity defect {herm_defect:.3e}")
        tr = complex(np.trace(mat))
        if abs(tr - 1.0) > TRACE_TOL:
            raise StateValidationError(f"trace {tr!r} differs from 1")
        lo = float(np.linalg.eigvalsh(mat)[0])
        if lo < EIG_FLOOR:
            raise NotPositiveSemidefiniteError(f"eigenvalue {lo:.3e} below {EIG_FLOOR}")
        object.__setattr__(self, "mat", _readonly(mat))

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition of a density operator, eigenvalues descending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # columns, ordered like ``eigenvalues``

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T


def spectrum(rho: DensityOperator) -> Spectrum:
    vals, vecs = np.linalg.eigh(rho.mat)
    order = np.argsort(vals)[::-1]
    return Spectrum(_readonly(vals[order]), _readonly(vecs[:, order]))


def outer(psi: FockVector) -> DensityOperator:
    """Projector |psi><psi| of a normalized pure state, validated as a DensityOperator."""
    return DensityOperator(psi.mat, tail_mass=psi.tail_mass)


def trace_product(a, b) -> float:
    """Re Tr(AB) for two states (FockVector or DensityOperator) of equal dimension.

    For Hermitian inputs the trace is real up to roundoff; an imaginary
    part above 1e-12 indicates corrupted inputs and raises.
    """
    if a.dim != b.dim:
        raise DimensionMismatchError(f"dims {a.dim} != {b.dim}")
    t = complex(np.einsum("ij,ji->", a.mat, b.mat))
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


def psd_power(mat: np.ndarray, p: float, threshold_null: bool = True) -> np.ndarray:
    """Hermitian power mat^p, p > 0, of a PSD Hermitian matrix.

    Eigenvalues below ``EIG_FLOOR`` raise ``NotPositiveSemidefiniteError``;
    those in [EIG_FLOOR, 0) are clamped to zero.  With ``threshold_null``
    eigenvalues up to dim * eps * max(eigenvalue) count as exact zeros
    too: a power of eigensolver noise in a null space would otherwise
    inject errors of order eps^p per rank-deficient direction.  Without
    it every positive eigenvalue is kept, preserving genuinely tiny
    populations exactly.
    """
    vals, vecs = np.linalg.eigh(mat)
    lo = float(vals[0])
    if lo < EIG_FLOOR:
        raise NotPositiveSemidefiniteError(f"eigenvalue {lo:.3e} below {EIG_FLOOR}")
    tiny = mat.shape[0] * np.finfo(float).eps * max(float(vals[-1]), 0.0) if threshold_null else 0.0
    powed = np.where(vals > tiny, vals, 0.0) ** p
    out = (vecs * powed) @ vecs.conj().T
    return 0.5 * (out + out.conj().T)


def hermitian_sqrt(rho: DensityOperator) -> np.ndarray:
    """The unique PSD Hermitian S with S^2 = rho.

    Eigenvalues in [-1e-10, 0) are clamped to zero before the square
    root; anything lower raises ``NotPositiveSemidefiniteError``.  No
    null-space threshold is applied.
    """
    return psd_power(rho.mat, 0.5, threshold_null=False)


def trace_norm(delta: np.ndarray) -> float:
    """Sum of |eigenvalue| for a Hermitian matrix (difference of states)."""
    delta = np.asarray(delta, dtype=complex)
    defect = float(np.abs(delta - delta.conj().T).max())
    if defect > 1e-10:
        raise NotHermitianError(f"hermiticity defect {defect:.3e}")
    return float(np.abs(np.linalg.eigvalsh(delta)).sum())


def annihilation(dim: int) -> np.ndarray:
    """Boson lowering operator: a|n> = sqrt(n)|n-1>, truncated to dim."""
    a = np.zeros((dim, dim), dtype=complex)
    n = np.arange(1, dim)
    a[n - 1, n] = np.sqrt(n)
    return a


def number_diagonal(dim: int) -> np.ndarray:
    """Diagonal of the photon-number operator."""
    return np.arange(dim, dtype=float)
