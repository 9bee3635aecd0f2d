"""Distance and quasidistance functionals on truncated states.

Covers the pure-state distances (Fubini-Study, minimal, Wootters
angle), the trace-norm distance, the Bures-Uhlmann distance, the
Hilbert-Schmidt distance with its f(rho) modifications and moment-series
form, the polarized (reference-operator weighted) variants, and the two
variance-like quasidistances.  The reference operator Z of the
polarized forms is diagonal in the number basis and is passed as its
diagonal, a weight vector.  ``METRICS`` maps each CLI metric name to
its kernel.  All functions are pure and take states of any kind and
equal dimension.

Every squared-difference metric (Hilbert-Schmidt and its f(rho) forms, the polarized
forms, both quasidistances) reads one kernel, ``_delta_sq``, the diagonals of
(rho1^p - rho2^p)^2 with the difference formed before it is squared, so neighbouring
states keep their digits and identical inputs give exactly 0.  Kernels read the
states' factors (a 2-d W with rho^p = W W^dag, or a 1-d d with rho^p = diag(d)) through
``fock_core._product_diagonal``, the diagonal at offset k of the product of two
factored operators; the Bures fidelity is the trace norm of W1^dag W2.  ``fock_core``
alone says whether rho^p is diagonal: the factor is 1-d exactly when it is, and a
kernel picks its route by ``ndim`` alone, so pure and diagonal states take O(dim)
work.  Only the trace norm reads the dense ``mat``, when the two factors are not both
1-d.  Every square root of a squared distance goes through ``fock_core._clamped_sqrt``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .closed_forms import parse_metric
from .errors import (
    DimensionMismatchError,
    NumericalToleranceError,
    StateValidationError,
    UnsupportedCombinationError,
)
from .fock_core import FockVector, _check_dims, _clamped_sqrt, _product_diagonal, _row_products, trace_norm
from .states import MomentTable, _moments, inv_sqrt_factorials


@dataclass
class DistanceReport:
    """A metric value, as the CLI prints it."""

    value: float


# ---------------------------------------------------------------------------
# pure-state distances
# ---------------------------------------------------------------------------

def pure_state_distance(a: FockVector, b: FockVector, kind: str = "fs") -> float:
    """Distance between rays: fs (Fubini-Study), minimal, or wootters.

    minimal = ||a - e^{i phi} b|| with e^{i phi} <a|b> = |<a|b>| = o, which
    unlike 1 - o does not cancel; fs = minimal sqrt(1 + o) and
    wootters = 2 asin(minimal / 2) follow from it.
    """
    o, d = _aligned(a, b)
    minimal = float(np.linalg.norm(d))
    if kind == "fs":
        return minimal * math.sqrt(1.0 + o)
    if kind == "minimal":
        return minimal
    if kind == "wootters":
        return 2.0 * math.asin(min(0.5 * minimal, 1.0))
    raise StateValidationError(f"unknown pure-state distance kind {kind!r}")


# ---------------------------------------------------------------------------
# state factors: the structured route
# ---------------------------------------------------------------------------

def _pure_pair(r1, r2) -> bool:
    return isinstance(r1, FockVector) and isinstance(r2, FockVector)


def _aligned(a: FockVector, b: FockVector):
    """|<a|b>| and d = a - c b for c <a|b> >= 0, with c = +-(1 - it)/(1 + it), |c| = 1 exactly, so d keeps its digits."""
    ov = a.overlap(b)  # checks the dims
    sign = 1.0 if ov.real >= 0 else -1.0
    t = sign * ov.imag / (abs(ov) + abs(ov.real)) if ov != 0 else 0.0  # tan of half the phase of sign <a|b>
    return min(abs(ov), 1.0), a.amp - sign * b.amp + (2j * t / (1 + 1j * t) * sign) * b.amp


def _delta_sq(r1, r2, p: float = 1.0, k: int = 0) -> np.ndarray:
    """Offset-k diagonal of (rho1^p - rho2^p)^2, the difference formed before it is squared.

    A pure pair is its own power: with d = a - c b from ``_aligned`` and B = [2a - d, d] = [a + c b, d],
    rho1 - rho2 = B J B^dag / 2 (J the 2 x 2 swap), whose square is B (J B^dag B J / 4) B^dag.  Two 1-d
    factors square p1^p - p2^p, at p != 1 as p2^p expm1(p log1p((p1 - p2) / p2)) where the populations lie
    within a factor of 2, so p1 - p2 is exact; any other pair expands X X + Y Y - X Y - Y X, exactly 0 when X = Y.
    """
    _check_dims(r1, r2)
    if _pure_pair(r1, r2):
        _, d = _aligned(r1, r2)
        basis = np.stack([2.0 * r1.amp - d, d], axis=1)
        return _row_products(basis @ (basis.conj().T @ basis)[::-1, ::-1] / 4.0, basis, k)
    x, y = r1.factor(p), r2.factor(p)
    if x.ndim == 1 and y.ndim == 1:
        d = x - y
        if p != 1.0:
            pa, pb = (np.maximum(r.populations, 0.0) for r in (r1, r2))  # clamped as DensityOperator.factor
            near = (pb > 0.0) & (0.5 * pb <= pa) & (pa <= 2.0 * pb)
            pa, pb = pa[near], pb[near]
            d[near] = pb**p * np.expm1(p * np.log1p((pa - pb) / pb))
        return _product_diagonal(d, d, k)
    return (_product_diagonal(x, x, k) + _product_diagonal(y, y, k)
            - _product_diagonal(x, y, k) - _product_diagonal(y, x, k))


# ---------------------------------------------------------------------------
# density-operator distances
# ---------------------------------------------------------------------------

def hilbert_schmidt(r1, r2) -> float:
    """sqrt(Tr rho1^2 + Tr rho2^2 - 2 Tr rho1 rho2) <= sqrt(2); states of any kind."""
    d = modified_hs(r1, r2, 1.0)
    if d > math.sqrt(2.0) + 1e-9:
        raise NumericalToleranceError(f"Hilbert-Schmidt distance {d!r} exceeds sqrt(2)")
    return d


def jmg_distance(r1, r2) -> float:
    """Half the trace norm of rho1 - rho2, states of any kind; the best projector test.

    A pure pair gives sqrt(1 - |<a|b>|^2) = fs / sqrt(2), and two states
    whose factors are 1-d, so diagonal, give sum |p1 - p2| / 2.
    """
    _check_dims(r1, r2)
    if _pure_pair(r1, r2):
        return pure_state_distance(r1, r2, "fs") / math.sqrt(2.0)
    if r1.factor(1.0).ndim == 1 and r2.factor(1.0).ndim == 1:
        return 0.5 * float(np.abs(r1.populations - r2.populations).sum())
    return 0.5 * trace_norm(r1.mat - r2.mat)


def bures_uhlmann(r1, r2) -> float:
    """sqrt(2 - 2F) with Uhlmann's fidelity F = Tr sqrt(sqrt(rho1) rho2 sqrt(rho1)); states of any kind.

    F = ||W1^dag W2||_1 for any factors rho = W W^dag (Uhlmann, Rep.
    Math. Phys. 9, 273 (1976)).  A pure pair gives the minimal distance.
    Two 1-d factors commute: the distance is ``modified_hs`` at p = 1/2, which does not cancel as
    2 - 2F does.  When either factor is one column, W1^dag W2 is a vector and F its norm,
    sqrt(Tr rho1 rho2).  Otherwise F is the nuclear norm of W1^dag W2: singular values are
    nonnegative by construction, so eigensolver noise in a null space
    cannot get amplified by an outer square root.
    """
    _check_dims(r1, r2)
    if _pure_pair(r1, r2):
        return pure_state_distance(r1, r2, "minimal")
    x, y = r1.factor(1.0), r2.factor(1.0)
    if x.ndim == 1 and y.ndim == 1:
        return modified_hs(r1, r2, 0.5)
    if x.shape[1:] == (1,) or y.shape[1:] == (1,):
        fid = _clamped_sqrt(float(_product_diagonal(x, y).real.sum()))
    else:  # a 1-d d stands for W = diag(sqrt(d)), which scales the rows or columns of W1^dag W2
        g = np.sqrt(x)[:, None] * y if x.ndim == 1 else x.conj().T * np.sqrt(y) if y.ndim == 1 else x.conj().T @ y
        fid = float(np.linalg.svd(g, compute_uv=False).sum())
    return _clamped_sqrt(2.0 - 2.0 * fid)


def modified_hs(r1, r2, p: float) -> float:
    """Hilbert-Schmidt distance between rho1^p and rho2^p, p in (0, 1]; states of any kind.

    p = 1 is the plain Hilbert-Schmidt distance; p = 1/2 is the Bures-Uhlmann
    distance whenever the operators commute.  A pure state is its own power,
    so a pure pair gives the Fubini-Study distance at every p.
    """
    if not 0.0 < p <= 1.0:
        raise StateValidationError(f"power p must lie in (0, 1], got {p!r}")
    return _clamped_sqrt(float(_delta_sq(r1, r2, p).real.sum()))


# ---------------------------------------------------------------------------
# polarized distances and quasidistances
# ---------------------------------------------------------------------------

def _check_polarization(z, dim: int) -> np.ndarray:
    """The weights ``z``, the diagonal of Z, as a float array once they fit states of dim ``dim``."""
    z = np.asarray(z, dtype=float)
    if z.ndim != 1 or not (z >= 0).all():
        raise StateValidationError("polarization weights must be 1-d, nonnegative and not NaN")
    if z.size != dim:
        raise DimensionMismatchError(f"polarization dim {z.size} != state dim {dim}")
    return z


def polarized(r1, r2, z) -> float:
    """sqrt(Tr(Z [rho1 - rho2]^2)), states of any kind; Z = 1 gives Hilbert-Schmidt.

    ``z`` is the diagonal of the reference operator Z, one nonnegative
    weight per level: ``np.arange(dim, dtype=float)`` for Z = N.
    """
    dd = _delta_sq(r1, r2).real
    return _clamped_sqrt(float((_check_polarization(z, dd.size) * dd).sum()))


def polarized_sqrt(r1, r2, z) -> float:
    """sqrt(Tr(Z [sqrt(rho1) - sqrt(rho2)]^2)); matches `polarized` on pure pairs.

    A pure state is its own root and a diagonal state's root, an exactly
    diagonal matrix's included, is the root of its populations, every one
    of them counted in full.  Any other DensityOperator's root drops the
    eigenvalues below its null threshold (see ``fock_core.DensityOperator``).  ``z`` is the
    diagonal of Z, as in ``polarized``.
    """
    dd = _delta_sq(r1, r2, 0.5).real
    return _clamped_sqrt(float((_check_polarization(z, dd.size) * dd).sum()))


def quasidistance_DZ(r1, r2, z) -> float:
    """Variance-like functional Tr(dZd) - Tr(d Z^{1/2} d)^2 / Tr(d^2), d = rho1-rho2.

    States of any kind; ``z`` is the diagonal of Z, as in ``polarized``.
    Identical states give 0: Tr(d^2) is exactly 0 (ratio 0/0), and only rounding takes it below.
    """
    dd = _delta_sq(r1, r2).real
    z = _check_polarization(z, dd.size)
    t_norm, t_z, t_zroot = (float((w * dd).sum()) for w in (1.0, z, np.sqrt(z)))
    if t_norm <= 0.0:
        return 0.0
    return _clamped_sqrt(t_z - t_zroot * t_zroot / t_norm)


def quasidistance_Da(r1, r2) -> float:
    """Lowering-operator quasidistance of d = rho1 - rho2, states of any kind; 0 for identical ones."""
    m = _moments(lambda k: _delta_sq(r1, r2, 1.0, k), r1.dim, 1)
    # m[k, l] = Tr(adag^k a^l d^2)
    t_norm = float(m[0, 0].real)
    if t_norm <= 0.0:
        return 0.0
    return _clamped_sqrt(m[1, 1].real - abs(m[0, 1]) ** 2 / t_norm)


# ---------------------------------------------------------------------------
# Hilbert-Schmidt distance from moments, and neighbour-state bounds
# ---------------------------------------------------------------------------

def hs_from_moments(m1: MomentTable, m2: MomentTable, s_max: int):
    """Squared-distance series over moment differences, order by order.

    Returns ``(distance, partial_squared)`` where ``partial_squared[s]``
    is the partial sum of the squared distance through order s.  The
    distance is ``_clamped_sqrt`` of the last, so a series that has not
    converged by s_max and ends below -1e-10 raises.  One that ends above it
    returns a wrong positive value with no warning: coherent 3 vs 3.5 at
    cutoff 100 gives 8.846 at s = 50 (true 0.665); read ``partial_squared``.
    """
    if m1.cutoff != m2.cutoff:
        raise DimensionMismatchError("moment tables have different cutoffs")
    if s_max > m1.cutoff:
        raise StateValidationError(f"s_max {s_max} exceeds table cutoff {m1.cutoff}")
    dm = m1.m - m2.m
    partials = np.zeros(s_max + 1)
    total = 0.0
    isq = inv_sqrt_factorials(s_max + 1)
    for s in range(s_max + 1):
        # coefficient (-1)^{s+k+l} s! / (k!(s-k)! l!(s-l)!) = (-1)^s w_k w_l with
        # w_k = (-1)^k C(s,k)/sqrt(s!), run up from w_0 = 1/sqrt(s!) by the ratio
        # -(s-k)/(k+1), so neither s! nor C(s,k) is formed on its own
        k = np.arange(s)
        w = np.cumprod(np.concatenate(([isq[s]], -(s - k) / (k + 1.0))))
        block = dm[: s + 1, : s + 1]
        flipped = dm[s::-1, s::-1]  # entry (k, l) holds dM^{(s-k, s-l)}
        term = np.einsum("k,l,kl,kl->", w, w, block, flipped)
        total += (-1.0) ** s * float(term.real)
        partials[s] = total
    return _clamped_sqrt(total), partials


@dataclass(frozen=True)
class HSBounds:
    """Upper bounds on the Hilbert-Schmidt distance to a number state."""

    b0: float
    bn: float
    bvar: float


def hs_bounds(rho, n: int) -> HSBounds:
    """The three neighbour-state bounds to |n><n| of a state of any kind.

    b0 = sqrt(2 nbar) applies only at n = 0; bn and bvar bound the
    distance to |n><n| for any n below the truncation.
    """
    if not 0 <= n < rho.dim:
        raise StateValidationError(f"need 0 <= n < dim, got n={n}")
    p = rho.populations
    lv = np.arange(rho.dim)
    nbar = float((lv * p).sum())
    n2bar = float((lv * lv * p).sum())
    var = n2bar - nbar * nbar
    return HSBounds(b0=_clamped_sqrt(2.0 * nbar), bn=_clamped_sqrt(2.0 * (p[0] + nbar - n * p[n])),
                    bvar=_clamped_sqrt(2.0 * (var + (n - nbar) ** 2)))


# ---------------------------------------------------------------------------
# metric dispatch (shared by the CLI and the test harness)
# ---------------------------------------------------------------------------

PURE_ONLY = ("fs", "minimal", "wootters")

# CLI metric name -> kernel(a, b, p); p is the power of hs-p, which no other kernel reads
METRICS = {
    "fs": lambda a, b, p: pure_state_distance(a, b, "fs"),
    "minimal": lambda a, b, p: pure_state_distance(a, b, "minimal"),
    "wootters": lambda a, b, p: pure_state_distance(a, b, "wootters"),
    "hs": lambda a, b, p: hilbert_schmidt(a, b),
    "jmg": lambda a, b, p: jmg_distance(a, b),
    "bu": lambda a, b, p: bures_uhlmann(a, b),
    "hs-p": modified_hs,
    "dn": lambda a, b, p: polarized(a, b, np.arange(a.dim, dtype=float)),
    "dn-sqrt": lambda a, b, p: polarized_sqrt(a, b, np.arange(a.dim, dtype=float)),
    "DZ": lambda a, b, p: quasidistance_DZ(a, b, np.arange(a.dim, dtype=float)),
    "Da": lambda a, b, p: quasidistance_Da(a, b),
}


def evaluate_metric(name, a, b) -> DistanceReport:
    """Compute a named metric between two states.

    ``a`` and ``b`` are states of any kind and equal dimension, passed
    to the kernels as given.  The pure-only metrics (fs, minimal,
    wootters) reject mixed input.  The name is read by
    ``closed_forms.parse_metric``: only ``hs-p`` takes a ``:<p>``
    suffix, its power (1/2 when absent).
    """
    base, p = parse_metric(name)
    if base in PURE_ONLY and not _pure_pair(a, b):
        raise UnsupportedCombinationError(f"metric {base!r} needs two pure states")
    return DistanceReport(METRICS[base](a, b, p))
