"""Distance and quasidistance functionals on truncated states.

Covers the pure-state distances (Fubini-Study, minimal, Wootters
angle), the trace-norm distance, the Bures-Uhlmann distance, the
Hilbert-Schmidt distance with its f(rho) modifications and moment-series
form, the polarized (reference-operator weighted) variants, and the two
variance-like quasidistances.  The reference operator Z of the
polarized forms is diagonal in the number basis and is passed as its
diagonal, a weight vector.  ``METRICS`` maps each CLI metric name to
its kernel.  All functions are pure and operate on ``FockVector`` /
``DensityOperator`` values of equal dimension: the density-operator
kernels read only ``mat`` and ``dim``, which a ``FockVector`` gives as
its projector, so they take either kind.
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
    TruncationInfeasibleError,
    UnsupportedCombinationError,
)
from .fock_core import (
    MAX_DENSE_DIM,
    FockVector,
    hermitian_sqrt,
    psd_power,
    trace_norm,
    trace_product,
)
from .states import MomentTable, inv_sqrt_factorials, moment_table

# Squared distances are clamped at zero before the square root; a
# negative square larger than this raises instead.
CLAMP_WARN = 1e-9


@dataclass
class DistanceReport:
    """A metric value plus the bookkeeping the CLI prints."""

    kind: str
    value: float
    dim: int


def _clamped_sqrt(sq: float) -> float:
    if sq < -CLAMP_WARN:
        raise NumericalToleranceError(f"squared distance {sq:.3e} below -{CLAMP_WARN}")
    return math.sqrt(max(sq, 0.0))


def _check_dims(r1, r2):
    if r1.dim != r2.dim:
        raise DimensionMismatchError(f"dims {r1.dim} != {r2.dim}")


# ---------------------------------------------------------------------------
# pure-state distances
# ---------------------------------------------------------------------------

def pure_state_distance(a: FockVector, b: FockVector, kind: str = "fs") -> float:
    """Distance between rays: fs (Fubini-Study), minimal, or wootters.

    minimal = ||a - e^{i phi} b|| with e^{i phi} <a|b> = |<a|b>| = o, which
    unlike 1 - o does not cancel; fs = minimal sqrt(1 + o) and
    wootters = 2 asin(minimal / 2) follow from it.
    """
    ov = a.overlap(b)  # checks the dims
    o = min(abs(ov), 1.0)
    phase = ov.conjugate() / abs(ov) if ov != 0 else 1.0
    minimal = float(np.linalg.norm(a.amp - phase * b.amp))
    if kind == "fs":
        return minimal * math.sqrt(1.0 + o)
    if kind == "minimal":
        return minimal
    if kind == "wootters":
        return 2.0 * math.asin(min(0.5 * minimal, 1.0))
    raise StateValidationError(f"unknown pure-state distance kind {kind!r}")


# ---------------------------------------------------------------------------
# density-operator distances
# ---------------------------------------------------------------------------

def hilbert_schmidt(r1, r2) -> float:
    """sqrt(Tr rho1^2 + Tr rho2^2 - 2 Tr rho1 rho2) <= sqrt(2); FockVector or DensityOperator."""
    sq = trace_product(r1, r1) + trace_product(r2, r2) - 2.0 * trace_product(r1, r2)
    d = _clamped_sqrt(sq)
    if d > math.sqrt(2.0) + 1e-9:
        raise NumericalToleranceError(f"Hilbert-Schmidt distance {d!r} exceeds sqrt(2)")
    return d


def jmg_distance(r1, r2) -> float:
    """Half the trace norm of rho1 - rho2, FockVector or DensityOperator; the best projector test."""
    _check_dims(r1, r2)
    return 0.5 * trace_norm(r1.mat - r2.mat)


def bures_uhlmann(r1, r2) -> float:
    """sqrt(2 - 2 Tr sqrt(sqrt(rho1) rho2 sqrt(rho1))), FockVector or DensityOperator.

    The trace of the nested root equals the nuclear norm of
    sqrt(rho2) sqrt(rho1), which is how it is evaluated: singular
    values are nonnegative by construction, so eigensolver noise in a
    null space cannot get amplified by the outer square root.
    """
    _check_dims(r1, r2)
    s1 = psd_power(r1.mat, 0.5)
    s2 = psd_power(r2.mat, 0.5)
    fid_root = float(np.linalg.svd(s2 @ s1, compute_uv=False).sum())
    return _clamped_sqrt(2.0 - 2.0 * fid_root)


def modified_hs(r1, r2, p: float) -> float:
    """Hilbert-Schmidt distance between rho1^p and rho2^p, p in (0, 1]; FockVector or DensityOperator.

    p = 1 is the plain Hilbert-Schmidt distance; p = 1/2 agrees with
    the Bures-Uhlmann distance whenever the operators commute.
    """
    if not 0.0 < p <= 1.0:
        raise StateValidationError(f"power p must lie in (0, 1], got {p!r}")
    _check_dims(r1, r2)
    # the same thresholded root as Bures-Uhlmann, so the commuting-pair
    # identity at p = 1/2 holds to close to machine precision
    diff = psd_power(r1.mat, p) - psd_power(r2.mat, p)
    return float(np.linalg.norm(diff))


# ---------------------------------------------------------------------------
# polarized distances and quasidistances
# ---------------------------------------------------------------------------

def _check_polarization(r1, r2, z) -> np.ndarray:
    """The weights ``z``, the diagonal of Z, as a float array once they fit both states."""
    _check_dims(r1, r2)
    z = np.asarray(z, dtype=float)
    if z.ndim != 1 or (z < 0).any():
        raise StateValidationError("polarization weights must be 1-d and nonnegative")
    if z.size != r1.dim:
        raise DimensionMismatchError(f"polarization dim {z.size} != state dim {r1.dim}")
    return z


def _weighted_norm(delta: np.ndarray, z: np.ndarray) -> float:
    """sqrt(Tr(Z delta^2)) for a Hermitian delta and the diagonal z of Z."""
    sq = float((z * np.einsum("ij,ji->i", delta, delta).real).sum())
    if sq < -1e-10:
        raise NumericalToleranceError(f"polarized squared distance {sq:.3e} < -1e-10")
    return math.sqrt(max(sq, 0.0))


def polarized(r1, r2, z) -> float:
    """sqrt(Tr(Z [rho1 - rho2]^2)), FockVector or DensityOperator; Z = 1 gives Hilbert-Schmidt.

    ``z`` is the diagonal of the reference operator Z, one nonnegative
    weight per level: ``np.arange(dim, dtype=float)`` for Z = N.
    """
    z = _check_polarization(r1, r2, z)
    return _weighted_norm(r1.mat - r2.mat, z)


def _root(r) -> np.ndarray:
    # a pure state is its own root; only density operators need the eigensolver
    return r.mat if isinstance(r, FockVector) else hermitian_sqrt(r)


def polarized_sqrt(r1, r2, z) -> float:
    """sqrt(Tr(Z [sqrt(rho1) - sqrt(rho2)]^2)); matches `polarized` on pure pairs.

    Either state may be a ``FockVector``, whose root is its own ``mat``.
    Pass pure states that way: the root of a projector taken by the
    eigensolver carries sqrt(eps)-sized noise from its null space, which
    the weight n turns into errors near 1e-7 at dim 496.  Density
    operators keep their unthresholded root, so tiny thermal populations
    count in full.  ``z`` is the diagonal of Z, as in ``polarized``.
    """
    z = _check_polarization(r1, r2, z)
    return _weighted_norm(_root(r1) - _root(r2), z)


def quasidistance_DZ(r1, r2, z) -> float:
    """Variance-like functional Tr(dZd) - Tr(d Z^{1/2} d)^2 / Tr(d^2), d = rho1-rho2.

    FockVector or DensityOperator; ``z`` is the diagonal of Z, as in
    ``polarized``.  Identical states (ratio 0/0) give 0 by convention.
    """
    z = _check_polarization(r1, r2, z)
    delta = r1.mat - r2.mat
    dd = np.einsum("ij,ji->i", delta, delta).real
    t_norm = float(dd.sum())
    if t_norm < 1e-14:
        return 0.0
    t_z = float((z * dd).sum())
    t_zroot = float((np.sqrt(z) * dd).sum())
    sq = t_z - t_zroot * t_zroot / t_norm
    return math.sqrt(max(sq, 0.0))


def quasidistance_Da(r1, r2) -> float:
    """Lowering-operator quasidistance of d = rho1 - rho2; FockVector or DensityOperator."""
    _check_dims(r1, r2)
    delta = r1.mat - r2.mat
    d2 = delta @ delta
    t_norm = float(np.trace(d2).real)
    if t_norm < 1e-14:
        return 0.0
    m = moment_table(d2, 1).m  # Tr(adag^k a^l d^2)
    sq = m[1, 1].real - abs(m[0, 1]) ** 2 / t_norm
    return math.sqrt(max(sq, 0.0))


# ---------------------------------------------------------------------------
# Hilbert-Schmidt distance from moments, and neighbour-state bounds
# ---------------------------------------------------------------------------

def hs_from_moments(m1: MomentTable, m2: MomentTable, s_max: int):
    """Squared-distance series over moment differences, order by order.

    Returns ``(distance, partial_squared)`` where ``partial_squared[s]``
    is the partial sum of the squared distance through order s.  The
    distance is the square root of the final partial sum clamped at 0.
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
    return math.sqrt(max(total, 0.0)), partials


@dataclass(frozen=True)
class HSBounds:
    """Upper bounds on the Hilbert-Schmidt distance to a number state."""

    b0: float
    bn: float
    bvar: float


def hs_bounds(rho, n: int) -> HSBounds:
    """The three neighbour-state bounds to |n><n| of a FockVector or DensityOperator.

    b0 = sqrt(2 nbar) applies only at n = 0; bn and bvar bound the
    distance to |n><n| for any n below the truncation.
    """
    if not 0 <= n < rho.dim:
        raise StateValidationError(f"need 0 <= n < dim, got n={n}")
    p = rho.mat.diagonal().real
    lv = np.arange(rho.dim)
    nbar = float((lv * p).sum())
    n2bar = float((lv * lv * p).sum())
    var = n2bar - nbar * nbar
    b0 = math.sqrt(2.0 * nbar)
    bn = math.sqrt(2.0 * max(p[0] + nbar - n * p[n], 0.0))
    bvar = math.sqrt(2.0 * max(var + (n - nbar) ** 2, 0.0))
    return HSBounds(b0=b0, bn=bn, bvar=bvar)


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

    ``a`` and ``b`` are FockVector or DensityOperator values of equal
    dimension, passed to the kernels as given.  The pure-only metrics
    (fs, minimal, wootters) reject density-operator input; every other
    metric refuses dims above ``MAX_DENSE_DIM`` before any ``mat`` is
    built.  The name is read by ``closed_forms.parse_metric``: only
    ``hs-p`` takes a ``:<p>`` suffix, its power (1/2 when absent).
    """
    base, p = parse_metric(name)
    dim = max(a.dim, b.dim)
    if base in PURE_ONLY:
        if not (isinstance(a, FockVector) and isinstance(b, FockVector)):
            raise UnsupportedCombinationError(f"metric {base!r} needs two pure states")
    elif dim > MAX_DENSE_DIM:
        raise TruncationInfeasibleError(f"dense metric {base!r} stops at dim {MAX_DENSE_DIM}, got {dim}")
    return DistanceReport(base, METRICS[base](a, b, p), a.dim)
