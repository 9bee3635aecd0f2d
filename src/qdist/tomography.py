"""Quadrature tomograms and classical-like distances built on them.

A tomogram w_{mu nu}(X) is the probability density of the quadrature
mu*q + nu*p.  ``_marginals`` picks each state's route from its family's
record: the closed forms of ``marginal_analytic`` for number and coherent
states, and for any other state the Fock-basis form of the unit-radius marginal,
w_theta(X) = <X| e^{-i theta N} rho e^{i theta N} |X> (Mancini, Man'ko
& Tombesi, Phys. Lett. A 213, 1 (1996)), from the oscillator
eigenfunctions and the state's factor.  ``marginal_from_wigner``, a
numerical line integral of a Wigner grid, stays as an independent reference.

The distance between two states averages a classical divergence between
their tomogram families over the (mu, nu) plane with the normalized
radial weight g(R) = 2 exp(-R^2).  Every divergence offered here is an
f-divergence, unchanged under X -> X/R, and w_{R c, R s}(X) =
w_{c, s}(X/R)/R, so the radial integral is exactly the angular integral
at R = 1, which is what is evaluated.  The per-angle divergence has a
|cos|-type kink wherever the two tomograms coincide, which would cut a
uniform rule down to O(nodes^-2) (Trefethen & Weideman, SIAM Rev. 56
(2014)).  So the angular nodes are Gauss-Legendre panels split at the
angles where the tomograms can coincide, read off the states' first and
second moments <a>, <a^2> and <adag a> (``states.ladder_moments``, or
closed forms for number and coherent states); a pair with no such angle
keeps the uniform (trapezoidal, spectrally accurate on the periodic
angle) rule.  The same moments place each node's X grid.  Because the nodes depend on the pair, the computed distances obey
the triangle inequality up to quadrature error.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .closed_forms import DIVERGENCE_KINDS
from .errors import (
    GridError,
    StateValidationError,
    UnsupportedCombinationError,
)
from .phase_space import MASS_TOL, QuasiDistribution, oscillator_eigenfunctions, simpson_weights
from .states import (
    FAMILIES, StateSpec, adaptive_dim, build_state, ladder_moments, quadrature_moments,
)

X_POINTS = 1025
X_SIGMAS = 10.0
VACUUM_SIGMA = math.sqrt(0.5)  # quadrature standard deviation of the vacuum at unit radius
MOMENT_TOL = 1e-9  # |difference| of <a> or <a^2> below which the two are taken as equal
# most angular nodes a distance takes; leggauss builds an m x m matrix per panel
MAX_ANGULAR_NODES = 4096


@dataclass(frozen=True)
class Tomogram:
    """Nonnegative quadrature density on a uniform X grid for fixed (mu, nu).

    ``w`` is stored divided by its Simpson mass, which must lie within ``MASS_TOL`` of 1.
    """

    mu: float
    nu: float
    x: np.ndarray
    w: np.ndarray
    quadrature_defect: float = field(init=False)  # |mass - 1| before normalization

    def __post_init__(self):
        if self.mu * self.mu + self.nu * self.nu <= 1e-12:
            raise StateValidationError("(mu, nu) must not vanish")
        x = np.array(self.x, dtype=float)
        w = np.array(self.w, dtype=float)
        if x.ndim != 1 or x.shape != w.shape or x.size < 3:
            raise StateValidationError("x and w must be matching 1-d arrays")
        if w.min() < 0.0:
            raise StateValidationError(f"negative tomogram density {w.min():.3e}")
        mass = float(simpson_weights(x.size, x[1] - x[0]) @ w)
        if not abs(mass - 1.0) <= MASS_TOL:
            raise GridError(f"tomogram mass {mass!r} misses 1 by more than {MASS_TOL}; the X grid misses the state")
        w /= mass
        x.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "quadrature_defect", abs(mass - 1.0))


def default_x_grid(mean_lo: float, mean_hi: float, sigma: float, sigma_max: float = 0.0) -> np.ndarray:
    """Uniform grid covering [mean_lo - 10 sigma, mean_hi + 10 sigma].

    The spacing is kept at (20 sigma)/1024 regardless of how far apart
    the two means sit, so well-separated peaks stay resolved.  When
    ``sigma_max``, the larger standard deviation of the densities the
    grid must hold, exceeds ``sigma``, the grid is widened on each side
    by an even number of whole steps until it covers 10 sigma_max beyond
    the means; the spacing, and the nodes and Simpson weights inside the
    unwidened span, stay as they are.
    """
    lo = mean_lo - X_SIGMAS * sigma
    hi = mean_hi + X_SIGMAS * sigma
    step = 2.0 * X_SIGMAS * sigma / (X_POINTS - 1)
    n = max(X_POINTS, int(math.ceil((hi - lo) / step)) + 1)
    if n % 2 == 0:
        n += 1
    h = (hi - lo) / (n - 1)
    extra = 2 * math.ceil(X_SIGMAS * max(sigma_max - sigma, 0.0) / (2.0 * h))
    return np.linspace(lo - extra * h, hi + extra * h, n + 2 * extra)


def marginal_analytic(spec: StateSpec, mu: float, nu: float, x: np.ndarray) -> Tomogram:
    """Closed-form tomogram of a number or coherent state: its family record's ``density``.

    Vacuum and coherent states give Gaussians of variance
    (mu^2 + nu^2)/2; the number state |n> gives psi_n(X/r)^2 / r with
    psi_n the oscillator eigenfunction and r^2 = mu^2 + nu^2.
    """
    r2 = mu * mu + nu * nu
    if r2 <= 1e-12:
        raise StateValidationError("(mu, nu) must not vanish")
    x = np.asarray(x, dtype=float)
    density = FAMILIES[spec.family].density
    if density is None:
        raise UnsupportedCombinationError(f"no closed-form tomogram for {spec.family!r}")
    return Tomogram(mu, nu, x, density(spec, mu, nu, x))


def marginal_from_wigner(qd: QuasiDistribution, mu: float, nu: float, x: np.ndarray) -> Tomogram:
    """Tomogram as a line integral of a Wigner grid.

    For each X the density is (2 pi r)^{-1} times the integral of W
    along the line mu q + nu p = X (r^2 = mu^2 + nu^2), evaluated by
    cubic interpolation of the grid and Simpson quadrature along the
    rotated coordinate.  The result is clipped of interpolation-level
    negatives and renormalized; the pre-normalization defect is kept on
    the tomogram for convergence monitoring.
    """
    from scipy.ndimage import map_coordinates

    if qd.s != 0:
        raise UnsupportedCombinationError("marginals are defined from the s = 0 distribution")
    r = math.hypot(mu, nu)
    if r * r <= 1e-12:
        raise StateValidationError("(mu, nu) must not vanish")
    g = qd.grid
    x = np.asarray(x, dtype=float)
    e_q, e_p = mu / r, nu / r
    vmax = 0.5 * math.hypot(g.q_max - g.q_min, g.p_max - g.p_min)
    step = 0.5 * min(g.dq, g.dp)
    nv = int(2.0 * vmax / step) + 1
    if nv % 2 == 0:
        nv += 1
    v = np.linspace(-vmax, vmax, nv)
    wv = simpson_weights(nv, v[1] - v[0])
    # grid coordinates of the sample points (X/r) e + v e_perp
    qs = np.add.outer(x / r * e_q, -v * e_p)
    ps = np.add.outer(x / r * e_p, v * e_q)
    ci = (qs - g.q_min) / g.dq
    cj = (ps - g.p_min) / g.dp
    samples = map_coordinates(qd.values, [ci.ravel(), cj.ravel()], order=3, mode="constant", cval=0.0)
    w = (samples.reshape(qs.shape) @ wv) / (2.0 * math.pi * r)
    lo = float(w.min())
    if lo < -1e-4 * max(float(w.max()), 1e-30):
        raise GridError(f"line integral went negative ({lo:.3e}); refine the Wigner grid")
    return Tomogram(mu, nu, x, np.clip(w, 0.0, None))


# ---------------------------------------------------------------------------
# classical divergences on a shared X grid
# ---------------------------------------------------------------------------

KULLBACK_FLOOR = 1e-300
KULLBACK_CUT = 1e-15  # points where both densities sit below this are dropped


def classical_divergence(wa: Tomogram, wb: Tomogram, kind: str) -> float:
    """Divergence between two tomograms on the same X grid."""
    if not np.array_equal(wa.x, wb.x):
        raise GridError("tomograms live on different X grids")
    if kind not in DIVERGENCE_KINDS:
        raise StateValidationError(f"unknown divergence kind {kind!r}")
    weights = simpson_weights(wa.x.size, wa.x[1] - wa.x[0])
    p, q = wa.w, wb.w
    if kind == "hellinger":
        return math.sqrt(float(weights @ (np.sqrt(p) - np.sqrt(q)) ** 2))  # squares, positive weights
    if kind == "kolmogorov":
        return float(weights @ np.abs(p - q))
    if kind == "bhattacharyya":
        aff = float(weights @ np.sqrt(p * q))
        return -math.log(min(max(aff, KULLBACK_FLOOR), 1.0))
    keep = (p >= KULLBACK_CUT) | (q >= KULLBACK_CUT)
    ratio = np.log(np.maximum(p, KULLBACK_FLOOR) / np.maximum(q, KULLBACK_FLOOR))
    return float((weights * keep) @ ((p - q) * ratio))


# ---------------------------------------------------------------------------
# the (mu, nu)-plane distance
# ---------------------------------------------------------------------------

def _marginals(spec: StateSpec):
    """The state's ladder moments (<a>, <a^2>, <adag a>) and its unit-radius tomogram w(theta, x).

    Number and coherent states read their record's closed-form ladder
    moments and ``marginal_analytic``; a number state is bounded by
    ``adaptive_dim``, as on every other route, before any eigenfunction table.  Any other state reads
    <X| e^{-i theta N} rho e^{i theta N} |X> in the Fock basis off its
    factor (``fock_core``).  A 2-d W gives w_theta(X) =
    sum_j |sum_n psi_n(X) e^{-i n theta} W_nj|^2, one column for a pure
    state.  A 1-d factor, the populations p_n of a diagonal rho, gives the
    same marginal at every angle: w(X) = sum_n p_n psi_n(X)^2,
    O(points x dim) per node.
    """
    ladder = FAMILIES[spec.family].ladder
    if ladder is not None:
        return ladder(spec), lambda theta, x: marginal_analytic(spec, math.cos(theta), math.sin(theta), x)
    state = build_state(spec, adaptive_dim(spec))
    f = state.factor(1.0)

    def fock_basis(theta, x):
        psi = oscillator_eigenfunctions(x, f.shape[0])
        if f.ndim == 1:
            w = psi**2 @ f
        else:
            v = np.exp(-1j * theta * np.arange(f.shape[0]))[:, None] * f
            w = ((psi @ v.real) ** 2 + (psi @ v.imag) ** 2).sum(axis=1)
        return Tomogram(math.cos(theta), math.sin(theta), x, w)

    return ladder_moments(state), fock_basis


def _kink_angles(moments_a, moments_b) -> np.ndarray:
    """Sorted angles in [0, 2 pi) where the two tomograms can coincide.

    The per-angle divergence has a |cos|-type kink wherever the two
    tomograms coincide.  Equal tomograms need equal means
    sqrt(2) Re(<a> e^{-i theta}), which vanish in difference at two
    antipodal angles.  When the means agree at every angle, the
    variances (see ``states.quadrature_moments``) must agree too,
    which happens at up to four angles.  When the variances agree at
    every angle as well (a rotation-invariant pair, say), no angle is
    singled out.
    """
    (ma, a2a, na), (mb, a2b, nb) = moments_a, moments_b
    dm = ma - mb
    if abs(dm) > MOMENT_TOL:
        base = cmath.phase(dm) + 0.5 * math.pi
        angles = [base, base + math.pi]
    else:
        dn = (na - abs(ma) ** 2) - (nb - abs(mb) ** 2)
        da = (a2a - ma * ma) - (a2b - mb * mb)
        if abs(da) <= MOMENT_TOL or abs(dn) > abs(da):
            return np.empty(0)
        half = 0.5 * math.acos(-dn / abs(da))
        base = 0.5 * cmath.phase(da)
        angles = [base + sign * half + k * math.pi for sign in (1.0, -1.0) for k in (0, 1)]
    return np.unique(np.mod(angles, 2.0 * math.pi))


def _angular_rule(kinks: np.ndarray, nodes: int):
    """Nodes and weights on [0, 2 pi) for an integrand kinked at ``kinks``.

    Without kinks this is the uniform (trapezoidal) rule, spectrally
    accurate for a smooth periodic integrand.  Otherwise the circle is
    cut into panels at the kinks, each panel gets one Gauss-Legendre
    node plus a share of the rest in proportion to its length (largest
    remainder), and each panel's integrand is smooth again.
    """
    if kinks.size == 0 or nodes < kinks.size:
        return 2.0 * math.pi * np.arange(nodes) / nodes, np.full(nodes, 2.0 * math.pi / nodes)
    edges = np.append(kinks, kinks[0] + 2.0 * math.pi)
    lengths = np.diff(edges)
    share = (nodes - kinks.size) * lengths / (2.0 * math.pi)
    counts = 1 + np.floor(share).astype(int)
    counts[np.argsort(np.floor(share) - share)[: nodes - counts.sum()]] += 1
    thetas, weights = [], []
    for lo, length, m in zip(edges, lengths, counts):
        t, w = np.polynomial.legendre.leggauss(int(m))
        thetas.append(lo + 0.5 * length * (t + 1.0))
        weights.append(0.5 * length * w)
    return np.concatenate(thetas), np.concatenate(weights)


def tomographic_distance(
    spec_a: StateSpec,
    spec_b: StateSpec,
    kind: str = "hellinger",
    angular_nodes: int = 64,
) -> float:
    """Average of a tomogram divergence over the (mu, nu) plane.

    D = int R dR g(R) int dtheta d_kind(w_a, w_b) with the normalized
    weight g(R) = 2 exp(-R^2).  Every d_kind is an f-divergence and so
    takes the same value at every radius, so D is evaluated exactly as
    the angular integral at R = 1.  The angular rule places its
    ``angular_nodes`` nodes (at most ``MAX_ANGULAR_NODES``, checked
    before any node is placed) as Gauss-Legendre panels split at the angles
    where the two tomograms can coincide (see ``_kink_angles``), where
    d_kind has a kink that would cut a uniform rule down to
    O(nodes^-2); without such angles it is the uniform rule.  At each
    node the X grid covers 10 standard deviations of the broader state
    beyond both means.  When d_kind satisfies the triangle inequality
    pointwise (Hellinger, Kolmogorov), so does the exact D; the computed
    values obey it up to quadrature error, since the nodes depend on the
    pair.
    """
    if kind not in DIVERGENCE_KINDS:
        raise StateValidationError(f"unknown divergence kind {kind!r}")
    if not 1 <= angular_nodes <= MAX_ANGULAR_NODES:
        raise StateValidationError(f"angular_nodes must lie in [1, {MAX_ANGULAR_NODES}], got {angular_nodes}")
    (moments_a, tomogram_a), (moments_b, tomogram_b) = _marginals(spec_a), _marginals(spec_b)
    thetas, tweights = _angular_rule(_kink_angles(moments_a, moments_b), angular_nodes)
    total = 0.0
    for theta, tw in zip(thetas, tweights):
        (ma, sa), (mb, sb) = (quadrature_moments(m, theta) for m in (moments_a, moments_b))
        x = default_x_grid(min(ma, mb), max(ma, mb), VACUUM_SIGMA, max(sa, sb))
        total += tw * classical_divergence(tomogram_a(theta, x), tomogram_b(theta, x), kind)
    return total

