"""Quadrature tomograms and classical-like distances built on them.

A tomogram w_{mu nu}(X) is the probability density of the quadrature
mu*q + nu*p.  ``_marginals`` is the one route to it.  A Gaussian state
(coherent, squeezed vacuum, thermal) has a normal tomogram at every angle,
fixed by <a>, <a^2> and <adag a> (Mancini, Man'ko & Tombesi, Phys. Lett. A
213, 1 (1996)): it reads those from its family record (``Family.ladder``)
and the mean and spread at each angle from ``states.quadrature_moments``,
and builds no state.  Every other state, number states included, reads the
Fock-basis form of the unit-radius marginal,
w_theta(X) = <X| e^{-i theta N} rho e^{i theta N} |X>, from the oscillator
eigenfunctions and the state's factor; ``marginal_analytic`` is the one-row
case of both at any (mu, nu).  ``marginal_from_wigner`` stays as an
independent reference: the line integral of a Wigner grid, read by the
projection-slice identity (the tomogram's Fourier transform in X is W's
characteristic function along a ray; Vogel & Risken, PRA 40, 2847
(1989)) on the grid's own trapezoid rule.  The X grids here, and only
they, take Simpson weights (``simpson_weights``).

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
second moments <a>, <a^2> and <adag a> (the Gaussian records' closed
forms, or ``states.ladder_moments`` of the built state); a pair with no such angle
keeps the uniform (trapezoidal, spectrally accurate on the periodic
angle) rule.  The same moments place each node's X grid.  Because the
nodes depend on the pair, the computed distances obey the triangle
inequality up to quadrature error.

The nodes are evaluated as blocks of 2-d arrays, one row per node: one
padded array of X grids (``_x_rows``, whose one-row case is
``default_x_grid``) with zero Simpson weights on the padding, each
state's marginals over the whole block (the Fock-basis route walks the
eigenfunction levels once over it and builds no table), one normalization
that checks every row's mass (``_normalized``, which ``Tomogram`` also calls) and one
row-wise divergence (``_divergences``, which ``classical_divergence``
also calls).  A block holds at most ``NODE_BLOCK`` grid points, and a row
at most ``MAX_X_POINTS``: the X rule refuses a wider row, and a spread of
0, before any array is allocated.  A state
diagonal in the Fock basis has the same tomogram at every angle, since
e^{-i theta N} commutes with it; for two such states every node has the
same grid and the same integrand, so one node at theta = 0 with weight
2 pi is the angular integral, exactly.
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
from .phase_space import MASS_TOL, QuasiDistribution, _gauss_legendre, _oscillator_levels, trapezoid_weights
from .states import (
    FAMILIES, StateSpec, adaptive_dim, build_state, ladder_moments, quadrature_moments,
)

X_POINTS = 1025
X_SIGMAS = 10.0
VACUUM_SIGMA = math.sqrt(0.5)  # quadrature standard deviation of the vacuum at unit radius
MOMENT_TOL = 1e-9  # |difference| of <a> or <a^2> below which the two are taken as equal
# most angular nodes a distance takes; leggauss builds an m x m matrix per panel
MAX_ANGULAR_NODES = 4096
# X grid points a block of angular nodes holds: 128 kB per array, so the arrays a block works on stay
# in a core's cache (blocks of 8x this ran the benchmark's analytic tomography ops 1.4x slower)
NODE_BLOCK = 16384
# X grid points one row may hold: above the 53,099 of the widest pair of coherent states (|alpha| < 256)
MAX_X_POINTS = 1 << 16


def simpson_weights(n: int, h: float) -> np.ndarray:
    """Composite Simpson weights; odd n required."""
    if n < 3 or n % 2 == 0:
        raise GridError(f"composite Simpson needs an odd point count >= 3, got {n}")
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-2:2] = 2.0
    return w * (h / 3.0)


def _integrals(weights: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Each row of ``f`` integrated with the weights of its row."""
    return np.einsum("ij,ij->i", weights, f)


def _normalized(weights: np.ndarray, w: np.ndarray):
    """The rows of ``w`` divided in place by their Simpson masses, and |mass - 1| per row: the one mass check.

    A negative density is refused, and so is a row whose mass misses 1 by
    more than ``MASS_TOL``: its X grid misses the state.
    """
    if w.min() < 0.0:
        raise StateValidationError(f"negative tomogram density {w.min():.3e}")
    mass = _integrals(weights, w)
    miss = np.abs(mass - 1.0)
    if not (miss <= MASS_TOL).all():
        worst = float(mass[np.argmax(~(miss <= MASS_TOL))])
        raise GridError(f"tomogram mass {worst!r} misses 1 by more than {MASS_TOL}; the X grid misses the state")
    w /= mass[:, None]
    return w, miss


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
        (w,), (defect,) = _normalized(simpson_weights(x.size, x[1] - x[0])[None], w[None])
        x.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "quadrature_defect", float(defect))


def _grid_rule(mean_lo: np.ndarray, mean_hi: np.ndarray, sigma, sigma_max: np.ndarray):
    """First and last points and point counts of the X grids of ``default_x_grid``, entrywise.

    The counts are formed in floating point and refused past ``MAX_X_POINTS``
    before they are cast to int, so no row overflows the cast or the memory.
    """
    lo = mean_lo - X_SIGMAS * sigma
    hi = mean_hi + X_SIGMAS * sigma
    step = 2.0 * X_SIGMAS * sigma / (X_POINTS - 1)
    n = np.maximum(X_POINTS, np.ceil((hi - lo) / step) + 1)
    n += 1 - n % 2
    h = (hi - lo) / (n - 1)
    extra = 2 * np.ceil(X_SIGMAS * np.maximum(sigma_max - sigma, 0.0) / (2.0 * h))
    num = n + 2 * extra
    if not (num <= MAX_X_POINTS).all():
        raise GridError(f"an X grid needs {num.max():.6g} points, more than {MAX_X_POINTS}")
    return lo - extra * h, hi + extra * h, num.astype(int)


def _x_rows(start: np.ndarray, stop: np.ndarray, num: np.ndarray):
    """The grids np.linspace(start, stop, num) as the rows of one array, and their Simpson weights.

    Each row runs on at its own step past its last point to the longest
    row's length, with weights 0 there; up to its last point each row and
    its weights equal that linspace and ``simpson_weights`` on it, bit for bit.
    """
    k, rows, last = np.arange(num.max()), np.arange(num.size), num - 1
    x = k * ((stop - start) / last)[:, None]
    x += start[:, None]
    x[rows, last] = stop  # as linspace sets it
    h3 = (x[:, 1] - x[:, 0]) / 3.0
    weights = simpson_weights(k.size, 3.0) * h3[:, None]  # 1, 4, 2, ..., 2, 4, 1 times h/3
    np.copyto(weights, 0.0, where=k > last[:, None])
    weights[rows, last] = h3
    return x, weights


def default_x_grid(mean_lo: float, mean_hi: float, sigma: float, sigma_max: float = 0.0) -> np.ndarray:
    """Uniform grid covering [mean_lo - 10 sigma, mean_hi + 10 sigma]: the one-row case of ``_x_rows``.

    The spacing is kept at (20 sigma)/1024 regardless of how far apart
    the two means sit, so well-separated peaks stay resolved.  When
    ``sigma_max``, the larger standard deviation of the densities the
    grid must hold, exceeds ``sigma``, the grid is widened on each side
    by an even number of whole steps until it covers 10 sigma_max beyond
    the means; the spacing, and the nodes and Simpson weights inside the
    unwidened span, stay as they are.
    """
    x, _ = _x_rows(*_grid_rule(np.array([mean_lo]), np.array([mean_hi]), sigma, np.array([sigma_max])))
    return x[0]


def marginal_analytic(spec: StateSpec, mu: float, nu: float, x: np.ndarray) -> Tomogram:
    """Tomogram of any state at (mu, nu): the one-row case of ``_marginals``.

    With r^2 = mu^2 + nu^2 and theta = atan2(nu, mu) it is w_theta(X/r)/r,
    w_theta the unit-radius marginal: for a coherent, squeezed or thermal
    state the normal density of the mean and spread ``quadrature_moments``
    gives at theta, so a Gaussian of variance r^2/2 for a coherent state;
    psi_n(X/r)^2 / r for the number state |n>, psi_n the oscillator
    eigenfunction; the Fock-basis sum over the state's levels for any other.
    """
    r = math.hypot(mu, nu)
    if r * r <= 1e-12:
        raise StateValidationError("(mu, nu) must not vanish")
    x = np.asarray(x, dtype=float)
    w = _marginals(spec)[2](np.array([math.atan2(nu, mu)]), x[None] / r)[0] / r
    return Tomogram(mu, nu, x, w)


def marginal_from_wigner(qd: QuasiDistribution, mu: float, nu: float, x: np.ndarray) -> Tomogram:
    """Tomogram of a Wigner grid by the projection-slice identity, on the grid's own trapezoid rule.

    With r^2 = mu^2 + nu^2, e = (mu, nu)/r and q, p measured from the
    window's centre c, the Fourier transform in X of the tomogram is
    W's characteristic function along the ray t e,
    chi(t) = sum_jl a_j b_l W_jl e^{-it(e_q q_j + e_p p_l)} / (2 pi), with
    a, b the trapezoid weights of ``grid_integral``: two products with
    the grid's axes, at t = 0, pi/vmax, ... up to pi/max(dq, dp), the
    grid's Nyquist frequency on both axes, where vmax is half the
    window's diagonal.  Then w(X) = (1/(pi r)) int_0 Re(chi(t) e^{ity}) dt
    with y = X/r - e.c, on the trapezoid rule of the same nodes, whose
    period in y is 2 vmax: the window holds W's whole line integral
    for |y| <= vmax, and w = 0 beyond.  The grid fixes the rule.
    Rounding-level negatives are clipped; the Simpson mass defect on
    the X grid is kept on the tomogram.
    """
    if qd.s != 0:
        raise UnsupportedCombinationError("marginals are defined from the s = 0 distribution")
    r = math.hypot(mu, nu)
    if r * r <= 1e-12:
        raise StateValidationError("(mu, nu) must not vanish")
    g = qd.grid
    c_q, c_p = 0.5 * (g.q_min + g.q_max), 0.5 * (g.p_min + g.p_max)
    vmax = 0.5 * math.hypot(g.q_max - g.q_min, g.p_max - g.p_min)
    nt = int(vmax / max(g.dq, g.dp)) + 1
    t = np.arange(nt) * (math.pi / vmax)
    u = np.exp(np.outer(t, -1j * mu / r * (g.q_axis - c_q))) * trapezoid_weights(g.nq, g.dq)
    v = np.exp(np.outer(t, -1j * nu / r * (g.p_axis - c_p))) * trapezoid_weights(g.n_p, g.dp)
    chi = np.einsum("kl,kl->k", u @ qd.values, v) * (trapezoid_weights(nt, math.pi / vmax) / (2.0 * math.pi))
    y = (np.asarray(x, dtype=float) - (mu * c_q + nu * c_p)) / r
    w = np.outer(y, 1j * t)
    w = (np.exp(w, out=w) @ chi).real / (math.pi * r)  # in place: with a long X grid this is the largest array
    w[np.abs(y) > vmax] = 0.0
    lo = float(w.min())
    if lo < -1e-4 * max(float(w.max()), 1e-30):
        raise GridError(f"line integral went negative ({lo:.3e}); refine the Wigner grid")
    return Tomogram(mu, nu, x, np.clip(w, 0.0, None))


# ---------------------------------------------------------------------------
# classical divergences on a shared X grid
# ---------------------------------------------------------------------------

KULLBACK_FLOOR = 1e-300
KULLBACK_CUT = 1e-15  # points where both densities sit below this are dropped


def _divergences(weights: np.ndarray, p: np.ndarray, q: np.ndarray, kind: str) -> np.ndarray:
    """Each row's divergence between the normalized densities p and q, on X grids with these Simpson weights."""
    if kind == "hellinger":
        return np.sqrt(_integrals(weights, (np.sqrt(p) - np.sqrt(q)) ** 2))  # squares, positive weights
    if kind == "kolmogorov":
        return _integrals(weights, np.abs(p - q))
    if kind == "bhattacharyya":
        return -np.log(np.clip(_integrals(weights, np.sqrt(p * q)), KULLBACK_FLOOR, 1.0))
    keep = (p >= KULLBACK_CUT) | (q >= KULLBACK_CUT)
    ratio = np.log(np.maximum(p, KULLBACK_FLOOR) / np.maximum(q, KULLBACK_FLOOR))
    return _integrals(weights * keep, (p - q) * ratio)


def classical_divergence(wa: Tomogram, wb: Tomogram, kind: str) -> float:
    """Divergence between two tomograms on the same X grid: the one-row case of ``_divergences``."""
    if not np.array_equal(wa.x, wb.x):
        raise GridError("tomograms live on different X grids")
    if kind not in DIVERGENCE_KINDS:
        raise StateValidationError(f"unknown divergence kind {kind!r}")
    weights = simpson_weights(wa.x.size, wa.x[1] - wa.x[0])
    return float(_divergences(weights[None], wa.w[None], wb.w[None], kind)[0])


# ---------------------------------------------------------------------------
# the (mu, nu)-plane distance
# ---------------------------------------------------------------------------

def _marginals(spec: StateSpec):
    """The state's ladder moments (<a>, <a^2>, <adag a>), whether it is diagonal, and its marginal.

    The marginal w(thetas, x) gives the unnormalized unit-radius tomogram
    at each angle of ``thetas`` on the matching row of ``x``.  A Gaussian
    state (its record sets ``ladder``: coherent, squeezed vacuum, thermal)
    builds no state: its moments are the record's closed forms, and its
    marginal is the normal density whose mean and spread
    ``quadrature_moments`` gives at each angle, the one formula that also
    places the X grids.  It is diagonal when <a> = <a^2> = 0, since a
    zero-mean Gaussian with <a^2> = 0 is thermal (the vacuum at n = 0).
    Every other state, number states included, is bounded by
    ``adaptive_dim``, as on every other route, before any eigenfunction
    is evaluated, is diagonal exactly when its factor (``fock_core``) is
    1-d, and reads <X| e^{-i theta N} rho e^{i theta N} |X> off that
    factor in one walk of the eigenfunction levels over the whole block:
    w(X) = sum_n p_n psi_n(X)^2 at every angle for the populations p_n,
    w_theta(X) = |sum_n psi_n(X) e^{-i n theta} c_n|^2 for a pure state's
    one column c, with e^{-i n theta} evaluated afresh at each level.
    """
    family = FAMILIES[spec.family]
    if family.ladder is not None:
        moments = family.ladder(spec)

        def gaussian(thetas, x):
            mean, sigma = quadrature_moments(moments, thetas)
            w = x - mean[:, None]
            w /= sigma[:, None]  # in place: over a block of angular nodes these are large arrays
            w *= w
            w *= -0.5
            np.exp(w, out=w)
            w /= math.sqrt(2.0 * math.pi) * sigma[:, None]
            return w

        return moments, moments[0] == 0 and moments[1] == 0, gaussian
    state = build_state(spec, adaptive_dim(spec))
    f = state.factor(1.0)

    def fock_basis(thetas, x):
        levels = zip(f, _oscillator_levels(x))
        if f.ndim == 1:
            w = np.zeros_like(x)
            for pn, level in levels:
                w += pn * level**2
            return w
        re, im = np.zeros_like(x), np.zeros_like(x)
        for n, ((cn,), level) in enumerate(levels):  # a pure state's factor is one column
            rotated = np.exp(-1j * thetas * n) * cn
            re += rotated.real[:, None] * level
            im += rotated.imag[:, None] * level
        return re * re + im * im

    return ladder_moments(state), f.ndim == 1, fock_basis


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
        t, w = _gauss_legendre(int(m))
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

    The nodes are evaluated in blocks of at most ``NODE_BLOCK`` grid
    points, all of a block's rows at once, and D = sum of node weight x
    d_kind.  When both states are diagonal in the Fock basis, both
    tomograms, and so the grid and the integrand, are the same at every
    angle: the rule is then the uniform one at a single node, theta = 0
    with weight 2 pi, which is the angular integral exactly.
    """
    if kind not in DIVERGENCE_KINDS:
        raise StateValidationError(f"unknown divergence kind {kind!r}")
    if not 1 <= angular_nodes <= MAX_ANGULAR_NODES:
        raise StateValidationError(f"angular_nodes must lie in [1, {MAX_ANGULAR_NODES}], got {angular_nodes}")
    moments_a, diagonal_a, marginal_a = _marginals(spec_a)
    moments_b, diagonal_b, marginal_b = _marginals(spec_b)
    nodes = 1 if diagonal_a and diagonal_b else angular_nodes
    thetas, tweights = _angular_rule(_kink_angles(moments_a, moments_b), nodes)
    (ma, sa), (mb, sb) = quadrature_moments(moments_a, thetas), quadrature_moments(moments_b, thetas)
    if not (np.minimum(sa, sb) > 0.0).all():
        raise GridError("a tomogram has spread 0 at some angle, which no X grid resolves")
    start, stop, num = _grid_rule(np.minimum(ma, mb), np.maximum(ma, mb), VACUUM_SIGMA, np.maximum(sa, sb))
    rows = max(1, NODE_BLOCK // int(num.max()))
    order = np.argsort(num, kind="stable")  # rows of like length share a block, so little of it is padding
    d = np.empty(thetas.size)
    for i in range(0, thetas.size, rows):
        block = order[i:i + rows]
        x, weights = _x_rows(start[block], stop[block], num[block])
        (pa, _), (pb, _) = (_normalized(weights, marginal(thetas[block], x)) for marginal in (marginal_a, marginal_b))
        d[block] = _divergences(weights, pa, pb, kind)
    return float(tweights @ d)
