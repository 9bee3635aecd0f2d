"""Quasiprobability grids and phase-space forms of the HS distance.

The Wigner function is evaluated from its defining integral
W(q,p) = int du e^{ipu} <q-u/2| rho |q+u/2>: number states are expanded
in oscillator eigenfunctions on a position grid refined 2x relative to
the q-grid, so every sample point q +- u/2 of the integrand lands on a
grid node and the u-quadrature becomes a single matrix product.  The
u-step equals the q-spacing dq, and uniform weights are used: for the
band-limited integrands at hand the resulting error is pure aliasing,
exponentially small as long as 2*pi/dq exceeds the combined momentum
bandwidth (checked at call time).  The Wigner form of the HS distance
steps its grid by the states' smallest quadrature spread
(``states.quadrature_sigma_min``) and fringe scale.  The grid kernels
read only a state's ``mat`` and ``dim``, so they take a ``FockVector``
or a ``DensityOperator`` alike.

Normalization conventions: int W dq dp / (2 pi) = 1 for the Wigner
function; Q(alpha) = <alpha|rho|alpha> with alpha = (q + ip)/sqrt(2);
the thermal P function is P(alpha) = exp(-|alpha|^2/nbar)/nbar with
int P d^2alpha/pi = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import i0e

from .errors import (
    DimensionMismatchError,
    GridError,
    StateValidationError,
    UnsupportedCombinationError,
)
from .fock_core import DensityOperator, FockVector
from .states import (
    StateSpec, adaptive_dim, build_state, coherent_amplitudes, ladder_moments, quadrature_sigma_min,
)

MASS_TOL = 1e-3


@dataclass(frozen=True)
class PhaseGrid:
    """Scalar field over a uniform rectangular (q, p) grid."""

    q_min: float
    q_max: float
    p_min: float
    p_max: float
    nq: int
    n_p: int
    values: np.ndarray  # shape (nq, n_p), indexed [iq, ip]

    def __post_init__(self):
        if self.nq < 16 or self.n_p < 16:
            raise StateValidationError("grids need at least 16 points per axis")
        v = np.array(self.values, dtype=float)
        if v.shape != (self.nq, self.n_p):
            raise StateValidationError(f"values shape {v.shape} != ({self.nq}, {self.n_p})")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def q_axis(self) -> np.ndarray:
        return np.linspace(self.q_min, self.q_max, self.nq)

    @property
    def p_axis(self) -> np.ndarray:
        return np.linspace(self.p_min, self.p_max, self.n_p)

    @property
    def dq(self) -> float:
        return (self.q_max - self.q_min) / (self.nq - 1)

    @property
    def dp(self) -> float:
        return (self.p_max - self.p_min) / (self.n_p - 1)

    def with_values(self, values: np.ndarray) -> "PhaseGrid":
        return PhaseGrid(self.q_min, self.q_max, self.p_min, self.p_max, self.nq, self.n_p, values)


@dataclass(frozen=True)
class QuasiDistribution:
    """A Cahill-Glauber ordered distribution on a phase-space grid.

    s = 0 is the Wigner function, s = -1 the Husimi Q function and
    s = +1 the (thermal-only) Glauber-Sudarshan P function.
    """

    s: int
    grid: PhaseGrid

    def __post_init__(self):
        if self.s not in (-1, 0, 1):
            raise StateValidationError("ordering parameter s must be -1, 0 or +1")
        if self.s == -1:
            v = self.grid.values
            if v.min() < -1e-12 or v.max() > 1.0 + 1e-9:
                raise StateValidationError("Q-function values must lie in [0, 1]")


def default_grid(dim: int, n: int = 257) -> PhaseGrid:
    """Square grid over +-(sqrt(2 dim) + 4), the default working window."""
    span = math.sqrt(2.0 * dim) + 4.0
    return PhaseGrid(-span, span, -span, span, n, n, np.zeros((n, n)))


def simpson_weights(n: int, h: float) -> np.ndarray:
    """Composite Simpson weights; odd n required."""
    if n < 3 or n % 2 == 0:
        raise GridError(f"composite Simpson needs an odd point count >= 3, got {n}")
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-2:2] = 2.0
    return w * (h / 3.0)


def grid_integral(grid: PhaseGrid, values: np.ndarray | None = None) -> float:
    """Simpson integral of a field over the grid area (no 2 pi factor)."""
    v = grid.values if values is None else values
    wq = simpson_weights(grid.nq, grid.dq)
    wp = simpson_weights(grid.n_p, grid.dp)
    return float(wq @ v @ wp)


def oscillator_eigenfunctions(x: np.ndarray, dim: int) -> np.ndarray:
    """psi_n(x) for n < dim, shape (len(x), dim).

    Upward recurrence on the *normalized* eigenfunctions keeps every
    intermediate bounded, so no per-level rescaling is needed even at
    n of a few hundred.
    """
    x = np.asarray(x, dtype=float)
    out = np.zeros((x.size, dim))
    out[:, 0] = math.pi**-0.25 * np.exp(-0.5 * x * x)
    if dim > 1:
        out[:, 1] = math.sqrt(2.0) * x * out[:, 0]
    for n in range(2, dim):
        out[:, n] = math.sqrt(2.0 / n) * x * out[:, n - 1] - math.sqrt((n - 1.0) / n) * out[:, n - 2]
    return out


def position_density(rho, q: np.ndarray) -> np.ndarray:
    """<q|rho|q> at the given positions."""
    psi = oscillator_eigenfunctions(q, rho.dim)
    return np.einsum("am,mn,an->a", psi, rho.mat, psi).real


def _occupied_levels(rho, cut: float = 1e-14) -> int:
    p = rho.mat.diagonal().real
    idx = np.nonzero(p > cut)[0]
    return int(idx[-1]) + 1 if idx.size else 1


def wigner(rho, grid: PhaseGrid | None = None) -> QuasiDistribution:
    """Wigner function of a FockVector or DensityOperator on the given grid.

    Raises ``GridError`` when the grid does not resolve the state: either
    the q-spacing is too coarse for the combined momentum bandwidth
    (aliasing) or the integrated mass misses 1 by more than 1e-3.
    """
    if grid is None:
        grid = default_grid(rho.dim)
    q = grid.q_axis
    p = grid.p_axis
    dq = grid.dq
    n_eff = _occupied_levels(rho)
    band = max(abs(grid.p_min), abs(grid.p_max)) + math.sqrt(2.0 * n_eff) + 1.0
    if 2.0 * math.pi / dq < band:
        raise GridError(
            f"q-spacing {dq:.4f} aliases momenta: 2pi/dq = {2*math.pi/dq:.1f} < bandwidth {band:.1f}"
        )
    # fine position grid at half the q-spacing; q +- u/2 stays on it
    nf = 2 * grid.nq - 1
    xf = np.linspace(grid.q_min, grid.q_max, nf)
    psi = oscillator_eigenfunctions(xf, rho.dim)
    r = psi @ rho.mat @ psi.T  # position-space density matrix on the fine grid
    a = 2 * np.arange(grid.nq)
    bmax = grid.nq - 1
    b = np.arange(1, bmax + 1)
    rows = a[None, :] - b[:, None]
    cols = a[None, :] + b[:, None]
    valid = (rows >= 0) & (cols <= nf - 1)
    g = np.zeros((bmax, grid.nq), dtype=complex)
    g[valid] = r[rows[valid], cols[valid]]
    phases = np.exp(1j * np.outer(p, b * dq))  # u_b = b dq
    w = dq * (r[a, a].real[None, :] + 2.0 * (phases @ g).real)  # shape (n_p, nq)
    out = grid.with_values(w.T)
    mass = grid_integral(out) / (2.0 * math.pi)
    if abs(mass - 1.0) > MASS_TOL:
        raise GridError(f"Wigner mass on grid is {mass!r}; enlarge or refine the grid")
    return QuasiDistribution(0, out)


def husimi_q(rho, grid: PhaseGrid | None = None) -> QuasiDistribution:
    """Q(alpha) = <alpha|rho|alpha> on the grid, alpha = (q + ip)/sqrt(2)."""
    if grid is None:
        grid = default_grid(rho.dim)
    qq, pp = np.meshgrid(grid.q_axis, grid.p_axis, indexing="ij")
    alpha = ((qq + 1j * pp) / math.sqrt(2.0)).ravel()
    vals = np.empty(alpha.size)
    chunk = 16384
    mat = rho.mat
    for lo in range(0, alpha.size, chunk):
        c = coherent_amplitudes(alpha[lo : lo + chunk], rho.dim)
        vals[lo : lo + chunk] = np.einsum("am,mn,an->a", c.conj(), mat, c).real
    vals = vals.reshape(grid.nq, grid.n_p)
    if vals.min() < -1e-12 or vals.max() > 1.0 + 1e-9:
        raise StateValidationError("Husimi values escaped [0, 1]")
    return QuasiDistribution(-1, grid.with_values(np.clip(vals, 0.0, 1.0)))


def p_function_thermal(nbar: float, grid: PhaseGrid | None = None) -> QuasiDistribution:
    """Thermal Glauber-Sudarshan function P(alpha) = exp(-|alpha|^2/nbar)/nbar.

    Only thermal states with nbar > 0 have a regular P; anything else is
    rejected.  The grid must capture the Gaussian to 1e-4.
    """
    if nbar <= 0.0:
        raise UnsupportedCombinationError("P function is singular for nbar = 0")
    if grid is None:
        span = math.sqrt(80.0 * nbar) + 4.0
        grid = PhaseGrid(-span, span, -span, span, 257, 257, np.zeros((257, 257)))
    qq, pp = np.meshgrid(grid.q_axis, grid.p_axis, indexing="ij")
    vals = np.exp(-(qq**2 + pp**2) / (2.0 * nbar)) / nbar
    out = grid.with_values(vals)
    mass = grid_integral(out) / (2.0 * math.pi)
    if abs(mass - 1.0) > 1e-4:
        raise GridError(f"P-function mass on grid is {mass!r}; enlarge the grid")
    return QuasiDistribution(1, out)


# ---------------------------------------------------------------------------
# phase-space integral forms of the Hilbert-Schmidt distance
# ---------------------------------------------------------------------------

def _state_pair(a, b) -> tuple:
    """Both states at one dim: specs are built at the larger dim involved, built states pass."""
    for obj in (a, b):
        if not isinstance(obj, (StateSpec, FockVector, DensityOperator)):
            raise StateValidationError(f"cannot interpret {type(obj).__name__} as a state")
    dim = max(adaptive_dim(s) if isinstance(s, StateSpec) else s.dim for s in (a, b))
    ra, rb = (build_state(s, dim) if isinstance(s, StateSpec) else s for s in (a, b))
    if ra.dim != rb.dim:
        raise DimensionMismatchError(f"dims {ra.dim} != {rb.dim}")
    return ra, rb


def hs_from_phase_space(a, b, form: str = "wigner", n_points: int | None = None) -> float:
    """Hilbert-Schmidt distance evaluated as a phase-space integral.

    form = "wigner": sqrt( int dq dp/(2 pi) [W1 - W2]^2 ), any states.
    form = "qp":     sqrt( int d2a/pi [Q1 - Q2][P1 - P2] ), thermal pairs.
    form = "pp":     the double P-function integral with the Gaussian
                     pairing kernel, thermal pairs (exact angular
                     reduction to a radial double integral).

    ``a`` and ``b`` are StateSpec values (preferred) or prebuilt states;
    specs are built at the larger dim the pair needs.
    """
    if form == "wigner":
        ra, rb = _state_pair(a, b)
        if n_points is None:
            span = math.sqrt(2.0 * ra.dim) + 4.0
            n_eff = max(_occupied_levels(ra), _occupied_levels(rb))
            fringe = math.pi / (2.0 * math.sqrt(2.0 * n_eff + 1.0))
            # the floor keeps the step finite for a state squeezed to sigma ~ 0
            sig = max(min(quadrature_sigma_min(ladder_moments(r)) for r in (ra, rb)), 1e-3)
            h = min(0.15, min(sig, fringe) / 3.0)
            n_points = int(min(max(2 * round(span / h) + 1, 257), 1537))
        grid = default_grid(ra.dim, n_points)
        wa = wigner(ra, grid)
        wb = wigner(rb, grid)
        sq = grid_integral(grid, (wa.grid.values - wb.grid.values) ** 2) / (2.0 * math.pi)
        return math.sqrt(max(sq, 0.0))

    if form in ("qp", "pp"):
        for s in (a, b):
            if not (isinstance(s, StateSpec) and s.family == "thermal" and s.params["nbar"] > 0):
                raise UnsupportedCombinationError(
                    f"form {form!r} needs two thermal states with nbar > 0 (regular P functions)"
                )
        n1, n2 = a.params["nbar"], b.params["nbar"]
        if form == "qp":
            ra, rb = _state_pair(a, b)
            grid = default_grid(ra.dim, n_points or 257)
            dq_vals = husimi_q(ra, grid).grid.values - husimi_q(rb, grid).grid.values
            dp_vals = p_function_thermal(n1, grid).grid.values - p_function_thermal(n2, grid).grid.values
            sq = grid_integral(grid, dq_vals * dp_vals) / (2.0 * math.pi)
            return math.sqrt(max(sq, 0.0))
        # pp: angular integrals done exactly, radial double integral by Simpson
        n = n_points or 1025
        rmax = math.sqrt(40.0 * max(n1, n2)) + 2.0
        r = np.linspace(0.0, rmax, n)
        w = simpson_weights(n, r[1] - r[0])
        f = np.exp(-(r**2) / n1) / n1 - np.exp(-(r**2) / n2) / n2
        rr, ss = np.meshgrid(r, r, indexing="ij")
        kernel = i0e(2.0 * rr * ss) * np.exp(-((rr - ss) ** 2))
        g = w * r * f
        sq = 4.0 * float(g @ kernel @ g)
        return math.sqrt(max(sq, 0.0))

    raise UnsupportedCombinationError(f"unknown phase-space form {form!r}")


def grid_to_csv(qd: QuasiDistribution, path) -> None:
    """Write (q, p, value) triples, one grid point per row."""
    g = qd.grid
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("q,p,value\n")
        for i, qv in enumerate(g.q_axis):
            for j, pv in enumerate(g.p_axis):
                fh.write(f"{qv:.12g},{pv:.12g},{g.values[i, j]:.12g}\n")
