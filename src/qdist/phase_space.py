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
(``states.quadrature_sigma_min``) and fringe scale.  The Wigner grid
reads a state's ``mat``, ``populations`` and ``dim``, so it takes a
state of any kind.  The Husimi grid reads the state's factor
(``fock_core``) instead: a 1-d factor, a diagonal state's populations,
against the Poisson weights |<n|alpha>|^2 (``states.poisson_weights``);
the columns of a 2-d one against ``states.coherent_amplitudes``.  The
``pp`` form's Bessel pairing kernel is a sum of products of the same
Poisson weights, so no special function beyond them is evaluated here.

A ``PhaseGrid`` is geometry only; each ``QuasiDistribution`` owns its
values on one, a read-only copy it checks when it is built.  Their
normalization: int W dq dp / (2 pi) = 1 for the Wigner function;
Q(alpha) = <alpha|rho|alpha> with alpha = (q + ip)/sqrt(2); the thermal
P function is P(alpha) = exp(-|alpha|^2/nbar)/nbar with int P d^2alpha/pi = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridError, StateValidationError, UnsupportedCombinationError
from .fock_core import DensityOperator, DiagonalState, FockVector, _check_dims, _clamped_sqrt
from .states import (
    StateSpec, adaptive_dim, build_state, coherent_amplitudes, ladder_moments, poisson_weights,
    quadrature_sigma_min,
)

MASS_TOL = 1e-4  # the one band |mass - 1| of every grid density: tomograms, Wigner and P functions
# points x levels a Husimi chunk holds: 16,384 points up to dim 512, fewer above
HUSIMI_BLOCK = 16384 * 512
OCCUPIED_CUT = 1e-14  # a level at or below this population is left out of the Wigner bandwidth check


@dataclass(frozen=True)
class PhaseGrid:
    """A uniform rectangular (q, p) grid: its geometry only."""

    q_min: float
    q_max: float
    p_min: float
    p_max: float
    nq: int
    n_p: int

    def __post_init__(self):
        if self.nq < 16 or self.n_p < 16:
            raise StateValidationError("grids need at least 16 points per axis")

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


@dataclass(frozen=True)
class QuasiDistribution:
    """A Cahill-Glauber ordered distribution: its values, shape (nq, n_p) indexed [iq, ip], on a grid.

    s = 0 is the Wigner function, s = -1 the Husimi Q function and
    s = +1 the (thermal-only) Glauber-Sudarshan P function.  Q values
    are clipped to [0, 1]; a Wigner or P grid's mass must lie within ``MASS_TOL`` of 1.
    """

    s: int
    grid: PhaseGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=float)
        if v.shape != (self.grid.nq, self.grid.n_p):
            raise StateValidationError(f"values shape {v.shape} != ({self.grid.nq}, {self.grid.n_p})")
        if self.s not in (-1, 0, 1):
            raise StateValidationError("ordering parameter s must be -1, 0 or +1")
        if self.s == -1:
            if v.min() < -1e-12 or v.max() > 1.0 + 1e-9:
                raise StateValidationError("Q-function values must lie in [0, 1]")
            v = np.clip(v, 0.0, 1.0)
        else:
            mass = grid_integral(self.grid, v) / (2.0 * math.pi)
            if not abs(mass - 1.0) <= MASS_TOL:
                raise GridError(f"s = {self.s} mass on grid is {mass!r}; enlarge or refine the grid")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)


def default_grid(dim: int, n: int = 257) -> PhaseGrid:
    """Square grid over +-(sqrt(2 dim) + 4), the default working window."""
    span = math.sqrt(2.0 * dim) + 4.0
    return PhaseGrid(-span, span, -span, span, n, n)


def simpson_weights(n: int, h: float) -> np.ndarray:
    """Composite Simpson weights; odd n required."""
    if n < 3 or n % 2 == 0:
        raise GridError(f"composite Simpson needs an odd point count >= 3, got {n}")
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-2:2] = 2.0
    return w * (h / 3.0)


def grid_integral(grid: PhaseGrid, values: np.ndarray) -> float:
    """Simpson integral of a field over the grid area (no 2 pi factor)."""
    wq = simpson_weights(grid.nq, grid.dq)
    wp = simpson_weights(grid.n_p, grid.dp)
    return float(wq @ values @ wp)


def oscillator_eigenfunctions(x: np.ndarray, dim: int) -> np.ndarray:
    """psi_n(x) for n < dim, shape (len(x), dim).

    Upward recurrence on the *normalized* eigenfunctions keeps every
    intermediate bounded, so no per-level rescaling is needed even at
    n of a few hundred.  Each level is one contiguous row while the
    recurrence runs; the table is transposed once at the end.
    """
    x = np.asarray(x, dtype=float)
    out = np.zeros((dim, x.size))
    out[0] = math.pi**-0.25 * np.exp(-0.5 * x * x)
    if dim > 1:
        out[1] = math.sqrt(2.0) * x * out[0]
    for n in range(2, dim):
        out[n] = math.sqrt(2.0 / n) * x * out[n - 1] - math.sqrt((n - 1.0) / n) * out[n - 2]
    return np.ascontiguousarray(out.T)


def _occupied_levels(rho) -> int:
    idx = np.nonzero(rho.populations > OCCUPIED_CUT)[0]
    return int(idx[-1]) + 1 if idx.size else 1


def wigner(rho, grid: PhaseGrid | None = None) -> QuasiDistribution:
    """Wigner function of a state of any kind on the given grid.

    Raises ``GridError`` when the grid does not resolve the state: either
    the q-spacing is too coarse for the combined momentum bandwidth
    (aliasing) or the integrated mass misses 1 by more than ``MASS_TOL``.
    """
    if grid is None:
        grid = default_grid(rho.dim)
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
    return QuasiDistribution(0, grid, w.T)


def husimi_q(rho, grid: PhaseGrid | None = None) -> QuasiDistribution:
    """Q(alpha) = <alpha|rho|alpha> on the grid, alpha = (q + ip)/sqrt(2).

    Read off the state's factor: sum_n p_n e^{-|alpha|^2} |alpha|^{2n}/n!
    (``states.poisson_weights``) for a 1-d one, the populations, and
    sum_j |sum_n conj(c_n(alpha)) W_nj|^2 for a 2-d W.  Points go in
    chunks of ``HUSIMI_BLOCK`` / dim (at most 16,384), so memory stays at
    a few chunk x dim blocks whatever the dim.
    """
    if grid is None:
        grid = default_grid(rho.dim)
    qq, pp = np.meshgrid(grid.q_axis, grid.p_axis, indexing="ij")
    alpha = ((qq + 1j * pp) / math.sqrt(2.0)).ravel()
    vals = np.empty(alpha.size)
    w = rho.factor(1.0)
    chunk = max(min(16384, HUSIMI_BLOCK // rho.dim), 1)
    for lo in range(0, alpha.size, chunk):
        vals[lo : lo + chunk] = _coherent_expectations(w, alpha[lo : lo + chunk])
    return QuasiDistribution(-1, grid, vals.reshape(grid.nq, grid.n_p))


def _coherent_expectations(w: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """<alpha|rho|alpha> at each point of ``alpha`` from a factor ``w`` of rho."""
    if w.ndim == 1:
        return poisson_weights(alpha.real**2 + alpha.imag**2, 0, w.size) @ w
    z = coherent_amplitudes(alpha, w.shape[0]).conj() @ w
    return (z.real**2 + z.imag**2).sum(axis=1)


def p_function_thermal(nbar: float, grid: PhaseGrid | None = None) -> QuasiDistribution:
    """Thermal Glauber-Sudarshan function P(alpha) = exp(-|alpha|^2/nbar)/nbar.

    Only thermal states with nbar > 0 have a regular P; anything else is
    rejected.  The grid must capture the Gaussian to ``MASS_TOL``.
    """
    if nbar <= 0.0:
        raise UnsupportedCombinationError("P function is singular for nbar = 0")
    if grid is None:
        span = math.sqrt(80.0 * nbar) + 4.0
        grid = PhaseGrid(-span, span, -span, span, 257, 257)
    qq, pp = np.meshgrid(grid.q_axis, grid.p_axis, indexing="ij")
    vals = np.exp(-(qq**2 + pp**2) / (2.0 * nbar)) / nbar
    return QuasiDistribution(1, grid, vals)


# ---------------------------------------------------------------------------
# phase-space integral forms of the Hilbert-Schmidt distance
# ---------------------------------------------------------------------------

def _state_pair(a, b) -> tuple:
    """Both states at one dim: specs are built at the larger dim involved, built states pass."""
    for obj in (a, b):
        if not isinstance(obj, (StateSpec, FockVector, DiagonalState, DensityOperator)):
            raise StateValidationError(f"cannot interpret {type(obj).__name__} as a state")
    dim = max(adaptive_dim(s) if isinstance(s, StateSpec) else s.dim for s in (a, b))
    ra, rb = (build_state(s, dim) if isinstance(s, StateSpec) else s for s in (a, b))
    _check_dims(ra, rb)
    return ra, rb


def hs_from_phase_space(a, b, form: str = "wigner") -> float:
    """Hilbert-Schmidt distance evaluated as a phase-space integral.

    form = "wigner": sqrt( int dq dp/(2 pi) [W1 - W2]^2 ), any states, on a ``default_grid``
                     of 257 to 1537 points stepped by their quadrature spread and fringe scale.
    form = "qp":     sqrt( int d2a/pi [Q1 - Q2][P1 - P2] ), thermal pairs, on the 257-point ``default_grid``.
    form = "pp":     the double P-function integral with the Gaussian
                     pairing kernel, thermal pairs: angular integrals
                     exact, the radial double integral on 1025 Simpson
                     nodes with its kernel summed over Poisson weights
                     (``_poisson_form``).

    ``a`` and ``b`` are StateSpec values (preferred) or prebuilt states;
    specs are built at the larger dim the pair needs.
    """
    if form == "wigner":
        ra, rb = _state_pair(a, b)
        span = math.sqrt(2.0 * ra.dim) + 4.0
        n_eff = max(_occupied_levels(ra), _occupied_levels(rb))
        fringe = math.pi / (2.0 * math.sqrt(2.0 * n_eff + 1.0))
        # the floor keeps the step finite for a state squeezed to sigma ~ 0
        sig = max(min(quadrature_sigma_min(ladder_moments(r)) for r in (ra, rb)), 1e-3)
        h = min(0.15, min(sig, fringe) / 3.0)
        grid = default_grid(ra.dim, int(min(max(2 * round(span / h) + 1, 257), 1537)))
        diff = wigner(ra, grid).values - wigner(rb, grid).values
        return math.sqrt(grid_integral(grid, diff**2) / (2.0 * math.pi))  # a sum of squares

    if form in ("qp", "pp"):
        for s in (a, b):
            if not (isinstance(s, StateSpec) and not s.is_pure and s.params["nbar"] > 0):
                raise UnsupportedCombinationError(
                    f"form {form!r} needs two thermal states with nbar > 0 (regular P functions)"
                )
        n1, n2 = a.params["nbar"], b.params["nbar"]
        if form == "qp":
            ra, rb = _state_pair(a, b)
            grid = default_grid(ra.dim)
            dq_vals = husimi_q(ra, grid).values - husimi_q(rb, grid).values
            dp_vals = p_function_thermal(n1, grid).values - p_function_thermal(n2, grid).values
            return _clamped_sqrt(grid_integral(grid, dq_vals * dp_vals) / (2.0 * math.pi))
        # pp: angular integrals done exactly, radial double integral by Simpson
        rmax = math.sqrt(40.0 * max(n1, n2)) + 2.0
        r = np.linspace(0.0, rmax, 1025)
        w = simpson_weights(r.size, r[1] - r[0])
        f = np.exp(-(r**2) / n1) / n1 - np.exp(-(r**2) / n2) / n2
        return math.sqrt(4.0 * _poisson_form(r * r, w * r * f))  # a sum of squares

    raise UnsupportedCombinationError(f"unknown phase-space form {form!r}")


def _poisson_form(lam: np.ndarray, g: np.ndarray) -> float:
    """g^T K g for the pp pairing kernel K_ij = I_0(2 r_i r_j) e^{-r_i^2 - r_j^2}, lam = r^2 rising.

    K factors exactly as sum_k phi_k(lam_i) phi_k(lam_j) over the Poisson
    weights phi_k(lam) = e^{-lam} lam^k / k!, so g^T K g is
    sum_k (sum_i g_i phi_k(lam_i))^2, a sum of squares.  Node i's
    weights are negligible outside its window lam_i +- (12 sqrt(lam_i) + 12);
    the levels go in blocks of 256, each against the contiguous run of
    nodes whose windows reach it, so the work is about n sqrt(lam) and
    memory stays at one block.
    """
    half = 12.0 * np.sqrt(lam) + 12.0
    hi = lam + half
    lo = np.maximum(lam - half, 0.0)  # rising with lam, as hi is: 0 up to lam ~ 167
    block = 256
    total = 0.0
    for k0 in range(0, int(hi[-1]) + 1, block):
        i0, i1 = np.searchsorted(hi, k0), np.searchsorted(lo, k0 + block)
        s = g[i0:i1] @ poisson_weights(lam[i0:i1], k0, k0 + block)
        total += float(s @ s)
    return total


def grid_to_csv(qd: QuasiDistribution, path) -> None:
    """Write (q, p, value) triples, one grid point per row."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("q,p,value\n")
        for i, qv in enumerate(qd.grid.q_axis):
            for j, pv in enumerate(qd.grid.p_axis):
                fh.write(f"{qv:.12g},{pv:.12g},{qd.values[i, j]:.12g}\n")
