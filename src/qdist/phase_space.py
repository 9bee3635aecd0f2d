"""Quasiprobability grids and phase-space forms of the HS distance.

The Wigner function is evaluated from its defining integral
W(q,p) = int du e^{ipu} <q-u/2| rho |q+u/2>: number states are expanded
in oscillator eigenfunctions on a position grid refined 2x relative to
the q-grid, so every sample point q +- u/2 of the integrand lands on a
grid node and the u-quadrature becomes a single matrix product.  The
u-step equals the q-spacing dq, and uniform weights are used: for the
band-limited integrands at hand the resulting error is pure aliasing,
exponentially small as long as 2*pi/dq exceeds the combined momentum
bandwidth (checked at call time, for each state).  The pair q -+ u/2
lies on the even fine nodes for even u/dq and on the odd ones otherwise,
so the fine-grid position matrix is formed as its two parity halves,
half the work and memory of the whole, and every product runs in real
arithmetic, cos and sin of p u in place of complex exponentials.  The
same aliasing bound holds for ``grid_integral``'s uniform trapezoid
weights (``trapezoid_weights``, which the Wigner line integral of
``tomography`` reads too), so the ``wigner`` and ``qp`` forms run on
``_nyquist_grid``, with 2*pi/dq >= 2 band, since squaring W doubles its
bandwidth; the ``qp`` form's band is its thermal P function's, a
Gaussian narrower in phase space, so wider in frequency, than its Q
function.  The Wigner grid reads a state's ``mat``, ``populations``
and ``dim``, so it takes a state of any kind.  The Husimi grid reads
the state's factor (``fock_core``) instead: a 1-d factor, a diagonal state's
populations, against the Poisson weights |<n|alpha>|^2
(``states.poisson_weights``); the columns of a 2-d one against
``states.coherent_amplitudes``.  The Wigner and ``qp`` forms build each
of these tables once for both states.  The ``pp`` form's Bessel pairing
kernel is a sum of products of the same Poisson weights, so no special
function beyond them is evaluated here; its radial rule is composite
Gauss-Legendre, spectrally accurate on the smooth integrand, with panels
no wider than a multiple of the pair's narrowest scale (``_radial_rule``),
and it forms the difference of the two P functions through expm1, so a
neighbouring pair keeps its digits.

A ``PhaseGrid`` is geometry only, a finite nonempty window; each
``QuasiDistribution`` owns its values on one, a read-only copy it checks
when it is built.  Nothing here needs scipy.  Their
normalization: int W dq dp / (2 pi) = 1 for the Wigner function;
Q(alpha) = <alpha|rho|alpha> with alpha = (q + ip)/sqrt(2); the thermal
P function is P(alpha) = exp(-|alpha|^2/nbar)/nbar with int P d^2alpha/pi = 1.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import GridError, StateValidationError, UnsupportedCombinationError
from .fock_core import _clamped_sqrt
from .states import StateSpec, build_pair, coherent_amplitudes, poisson_weights

MASS_TOL = 1e-4  # the one band |mass - 1| of every grid density: tomograms, Wigner and P functions
# points x levels a Husimi chunk holds: 16,384 points up to dim 512, fewer above
HUSIMI_BLOCK = 16384 * 512
OCCUPIED_CUT = 1e-14  # a level at or below this population is left out of the Wigner bandwidth check
MAX_GRID_POINTS = 3073  # per axis, a refusal bound: at dim 2,020 a 3,036-point grid's tables peak near 0.9 GB
MAX_RADIAL_NODES = 16384  # the pp form's radial rule, a refusal bound: it holds nbar up to about 1.8e5 against nbar >= 0.5


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
        # finite and nonempty, written so that a NaN edge fails too
        if not (-math.inf < self.q_min < self.q_max < math.inf and -math.inf < self.p_min < self.p_max < math.inf):
            raise StateValidationError(f"window {self.q_min, self.q_max, self.p_min, self.p_max} is empty or not finite")

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
            if not (v.min() >= -1e-12 and v.max() <= 1.0 + 1e-9):  # NaN fails too
                raise StateValidationError("Q-function values must lie in [0, 1]")
            v = np.clip(v, 0.0, 1.0)
        else:
            mass = grid_integral(self.grid, v) / (2.0 * math.pi)
            if not abs(mass - 1.0) <= MASS_TOL:
                raise GridError(f"s = {self.s} mass on grid is {mass!r}; enlarge or refine the grid")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)


def _span(dim: int) -> float:
    """sqrt(2 dim) + 4, the half-width of the default working window."""
    return math.sqrt(2.0 * dim) + 4.0


def default_grid(dim: int, n: int = 257) -> PhaseGrid:
    """Square grid over +-``_span(dim)``, the default working window."""
    span = _span(dim)
    return PhaseGrid(-span, span, -span, span, n, n)


def trapezoid_weights(n: int, h: float) -> np.ndarray:
    """Uniform trapezoid weights for n points at step h: the one 1-d rule of the grid densities."""
    w = np.full(n, h)
    w[[0, -1]] *= 0.5
    return w


def grid_integral(grid: PhaseGrid, values: np.ndarray) -> float:
    """Trapezoid integral of a field over the grid area (no 2 pi factor): geometric in the step here."""
    return float(trapezoid_weights(grid.nq, grid.dq) @ values @ trapezoid_weights(grid.n_p, grid.dp))


def _oscillator_levels(x):
    """psi_0(x), psi_1(x), ...: the oscillator eigenfunctions at x, of any shape, one level at a time.

    Upward recurrence on the *normalized* eigenfunctions keeps every
    intermediate bounded, so no per-level rescaling is needed even at
    n of a few hundred; only two levels are held at once.
    """
    x = np.asarray(x, dtype=float)
    lower, level = 0.0, math.pi**-0.25 * np.exp(-0.5 * x * x)  # level -1 is 0
    for n in itertools.count(1):
        yield level
        lower, level = level, math.sqrt(2.0 / n) * x * level - math.sqrt((n - 1.0) / n) * lower


def oscillator_eigenfunctions(x: np.ndarray, dim: int) -> np.ndarray:
    """psi_n(x) for n < dim, shape (len(x), dim), from ``_oscillator_levels``.

    Each level is one contiguous row of a (dim, len(x)) array, and the
    table returned is the transposed view of that array, not a copy.
    """
    x = np.asarray(x, dtype=float)
    out = np.zeros((dim, x.size))
    for row, level in zip(out, _oscillator_levels(x)):
        row[:] = level
    return out.T


def _bandwidth(rho, p_edge: float) -> float:
    """The momentum bandwidth of the Wigner integrand of a state on a grid reaching |p| = p_edge."""
    idx = np.nonzero(rho.populations > OCCUPIED_CUT)[0]
    return p_edge + math.sqrt(2.0 * (int(idx[-1]) + 1 if idx.size else 1)) + 1.0


def _p_bandwidth(nbar: float) -> float:
    """Where exp(-nbar k^2/2), the thermal P spectrum, falls to 1e-16; Q's (variance nbar + 1) is narrower."""
    return math.sqrt(2.0 * math.log(1e16) / nbar)


def _nyquist_grid(states, band: float | None = None) -> PhaseGrid:
    """The coarsest default window with 2 pi/dq >= 2 band, as a product of two factors of that band needs.

    ``band`` defaults to the states' largest Wigner bandwidth.  GridError past the cap, before any table.
    """
    span = _span(states[0].dim)
    if band is None:
        band = max(_bandwidth(rho, span) for rho in states)
    n = math.ceil(2.0 * span * band / math.pi) + 1  # dq = 2 span/(n - 1)
    if n > MAX_GRID_POINTS:
        raise GridError(f"bandwidth {band:.1f} needs {n} grid points per axis, over the cap of {MAX_GRID_POINTS}")
    return PhaseGrid(-span, span, -span, span, n, n)


@functools.lru_cache(maxsize=64)
def _gauss_legendre(m: int):
    """Gauss-Legendre nodes and weights on [-1, 1] for m nodes, read-only: computed once per m."""
    t, w = np.polynomial.legendre.leggauss(m)
    t.setflags(write=False)
    w.setflags(write=False)
    return t, w


def _radial_rule(lo: float, hi: float):
    """Radial nodes and weights on [0, sqrt(40 hi) + 2] for the pp form of thermal P functions at nbar lo <= hi.

    Composite 24-node Gauss-Legendre panels, spectrally accurate on the
    smooth integrand, each at most 8 x the pair's narrowest scale wide:
    min(1/2, sqrt(lo/2)), the r-width of every Poisson weight phi_k(r^2)
    and the narrower P function's standard deviation.  The wider P falls
    to e^-40 at the end.  GridError past ``MAX_RADIAL_NODES``, before any
    table; an overflowing panel count reads as inf.
    """
    rmax = math.sqrt(40.0 * hi) + 2.0
    width = 8.0 * min(0.5, math.sqrt(0.5 * lo))  # the widest panel
    panels = rmax / width if width > 0.0 else math.inf
    nodes = 24.0 * math.ceil(panels) if panels < math.inf else panels
    if nodes > MAX_RADIAL_NODES:
        raise GridError(f"the pp form's radial rule needs {nodes:.6g} nodes, over the cap of {MAX_RADIAL_NODES}")
    panels = math.ceil(panels)
    t, w = _gauss_legendre(24)
    h = rmax / panels
    left = h * np.arange(panels)
    return (left[:, None] + 0.5 * h * (t + 1.0)).ravel(), np.tile(0.5 * h * w, panels)


def wigner(rho, grid: PhaseGrid | None = None) -> QuasiDistribution:
    """Wigner function of a state of any kind on the given grid.

    Raises ``GridError`` when the grid does not resolve the state: either
    the q-spacing is too coarse for the combined momentum bandwidth
    (aliasing) or the integrated mass misses 1 by more than ``MASS_TOL``.
    """
    return _wigner_functions([rho], grid or default_grid(rho.dim))[0]


def _wigner_functions(states, grid: PhaseGrid) -> list[QuasiDistribution]:
    """The Wigner functions of states of one dim on one grid, each table built once for all of them.

    W(q_j, p) = dq sum_b c_b Re(e^{i p u_b} g_b(q_j)) over u_b = b dq, with
    g_b(q) = <q - u_b/2| rho |q + u_b/2>, c_0 = 1 and c_b = 2 (the pair -+u_b).
    The samples q_j -+ u_b/2 lie on the even fine nodes (the q-grid) for
    even b and on the odd ones (the midpoints) for odd b, so g_b is the
    b-th superdiagonal of one parity half's position matrix psi_h rho psi_h^T.
    The eigenfunction halves, the gather indices and cos, sin of p u_b
    serve every state; each state's products run in real arithmetic.
    """
    dq = grid.dq
    for rho in states:
        band = _bandwidth(rho, max(abs(grid.p_min), abs(grid.p_max)))
        if 2.0 * math.pi / dq < band:
            raise GridError(
                f"q-spacing {dq:.4f} aliases momenta: 2pi/dq = {2*math.pi/dq:.1f} < bandwidth {band:.1f}"
            )
    nq = grid.nq
    # fine position grid at half the q-spacing: its even nodes are the q-grid, its odd ones the midpoints
    psi = oscillator_eigenfunctions(np.linspace(grid.q_min, grid.q_max, 2 * nq - 1), states[0].dim)
    halves = np.ascontiguousarray(psi[0::2]), np.ascontiguousarray(psi[1::2])
    b = np.arange(nq)
    gathers = []  # (psi_h, flat indices of g_b(q_j) in g, of the same entries in psi_h rho psi_h^T)
    for half, bh in zip(halves, (b[0::2], b[1::2])):
        length = nq - (bh + 1) // 2 * 2  # of the superdiagonal, which starts at q_j, j = ceil(b/2)
        bb = np.repeat(bh, length)
        k = np.arange(length.sum()) - np.repeat(np.cumsum(length) - length, length)  # along it
        gathers.append((half, bb * nq + (bb + 1) // 2 + k, k * (len(half) + 1) + bb))
    # Re(e^{i p u} g) = cos(pu) Re g - sin(pu) Im g
    pu = np.outer(grid.p_axis, b * dq)
    phases = np.hstack([np.cos(pu), np.sin(pu)])
    del psi, pu  # copied into halves and phases; at the largest grids each is about a tenth of the peak
    c = np.where(b == 0, 1.0, 2.0)
    phases *= np.concatenate([c, -c])
    out = []
    for rho in states:
        mat = rho.mat
        g = np.zeros((2, nq * nq))  # Re g_b(q_j) and Im g_b(q_j), each flat [b, j]
        for part, m in zip(g, (mat.real, mat.imag)):
            m = np.ascontiguousarray(m)
            for half, at, src in gathers:
                part[at] = np.take(half @ m @ half.T, src)
        w = dq * (phases @ g.reshape(2 * nq, nq))  # shape (n_p, nq)
        out.append(QuasiDistribution(0, grid, w.T))
    return out


def husimi_q(rho, grid: PhaseGrid | None = None) -> QuasiDistribution:
    """Q(alpha) = <alpha|rho|alpha> on the grid, alpha = (q + ip)/sqrt(2).

    Read off the state's factor: sum_n p_n e^{-|alpha|^2} |alpha|^{2n}/n!
    (``states.poisson_weights``) for a 1-d one, the populations, and
    sum_j |sum_n conj(c_n(alpha)) W_nj|^2 for a 2-d W.  Points go in
    chunks of ``HUSIMI_BLOCK`` / dim (at most 16,384), so memory stays at
    a few chunk x dim blocks whatever the dim.
    """
    return _husimi_functions([rho], grid or default_grid(rho.dim))[0]


def _husimi_functions(states, grid: PhaseGrid) -> list[QuasiDistribution]:
    """The Husimi functions of states of one dim on one grid; each chunk's tables serve every state."""
    qq, pp = np.meshgrid(grid.q_axis, grid.p_axis, indexing="ij")
    alpha = ((qq + 1j * pp) / math.sqrt(2.0)).ravel()
    factors = [rho.factor(1.0) for rho in states]
    ndims = {w.ndim for w in factors}
    dim = states[0].dim
    vals = np.empty((len(states), alpha.size))
    chunk = max(min(16384, HUSIMI_BLOCK // dim), 1)
    for lo in range(0, alpha.size, chunk):
        part = alpha[lo : lo + chunk]
        weights = poisson_weights(part.real**2 + part.imag**2, 0, dim) if 1 in ndims else None
        amps = coherent_amplitudes(part, dim).conj() if 2 in ndims else None
        for v, w in zip(vals, factors):
            if w.ndim == 1:
                v[lo : lo + chunk] = weights @ w
            else:
                z = amps @ w
                v[lo : lo + chunk] = (z.real**2 + z.imag**2).sum(axis=1)
    return [QuasiDistribution(-1, grid, v.reshape(grid.nq, grid.n_p)) for v in vals]


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

def hs_from_phase_space(a, b, form: str = "wigner") -> float:
    """Hilbert-Schmidt distance evaluated as a phase-space integral.

    form = "wigner": sqrt( int dq dp/(2 pi) [W1 - W2]^2 ), any states, on ``_nyquist_grid``.
    form = "qp":     sqrt( int d2a/pi [Q1 - Q2][P1 - P2] ), thermal pairs, on ``_nyquist_grid``
                     at the narrower P function's band (``_p_bandwidth``).
    form = "pp":     the double P-function integral with the Gaussian
                     pairing kernel, thermal pairs: angular integrals
                     exact, the radial double integral on the pair's
                     Gauss-Legendre panels (``_radial_rule``) with its
                     kernel summed over Poisson weights (``_poisson_form``).

    ``a`` and ``b`` are StateSpec values (preferred) or prebuilt states,
    put at one dim by ``states.build_pair``, the one pair rule.
    """
    if form == "wigner":
        ra, rb = build_pair(a, b)
        grid = _nyquist_grid([ra, rb])
        wa, wb = _wigner_functions([ra, rb], grid)
        diff = wa.values - wb.values
        return math.sqrt(grid_integral(grid, diff**2) / (2.0 * math.pi))  # a sum of squares

    if form == "qp":
        n1, n2 = _thermal_nbars(a, b, form)
        ra, rb = build_pair(a, b)
        grid = _nyquist_grid([ra, rb], _p_bandwidth(min(n1, n2)))
        qa, qb = _husimi_functions([ra, rb], grid)
        dq_vals = qa.values - qb.values
        dp_vals = p_function_thermal(n1, grid).values - p_function_thermal(n2, grid).values
        return _clamped_sqrt(grid_integral(grid, dq_vals * dp_vals) / (2.0 * math.pi))

    if form == "pp":
        lo, hi = sorted(_thermal_nbars(a, b, form))
        r, w = _radial_rule(lo, hi)
        # P_lo - P_hi as P_hi expm1(log(P_lo/P_hi)): no cancellation at a small gap, and exactly 0 at none
        gap = hi - lo
        f = np.exp(-(r**2) / hi) / hi * np.expm1(math.log1p(gap / lo) - r * r * (gap / (lo * hi)))
        return math.sqrt(4.0 * _poisson_form(r * r, w * r * f))  # a sum of squares

    raise UnsupportedCombinationError(f"unknown phase-space form {form!r}")


def _thermal_nbars(a, b, form: str) -> tuple[float, float]:
    """The mean photon numbers of two thermal specs with nbar > 0, whose P functions are regular."""
    for s in (a, b):
        if not (isinstance(s, StateSpec) and not s.is_pure and s.params["nbar"] > 0):
            raise UnsupportedCombinationError(
                f"form {form!r} needs two thermal states with nbar > 0 (regular P functions)"
            )
    return a.params["nbar"], b.params["nbar"]


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
