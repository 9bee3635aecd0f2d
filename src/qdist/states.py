"""Constructors for the supported state families, plus moment machinery.

What a family is lives in one record, ``FAMILIES[name]``, and no
function branches on a family name.  Pure families (Fock, coherent,
generalized coherent, cat, squeezed vacuum, coherent phase) produce
``FockVector``; the thermal family produces a ``DiagonalState``, its
population vector.  ``build_state`` builds every family from its record,
and every named constructor, ``fock`` included, calls it; ``build_pair``
puts two states at one dim, the one pair rule.  The coherent
amplitudes' squared moduli, the Poisson weights, also have a
log-space form (``poisson_weights``) for the phase-space kernels.  One tail
sum, ``_tails``, sizes every truncation: ``adaptive_dim`` picks the dim
from it and every constructor checks a truncation-tail budget of 1e-12
against it, renormalizing the retained amplitudes and recording the
discarded mass on the returned object.  One kernel, ``_moments``, reads
every normally ordered moment Tr(adag^k a^l rho) off the diagonals of a
matrix; ``moment``, ``moment_table``, ``ladder_moments`` and the ``Da``
quasidistance read entries of it.  The Gaussian families' records give
<a>, <a^2> and <adag a> in closed form (``Family.ladder``), and
``quadrature_moments`` turns any such triple into the mean and spread of
a quadrature: for a Gaussian state, its whole tomogram.

Global phase convention: the first nonvanishing amplitude is made real
and positive, so state equality is testable despite the projective
nature of pure states.
"""

from __future__ import annotations

import cmath
import math
import numbers
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateStateError,
    SpecParseError,
    StateValidationError,
    TailMassError,
    TruncationInfeasibleError,
    UndefinedQuantityError,
)
from .fock_core import DensityOperator, DiagonalState, FockVector, _check_dims, _clamped_sqrt

TAIL_TOL = 1e-12
MODULUS_MARGIN = 1e-9  # squeezed/phase parameters must satisfy |z| < 1 - this
MAX_DIM = 512
# Level horizons of the tail sums are capped here before anything is
# allocated; a state whose populations reach this far fits no feasible dim.
MAX_HORIZON = 1 << 16
TAIL_MARGIN = 64  # levels a tail sum runs past the dim, or past a Poisson tail's extent


@dataclass(frozen=True)
class StateSpec:
    """Symbolic description of a state family plus its parameters.

    This is the shared currency of the CLI, the closed-form oracles and
    the tomography front end.  ``params`` keys by family:

    - fock: n
    - coherent / generalized_coherent: alpha (+ phases list for gencoh)
    - cat: alpha, phi
    - squeezed_vacuum: zeta
    - coherent_phase: epsilon
    - thermal: nbar

    The family's record in ``FAMILIES`` checks them on construction.
    """

    family: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise StateValidationError(f"unknown family {self.family!r}")
        for ok, requirement in FAMILIES[self.family].checks:
            if not ok(self.params):
                raise StateValidationError(f"{self.family} requires {requirement}")

    @property
    def is_pure(self) -> bool:
        return FAMILIES[self.family].pure


# ---------------------------------------------------------------------------
# amplitudes, photon-number distributions and truncation tails
# ---------------------------------------------------------------------------

def coherent_amplitudes(alpha, dim: int) -> np.ndarray:
    """c_n = exp(-|alpha|^2/2) alpha^n / sqrt(n!) for n < dim, unnormalized.

    Runs the ratio recurrence c_n = c_{n-1} alpha / sqrt(n), which never
    forms alpha^n or n! on their own.  ``alpha`` may be an array; the
    levels then run along a new last axis.
    """
    alpha = np.asarray(alpha, dtype=complex)[..., None]
    steps = np.empty(alpha.shape[:-1] + (dim,), dtype=complex)
    steps[..., :1] = np.exp(-0.5 * np.abs(alpha) ** 2)
    steps[..., 1:] = alpha / np.sqrt(np.arange(1, dim))
    return np.cumprod(steps, axis=-1)


def poisson_weights(lam, start: int, stop: int) -> np.ndarray:
    """e^{-lam} lam^k / k! for start <= k < stop: |c_k|^2 of ``coherent_amplitudes`` at |alpha|^2 = lam.

    Evaluated in log space, so none of e^{-lam}, lam^k and k! under- or
    overflows on its own at any lam; log k! is lgamma(start + 1) plus a
    cumulative sum of logs, so its rounding grows with stop - start, not
    with k.  ``lam`` may be an array; the levels then run along a
    new last axis.  lam = 0 reads as the smallest normal double, which
    leaves the k = 0 weight 1 and every other one below 1e-307.
    """
    lam = np.asarray(lam, dtype=float)[..., None]
    k = np.arange(start, stop)
    log_fact = math.lgamma(start + 1) + np.concatenate(([0.0], np.cumsum(np.log(k[1:]))))
    # in place: at a Husimi chunk these are 16,384 x dim arrays
    w = k * np.log(np.maximum(lam, np.finfo(float).tiny))
    w -= lam
    w -= log_fact
    return np.exp(w, out=w)


def truncation_tail(spec: StateSpec, dim: int) -> float:
    """Probability mass on levels >= dim."""
    return float(_tails(spec, dim)[dim])


def alpha_squared(spec: StateSpec) -> float:
    """|alpha|^2 of a coherent, generalized coherent or cat spec.

    A state with |alpha| >= sqrt(MAX_HORIZON) = 256 spreads over more
    than MAX_HORIZON levels; it is refused before anything is squared,
    since |alpha|^2 overflows for |alpha| above about 1.3e154.
    """
    alpha = spec.params["alpha"]
    bound = math.sqrt(MAX_HORIZON)
    # the parts first: abs() of a complex itself raises beyond ~1.3e308
    if not (abs(alpha.real) < bound and abs(alpha.imag) < bound and abs(alpha) < bound):
        raise TruncationInfeasibleError(
            f"{spec.family} state with alpha = {alpha:.6g} spreads over more than {MAX_HORIZON} levels"
        )
    return abs(alpha) ** 2


def _tails(spec: StateSpec, dim_hi: int) -> np.ndarray:
    """Probability mass on levels >= k for k = 0..dim_hi: the one tail computation.

    A family with a closed-form tail reads it.  Every other family sums
    its populations from the far end of its horizon, which is free of the
    cancellation a 1 - cumsum would have.
    """
    family = FAMILIES[spec.family]
    horizon = family.horizon(spec, dim_hi)  # checked for every family: no tail runs past MAX_HORIZON
    if horizon > MAX_HORIZON:
        raise TruncationInfeasibleError(f"{spec.family} state spreads over more than {MAX_HORIZON} levels")
    k = np.arange(dim_hi + 1)
    if family.tail is not None:
        return family.tail(spec, k)
    terms = np.abs(family.levels(spec, horizon)) ** 2
    return np.cumsum(terms[::-1])[::-1][: dim_hi + 1]


def adaptive_dim(spec: StateSpec, max_dim: int = MAX_DIM) -> int:
    """Smallest admissible truncation, rounded up to the next multiple of 8.

    The returned dim satisfies truncation_tail(spec, dim) < TAIL_TOL.
    Rounding is to the *next* multiple of 8 strictly above the minimal
    level count, so a state needing exactly 40 levels gets dim 48.
    """
    below = np.flatnonzero(_tails(spec, max_dim)[1:] < TAIL_TOL)
    if below.size == 0:
        raise TruncationInfeasibleError(
            f"{spec.family} state needs more than {max_dim} levels for tail < {TAIL_TOL}"
        )
    dim = 8 * ((int(below[0]) + 1) // 8 + 1)
    if dim > max_dim:
        raise TruncationInfeasibleError(f"required dim {dim} exceeds cap {max_dim}")
    return dim


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def _fix_global_phase(amp: np.ndarray) -> np.ndarray:
    mags = np.abs(amp)
    first = int(np.argmax(mags > 1e-12 * mags.max()))
    ph = amp[first] / abs(amp[first])
    return amp * ph.conjugate()


def build_state(spec: StateSpec, dim: int):
    """Construct the state a spec describes from its family's record: a FockVector, or a DiagonalState if mixed.

    Every named constructor below calls it.  The truncation must discard
    less than ``TAIL_TOL`` of the probability (a phase table shorter than
    the dim is refused first); the retained amplitudes (or populations)
    are renormalized and the discarded mass is recorded on the state.
    """
    family = FAMILIES[spec.family]
    phases = None if family.phases is None else family.phases(spec, dim)
    tail = truncation_tail(spec, dim)
    if tail >= TAIL_TOL:
        raise TailMassError(f"truncation discards {tail:.3e} > {TAIL_TOL} probability")
    levels = family.levels(spec, dim)
    if not family.pure:
        return DiagonalState(levels / levels.sum(), tail_mass=tail)
    if phases is not None:
        levels = levels * phases
    return FockVector(_fix_global_phase(levels / np.linalg.norm(levels)), tail_mass=tail)


def build_pair(a, b, dim: int | None = None, max_dim: int = MAX_DIM) -> tuple:
    """Two states at one dim: the one rule every distance's pair goes through.

    ``a`` and ``b`` are each a StateSpec or a built state.  The dim is
    ``dim`` when given, within [1, max_dim]; else the larger of each
    spec's ``adaptive_dim`` and each built state's dim.  Specs are built
    at it, built states pass as they are, and the two must share a dim.
    """
    for obj in (a, b):
        if not isinstance(obj, (StateSpec, FockVector, DiagonalState, DensityOperator)):
            raise StateValidationError(f"cannot interpret {type(obj).__name__} as a state")
    if dim is None:
        dim = max(adaptive_dim(s, max_dim) if isinstance(s, StateSpec) else s.dim for s in (a, b))
    elif not 1 <= dim <= max_dim:
        raise TruncationInfeasibleError(f"dim {dim} outside [1, {max_dim}]")
    ra, rb = (build_state(s, dim) if isinstance(s, StateSpec) else s for s in (a, b))
    _check_dims(ra, rb)
    return ra, rb


def fock(n: int, dim: int) -> FockVector:
    """Number state |n> in a dim-dimensional truncation; n is an integer in [0, dim)."""
    if not isinstance(n, (int, np.integer)) or not 0 <= n < dim:
        raise StateValidationError(f"need an integer 0 <= n < dim, got n={n!r}, dim={dim}")
    return build_state(StateSpec("fock", {"n": int(n)}), dim)


def coherent(alpha: complex, dim: int) -> FockVector:
    """Coherent state: c_n proportional to alpha^n / sqrt(n!)."""
    return build_state(StateSpec("coherent", {"alpha": complex(alpha)}), dim)


def generalized_coherent(alpha: complex, phases, dim: int) -> FockVector:
    """Coherent amplitudes with per-level phases exp(i phi(n)) attached."""
    return build_state(StateSpec("generalized_coherent", {"alpha": complex(alpha), "phases": phases}), dim)


def yurke_stoler_phases(dim: int) -> np.ndarray:
    """Phase table phi(2k) = 0, phi(2k+1) = -pi/2."""
    ph = np.zeros(dim)
    ph[1::2] = -math.pi / 2.0
    return ph


def cat(alpha: complex, phi: float, dim: int) -> FockVector:
    """Superposition (|alpha> + e^{i phi} |-alpha>) / sqrt(2[1 + cos(phi) e^{-2|alpha|^2}])."""
    return build_state(StateSpec("cat", {"alpha": complex(alpha), "phi": float(phi)}), dim)


def squeezed_vacuum(zeta: complex, dim: int) -> FockVector:
    """Squeezed vacuum: even-level amplitudes proportional to sqrt((2n)!)/(2^n n!) zeta^n."""
    return build_state(StateSpec("squeezed_vacuum", {"zeta": complex(zeta)}), dim)


def coherent_phase(epsilon: complex, dim: int) -> FockVector:
    """Lowering-operator phase eigenstate: c_n = sqrt(1-|eps|^2) eps^n."""
    return build_state(StateSpec("coherent_phase", {"epsilon": complex(epsilon)}), dim)


def thermal(nbar: float, dim: int) -> DiagonalState:
    """Thermal state: diagonal geometric populations with mean nbar."""
    return build_state(StateSpec("thermal", {"nbar": float(nbar)}), dim)


def as_density(spec: StateSpec, dim: int) -> DensityOperator:
    """``build_state`` as a validated DensityOperator, whatever the family."""
    state = build_state(spec, dim)
    return DensityOperator(state.mat, state.tail_mass)


# ---------------------------------------------------------------------------
# observables and moments
# ---------------------------------------------------------------------------

def mandel_q(rho) -> float:
    """<N^2>/<N> - <N> - 1 of a state of any kind; zero for Poissonian statistics."""
    p = rho.populations
    n = np.arange(rho.dim)
    nbar = float((n * p).sum())
    if nbar <= 1e-12:
        raise UndefinedQuantityError("Mandel Q undefined for the vacuum")
    n2 = float((n * n * p).sum())
    return n2 / nbar - nbar - 1.0


def _as_matrix(rho) -> np.ndarray:
    return np.asarray(getattr(rho, "mat", rho), dtype=complex)


def _moments(diagonal, dim: int, cutoff: int) -> np.ndarray:
    """M(k,l) = Tr(adag^k a^l X) for k, l = 0..cutoff, read off the diagonals of X.

    ``diagonal(j)`` returns the diagonal of the dim x dim matrix X at
    offset j, in ``np.diagonal``'s convention: ``mat.diagonal`` for a
    matrix at hand, or a product formula that never builds X.
    M(k,l) = sum_m f_k(m) f_l(m) X[m+l, m+k] with f_k(m) = sqrt((m+k)!/m!),
    one cumulative product over k; orders from dim up read 0.
    """
    top = min(cutoff, dim - 1)
    km = np.add.outer(np.arange(top + 1), np.arange(dim))
    # f_k(m) is read only where m + k < dim; zero beyond, where it could overflow
    steps = np.where(km < dim, np.sqrt(km), 0.0)
    steps[0] = 1.0
    f = np.cumprod(steps, axis=0)
    out = np.zeros((cutoff + 1, cutoff + 1), dtype=complex)
    for k in range(top + 1):
        for l in range(top + 1):
            n = dim - max(k, l)
            # f_l X first: f_k f_l alone can overflow where the moment does not
            out[k, l] = f[k, :n] @ (f[l, :n] * diagonal(k - l)[min(k, l) :])
    return out


def moment(rho, k: int, l: int) -> complex:
    """Normally ordered moment Tr(adag^k a^l rho).

    ``rho`` may be a state of any kind or a raw matrix.
    """
    mat = _as_matrix(rho)
    dim = mat.shape[0]
    if k < 0 or l < 0:
        raise StateValidationError("moment orders must be nonnegative")
    if k >= dim or l >= dim:
        raise StateValidationError(f"orders ({k},{l}) overflow truncation dim {dim}")
    return complex(_moments(mat.diagonal, dim, max(k, l))[k, l])


def ladder_moments(state) -> tuple[complex, complex, float]:
    """<a>, <a^2> and <adag a> of a state of any kind.

    Entries (0,1), (0,2) and (1,1) of the moment kernel on ``state.mat``;
    orders a truncation of dim 1 or 2 cannot hold read 0.
    """
    m = _moments(state.mat.diagonal, state.dim, 2)
    return complex(m[0, 1]), complex(m[0, 2]), float(m[1, 1].real)


def quadrature_moments(moments, theta):
    """Mean and standard deviation of the quadrature cos(theta) q + sin(theta) p, entrywise for an array of angles.

    ``moments`` is (<a>, <a^2>, <adag a>), as ``ladder_moments`` returns.
    The mean is sqrt(2) Re(<a> e^{-i theta}), the variance
    <adag a> - |<a>|^2 + 1/2 + Re((<a^2> - <a>^2) e^{-2 i theta}).
    """
    m, a2, n = moments
    rot = np.exp(-1j * np.asarray(theta))
    var = n - abs(m) ** 2 + 0.5 + ((a2 - m * m) * rot * rot).real
    return math.sqrt(2.0) * (m * rot).real, _clamped_sqrt(var)


@dataclass(frozen=True)
class MomentTable:
    """Normally ordered moments M^{(k,l)} for k, l = 0..cutoff."""

    m: np.ndarray

    def __post_init__(self):
        m = np.array(self.m, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:
            raise StateValidationError(f"moment table shape {m.shape} is not a non-empty square")
        defect = float(np.abs(m - m.conj().T).max())
        if defect > 1e-9 * max(1.0, float(np.abs(m).max())):
            raise StateValidationError(f"moment table breaks M(k,l) = M(l,k)*: {defect:.3e}")
        m.setflags(write=False)
        object.__setattr__(self, "m", m)

    @property
    def cutoff(self) -> int:
        return self.m.shape[0] - 1


def moment_table(rho, cutoff: int) -> MomentTable:
    """All moments up to the cutoff from one diagonal sweep; any state or a raw matrix."""
    mat = _as_matrix(rho)
    dim = mat.shape[0]
    if not 0 <= cutoff < dim:
        raise StateValidationError(f"cutoff {cutoff} outside [0, {dim}) for truncation dim {dim}")
    return MomentTable(_moments(mat.diagonal, dim, cutoff))


def inv_sqrt_factorials(n: int) -> np.ndarray:
    """1/sqrt(k!) for k < n by a cumulative product: k! is never formed, so no entry overflows."""
    return np.cumprod(np.concatenate(([1.0], 1.0 / np.sqrt(np.arange(1, n)))))


# ---------------------------------------------------------------------------
# textual grammar (shared with the CLI)
# ---------------------------------------------------------------------------

def _parse_real(text: str) -> float:
    """float(text), rejecting nan and inf: no state has a non-finite parameter."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {text!r}")
    return value


def _parse_complex(fields: list[str], what: str) -> complex:
    try:
        if len(fields) == 1:
            return complex(_parse_real(fields[0]), 0.0)
        if len(fields) == 2:
            return complex(_parse_real(fields[0]), _parse_real(fields[1]))
    except ValueError as exc:
        raise SpecParseError(f"bad {what} in {fields!r}") from exc
    raise SpecParseError(f"{what} takes 're' or 're,im', got {fields!r}")


def _fields(fields: list[str], count: int, message: str) -> list[str]:
    if len(fields) != count:
        raise SpecParseError(message)
    return fields


def _parse_gencoh(fields: list[str]) -> dict:
    if len(fields) != 3 or not fields[2].startswith("@"):
        raise SpecParseError("gencoh takes re,im,@phasefile")
    alpha = _parse_complex(fields[:2], "alpha")
    try:
        with open(fields[2][1:], "r", encoding="utf-8") as fh:
            phases = [_parse_real(line) for line in fh if line.strip()]
    except OSError as exc:
        raise SpecParseError(f"cannot read phase file {fields[2][1:]!r}") from exc
    return {"alpha": alpha, "phases": phases}


def parse_state_spec(text: str) -> StateSpec:
    """Parse the grammar shared with the CLI.

    fock:n | coherent:re[,im] | cat:re,im,phi | squeezed:re[,im] |
    phase:re[,im] | thermal:nbar | gencoh:re,im,@phasefile
    """
    head, sep, rest = text.partition(":")
    if not sep:
        raise SpecParseError(f"missing ':' in state spec {text!r}")
    fields = rest.split(",") if rest else []
    if head not in _HEADS:
        raise SpecParseError(f"unknown family {head!r}")
    try:
        return StateSpec(_HEADS[head], FAMILIES[_HEADS[head]].parse(fields))
    except (ValueError, StateValidationError) as exc:
        raise SpecParseError(f"bad state spec {text!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# one record per family
# ---------------------------------------------------------------------------

def _finite(x, kind) -> bool:
    """Whether x is a finite number of ``kind``: numbers.Real or numbers.Complex; an int past the doubles is not."""
    try:
        return isinstance(x, kind) and cmath.isfinite(x)
    except OverflowError:
        return False


def _finite_reals(x) -> bool:
    table = np.asarray(x)
    return table.ndim == 1 and table.dtype.kind in "iuf" and bool(np.isfinite(table).all())


def _unit_disc(key: str) -> tuple:
    """The checks of a parameter inside the unit disc; a missing one reads 1."""
    return (
        (lambda p: isinstance(p.get(key, 1.0), numbers.Complex), f"a complex {key}"),
        (lambda p: abs(p.get(key, 1.0)) < 1.0 - MODULUS_MARGIN, f"|{key}| < 1 - 1e-9"),
    )


_ALPHA_CHECKS = (
    (lambda p: "alpha" in p, "alpha"),
    (lambda p: _finite(p["alpha"], numbers.Complex), "a finite complex alpha"),
)


def _coherent_levels(spec: StateSpec, n: int) -> np.ndarray:
    plus = coherent_amplitudes(spec.params["alpha"], n)
    if plus[0].real < np.finfo(float).tiny:
        # exp(-|alpha|^2/2) left the normal range: every amplitude would be noise or 0
        raise TruncationInfeasibleError(
            f"{spec.family} state with |alpha|^2 = {abs(spec.params['alpha']) ** 2:.6g} underflows double precision")
    return plus


def _cat_levels(spec: StateSpec, n: int) -> np.ndarray:
    plus, alpha, phi = _coherent_levels(spec, n), spec.params["alpha"], spec.params["phi"]
    denom = 1.0 + math.cos(phi) * math.exp(-2.0 * abs(alpha) ** 2)
    if denom <= 1e-14:
        raise DegenerateStateError("cat normalization is 0/0 at alpha -> 0, phi -> pi; use fock(1) directly")
    signs = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    return (plus + cmath.exp(1j * phi) * signs * plus) / math.sqrt(2.0 * denom)


def _squeezed_levels(spec: StateSpec, n: int) -> np.ndarray:
    # even levels only: c_{2k} = c_{2k-2} zeta sqrt((2k-1)/(2k))
    zeta = complex(spec.params["zeta"])
    steps = np.empty((n + 1) // 2, dtype=complex)
    steps[:1] = (1.0 - abs(zeta) ** 2) ** 0.25
    k = np.arange(1, steps.size)
    steps[1:] = zeta * np.sqrt((2 * k - 1) / (2 * k))
    amp = np.zeros(n, dtype=complex)
    amp[::2] = np.cumprod(steps)
    return amp


def _gencoh_phases(spec: StateSpec, dim: int) -> np.ndarray:
    phases = spec.params["phases"]
    if len(phases) < dim:
        raise StateValidationError(f"phase table has {len(phases)} entries, need >= {dim}")
    return np.exp(1j * np.asarray(phases[:dim], dtype=float))


def _poisson_horizon(spec: StateSpec, dim: int) -> int:
    lam = alpha_squared(spec)  # Poisson tail: mean + generous multiple of the standard deviation
    return max(dim + TAIL_MARGIN, int(lam + 30.0 * math.sqrt(lam + 1.0)) + TAIL_MARGIN)


def _squeezed_horizon(spec: StateSpec, dim: int) -> int:
    az = abs(spec.params["zeta"])  # below 1, as its checks hold
    return dim + 8 if az < 1e-12 else max(dim + TAIL_MARGIN, 2 * (int(-60.0 / math.log(az * az)) + 8))


def _squeezed_ladder(spec: StateSpec) -> tuple:
    """<a> = 0, <a^2> = zeta / (1 - |zeta|^2) and <adag a> = |zeta|^2 / (1 - |zeta|^2) of the squeezed vacuum."""
    zeta = complex(spec.params["zeta"])
    unsqueezed = 1.0 - abs(zeta) ** 2
    return 0j, zeta / unsqueezed, abs(zeta) ** 2 / unsqueezed


def _thermal_tail(spec: StateSpec, k: np.ndarray) -> np.ndarray:
    """(nbar / (1 + nbar))^k: the mass on levels >= k, and the population ratio to the k."""
    return (spec.params["nbar"] / (1.0 + spec.params["nbar"])) ** k


@dataclass(frozen=True)
class Family:
    """What a state family is: ``parse`` reads the fields after its grammar ``head``; each of
    ``checks`` pairs a test of the params with what it requires; ``levels(spec, n)`` gives
    amplitudes 0..n-1 of the untruncated state (populations where ``pure`` is false), to which
    ``phases(spec, dim)`` is attached; ``tail(spec, k)`` is the closed-form mass on levels >= k;
    populations past ``horizon(spec, dim)`` are below 1e-25.  ``ladder(spec)`` is set exactly for
    the Gaussian families (coherent, squeezed vacuum, thermal) and gives their <a>, <a^2> and
    <adag a> in closed form.  Those three moments fix a Gaussian state's tomogram at every angle:
    the normal density of mean and spread ``quadrature_moments``, which ``tomography`` reads in
    place of a built state, so no truncation bounds it.  Where ``ladder`` gives <a> = <a^2> = 0,
    the Gaussian is thermal (the vacuum included), diagonal in the Fock basis, and its tomogram
    is the same at every angle.
    """

    head: str
    parse: Callable[[list[str]], dict]
    checks: tuple[tuple[Callable[[dict], bool], str], ...]
    levels: Callable[[StateSpec, int], np.ndarray]
    horizon: Callable[[StateSpec, int], int] = lambda spec, dim: dim + TAIL_MARGIN
    tail: Callable[[StateSpec, np.ndarray], np.ndarray] | None = None
    pure: bool = True
    phases: Callable[[StateSpec, int], np.ndarray] | None = None
    ladder: Callable[[StateSpec], tuple] | None = None


FAMILIES = {
    "fock": Family(
        "fock", lambda f: {"n": int(_fields(f, 1, "fock takes exactly one integer")[0])},
        ((lambda p: isinstance(p.get("n"), int) and p["n"] >= 0, "an integer n >= 0"),),
        lambda spec, n: np.eye(1, n, spec.params["n"], dtype=complex)[0],
        tail=lambda spec, k: (k <= spec.params["n"]).astype(float),
    ),
    "coherent": Family(
        "coherent", lambda f: {"alpha": _parse_complex(f, "alpha")}, _ALPHA_CHECKS, _coherent_levels,
        horizon=_poisson_horizon,
        # alpha * alpha: alpha ** 2 raises OverflowError before alpha_squared can refuse
        ladder=lambda spec: (spec.params["alpha"], spec.params["alpha"] * spec.params["alpha"],
                             alpha_squared(spec)),
    ),
    "generalized_coherent": Family(
        "gencoh", _parse_gencoh,
        _ALPHA_CHECKS + ((lambda p: p.get("phases") is not None and len(p["phases"]) > 0, "a phase table"),
                         (lambda p: _finite_reals(p["phases"]), "a phase table of finite reals")),
        _coherent_levels, horizon=_poisson_horizon, phases=_gencoh_phases,
    ),
    "cat": Family(
        "cat", lambda f: {"alpha": _parse_complex(_fields(f, 3, "cat takes re,im,phi")[:2], "alpha"),
                          "phi": _parse_real(f[2])},
        _ALPHA_CHECKS + ((lambda p: "phi" in p, "a phase phi"),
                         (lambda p: _finite(p["phi"], numbers.Real), "a finite real phi")),
        _cat_levels, horizon=_poisson_horizon,
    ),
    "squeezed_vacuum": Family(
        "squeezed", lambda f: {"zeta": _parse_complex(f, "zeta")}, _unit_disc("zeta"), _squeezed_levels,
        horizon=_squeezed_horizon, ladder=_squeezed_ladder,
    ),
    "coherent_phase": Family(
        "phase", lambda f: {"epsilon": _parse_complex(f, "epsilon")}, _unit_disc("epsilon"),
        lambda spec, n: math.sqrt(1.0 - abs(complex(spec.params["epsilon"])) ** 2)
        * np.power(complex(spec.params["epsilon"]), np.arange(n)),
        tail=lambda spec, k: (abs(spec.params["epsilon"]) ** 2) ** k,
    ),
    "thermal": Family(
        "thermal", lambda f: {"nbar": _parse_real(_fields(f, 1, "thermal takes exactly one real")[0])},
        ((lambda p: p.get("nbar") is not None, "nbar >= 0"),
         (lambda p: isinstance(p["nbar"], numbers.Real), "a finite real nbar"),
         (lambda p: not p["nbar"] < 0, "nbar >= 0"),
         (lambda p: _finite(p["nbar"], numbers.Real), "a finite real nbar")),
        lambda spec, n: _thermal_tail(spec, np.arange(n)) / (1.0 + spec.params["nbar"]),
        tail=_thermal_tail, pure=False, ladder=lambda spec: (0j, 0j, float(spec.params["nbar"])),
    ),
}
_HEADS = {family.head: name for name, family in FAMILIES.items()}
