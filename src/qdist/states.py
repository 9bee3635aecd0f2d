"""Constructors for the supported state families, plus moment machinery.

Pure families (Fock, coherent, generalized coherent, cat, squeezed
vacuum, coherent phase) produce ``FockVector``; the thermal family
produces a diagonal ``DensityOperator``.  ``build_state`` is the one
family dispatch.  Each pure family has one amplitude recurrence, whose
squared moduli are also its populations and so size its truncation.
Every constructor enforces a truncation-tail budget of 1e-12 and
renormalizes the retained amplitudes, recording the discarded mass on
the returned object.  ``ladder_moments`` gives <a>, <a^2> and <adag a>
in O(dim).

Global phase convention: the first nonvanishing amplitude is made real
and positive, so state equality is testable despite the projective
nature of pure states.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateStateError,
    InsufficientCutoffError,
    SpecParseError,
    StateValidationError,
    TailMassError,
    TruncationInfeasibleError,
    UndefinedQuantityError,
)
from .fock_core import DensityOperator, FockVector, annihilation

TAIL_TOL = 1e-12
MODULUS_MARGIN = 1e-9  # squeezed/phase parameters must satisfy |z| < 1 - this
MAX_DIM = 512
# Level horizons of the tail sums are capped here before anything is
# allocated; a state whose populations reach this far fits no feasible dim.
MAX_HORIZON = 1 << 16

FAMILIES = (
    "fock",
    "coherent",
    "generalized_coherent",
    "cat",
    "squeezed_vacuum",
    "coherent_phase",
    "thermal",
)


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
    """

    family: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise StateValidationError(f"unknown family {self.family!r}")
        p = self.params
        if self.family == "fock":
            n = p.get("n")
            if not isinstance(n, int) or n < 0:
                raise StateValidationError("fock requires an integer n >= 0")
        elif self.family in ("coherent", "generalized_coherent", "cat"):
            if "alpha" not in p:
                raise StateValidationError(f"{self.family} requires alpha")
            if self.family == "cat" and "phi" not in p:
                raise StateValidationError("cat requires a phase phi")
            if self.family == "generalized_coherent":
                phases = p.get("phases")
                if phases is None or len(phases) == 0:
                    raise StateValidationError("generalized_coherent requires a phase table")
        elif self.family == "squeezed_vacuum":
            if abs(p.get("zeta", 1.0)) >= 1.0 - MODULUS_MARGIN:
                raise StateValidationError("squeezed_vacuum requires |zeta| < 1 - 1e-9")
        elif self.family == "coherent_phase":
            if abs(p.get("epsilon", 1.0)) >= 1.0 - MODULUS_MARGIN:
                raise StateValidationError("coherent_phase requires |epsilon| < 1 - 1e-9")
        elif self.family == "thermal":
            nbar = p.get("nbar")
            if nbar is None or nbar < 0:
                raise StateValidationError("thermal requires nbar >= 0")

    @property
    def is_pure(self) -> bool:
        return self.family != "thermal"


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


def _amplitudes(spec: StateSpec, nmax: int) -> np.ndarray:
    """Amplitudes c_0..c_{nmax-1} of the untruncated pure state a spec describes.

    A generalized coherent state's per-level phases, which leave its
    populations alone, are attached by ``build_state``.
    """
    f, p = spec.family, spec.params
    if f == "fock":
        amp = np.zeros(nmax, dtype=complex)
        if p["n"] < nmax:
            amp[p["n"]] = 1.0
        return amp
    if f == "coherent_phase":
        eps = complex(p["epsilon"])
        return math.sqrt(1.0 - abs(eps) ** 2) * np.power(eps, np.arange(nmax))
    if f == "squeezed_vacuum":
        # even levels only: c_{2k} = c_{2k-2} zeta sqrt((2k-1)/(2k))
        zeta = complex(p["zeta"])
        steps = np.empty((nmax + 1) // 2, dtype=complex)
        steps[:1] = (1.0 - abs(zeta) ** 2) ** 0.25
        k = np.arange(1, steps.size)
        steps[1:] = zeta * np.sqrt((2 * k - 1) / (2 * k))
        amp = np.zeros(nmax, dtype=complex)
        amp[::2] = np.cumprod(steps)
        return amp
    plus = coherent_amplitudes(p["alpha"], nmax)
    if plus[0].real < np.finfo(float).tiny:
        # exp(-|alpha|^2/2) left the normal range: every amplitude would be noise or 0
        raise TruncationInfeasibleError(
            f"{f} state with |alpha|^2 = {abs(p['alpha']) ** 2:.6g} underflows double precision"
        )
    if f == "cat":
        denom = 1.0 + math.cos(p["phi"]) * math.exp(-2.0 * abs(p["alpha"]) ** 2)
        if denom <= 1e-14:
            raise DegenerateStateError(
                "cat normalization is 0/0 at alpha -> 0, phi -> pi; use fock(1) directly"
            )
        signs = np.where(np.arange(nmax) % 2 == 0, 1.0, -1.0)
        return (plus + cmath.exp(1j * p["phi"]) * signs * plus) / math.sqrt(2.0 * denom)
    return plus


def photon_distribution_terms(spec: StateSpec, nmax: int) -> np.ndarray:
    """Exact (untruncated-formula) level populations p_0..p_{nmax-1}."""
    f, p = spec.family, spec.params
    if f == "thermal":
        nbar = p["nbar"]
        x = nbar / (1.0 + nbar)
        return (x ** np.arange(nmax)) / (1.0 + nbar)
    return np.abs(_amplitudes(spec, nmax)) ** 2


def truncation_tail(spec: StateSpec, dim: int) -> float:
    """Probability mass on levels >= dim."""
    f, p = spec.family, spec.params
    if f == "fock":
        return 0.0 if p["n"] < dim else 1.0
    if f in ("coherent_phase", "thermal"):
        # geometric tail has a closed form
        if f == "coherent_phase":
            x = abs(p["epsilon"]) ** 2
        else:
            nbar = p["nbar"]
            x = nbar / (1.0 + nbar) if nbar > 0 else 0.0
        return float(x**dim)
    # sum the tail termwise: free of the cancellation a 1 - cumsum would have
    nmax = _tail_horizon(spec, dim)
    terms = photon_distribution_terms(spec, nmax)
    return float(terms[dim:].sum())


def _tail_horizon(spec: StateSpec, dim: int) -> int:
    """Index beyond which level populations are negligible (< 1e-25), at most MAX_HORIZON."""
    horizon = dim + 64
    if spec.family in ("coherent", "generalized_coherent", "cat"):
        lam = abs(spec.params["alpha"]) ** 2
        # Poisson tail: mean + generous multiple of the standard deviation
        horizon = max(horizon, int(lam + 30.0 * math.sqrt(lam + 1.0)) + 64)
    elif spec.family == "squeezed_vacuum":
        az = abs(spec.params["zeta"])
        if az < 1e-12:
            horizon = dim + 8
        else:
            k = int(-60.0 / math.log(az * az)) + 8 if az < 1.0 else MAX_DIM
            horizon = max(horizon, 2 * k)
    if horizon > MAX_HORIZON:
        raise TruncationInfeasibleError(f"{spec.family} state spreads over more than {MAX_HORIZON} levels")
    return horizon


def adaptive_dim(spec: StateSpec, tail_tol: float = TAIL_TOL, max_dim: int = MAX_DIM) -> int:
    """Smallest admissible truncation, rounded up to the next multiple of 8.

    The returned dim satisfies truncation_tail(spec, dim) < tail_tol.
    Rounding is to the *next* multiple of 8 strictly above the minimal
    level count, so a state needing exactly 40 levels gets dim 48.
    """
    if not (0.0 < tail_tol <= 1e-6):
        raise StateValidationError("tail_tol must lie in (0, 1e-6]")
    if spec.family == "fock":
        k = spec.params["n"] + 1
    else:
        k = None
        nmax = _tail_horizon(spec, max_dim)
        terms = photon_distribution_terms(spec, nmax)
        suffix = np.cumsum(terms[::-1])[::-1]  # suffix[k] = mass on levels >= k
        for cand in range(1, min(nmax, max_dim) + 1):
            tail = float(suffix[cand]) if cand < nmax else 0.0
            if tail < tail_tol:
                k = cand
                break
        if k is None:
            raise TruncationInfeasibleError(
                f"{spec.family} state needs more than {max_dim} levels for tail < {tail_tol}"
            )
    dim = 8 * (k // 8 + 1)
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
    """Construct the state a spec describes; FockVector unless thermal.

    This is the one family dispatch: the named constructors below, all
    but ``fock``, call it.  The truncation must discard less than ``TAIL_TOL`` of the
    probability; the retained amplitudes (or populations) are
    renormalized and the discarded mass is recorded on the state.
    """
    f, p = spec.family, spec.params
    if f == "fock":
        return fock(p["n"], dim)
    if f == "generalized_coherent" and len(p["phases"]) < dim:
        raise StateValidationError(f"phase table has {len(p['phases'])} entries, need >= {dim}")
    tail = truncation_tail(spec, dim)
    if tail >= TAIL_TOL:
        raise TailMassError(f"truncation discards {tail:.3e} > {TAIL_TOL} probability")
    if f == "thermal":
        pops = photon_distribution_terms(spec, dim)
        return DensityOperator(np.diag(pops / pops.sum()).astype(complex), tail_mass=tail)
    amp = _amplitudes(spec, dim)
    if f == "generalized_coherent":
        amp = amp * np.exp(1j * np.asarray(p["phases"][:dim], dtype=float))
    return FockVector(_fix_global_phase(amp / np.linalg.norm(amp)), tail_mass=tail)


def fock(n: int, dim: int) -> FockVector:
    """Number state |n> in a dim-dimensional truncation."""
    if not 0 <= n < dim:
        raise StateValidationError(f"need 0 <= n < dim, got n={n}, dim={dim}")
    amp = np.zeros(dim, dtype=complex)
    amp[n] = 1.0
    return FockVector(amp)


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


def thermal(nbar: float, dim: int) -> DensityOperator:
    """Thermal state: diagonal geometric populations with mean nbar."""
    return build_state(StateSpec("thermal", {"nbar": float(nbar)}), dim)


def as_density(spec: StateSpec, dim: int) -> DensityOperator:
    """``build_state`` as a validated DensityOperator, whatever the family."""
    state = build_state(spec, dim)
    return state if isinstance(state, DensityOperator) else DensityOperator(state.mat, state.tail_mass)


# ---------------------------------------------------------------------------
# observables and moments
# ---------------------------------------------------------------------------

def mandel_q(rho) -> float:
    """<N^2>/<N> - <N> - 1 of a FockVector or DensityOperator; zero for Poissonian statistics."""
    p = rho.mat.diagonal().real
    n = np.arange(rho.dim)
    nbar = float((n * p).sum())
    if nbar <= 1e-12:
        raise UndefinedQuantityError("Mandel Q undefined for the vacuum")
    n2 = float((n * n * p).sum())
    return n2 / nbar - nbar - 1.0


def _as_matrix(rho) -> np.ndarray:
    return np.asarray(getattr(rho, "mat", rho), dtype=complex)


def moment(rho, k: int, l: int) -> complex:
    """Normally ordered moment Tr(adag^k a^l rho).

    ``rho`` may be a FockVector, a DensityOperator or a raw matrix
    (useful for diagnosing unconverged moment reconstructions).
    """
    mat = _as_matrix(rho)
    dim = mat.shape[0]
    if k < 0 or l < 0:
        raise StateValidationError("moment orders must be nonnegative")
    if k >= dim or l >= dim:
        raise StateValidationError(f"orders ({k},{l}) overflow truncation dim {dim}")
    a = annihilation(dim)
    ak = np.linalg.matrix_power(a, k)
    al = np.linalg.matrix_power(a, l)
    return complex(np.trace(ak.conj().T @ al @ mat))


def ladder_moments(state) -> tuple[complex, complex, float]:
    """<a>, <a^2> and <adag a> of a FockVector or DensityOperator, in O(dim).

    <a^k> (k = 1, 2) sums sqrt(n!/(n-k)!) times conj(c_{n-k}) c_n for a
    pure state, or times rho_{n,n-k} for a density operator; <adag a>
    sums n times the populations.
    """
    n = np.arange(state.dim)
    if isinstance(state, FockVector):
        c = state.amp
        return (
            complex(np.vdot(c[:-1], np.sqrt(n[1:]) * c[1:])),
            complex(np.vdot(c[:-2], np.sqrt(n[1:-1] * n[2:]) * c[2:])),
            float(n @ np.abs(c) ** 2),
        )
    rho = state.mat
    return (
        complex(np.sqrt(n[1:]) @ rho.diagonal(-1)),
        complex(np.sqrt(n[1:-1] * n[2:]) @ rho.diagonal(-2)),
        float(n @ rho.diagonal().real),
    )


def quadrature_moments(moments, theta: float) -> tuple[float, float]:
    """Mean and standard deviation of the quadrature cos(theta) q + sin(theta) p.

    ``moments`` is (<a>, <a^2>, <adag a>), as ``ladder_moments`` returns.
    The mean is sqrt(2) Re(<a> e^{-i theta}), the variance
    <adag a> - |<a>|^2 + 1/2 + Re((<a^2> - <a>^2) e^{-2 i theta}).
    """
    m, a2, n = moments
    rot = cmath.exp(-1j * theta)
    var = n - abs(m) ** 2 + 0.5 + ((a2 - m * m) * rot * rot).real
    return math.sqrt(2.0) * (m * rot).real, math.sqrt(max(var, 0.0))


def quadrature_sigma_min(moments) -> float:
    """Smallest standard deviation of ``quadrature_moments``, where its cosine term is -1."""
    m, a2, n = moments
    return math.sqrt(max(n - abs(m) ** 2 + 0.5 - abs(a2 - m * m), 0.0))


@dataclass(frozen=True)
class MomentTable:
    """Normally ordered moments M^{(k,l)} for k, l = 0..cutoff."""

    cutoff: int
    m: np.ndarray

    def __post_init__(self):
        m = np.array(self.m, dtype=complex)
        want = (self.cutoff + 1, self.cutoff + 1)
        if m.shape != want:
            raise StateValidationError(f"moment table shape {m.shape} != {want}")
        defect = float(np.abs(m - m.conj().T).max())
        if defect > 1e-9 * max(1.0, float(np.abs(m).max())):
            raise StateValidationError(f"moment table breaks M(k,l) = M(l,k)*: {defect:.3e}")
        m.setflags(write=False)
        object.__setattr__(self, "m", m)


def moment_table(rho, cutoff: int) -> MomentTable:
    """All moments up to the cutoff, sharing one ladder-power sweep; any state or a raw matrix."""
    mat = _as_matrix(rho)
    dim = mat.shape[0]
    if cutoff >= dim:
        raise StateValidationError(f"cutoff {cutoff} overflows truncation dim {dim}")
    a = annihilation(dim)
    powers = [np.eye(dim, dtype=complex)]
    for _ in range(cutoff):
        powers.append(a @ powers[-1])
    right = [p @ mat for p in powers]  # a^l rho
    m = np.empty((cutoff + 1, cutoff + 1), dtype=complex)
    for k in range(cutoff + 1):
        for l in range(cutoff + 1):
            # Tr(adag^k X) = <a^k, X> in the Frobenius inner product
            m[k, l] = np.vdot(powers[k], right[l])
    return MomentTable(cutoff, m)


def reconstruction_matrix(table: MomentTable, dim: int) -> np.ndarray:
    """Truncated moment-series reconstruction, Hermitized and renormalized.

    The low-order moments of the result reproduce the table exactly (the
    expansion operators are dual to the moment monomials), but the
    matrix itself approaches a physical state only as the cutoff grows;
    states with factorially growing moments need cutoffs well above the
    matrix size.  A trace deviating from 1 by more than 1e-3 indicates
    an inconsistent table and raises ``InsufficientCutoffError``.
    """
    K = table.cutoff
    fact = np.array([math.factorial(i) for i in range(K + 1)], dtype=float)
    rho = np.zeros((dim, dim), dtype=complex)
    for k in range(K + 1):
        for l in range(K + 1):
            mval = table.m[k, l]
            if mval == 0:
                continue
            jmax = min(k, l)
            for j in range(jmax + 1):
                r, c = l - j, k - j
                if r < dim and c < dim:
                    rho[r, c] += mval * ((-1) ** j) / (fact[j] * math.sqrt(fact[k - j] * fact[l - j]))
    rho = 0.5 * (rho + rho.conj().T)
    tr = float(np.trace(rho).real)
    if abs(tr - 1.0) > 1e-3:
        raise InsufficientCutoffError(f"reconstructed trace {tr!r}; raise the cutoff")
    return rho / tr


def reconstruct_from_moments(table: MomentTable, dim: int) -> DensityOperator:
    """Rebuild a density operator from its normally ordered moments.

    Raises ``InsufficientCutoffError`` when the truncated series has not
    yet converged to a positive-semidefinite matrix.
    """
    from .errors import NotPositiveSemidefiniteError

    rho = reconstruction_matrix(table, dim)
    try:
        return DensityOperator(rho)
    except NotPositiveSemidefiniteError as exc:
        raise InsufficientCutoffError(f"reconstruction not yet physical: {exc}") from exc


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


def parse_state_spec(text: str) -> StateSpec:
    """Parse the grammar shared with the CLI.

    fock:n | coherent:re[,im] | cat:re,im,phi | squeezed:re[,im] |
    phase:re[,im] | thermal:nbar | gencoh:re,im,@phasefile
    """
    head, sep, rest = text.partition(":")
    if not sep:
        raise SpecParseError(f"missing ':' in state spec {text!r}")
    fields = rest.split(",") if rest else []
    try:
        if head == "fock":
            if len(fields) != 1:
                raise SpecParseError("fock takes exactly one integer")
            return StateSpec("fock", {"n": int(fields[0])})
        if head == "coherent":
            return StateSpec("coherent", {"alpha": _parse_complex(fields, "alpha")})
        if head == "cat":
            if len(fields) != 3:
                raise SpecParseError("cat takes re,im,phi")
            return StateSpec(
                "cat",
                {"alpha": _parse_complex(fields[:2], "alpha"), "phi": _parse_real(fields[2])},
            )
        if head == "squeezed":
            return StateSpec("squeezed_vacuum", {"zeta": _parse_complex(fields, "zeta")})
        if head == "phase":
            return StateSpec("coherent_phase", {"epsilon": _parse_complex(fields, "epsilon")})
        if head == "thermal":
            if len(fields) != 1:
                raise SpecParseError("thermal takes exactly one real")
            return StateSpec("thermal", {"nbar": _parse_real(fields[0])})
        if head == "gencoh":
            if len(fields) != 3 or not fields[2].startswith("@"):
                raise SpecParseError("gencoh takes re,im,@phasefile")
            alpha = _parse_complex(fields[:2], "alpha")
            try:
                with open(fields[2][1:], "r", encoding="utf-8") as fh:
                    phases = [_parse_real(line) for line in fh if line.strip()]
            except OSError as exc:
                raise SpecParseError(f"cannot read phase file {fields[2][1:]!r}") from exc
            return StateSpec("generalized_coherent", {"alpha": alpha, "phases": phases})
    except (ValueError, StateValidationError) as exc:
        raise SpecParseError(f"bad state spec {text!r}: {exc}") from exc
    raise SpecParseError(f"unknown family {head!r}")
