"""Refusals: one table of bad input -> the exception it raises (or the CLI exit code it ends in).

Each case runs in-process and allocates at most a few MB.  The message
fragment pins the ``raise`` that fires, so a case cannot pass on an
earlier, unrelated refusal of the same class.
"""

import functools
import math

import numpy as np
import pytest

from qdist import (
    DensityOperator,
    FockVector,
    MomentTable,
    PhaseGrid,
    QuasiDistribution,
    StateSpec,
    Tomogram,
    build_pair,
    build_state,
    classical_divergence,
    coherent,
    coherent_fock,
    default_grid,
    fock,
    fock_pair,
    hs_bounds,
    hs_from_moments,
    hs_from_phase_space,
    husimi_q,
    marginal_from_wigner,
    moment,
    moment_table,
    parse_state_spec,
    phase_pair,
    pure_state_distance,
    thermal,
    wigner,
)
from qdist import cli
from qdist.errors import (
    DimensionMismatchError,
    GridError,
    NumericalToleranceError,
    SpecParseError,
    StateValidationError,
    TruncationInfeasibleError,
    UnsupportedCombinationError,
)
from qdist.fock_core import _clamped_sqrt
from qdist.tomography import simpson_weights


def _grid(nq=16):
    return PhaseGrid(-4.0, 4.0, -4.0, 4.0, nq, 16)


def _table(cutoff):
    return moment_table(fock(1, 8), cutoff)


@functools.cache
def _coherent_tables():
    # coherent:3 vs coherent:3.5; the series has not converged at s = 25 or s = 100
    return tuple(moment_table(coherent(alpha, 104), 100) for alpha in (3.0, 3.5))


def _tomogram(w):
    x = np.linspace(-1.0, 1.0, 5)
    return Tomogram(1.0, 0.0, x, w)


def _flat_tomogram():
    return _tomogram(np.full(5, 0.5))


def _two_lobe_wigner():
    # twice a vacuum Wigner function at q = 3 less one at q = -3: mass 1, and its q marginal is negative at -3
    grid = PhaseGrid(-8.0, 8.0, -8.0, 8.0, 65, 65)
    q, p = np.meshgrid(grid.q_axis, grid.p_axis, indexing="ij")
    lobes = 4.0 * np.exp(-((q - 3.0) ** 2) - p * p) - 2.0 * np.exp(-((q + 3.0) ** 2) - p * p)
    return QuasiDistribution(0, grid, lobes)


# id -> (call, expected exception class, message fragment); a CLI argv takes its exit code instead
REFUSALS = {
    # closed forms
    "coherent_fock-negative-m": (lambda: coherent_fock(1.0, -1), StateValidationError, "m must be"),
    "fock_pair-negative-n": (lambda: fock_pair(2, -1), StateValidationError, "occupation numbers"),
    "phase_pair-unit-modulus": (lambda: phase_pair(0.2, 1.0), StateValidationError, "|eps| < 1"),
    # distances
    "pure_state_distance-unknown-kind": (
        lambda: pure_state_distance(fock(0, 4), fock(1, 4), "nope"), StateValidationError, "unknown pure-state"),
    "hs_from_moments-cutoffs": (lambda: hs_from_moments(_table(2), _table(3), 1), DimensionMismatchError, "cutoffs"),
    "hs_from_moments-s_max": (lambda: hs_from_moments(_table(2), _table(2), 3), StateValidationError, "exceeds"),
    "hs_from_moments-diverged-s25": (
        lambda: hs_from_moments(*_coherent_tables(), 25), NumericalToleranceError, "square -1.985e+00 below"),
    "hs_from_moments-diverged-s100": (
        lambda: hs_from_moments(*_coherent_tables(), 100), NumericalToleranceError, "square -1.483e+03 below"),
    "hs_bounds-n-at-dim": (lambda: hs_bounds(fock(0, 4), 4), StateValidationError, "0 <= n < dim"),
    "hs_bounds-negative-n": (lambda: hs_bounds(fock(0, 4), -1), StateValidationError, "0 <= n < dim"),
    "_clamped_sqrt-below-floor": (lambda: _clamped_sqrt(-2e-10), NumericalToleranceError, "below -1e-10"),
    # state kinds
    "FockVector-empty": (lambda: FockVector(np.array([])), StateValidationError, "non-empty 1-d"),
    "FockVector-2d": (lambda: FockVector(np.eye(2)), StateValidationError, "non-empty 1-d"),
    "FockVector.overlap-dims": (lambda: fock(0, 4).overlap(fock(0, 8)), DimensionMismatchError, "dims 4 != 8"),
    "DensityOperator-non-square": (lambda: DensityOperator(np.ones((2, 3))), StateValidationError, "square"),
    # phase space
    "PhaseGrid-too-few-points": (lambda: _grid(nq=15), StateValidationError, "16 points"),
    # a window that is empty, inverted or not finite; each reached a grid density before it was refused
    "PhaseGrid-empty-window": (
        lambda: wigner(fock(0, 8), PhaseGrid(0.0, 0.0, 0.0, 0.0, 16, 16)), StateValidationError, "empty or not finite"),
    "PhaseGrid-inverted-window": (
        lambda: husimi_q(fock(0, 8), PhaseGrid(1.0, -1.0, 1.0, -1.0, 16, 16)), StateValidationError,
        "empty or not finite"),
    "PhaseGrid-nan-edge": (
        lambda: husimi_q(fock(0, 8), PhaseGrid(math.nan, 4.0, -4.0, 4.0, 16, 16)), StateValidationError,
        "empty or not finite"),
    "PhaseGrid-infinite-edge": (
        lambda: husimi_q(fock(0, 8), PhaseGrid(-4.0, 4.0, -4.0, math.inf, 16, 16)), StateValidationError,
        "empty or not finite"),
    "QuasiDistribution-nan-Q": (
        lambda: QuasiDistribution(-1, _grid(), np.full((16, 16), math.nan)), StateValidationError, "[0, 1]"),
    # values that do not match their PhaseGrid's shape
    "PhaseGrid-shape": (
        lambda: QuasiDistribution(0, _grid(), np.zeros((16, 17))), StateValidationError, "values shape"),
    "QuasiDistribution-s=2": (
        lambda: QuasiDistribution(2, _grid(), np.zeros((16, 16))), StateValidationError, "-1, 0 or +1"),
    "simpson_weights-even": (lambda: simpson_weights(4, 0.1), GridError, "odd point count"),
    # the pp form's radial rule counts its nodes before any table: 24 per panel, 1,582 panels at nbar 1e6
    "hs_from_phase_space-pp-radial-cap": (
        lambda: hs_from_phase_space(StateSpec("thermal", {"nbar": 1e6}), StateSpec("thermal", {"nbar": 1.0}), "pp"),
        GridError, "needs 37968 nodes, over the cap of 16384"),
    "hs_from_phase_space-unknown-form": (
        lambda: hs_from_phase_space(fock(0, 4), fock(1, 4), "nope"), UnsupportedCombinationError, "unknown"),
    # specs and moments
    "StateSpec-unknown-family": (lambda: StateSpec("nope"), StateValidationError, "unknown family"),
    "StateSpec-no-alpha": (lambda: StateSpec("coherent", {}), StateValidationError, "requires alpha"),
    "StateSpec-no-phi": (lambda: StateSpec("cat", {"alpha": 1.0}), StateValidationError, "phase phi"),
    "StateSpec-fock-negative-n": (lambda: StateSpec("fock", {"n": -1}), StateValidationError, "integer n >= 0"),
    "StateSpec-gencoh-empty-phase-table": (
        lambda: StateSpec("generalized_coherent", {"alpha": 1.0, "phases": []}), StateValidationError, "phase table"),
    "StateSpec-squeezed-unit-modulus": (
        lambda: StateSpec("squeezed_vacuum", {"zeta": 1.0}), StateValidationError, "|zeta| < 1 - 1e-9"),
    "StateSpec-phase-unit-modulus": (
        lambda: StateSpec("coherent_phase", {"epsilon": -1.0}), StateValidationError, "|epsilon| < 1 - 1e-9"),
    "StateSpec-thermal-negative-nbar": (lambda: StateSpec("thermal", {"nbar": -0.5}), StateValidationError, "nbar >= 0"),
    # the phase table is checked against the dim before the tail, which alpha = 3 at dim 8 would fail
    "build_state-short-phase-table": (
        lambda: build_state(StateSpec("generalized_coherent", {"alpha": 3.0, "phases": [0.0] * 4}), 8),
        StateValidationError, "phase table has 4 entries, need >= 8"),
    # the one pair rule, which the CLI and the phase-space forms share
    "build_pair-foreign-object": (
        lambda: build_pair(fock(0, 4), "fock:0"), StateValidationError, "cannot interpret str as a state"),
    "build_pair-dim-0": (
        lambda: build_pair(StateSpec("fock", {"n": 0}), fock(0, 4), 0), TruncationInfeasibleError,
        "dim 0 outside [1, 512]"),
    "build_pair-dim-above-cap": (
        lambda: build_pair(StateSpec("fock", {"n": 0}), StateSpec("fock", {"n": 1}), 33, max_dim=32),
        TruncationInfeasibleError, "dim 33 outside [1, 32]"),
    "build_pair-unequal-built-dims": (
        lambda: build_pair(fock(0, 4), thermal(0.2, 24)), DimensionMismatchError, "dims 4 != 24"),
    # parameters that are not finite numbers of their kind
    "StateSpec-nan-zeta": (lambda: StateSpec("squeezed_vacuum", {"zeta": math.nan}), StateValidationError, "|zeta| < 1"),
    "StateSpec-string-zeta": (lambda: StateSpec("squeezed_vacuum", {"zeta": "0.1"}), StateValidationError, "complex zeta"),
    "StateSpec-inf-phi": (
        lambda: StateSpec("cat", {"alpha": 1.0, "phi": math.inf}), StateValidationError, "finite real phi"),
    "StateSpec-nan-phi": (
        lambda: StateSpec("cat", {"alpha": 1.0, "phi": math.nan}), StateValidationError, "finite real phi"),
    "StateSpec-nan-phase": (
        lambda: StateSpec("generalized_coherent", {"alpha": 1.0, "phases": [0.0, math.nan]}),
        StateValidationError, "phase table of finite reals"),
    "StateSpec-string-alpha": (lambda: StateSpec("coherent", {"alpha": "1"}), StateValidationError, "finite complex alpha"),
    "StateSpec-nan-alpha": (
        lambda: StateSpec("coherent", {"alpha": math.nan}), StateValidationError, "finite complex alpha"),
    "StateSpec-nan-epsilon": (
        lambda: StateSpec("coherent_phase", {"epsilon": math.nan}), StateValidationError, "|epsilon| < 1"),
    "StateSpec-string-nbar": (lambda: StateSpec("thermal", {"nbar": "1"}), StateValidationError, "finite real nbar"),
    "StateSpec-nan-nbar": (lambda: StateSpec("thermal", {"nbar": math.nan}), StateValidationError, "finite real nbar"),
    # ints too large for a double: their finite checks once raised a bare OverflowError
    "StateSpec-huge-int-alpha": (
        lambda: StateSpec("coherent", {"alpha": 10**400}), StateValidationError, "finite complex alpha"),
    "StateSpec-huge-int-gencoh-alpha": (
        lambda: StateSpec("generalized_coherent", {"alpha": 10**400, "phases": [0.0]}),
        StateValidationError, "finite complex alpha"),
    "StateSpec-huge-int-nbar": (lambda: StateSpec("thermal", {"nbar": 10**400}), StateValidationError, "finite real nbar"),
    "StateSpec-huge-int-phi": (
        lambda: StateSpec("cat", {"alpha": 1.0, "phi": 10**400}), StateValidationError, "finite real phi"),
    "moment-negative-order": (lambda: moment(fock(0, 4), -1, 0), StateValidationError, "nonnegative"),
    "moment-order-overflows": (lambda: moment(fock(0, 4), 0, 4), StateValidationError, "overflow"),
    "MomentTable-shape": (lambda: MomentTable(np.zeros((2, 3))), StateValidationError, "shape"),
    "MomentTable-empty": (lambda: MomentTable(np.zeros((0, 0))), StateValidationError, "non-empty square"),
    # grammar
    "spec-coherent-three-fields": (lambda: parse_state_spec("coherent:1,2,3"), SpecParseError, "'re' or 're,im'"),
    "spec-thermal-two-fields": (lambda: parse_state_spec("thermal:1,2"), SpecParseError, "exactly one real"),
    "spec-fock-two-fields": (lambda: parse_state_spec("fock:1,2"), SpecParseError, "exactly one integer"),
    "spec-cat-two-fields": (lambda: parse_state_spec("cat:1,0"), SpecParseError, "cat takes re,im,phi"),
    "spec-gencoh-two-fields": (lambda: parse_state_spec("gencoh:1,0"), SpecParseError, "gencoh takes re,im,@phasefile"),
    "spec-unknown-head": (lambda: parse_state_spec("nope:1"), SpecParseError, "unknown family 'nope'"),
    "spec-gencoh-missing-file": (
        lambda: parse_state_spec("gencoh:1,0,@/nonexistent"), SpecParseError, "cannot read phase file"),
    # tomography
    "Tomogram-mismatched-arrays": (lambda: _tomogram(np.full(4, 0.5)), StateValidationError, "matching 1-d"),
    "Tomogram-negative-density": (
        lambda: _tomogram(np.array([0.5, 0.5, -0.1, 0.5, 0.5])), StateValidationError, "negative tomogram"),
    "Tomogram-zero-direction": (
        lambda: Tomogram(0.0, 0.0, np.linspace(-1.0, 1.0, 5), np.full(5, 0.5)), StateValidationError,
        "(mu, nu) must not vanish"),
    "marginal_from_wigner-zero-direction": (
        lambda: marginal_from_wigner(wigner(fock(0, 4), default_grid(4, 33)), 0.0, 0.0, np.linspace(-1, 1, 5)),
        StateValidationError, "(mu, nu) must not vanish"),
    "marginal_from_wigner-husimi-grid": (
        lambda: marginal_from_wigner(husimi_q(fock(0, 4), default_grid(4, 17)), 1.0, 0.0, np.linspace(-1, 1, 5)),
        UnsupportedCombinationError, "s = 0"),
    "marginal_from_wigner-negative-line-integral": (
        lambda: marginal_from_wigner(_two_lobe_wigner(), 1.0, 0.0, np.linspace(-8.0, 8.0, 257)),
        GridError, "line integral went negative"),
    "classical_divergence-unknown-kind": (
        lambda: classical_divergence(_flat_tomogram(), _flat_tomogram(), "nope"), StateValidationError, "unknown"),
    # CLI exit codes
    "cli-distance-dim-0": (["distance", "--a", "fock:0", "--b", "fock:1", "--metric", "hs", "--dim", "0"], 3, None),
    "cli-distance-dim-above-cap": (
        ["distance", "--a", "fock:0", "--b", "fock:1", "--metric", "hs", "--dim", "513"], 3, None),
    "cli-sweep-dim-0": (
        ["sweep", "--a", "fock:?", "--b", "fock:1", "--metric", "hs", "--range", "0:1:1", "--dim", "0"], 3, None),
    "cli-sweep-two-field-range": (
        ["sweep", "--a", "coherent:?", "--b", "fock:0", "--metric", "hs", "--range", "1:2"], 2, None),
}


@pytest.mark.parametrize("call,expected,fragment", REFUSALS.values(), ids=REFUSALS)
def test_refused(call, expected, fragment, capsys):
    if isinstance(expected, int):
        assert cli.main(call) == expected
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        return
    with pytest.raises(expected) as info:
        call()
    assert fragment in str(info.value)
