"""Each state kind against the dense reference.

Every kernel reads a state's factor: a ``FockVector``'s amplitudes, a
``DiagonalState``'s populations or a ``DensityOperator``'s scaled
eigenvectors.  The reference (``conftest.dense_metric`` and
``conftest.dense_husimi``) works on the dense ``mat`` instead.  The two
agree to 1e-12, and on identical pure pairs the factored route reads
exactly 0.  The Wigner grid reads ``mat`` in two parity halves; its
reference, ``conftest.dense_wigner``, forms the whole fine-grid matrix.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dense_husimi, dense_metric, dense_power, dense_wigner, random_density
from qdist import (
    DensityOperator,
    DiagonalState,
    FockVector,
    PhaseGrid,
    StateSpec,
    adaptive_dim,
    as_density,
    build_pair,
    build_state,
    default_grid,
    fock,
    hs_bounds,
    hs_from_phase_space,
    husimi_q,
    mandel_q,
    moment_table,
    outer,
    parse_state_spec,
    thermal,
    wigner,
    yurke_stoler_phases,
)
from qdist.closed_forms import METRIC_NAMES, closed_form_lookup, thermal_pair
from qdist.distances import METRICS, evaluate_metric
from qdist.errors import DimensionMismatchError, StateValidationError, UnsupportedCombinationError
from qdist.phase_space import _husimi_functions, _wigner_functions
from qdist.states import FAMILIES

# one member of every pure family, each at adaptive dim <= 64
PURE_SPECS = {
    "fock": parse_state_spec("fock:3"),
    "coherent": parse_state_spec("coherent:1.2,0.3"),
    "generalized_coherent": StateSpec(
        "generalized_coherent", {"alpha": 1.1 + 0.2j, "phases": list(yurke_stoler_phases(64))}
    ),
    "cat": parse_state_spec("cat:1.2,0,0.7"),
    "squeezed_vacuum": parse_state_spec("squeezed:0.4,0.1"),
    "coherent_phase": parse_state_spec("phase:0.5,0.2"),
}
DIM = max(adaptive_dim(s) for s in PURE_SPECS.values())
PURE_ONLY = ("fs", "minimal", "wootters")


def test_families_fit_the_dim():
    assert DIM <= 64


@pytest.fixture(scope="module")
def states():
    return {name: build_state(spec, DIM) for name, spec in PURE_SPECS.items()}


@pytest.mark.parametrize("metric", METRIC_NAMES)
def test_metrics_equal_the_projector_route(states, metric):
    for a in states.values():
        for b in states.values():
            got = evaluate_metric(metric, a, b).value
            if a is b:
                assert got == 0.0
            if metric in PURE_ONLY:
                with pytest.raises(UnsupportedCombinationError):
                    evaluate_metric(metric, outer(a), outer(b))
            elif a is not b:
                assert abs(got - dense_metric(metric, a, b)) <= 1e-12


def _random_vector(dim, rng):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def _random_state(draw_kind, dim, rng):
    """A random state of the drawn kind; populations and eigenvalues stay far above eps.

    ``general`` is a ``DensityOperator``, full-rank or a rank-2 mixture with even odds.
    """
    if draw_kind == "pure":
        return FockVector(_random_vector(dim, rng))
    if draw_kind == "number":
        return fock(int(rng.integers(dim)), dim)
    if draw_kind == "general":
        if rng.random() < 0.5:
            return random_density(rng, dim)
        u, v, w = _random_vector(dim, rng), _random_vector(dim, rng), rng.uniform(0.2, 0.8)
        return DensityOperator(w * np.outer(u, u.conj()) + (1.0 - w) * np.outer(v, v.conj()))
    p = rng.random(dim) + 0.05
    return DiagonalState(p / p.sum())


@given(
    dim=st.integers(min_value=2, max_value=64),
    kinds=st.tuples(*[st.sampled_from(("pure", "number", "diagonal", "general"))] * 2),
    metric=st.sampled_from([m for m in METRIC_NAMES if m not in PURE_ONLY] + ["hs-p:0.2", "hs-p:0.9"]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_structured_kernels_match_the_dense_route(dim, kinds, metric, seed):
    rng = np.random.default_rng(seed)
    a, b = (_random_state(kind, dim, rng) for kind in kinds)
    got = evaluate_metric(metric, a, b).value
    assert abs(got - dense_metric(metric, a, b)) <= 1e-12
    assert abs(got - evaluate_metric(metric, b, a).value) <= 1e-12


def _factor_state(kind, dim, rng):
    """A state of any kind, including those ``factor`` tells apart by their entries alone.

    ``phased-number`` is a number state with a global phase, ``projector`` a
    rank-one ``DensityOperator`` and ``diagonal-density`` an exactly diagonal
    one, some of its populations exactly 0 and the rest far above eps.
    """
    if kind == "phased-number":
        amp = np.zeros(dim, dtype=complex)
        amp[rng.integers(dim)] = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        return FockVector(amp)
    if kind == "projector":
        v = _random_vector(dim, rng)
        return DensityOperator(np.outer(v, v.conj()))
    if kind == "diagonal-density":
        p = np.where(rng.random(dim) < 0.3, 0.0, rng.random(dim) + 0.05)
        p[rng.integers(dim)] = 1.0
        return DensityOperator(np.diag(p / p.sum()))
    return _random_state(kind, dim, rng)


@given(
    dim=st.integers(min_value=1, max_value=32),
    kind=st.sampled_from(("pure", "number", "phased-number", "diagonal", "general", "projector", "diagonal-density")),
    p=st.floats(min_value=0.1, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_factor_is_one_d_exactly_when_the_power_is_diagonal(dim, kind, p, seed):
    # the one diagonal rule every kernel reads: no kernel looks at a factor's entries
    state = _factor_state(kind, dim, np.random.default_rng(seed))
    power = dense_power(state.mat, p)
    f = state.factor(p)
    assert (f.ndim == 1) == (np.count_nonzero(power - np.diag(power.diagonal())) == 0)
    assert np.abs((np.diag(f) if f.ndim == 1 else f @ f.conj().T) - power).max() <= 1e-12


@pytest.mark.parametrize("pair", [("thermal:0.3", "thermal:17"), ("thermal:0.1", "thermal:10")])
def test_thermal_pairs_match_their_closed_form(pair):
    # the dense route's null threshold once dropped the tail populations: 4.0e-8 and 3.4e-8 off
    sa, sb = map(parse_state_spec, pair)
    a, b = build_pair(sa, sb)
    expect = thermal_pair(sa.params["nbar"], sb.params["nbar"])["bu"]
    for metric in ("bu", "hs-p:0.5"):
        assert abs(evaluate_metric(metric, a, b).value - expect) <= 1e-10, metric


@pytest.fixture(scope="module")
def diagonal_density_pair():
    specs = parse_state_spec("thermal:0.3"), parse_state_spec("thermal:17")
    return specs, tuple(as_density(s, 488) for s in specs)


@pytest.mark.parametrize("metric", ["dn-sqrt", "bu", "hs-p:0.5"])
def test_diagonal_density_operator_keeps_its_tail(diagonal_density_pair, metric):
    # an exactly diagonal matrix has no eigensolver noise, so no null threshold drops its
    # tail populations: with one, dn-sqrt was 2.35e-7 off and bu and hs-p:0.5 4.0e-8
    (sa, sb), (a, b) = diagonal_density_pair
    assert abs(evaluate_metric(metric, a, b).value - closed_form_lookup(sa, sb, metric)) <= 1e-10


def test_number_state_projector_takes_the_population_route(monkeypatch):
    a, b = outer(fock(2, 48)), thermal(0.5, 48)

    def refuse(*args, **kwargs):
        raise AssertionError("dense solver called")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    assert evaluate_metric("jmg", a, b).value == 0.5 * float(np.abs(a.populations - b.populations).sum())


class TestNoDenseSolver:
    """The structured route makes no eigensolver or SVD call, so it cannot fall back to dense unseen."""

    PAIRS = {
        "pure": ("cat:1.2,0,0.7", "squeezed:0.4,0.1"),
        "pure-number": ("coherent:1.2,0.3", "fock:3"),
        "thermal": ("thermal:0.5", "thermal:2"),
        "thermal-number": ("thermal:0.5", "fock:2"),
        "thermal-coherent": ("thermal:0.5", "coherent:1.2,0.3"),
    }

    @pytest.fixture(autouse=True)
    def no_solvers(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("dense solver called")

        for name in ("eigh", "eigvalsh", "svd"):
            monkeypatch.setattr(np.linalg, name, refuse)

    # the trace norm of a diagonal state against a non-number pure state stays dense
    @pytest.mark.parametrize(
        "pair,metric", [(p, m) for p in PAIRS for m in METRICS if (p, m) != ("thermal-coherent", "jmg")]
    )
    def test_metrics(self, pair, metric):
        a, b = build_pair(*map(parse_state_spec, self.PAIRS[pair]))
        if metric in PURE_ONLY and not pair.startswith("pure"):
            with pytest.raises(UnsupportedCombinationError):
                evaluate_metric(metric, a, b)
        else:
            assert math.isfinite(evaluate_metric(metric, a, b).value)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_build_state(self, family):
        spec = {**PURE_SPECS, "thermal": parse_state_spec("thermal:0.5")}[family]
        assert build_state(spec, DIM).dim == DIM


# Q lies in [0, 1]; the factored forms sum in another order than the dense c^dag rho c
HUSIMI_TOL = 1e-14


@given(
    dim=st.integers(min_value=1, max_value=32),
    kind=st.sampled_from(("pure", "number", "diagonal", "general")),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=100, deadline=None)
def test_factored_husimi_matches_the_dense_route(dim, kind, seed):
    state = _random_state(kind, dim, np.random.default_rng(seed))
    grid = default_grid(dim, 33)
    assert np.abs(husimi_q(state, grid).values - dense_husimi(state.mat, grid)).max() <= HUSIMI_TOL


def _off_center_grid(dim):
    # a window wider than the default one, shifted off the origin, with fewer p- than q-points
    span = default_grid(dim).q_max
    return PhaseGrid(-span - 0.5, span + 2.0, -span - 1.5, span + 1.0, 257, 241)


@given(
    dim=st.integers(min_value=1, max_value=32),
    kind=st.sampled_from(("pure", "number", "diagonal", "general")),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_parity_split_wigner_matches_the_dense_route(dim, kind, seed):
    state = _random_state(kind, dim, np.random.default_rng(seed))
    for grid in (default_grid(dim), _off_center_grid(dim)):
        assert np.abs(wigner(state, grid).values - dense_wigner(state.mat, grid)).max() <= 1e-12


@pytest.mark.parametrize("kinds", [("pure", "general"), ("number", "diagonal"), ("diagonal", "pure")])
def test_pair_helpers_equal_single_state_calls(kinds):
    # the tables a pair shares change no value: each state reads them as it would alone
    rng = np.random.default_rng(7)
    a, b = (_random_state(kind, 12, rng) for kind in kinds)
    grid = _off_center_grid(12)
    for pair, single in ((_wigner_functions, wigner), (_husimi_functions, husimi_q)):
        values = [qd.values for qd in pair([a, b], grid)]
        assert np.array_equal(values[0], single(a, grid).values)
        assert np.array_equal(values[1], single(b, grid).values)


@pytest.mark.parametrize("family", PURE_SPECS)
def test_kernels_equal_the_projector_route(states, family):
    psi = states[family]
    rho = outer(psi)
    assert np.array_equal(wigner(psi).values, wigner(rho).values)
    assert np.abs(husimi_q(psi).values - husimi_q(rho).values).max() <= HUSIMI_TOL
    assert np.array_equal(moment_table(psi, 6).m, moment_table(rho, 6).m)
    assert hs_bounds(psi, 2) == hs_bounds(rho, 2)
    assert mandel_q(psi) == mandel_q(rho)


def test_diagonal_state_kernels_equal_the_matrix_route():
    # an exactly diagonal DensityOperator's factor is its populations too, so both meet the dense reference;
    # at dim 24 every population stays above the reference's null threshold, which would drop it
    rho = thermal(0.4, 24)
    dense = DensityOperator(rho.mat)
    grid = default_grid(24)
    others = (random_density(np.random.default_rng(5), 24), fock(2, 24), build_state(PURE_SPECS["coherent"], 24))
    for state in (rho, dense):
        assert np.abs(husimi_q(state, grid).values - dense_husimi(rho.mat, grid)).max() <= HUSIMI_TOL
        for metric in [m for m in METRIC_NAMES if m not in PURE_ONLY]:
            for other in others:
                assert abs(evaluate_metric(metric, state, other).value - dense_metric(metric, rho, other)) <= 1e-12
    assert np.array_equal(wigner(rho).values, wigner(dense).values)
    assert np.array_equal(moment_table(rho, 6).m, moment_table(dense, 6).m)
    assert hs_bounds(rho, 2) == hs_bounds(dense, 2)
    assert mandel_q(rho) == mandel_q(dense)


def test_mat_is_a_fresh_read_only_projector(states):
    psi = states["cat"]
    m = psi.mat
    assert m is not psi.mat
    assert not m.flags.writeable
    assert np.array_equal(m, np.outer(psi.amp, psi.amp.conj()))


@given(
    dim=st.integers(min_value=1, max_value=64),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_projector_of_a_normalized_vector_validates(dim, seed):
    # the checks the kernels skip on FockVector.mat would all pass
    rng = np.random.default_rng(seed)
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    psi = FockVector(v / np.linalg.norm(v))
    assert DensityOperator(psi.mat).dim == dim


class TestPhaseSpacePair:
    def test_built_states_pass_through(self):
        a, b = fock(0, 16), thermal(0.2, 16)
        assert hs_from_phase_space(a, b) == hs_from_phase_space(outer(a), b)

    def test_spec_is_built_at_the_larger_dim(self):
        spec = parse_state_spec("coherent:0.5")
        assert adaptive_dim(spec) < 48
        assert hs_from_phase_space(spec, fock(1, 48)) == hs_from_phase_space(build_state(spec, 48), fock(1, 48))

    def test_mismatched_built_states(self):
        with pytest.raises(DimensionMismatchError):
            hs_from_phase_space(fock(0, 16), thermal(0.2, 24))
        with pytest.raises(DimensionMismatchError):
            hs_from_phase_space(parse_state_spec("coherent:3"), fock(0, 16))

    def test_foreign_object(self):
        with pytest.raises(StateValidationError, match="cannot interpret"):
            hs_from_phase_space("coherent:1", fock(0, 16))
