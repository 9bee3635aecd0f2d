"""A FockVector and its validated projector give the same numbers, bit for bit.

Every kernel that reads only ``mat`` and ``dim`` takes a pure state as
it is; ``outer()`` stays the reference route.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdist import (
    DensityOperator,
    FockVector,
    StateSpec,
    adaptive_dim,
    build_state,
    fock,
    hs_bounds,
    hs_from_phase_space,
    husimi_q,
    mandel_q,
    moment_table,
    number_polarization,
    outer,
    parse_state_spec,
    polarized,
    thermal,
    wigner,
    yurke_stoler_phases,
)
from qdist.distances import METRIC_NAMES, evaluate_metric
from qdist.errors import DimensionMismatchError, StateValidationError, UnsupportedCombinationError

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
            if metric in PURE_ONLY:
                with pytest.raises(UnsupportedCombinationError):
                    evaluate_metric(metric, outer(a), outer(b))
            elif metric == "dn-sqrt":
                # a pure state is its own root; the projector route takes an
                # eigensolver root instead, so it is only close
                assert got == polarized(outer(a), outer(b), number_polarization(DIM))
                assert got == pytest.approx(evaluate_metric(metric, outer(a), outer(b)).value, abs=1e-7)
            else:
                assert got == evaluate_metric(metric, outer(a), outer(b)).value


@pytest.mark.parametrize("family", PURE_SPECS)
def test_kernels_equal_the_projector_route(states, family):
    psi = states[family]
    rho = outer(psi)
    assert np.array_equal(wigner(psi).grid.values, wigner(rho).grid.values)
    assert np.array_equal(husimi_q(psi).grid.values, husimi_q(rho).grid.values)
    assert np.array_equal(moment_table(psi, 6).m, moment_table(rho, 6).m)
    assert hs_bounds(psi, 2) == hs_bounds(rho, 2)
    assert mandel_q(psi) == mandel_q(rho)


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
