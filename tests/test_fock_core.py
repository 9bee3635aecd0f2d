import math
import tracemalloc

import numpy as np
import pytest

from conftest import random_density
from qdist import (
    DensityOperator,
    DiagonalState,
    FockVector,
    coherent,
    fock,
    hermitian_sqrt,
    outer,
    purity,
    thermal,
    trace_norm,
    trace_product,
)
from qdist.errors import (
    DimensionMismatchError,
    NotHermitianError,
    NotPositiveSemidefiniteError,
    StateValidationError,
    TruncationInfeasibleError,
)
from qdist.fock_core import _clamped_sqrt


def geometric_populations(nbar, nterms):
    # independent oracle: p_n = nbar^n / (1+nbar)^(n+1), summed directly
    x = nbar / (1.0 + nbar)
    return np.array([x**n / (1.0 + nbar) for n in range(nterms)])


class TestConstruction:
    def test_unnormalized_vector_rejected(self):
        with pytest.raises(StateValidationError):
            FockVector(np.array([1.0, 1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_amplitudes_rejected(self, bad):
        # |norm^2 - 1| is NaN for both, and NaN fails every comparison: the check must be "not <= tol"
        with pytest.raises(StateValidationError):
            FockVector(np.array([bad, 1.0]))

    def test_non_hermitian_rejected(self):
        m = np.array([[0.5, 0.1], [0.2, 0.5]], dtype=complex)
        with pytest.raises(NotHermitianError):
            DensityOperator(m)

    def test_wrong_trace_rejected(self):
        with pytest.raises(StateValidationError):
            DensityOperator(np.eye(2, dtype=complex))

    def test_negative_eigenvalue_rejected(self):
        m = np.diag([1.2, -0.2]).astype(complex)
        with pytest.raises(NotPositiveSemidefiniteError):
            DensityOperator(m)

    @pytest.mark.parametrize(
        "entries",
        [{(0, 0): np.nan}, {(0, 1): np.nan, (1, 0): np.nan}, {(1, 1): np.inf}],
        ids=["nan-diagonal", "nan-off-diagonal-pair", "inf"],
    )
    def test_non_finite_entries_rejected(self, entries):
        # NaN fails every comparison, so a check written as "defect > tol" would let it through
        m = np.diag([0.5, 0.5]).astype(complex)
        for index, value in entries.items():
            m[index] = value
        with pytest.raises(StateValidationError):
            DensityOperator(m)

    def test_dim_property(self):
        assert fock(0, 4).dim == 4
        assert thermal(0.5, 32).dim == 32

    @pytest.mark.parametrize(
        "pops,error",
        [
            ([1.2, -0.2], NotPositiveSemidefiniteError),
            ([np.nan, 1.0], NotPositiveSemidefiniteError),
            ([0.5, 0.6], StateValidationError),
            ([[0.5, 0.5]], StateValidationError),
            ([], StateValidationError),
        ],
        ids=["negative", "nan", "trace", "two-dimensional", "empty"],
    )
    def test_bad_populations_rejected(self, pops, error):
        with pytest.raises(error):
            DiagonalState(pops)

    def test_diagonal_state_is_its_matrix(self):
        rho = thermal(0.5, 32)
        assert isinstance(rho, DiagonalState)
        assert not rho.mat.flags.writeable and not rho.populations.flags.writeable
        assert np.array_equal(rho.mat, np.diag(rho.populations))
        assert np.array_equal(DensityOperator(rho.mat).populations, rho.populations)


def test_clamp_reads_noise_above_the_floor_as_zero():
    assert _clamped_sqrt(-5e-11) == 0.0
    assert _clamped_sqrt(0.25) == 0.5  # below the floor it raises: see test_refusals


class TestOuter:
    def test_vacuum_projector(self):
        rho = outer(fock(0, 4))
        expect = np.zeros((4, 4))
        expect[0, 0] = 1.0
        assert np.allclose(rho.mat, expect)

    def test_pure_state_purity(self):
        assert purity(outer(coherent(1.0, 32))) == pytest.approx(1.0, abs=1e-10)

    def test_coherent_vacuum_population(self):
        # |<0|alpha>|^2 = exp(-|alpha|^2) straight from the amplitude series
        rho = outer(coherent(0.5, 16))
        assert rho.mat[0, 0].real == pytest.approx(math.exp(-0.25), abs=1e-12)


class TestTraceProduct:
    def test_orthogonal_projectors(self):
        assert trace_product(outer(fock(0, 4)), outer(fock(1, 4))) == pytest.approx(0.0, abs=1e-15)

    def test_thermal_self_overlap(self):
        # oracle: direct summation of p_n^2 for the geometric distribution
        rho = thermal(1.0, 64)
        direct = float((geometric_populations(1.0, 200) ** 2).sum())
        assert direct == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert trace_product(rho, rho) == pytest.approx(direct, abs=1e-12)

    def test_coherent_overlap(self):
        a, b = 0.7 + 0.2j, -0.3 + 0.9j
        va, vb = coherent(a, 48), coherent(b, 48)
        got = trace_product(outer(va), outer(vb))
        assert got == pytest.approx(math.exp(-abs(a - b) ** 2), abs=1e-12)

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            trace_product(outer(fock(0, 4)), outer(fock(0, 8)))


class TestPurity:
    @pytest.mark.parametrize("nbar,expect", [(1.0, 1.0 / 3.0), (4.0, 1.0 / 9.0)])
    def test_thermal(self, nbar, expect):
        dim = 64 if nbar == 1.0 else 256
        direct = float((geometric_populations(nbar, 4000) ** 2).sum())
        assert direct == pytest.approx(expect, abs=1e-10)
        assert purity(thermal(nbar, dim)) == pytest.approx(expect, abs=1e-9)

    def test_fock(self):
        assert purity(outer(fock(3, 8))) == pytest.approx(1.0, abs=1e-12)


class TestHermitianSqrt:
    def test_pure_projector_is_own_root(self):
        rho = outer(coherent(0.8, 24))
        assert np.allclose(hermitian_sqrt(rho), rho.mat, atol=1e-10)

    def test_thermal_diagonal(self):
        rho = thermal(0.7, 48)
        expect = np.sqrt(rho.mat.diagonal().real)
        assert np.allclose(hermitian_sqrt(rho).diagonal().real, expect, atol=1e-12)

    def test_maximally_mixed(self):
        rho = DensityOperator(np.eye(2, dtype=complex) / 2.0)
        assert np.allclose(hermitian_sqrt(rho), np.eye(2) / math.sqrt(2.0), atol=1e-14)

    def test_stops_at_the_dense_cap_before_allocating(self):
        # one past MAX_DENSE_DIM: the 4097 x 4097 complex root would take 268 MB
        psi = fock(0, 4097)
        tracemalloc.start()
        try:
            with pytest.raises(TruncationInfeasibleError):
                hermitian_sqrt(psi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestTraceNorm:
    def test_zero(self):
        rho = thermal(0.5, 32)
        assert trace_norm(rho.mat - rho.mat) == 0.0

    def test_orthogonal_fock_pair(self):
        delta = outer(fock(0, 4)).mat - outer(fock(1, 4)).mat
        assert trace_norm(delta) == pytest.approx(2.0, abs=1e-12)

    def test_coherent_pair_rank_two_formula(self):
        # two pure states span a 2-d subspace; eigenvalues of the difference
        # are +-sqrt(1 - |<a|b>|^2), so the trace norm is twice that
        a, b = 0.4, 1.4
        delta = outer(coherent(a, 32)).mat - outer(coherent(b, 32)).mat
        expect = 2.0 * math.sqrt(1.0 - math.exp(-abs(a - b) ** 2))
        assert trace_norm(delta) == pytest.approx(expect, abs=1e-12)

    def test_non_hermitian_rejected(self):
        with pytest.raises(NotHermitianError):
            trace_norm(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestSpectrumProperties:
    def test_sqrt_squares_back(self, rng):
        for _ in range(200):
            dim = int(rng.integers(2, 33))
            rho = random_density(rng, dim)
            s = hermitian_sqrt(rho)
            assert np.abs(s @ s - rho.mat).max() <= 1e-8 * dim

    def test_norm_equivalence(self, rng):
        # ||D||_1 >= ||D||_2 >= ||D||_1 / sqrt(dim) for Hermitian D
        for _ in range(200):
            dim = int(rng.integers(2, 33))
            delta = random_density(rng, dim).mat - random_density(rng, dim).mat
            t1 = trace_norm(delta)
            t2 = math.sqrt(np.trace(delta @ delta).real)
            assert t1 >= t2 - 1e-12
            assert t2 >= t1 / math.sqrt(dim) - 1e-12

    def test_trace_product_symmetry(self, rng):
        for _ in range(50):
            dim = int(rng.integers(2, 17))
            a, b = random_density(rng, dim), random_density(rng, dim)
            assert abs(trace_product(a, b) - trace_product(b, a)) <= 1e-12
