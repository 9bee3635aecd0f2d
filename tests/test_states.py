import math

import numpy as np
import pytest
from conftest import annihilation, dense_moments, random_density
from hypothesis import given, settings
from hypothesis import strategies as st

from qdist import (
    StateSpec,
    adaptive_dim,
    as_density,
    build_pair,
    build_state,
    cat,
    coherent,
    coherent_phase,
    fock,
    generalized_coherent,
    mandel_q,
    moment,
    moment_table,
    outer,
    parse_state_spec,
    squeezed_vacuum,
    thermal,
    truncation_tail,
    yurke_stoler_phases,
)
from qdist.errors import (
    DegenerateStateError,
    InsufficientCutoffError,
    NotPositiveSemidefiniteError,
    SpecParseError,
    StateValidationError,
    TailMassError,
    TruncationInfeasibleError,
    UndefinedQuantityError,
)
from qdist.fock_core import DensityOperator, FockVector
from qdist.states import (
    FAMILIES,
    MomentTable,
    _moments,
    inv_sqrt_factorials,
    ladder_moments,
    quadrature_moments,
)


def mean_photon(vec) -> float:
    return float((np.arange(vec.dim) * np.abs(vec.amp) ** 2).sum())


class TestFock:
    def test_basis_vectors(self):
        assert np.allclose(fock(0, 4).amp, [1, 0, 0, 0])
        assert np.allclose(fock(2, 4).amp, [0, 0, 1, 0])

    def test_mean_photon(self):
        assert mean_photon(fock(5, 16)) == pytest.approx(5.0, abs=1e-14)

    def test_out_of_range(self):
        with pytest.raises(StateValidationError):
            fock(4, 4)

    @pytest.mark.parametrize("n", [2.5, -1], ids=["non-integral", "negative"])
    def test_needs_a_nonnegative_integer(self, n):
        with pytest.raises(StateValidationError):
            fock(n, 8)

    def test_numpy_integer_builds_the_same_state(self):
        assert np.array_equal(fock(np.int64(3), 8).amp, fock(3, 8).amp)

    def test_one_hot_through_the_family_dispatch(self):
        # normalization and the global-phase fix leave a one-hot vector bit for bit
        assert fock(5, 16).amp.tobytes() == np.eye(16, dtype=complex)[5].tobytes()


class TestCoherent:
    def test_zero_is_vacuum(self):
        assert np.allclose(coherent(0.0, 8).amp, fock(0, 8).amp)

    def test_vacuum_population(self):
        assert abs(coherent(1.0, 32).amp[0]) ** 2 == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_mean_photon(self):
        assert mean_photon(coherent(1.5, 64)) == pytest.approx(2.25, abs=1e-10)

    def test_tail_violation(self):
        with pytest.raises(TailMassError):
            coherent(3.0, 8)

    def test_normalized_after_truncation(self):
        v = coherent(2.0, 40)
        assert np.vdot(v.amp, v.amp).real == pytest.approx(1.0, abs=1e-12)
        assert v.tail_mass < 1e-12


class TestGeneralizedCoherent:
    def test_zero_phases_equals_coherent(self):
        v = generalized_coherent(0.9, np.zeros(32), 32)
        assert np.allclose(v.amp, coherent(0.9, 32).amp, atol=1e-14)

    def test_yurke_stoler_phase_table_equals_cat(self):
        alpha = 1.1
        ys = generalized_coherent(alpha, yurke_stoler_phases(48), 48)
        via_cat = cat(alpha, math.pi / 2.0, 48)
        assert abs(ys.overlap(via_cat)) == pytest.approx(1.0, abs=1e-10)

    def test_mandel_q_vanishes_for_any_phases(self, rng):
        phases = rng.uniform(0, 2 * math.pi, size=48)
        v = generalized_coherent(1.3, phases, 48)
        assert mandel_q(outer(v)) == pytest.approx(0.0, abs=1e-9)

    def test_short_phase_table(self):
        with pytest.raises(StateValidationError):
            generalized_coherent(0.5, np.zeros(4), 8)


class TestCat:
    def test_even_state_parity(self):
        v = cat(1.2, 0.0, 32)
        assert np.abs(v.amp[1::2]).max() < 1e-15

    def test_odd_state_parity(self):
        v = cat(1.2, math.pi, 32)
        assert np.abs(v.amp[0::2]).max() < 1e-15

    def test_even_mandel_q(self):
        # Q(+) = +2 s / sinh(2 s) at s = |alpha|^2 = 0.5
        v = cat(math.sqrt(0.5), 0.0, 32)
        assert mandel_q(outer(v)) == pytest.approx(1.0 / math.sinh(1.0), abs=1e-10)

    def test_degenerate_normalization(self):
        with pytest.raises(DegenerateStateError):
            cat(0.0, math.pi, 8)


class TestSqueezedVacuum:
    def test_zero_is_vacuum(self):
        assert np.allclose(squeezed_vacuum(0.0, 8).amp, fock(0, 8).amp)

    def test_mean_photon_is_sinh_squared(self):
        v = squeezed_vacuum(math.tanh(1.0), 128)
        assert mean_photon(v) == pytest.approx(math.sinh(1.0) ** 2, abs=1e-9)

    def test_odd_amplitudes_vanish(self):
        v = squeezed_vacuum(0.6 * np.exp(0.3j), 64)
        assert np.abs(v.amp[1::2]).max() == 0.0

    def test_modulus_bound(self):
        with pytest.raises(StateValidationError):
            StateSpec("squeezed_vacuum", {"zeta": 1.0 + 0j})


class TestCoherentPhase:
    def test_zero_is_vacuum(self):
        assert np.allclose(coherent_phase(0.0, 8).amp, fock(0, 8).amp)

    def test_mean_photon(self):
        eps = 0.6 * np.exp(1.1j)
        v = coherent_phase(eps, 64)
        expect = abs(eps) ** 2 / (1.0 - abs(eps) ** 2)
        assert mean_photon(v) == pytest.approx(expect, abs=1e-10)

    def test_populations_match_thermal(self):
        # same photon distribution as the thermal state with matched nbar
        eps = 0.55
        nbar = eps**2 / (1.0 - eps**2)
        v = coherent_phase(eps, 64)
        rho = thermal(nbar, 64)
        assert np.abs(np.abs(v.amp) ** 2 - rho.mat.diagonal().real).max() < 1e-12


class TestThermal:
    def test_zero_is_vacuum_projector(self):
        rho = thermal(0.0, 8)
        assert rho.mat[0, 0].real == pytest.approx(1.0, abs=1e-14)
        assert np.abs(rho.mat).sum() == pytest.approx(1.0, abs=1e-14)

    def test_mandel_q(self):
        assert mandel_q(thermal(2.0, 128)) == pytest.approx(2.0, abs=1e-9)

    def test_tail_violation(self):
        with pytest.raises(TailMassError):
            thermal(5.0, 16)


class TestMandelQ:
    def test_coherent_is_poissonian(self):
        assert mandel_q(outer(coherent(1.4, 48))) == pytest.approx(0.0, abs=1e-9)

    def test_odd_cat(self):
        v = cat(math.sqrt(0.5), math.pi, 32)
        assert mandel_q(outer(v)) == pytest.approx(-1.0 / math.sinh(1.0), abs=1e-10)

    def test_fock_is_sub_poissonian_extreme(self):
        assert mandel_q(outer(fock(4, 8))) == pytest.approx(-1.0, abs=1e-12)

    def test_vacuum_rejected(self):
        with pytest.raises(UndefinedQuantityError):
            mandel_q(outer(fock(0, 4)))


class TestMoments:
    def test_coherent_moments(self):
        alpha = 0.8 + 0.3j
        rho = outer(coherent(alpha, 48))
        for k, l in [(0, 0), (1, 0), (1, 1), (2, 3)]:
            expect = np.conj(alpha) ** k * alpha**l
            assert moment(rho, k, l) == pytest.approx(expect, abs=1e-10)

    def test_thermal_mean(self):
        assert moment(thermal(1.5, 96), 1, 1) == pytest.approx(1.5, abs=1e-10)

    def test_fock_phase_symmetry(self):
        assert abs(moment(outer(fock(3, 16)), 1, 0)) < 1e-14

    def test_table_hermitian_structure(self):
        t = moment_table(outer(coherent(0.7 + 0.4j, 48)), 6)
        assert np.abs(t.m - t.m.conj().T).max() < 1e-12


MOMENT_SPECS = [
    StateSpec("fock", {"n": 3}),
    StateSpec("coherent", {"alpha": 1.3 - 0.7j}),
    StateSpec("generalized_coherent", {"alpha": 0.9 + 0.4j, "phases": list(np.linspace(0.0, 5.0, 64))}),
    StateSpec("cat", {"alpha": 1.1 + 0.5j, "phi": 1.1}),
    StateSpec("squeezed_vacuum", {"zeta": 0.5 * np.exp(0.8j)}),
    StateSpec("coherent_phase", {"epsilon": 0.6 * np.exp(-1.2j)}),
    StateSpec("thermal", {"nbar": 1.5}),
]


class TestLadderMoments:
    @pytest.mark.parametrize("spec", MOMENT_SPECS, ids=lambda s: s.family)
    def test_matches_dense_moments(self, spec):
        dim = adaptive_dim(spec)
        rho = as_density(spec, dim)
        m = dense_moments(rho.mat, 2)
        expect = (m[0, 1], m[0, 2], m[1, 1].real)
        for state in (build_state(spec, dim), rho):
            got = ladder_moments(state)
            assert np.abs(np.subtract(got, expect)).max() < 1e-12, type(state).__name__

    @pytest.mark.parametrize("dim", [1, 2])
    def test_orders_beyond_the_truncation_read_zero(self, dim, rng):
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        for state in (FockVector(v / np.linalg.norm(v)), random_density(rng, dim)):
            got = ladder_moments(state)
            m = dense_moments(state.mat, 2)
            assert got[1] == 0  # <a^2> needs three levels
            if dim == 1:
                assert got == (0, 0, 0)
            assert np.abs(np.subtract(got, (m[0, 1], m[0, 2], m[1, 1].real))).max() < 1e-15

    @pytest.mark.parametrize("spec", MOMENT_SPECS, ids=lambda s: s.family)
    def test_quadrature_spread_matches_dense_scan(self, spec):
        # mean and variance of x_theta = (a e^{-i theta} + adag e^{i theta}) / sqrt(2)
        # straight from the density matrix
        dim = adaptive_dim(spec)
        rho = as_density(spec, dim).mat
        a = annihilation(dim)

        def dense(theta):
            x = (a * np.exp(-1j * theta) + a.conj().T * np.exp(1j * theta)) / math.sqrt(2.0)
            mean = np.trace(x @ rho).real
            return mean, np.trace(x @ x @ rho).real - mean**2

        moments = ladder_moments(build_state(spec, dim))
        thetas = np.linspace(0.0, math.pi, 91)
        scan = [dense(t) for t in thetas]
        for theta, (mean, var) in zip(thetas, scan):
            assert quadrature_moments(moments, theta) == pytest.approx((mean, math.sqrt(var)), abs=1e-10)


def _relative_gap(got, ref) -> float:
    return float((np.abs(got - ref) / np.maximum(1.0, np.abs(ref))).max())


class TestMomentKernel:
    """The diagonal-sum kernel against dense powers of the lowering operator."""

    @pytest.mark.parametrize("spec", MOMENT_SPECS, ids=lambda s: s.family)
    def test_table_matches_dense_powers(self, spec):
        dim = adaptive_dim(spec)
        rho = as_density(spec, dim)
        # a raw matrix that is not Hermitian: its table breaks M(k,l) = M(l,k)*,
        # so MomentTable refuses it and the kernel is checked directly and through moment
        raw = rho.mat + 0.1 * np.triu(np.ones((dim, dim)), 1)
        for cutoff in (*range(7), dim - 1):
            ref = dense_moments(rho.mat, cutoff)
            for state in (build_state(spec, dim), rho):
                assert _relative_gap(moment_table(state, cutoff).m, ref) < 1e-12, (cutoff, type(state).__name__)
            raw_ref = dense_moments(raw, cutoff)
            assert _relative_gap(_moments(raw.diagonal, dim, cutoff), raw_ref) < 1e-12, cutoff
            assert _relative_gap(moment(raw, cutoff, cutoff // 2), raw_ref[cutoff, cutoff // 2]) < 1e-12
        with pytest.raises(StateValidationError):
            moment_table(raw, 6)

    def test_high_orders_do_not_overflow(self):
        # f_k(m) f_l(m) alone reaches 1e355 here, while the moments stay below 1e96
        rho = thermal(0.05, 200)
        logp = np.log(rho.mat.diagonal().real)
        with np.errstate(over="raise", invalid="raise"):
            m = moment_table(rho, 180).m
        for k in (0, 90, 180):
            terms = (math.exp(math.lgamma(n + 1) - math.lgamma(n - k + 1) + logp[n]) for n in range(k, 200))
            assert m[k, k].real == pytest.approx(math.fsum(terms), rel=1e-11)

    def test_cutoff_must_fit_the_truncation(self):
        with pytest.raises(StateValidationError):
            moment_table(thermal(0.1, 16), 16)


def reconstruction_matrix(table: MomentTable, dim: int) -> np.ndarray:
    """Truncated moment-series reconstruction, Hermitized and renormalized.

    rho_{r,c} = sum_j (-1)^j / j! M(c+j, r+j) / sqrt(r! c!), one shifted
    block of the table per j.  The low-order moments of the result
    reproduce the table exactly (the expansion operators are dual to the
    moment monomials), but the matrix itself approaches a physical state
    only as the cutoff grows; states with factorially growing moments
    need cutoffs well above the matrix size.  A trace deviating from 1
    by more than 1e-3 indicates an inconsistent table and raises
    ``InsufficientCutoffError``.
    """
    K = table.cutoff
    n = min(dim, K + 1)
    isq = inv_sqrt_factorials(K + 1)
    mt = table.m.T  # mt[r, c] = M(c, r)
    series = np.zeros((n, n), dtype=complex)
    for j in range(K + 1):
        block = mt[j : j + n, j : j + n]
        # 1/j! is 0 from j = 178, where no finite moment makes the term count
        series[: block.shape[0], : block.shape[1]] += ((-1) ** j * isq[j] * isq[j]) * block
    rho = np.zeros((dim, dim), dtype=complex)
    rho[:n, :n] = series * np.outer(isq[:n], isq[:n])
    rho = 0.5 * (rho + rho.conj().T)
    tr = float(np.trace(rho).real)
    if abs(tr - 1.0) > 1e-3:
        raise InsufficientCutoffError(f"reconstructed trace {tr!r}; raise the cutoff")
    return rho / tr


def reconstruct_from_moments(table: MomentTable, dim: int) -> DensityOperator:
    """The reconstruction as a DensityOperator; InsufficientCutoffError until it is PSD."""
    rho = reconstruction_matrix(table, dim)
    try:
        return DensityOperator(rho)
    except NotPositiveSemidefiniteError as exc:
        raise InsufficientCutoffError(f"reconstruction not yet physical: {exc}") from exc


class TestReconstruction:
    """The moment series inverted, a round-trip check on ``moment_table``."""

    def test_fock1_round_trip(self):
        rho = outer(fock(1, 24))
        rec = reconstruct_from_moments(moment_table(rho, 12), 24)
        assert np.abs(rec.mat - rho.mat).max() < 1e-10

    def test_coherent_round_trip(self):
        rho = outer(coherent(0.5, 48))
        rec = reconstruct_from_moments(moment_table(rho, 20), 24)
        assert np.abs(rec.mat[:24, :24] - rho.mat[:24, :24]).max() < 1e-8

    def test_thermal_from_analytic_moment_pattern(self):
        # diagonal geometric moments M(k,k) = k! nbar^k; the diagonal
        # reconstruction series sums C(r+j, r)(-nbar)^j, so the cutoff
        # must well exceed the matrix size before it converges
        nbar, K = 0.5, 60
        m = np.zeros((K + 1, K + 1), dtype=complex)
        for k in range(K + 1):
            m[k, k] = math.factorial(k) * nbar**k
        rec = reconstruct_from_moments(MomentTable(m), 10)
        # the reconstruction renormalizes on the 10-level corner, so
        # compare against the equally renormalized corner of the state
        corner = thermal(nbar, 64).mat[:10, :10]
        corner = corner / np.trace(corner).real
        assert np.abs(rec.mat - corner).max() < 1e-6

    @pytest.mark.parametrize("cutoff,dim", [(20, 24), (20, 12), (8, 24)])
    def test_matches_the_termwise_series(self, cutoff, dim):
        # rho_{l-j,k-j} += M(k,l) (-1)^j / (j! sqrt((k-j)! (l-j)!)), one term at a time
        table = moment_table(outer(cat(0.8, 0.7, 64)), cutoff)
        rho = np.zeros((dim, dim), dtype=complex)
        for k in range(cutoff + 1):
            for l in range(cutoff + 1):
                for j in range(min(k, l) + 1):
                    if l - j < dim and k - j < dim:
                        rho[l - j, k - j] += table.m[k, l] * (-1) ** j / (
                            math.factorial(j) * math.sqrt(math.factorial(k - j) * math.factorial(l - j))
                        )
        rho = 0.5 * (rho + rho.conj().T)
        rho /= np.trace(rho).real
        assert np.abs(reconstruction_matrix(table, dim) - rho).max() < 1e-12

    def test_cutoff_past_170_stays_finite(self):
        # 1/j! for j >= 171 is below the smallest normal double; the weights never form j!
        nbar = 0.05
        rec = reconstruction_matrix(moment_table(thermal(nbar, 200), 180), 8)
        corner = thermal(nbar, 64).mat[:8, :8]
        assert np.abs(rec - corner / np.trace(corner).real).max() < 1e-12

    def test_insufficient_cutoff_raises(self):
        rho = thermal(0.5, 64)
        with pytest.raises(InsufficientCutoffError):
            reconstruct_from_moments(moment_table(rho, 20), 22)

    @pytest.mark.parametrize(
        "state",
        [
            lambda: coherent(1.0, 64),
            lambda: cat(0.8, 0.7, 64),
            lambda: squeezed_vacuum(0.35, 64),
            lambda: squeezed_vacuum(0.3j, 64),
            lambda: coherent_phase(0.6, 64),
        ],
    )
    def test_moment_round_trip_identity(self, state):
        # moments -> reconstruction -> moments is the identity (the
        # expansion operators are dual to the moment monomials); the
        # attainable precision is machine epsilon times the largest
        # moment in the table, which is why the squeezing moduli here
        # stay moderate
        rho = outer(state())
        table = moment_table(rho, 20)
        rec = reconstruction_matrix(table, 24)
        padded = np.zeros((64, 64), dtype=complex)
        padded[:24, :24] = rec
        back = moment_table(padded, 20)
        err = (np.abs(back.m - table.m) / np.maximum(1.0, np.abs(table.m))).max()
        assert err < 1e-8


class TestAdaptiveDim:
    def test_fock_support(self):
        assert adaptive_dim(StateSpec("fock", {"n": 3})) == 8

    def test_thermal_geometric(self):
        # brute-force oracle: smallest k with (1/2)^k < 1e-12 is 40,
        # which rounds up to the next multiple of eight, 48
        ks = [k for k in range(1, 100) if 0.5**k < 1e-12]
        assert ks[0] == 40
        assert adaptive_dim(StateSpec("thermal", {"nbar": 1.0})) == 48

    def test_coherent_poisson_tail(self):
        spec = StateSpec("coherent", {"alpha": 2.0 + 0j})
        dim = adaptive_dim(spec)
        # verify against a direct Poisson tail summation
        lam = 4.0
        p = [math.exp(-lam)]
        for n in range(1, 400):
            p.append(p[-1] * lam / n)
        tails = np.cumsum(np.array(p)[::-1])[::-1]
        kmin = next(k for k in range(1, 399) if tails[k] < 1e-12)
        assert dim == 8 * (kmin // 8 + 1)
        assert truncation_tail(spec, dim) < 1e-12

    @pytest.mark.parametrize(
        "text,dim",
        [
            # |alpha| and |zeta| 1e-6 on either side of the points where the dim
            # steps to the next multiple of eight
            ("coherent:1.043855596,0.000000000", 16),
            ("coherent:1.043857596,0.000000000", 24),
            ("coherent:4.703187409,0.000000000", 64),
            ("coherent:4.703189409,0.000000000", 72),
            ("coherent:12.580585694,0.000000000", 256),
            ("coherent:12.580587694,0.000000000", 264),
            ("coherent:18.821824759,0.000000000", 496),
            ("coherent:18.821826759,0.000000000", 504),
            ("coherent:-4.350979979,7.439508075", 144),
            ("coherent:-4.350980988,7.439509801", 152),
            ("cat:1.033268062,0.436858730,0", 16),
            ("cat:1.033269905,0.436859509,0", 24),
            ("cat:5.596803094,2.366290395,0", 88),
            ("cat:5.596804937,2.366291174,0", 96),
            ("cat:13.933628868,5.891043798,0", 344),
            ("cat:13.933630711,5.891044577,0", 352),
            ("cat:1.015685317,0.000000000,3.14159", 16),
            ("cat:1.015687317,0.000000000,3.14159", 24),
            ("cat:11.540350070,0.000000000,3.14159", 224),
            ("cat:11.540352070,0.000000000,3.14159", 232),
            ("squeezed:0.260360486,0.219298612", 24),
            ("squeezed:0.260362015,0.219299900", 32),
            ("squeezed:0.586125469,0.493686672", 96),
            ("squeezed:0.586126998,0.493687960", 104),
            ("squeezed:0.690182989,0.581333112", 248),
            ("squeezed:0.690184518,0.581334400", 256),
            ("squeezed:0.726590509,0.611998743", 496),
            ("squeezed:0.726592038,0.612000031", 504),
            ("phase:0.296323752,0.461496900", 24),
            ("phase:0.296324832,0.461498583", 32),
            ("phase:0.487743955,0.759616203", 136),
            ("phase:0.487745036,0.759617886", 144),
            ("fock:0", 8),
            ("fock:7", 16),
            ("fock:8", 16),
            ("thermal:0", 8),
            ("thermal:1", 48),
            ("thermal:17.3", 496),
            ("squeezed:0", 8),
            ("coherent:0", 8),
            ("cat:0.5,0,0", 16),
            ("squeezed:0.5", 40),
        ],
    )
    def test_pinned_dims(self, text, dim):
        assert adaptive_dim(parse_state_spec(text)) == dim

    def test_pinned_dim_generalized_coherent(self):
        phases = list(np.linspace(-3.0, 3.0, 512))
        for r, dim in ((4.703187409, 64), (4.703189409, 72)):
            spec = StateSpec("generalized_coherent", {"alpha": complex(r), "phases": phases})
            assert adaptive_dim(spec) == dim

    @pytest.mark.parametrize("text", ["squeezed:0.96", "squeezed:0,0.96", "coherent:28", "cat:28,0,0"])
    def test_spread_beyond_cap_is_infeasible(self, text):
        with pytest.raises(TruncationInfeasibleError):
            adaptive_dim(parse_state_spec(text))

    def test_underflowing_amplitudes_are_infeasible(self):
        # exp(-|alpha|^2 / 2) leaves the normal range above |alpha|^2 ~ 1417
        spec = parse_state_spec("coherent:40")
        with pytest.raises(TruncationInfeasibleError):
            adaptive_dim(spec, max_dim=4096)
        with pytest.raises(TruncationInfeasibleError):
            truncation_tail(spec, 64)
        with pytest.raises(TruncationInfeasibleError):
            coherent(40.0, 64)

    def test_infeasible(self):
        with pytest.raises(TruncationInfeasibleError):
            adaptive_dim(StateSpec("thermal", {"nbar": 100.0}))

    @given(nbar=st.floats(min_value=0.01, max_value=8.0))
    @settings(max_examples=40, deadline=None)
    def test_thermal_tail_honored(self, nbar):
        spec = StateSpec("thermal", {"nbar": nbar})
        dim = adaptive_dim(spec)
        assert truncation_tail(spec, dim) < 1e-12
        assert dim % 8 == 0


class TestSpecGrammar:
    @pytest.mark.parametrize(
        "text,family",
        [
            ("fock:3", "fock"),
            ("coherent:1", "coherent"),
            ("coherent:1,-0.5", "coherent"),
            ("cat:1,0,3.14159", "cat"),
            ("squeezed:0.5,0.1", "squeezed_vacuum"),
            ("phase:0.3", "coherent_phase"),
            ("thermal:2.5", "thermal"),
        ],
    )
    def test_parse_families(self, text, family):
        assert parse_state_spec(text).family == family

    def test_gencoh_phase_file(self, tmp_path):
        pf = tmp_path / "phases.txt"
        pf.write_text("\n".join(str(x) for x in yurke_stoler_phases(64)))
        spec = parse_state_spec(f"gencoh:1,0,@{pf}")
        assert spec.family == "generalized_coherent"
        assert len(spec.params["phases"]) == 64

    @pytest.mark.parametrize(
        "bad",
        ["fock", "fock:1,2", "cat:1,0", "thermal:-1", "squeezed:1.0", "gencoh:1,0,nofile", "x:1"],
    )
    def test_parse_errors(self, bad):
        with pytest.raises(SpecParseError):
            parse_state_spec(bad)

    def test_build_state_dispatch(self):
        v = build_state(parse_state_spec("cat:1,0,0"), 32)
        assert np.abs(v.amp[1::2]).max() < 1e-15


def _polar(r_lo, r_hi):
    return st.builds(lambda r, t: complex(r * math.cos(t), r * math.sin(t)),
                     st.floats(r_lo, r_hi), st.floats(0.0, 2.0 * math.pi))


PHASES = list(yurke_stoler_phases(128))
# a spec of each family, each at an adaptive dim of at most 104, so that a pair padded by 16 fits PHASES
SPEC_DRAWS = {
    "fock": st.builds(lambda n: StateSpec("fock", {"n": n}), st.integers(0, 40)),
    "coherent": st.builds(lambda a: StateSpec("coherent", {"alpha": a}), _polar(0.0, 3.0)),
    "generalized_coherent": st.builds(
        lambda a: StateSpec("generalized_coherent", {"alpha": a, "phases": PHASES}), _polar(0.0, 2.5)),
    "cat": st.builds(lambda a, phi: StateSpec("cat", {"alpha": a, "phi": phi}),
                     _polar(0.5, 3.0), st.floats(0.0, 2.0 * math.pi)),
    "squeezed_vacuum": st.builds(lambda z: StateSpec("squeezed_vacuum", {"zeta": z}), _polar(0.0, 0.7)),
    "coherent_phase": st.builds(lambda e: StateSpec("coherent_phase", {"epsilon": e}), _polar(0.0, 0.7)),
    "thermal": st.builds(lambda n: StateSpec("thermal", {"nbar": n}), st.floats(0.0, 3.0)),
}


class TestBuildPair:
    def test_every_family_is_drawn(self):
        assert set(SPEC_DRAWS) == set(FAMILIES)

    @pytest.mark.parametrize("family", FAMILIES)
    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_matches_the_rule_it_replaced(self, family, data):
        a = data.draw(SPEC_DRAWS[family])
        b = data.draw(st.sampled_from(sorted(SPEC_DRAWS)).flatmap(SPEC_DRAWS.get))
        pad = data.draw(st.none() | st.integers(0, 16))  # None: auto; else an explicit dim
        built = data.draw(st.tuples(st.booleans(), st.booleans()))
        # the rule each caller once wrote out: both specs built at the larger adaptive dim, or the given one
        dim = max(adaptive_dim(a), adaptive_dim(b)) + (pad or 0)
        expect = build_state(a, dim), build_state(b, dim)
        args = [e if is_built else s for s, e, is_built in zip((a, b), expect, built)]
        for got, want in zip(build_pair(*args, None if pad is None else dim), expect):
            assert type(got) is type(want) and got.dim == dim and got.tail_mass == want.tail_mass
            assert np.array_equal(getattr(got, "amp", got.populations), getattr(want, "amp", want.populations))


# the Gaussian families, whose records give <a>, <a^2> and <adag a> in closed form; zeta is drawn on the
# real line and over the disc, since the tomograms read its sign and conjugation through these moments
GAUSSIAN_DRAWS = {
    "coherent": SPEC_DRAWS["coherent"],
    "squeezed-real": st.builds(lambda z: StateSpec("squeezed_vacuum", {"zeta": complex(z)}), st.floats(-0.7, 0.7)),
    "squeezed-complex": SPEC_DRAWS["squeezed_vacuum"],
    "thermal": SPEC_DRAWS["thermal"],
}


class TestClosedFormLadder:
    def test_exactly_the_gaussian_families_carry_one(self):
        assert {name for name, family in FAMILIES.items() if family.ladder} == {"coherent", "squeezed_vacuum",
                                                                                 "thermal"}

    @pytest.mark.parametrize("draw", GAUSSIAN_DRAWS)
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_matches_the_built_state(self, draw, data):
        spec = data.draw(GAUSSIAN_DRAWS[draw])
        dim = next(d for d in range(8, 1024, 8) if truncation_tail(spec, d) < 1e-20)
        closed = FAMILIES[spec.family].ladder(spec)
        built = ladder_moments(build_state(spec, dim))
        assert np.abs(np.subtract(closed, built)).max() <= 1e-12 * max(1.0, *map(abs, closed))
