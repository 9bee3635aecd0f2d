import math

import numpy as np
import pytest
from conftest import (
    annihilation,
    dense_moments,
    gaussian_divergences,
    gaussian_quadratures,
    gaussian_tomographic_distance,
    per_node_tomographic_distance,
    table_marginals,
)

from qdist import (
    StateSpec,
    Tomogram,
    adaptive_dim,
    as_density,
    classical_divergence,
    fock,
    marginal_analytic,
    marginal_from_wigner,
    outer,
    parse_state_spec,
    tomographic_distance,
    wigner,
)
from qdist.errors import GridError, StateValidationError
from qdist.phase_space import PhaseGrid, p_function_thermal, simpson_weights
from qdist.states import quadrature_moments
from qdist import tomography
from qdist.tomography import MAX_ANGULAR_NODES, _angular_rule, _kink_angles, _marginals, default_x_grid


def vacuum_spec():
    return StateSpec("fock", {"n": 0})


def coherent_spec(alpha):
    return StateSpec("coherent", {"alpha": complex(alpha)})


def gaussian_tomogram(mu, nu, mean, x):
    r2 = mu * mu + nu * nu
    w = np.exp(-((x - mean) ** 2) / r2) / math.sqrt(math.pi * r2)
    return Tomogram(mu, nu, x, w / float(simpson_weights(x.size, x[1] - x[0]) @ w))


def gaussian_hellinger_exact(spec_a, spec_b):
    """int dtheta sqrt(2 - 2 BC(theta)) for two Gaussian states, by fine Simpson.

    At each angle both tomograms are normal densities (``gaussian_quadratures``),
    so their Hellinger distance sqrt(2 - 2 BC(theta)) has a closed form
    (``gaussian_divergences``).
    """
    th = np.linspace(0.0, 2.0 * math.pi, 400001)
    (m1, v1), (m2, v2) = gaussian_quadratures(spec_a, th), gaussian_quadratures(spec_b, th)
    f = gaussian_divergences(m1, v1, m2, v2, "hellinger")
    return float(simpson_weights(th.size, th[1] - th[0]) @ f)


class TestAnalyticMarginals:
    def test_vacuum_peak_value(self):
        x = default_x_grid(0.0, 0.0, math.sqrt(0.5))
        tom = marginal_analytic(vacuum_spec(), 1.0, 0.0, x)
        i = int(np.argmin(np.abs(tom.x)))
        assert tom.w[i] == pytest.approx(1.0 / math.sqrt(math.pi), abs=1e-10)

    def test_fock1_vanishes_at_origin(self):
        x = default_x_grid(0.0, 0.0, math.sqrt(0.5))
        tom = marginal_analytic(StateSpec("fock", {"n": 1}), 1.0, 0.0, x)
        i = int(np.argmin(np.abs(tom.x)))
        assert tom.w[i] == pytest.approx(0.0, abs=1e-12)

    def test_coherent_mean(self):
        alpha, mu, nu = 0.7 + 0.3j, 0.6, -0.8
        mean = math.sqrt(2.0) * (mu * alpha.real + nu * alpha.imag)
        x = default_x_grid(mean, mean, math.sqrt((mu * mu + nu * nu) / 2.0))
        tom = marginal_analytic(coherent_spec(alpha), mu, nu, x)
        w = simpson_weights(x.size, x[1] - x[0])
        assert float(w @ (tom.x * tom.w)) == pytest.approx(mean, abs=1e-10)

    def test_normalization_invariant(self):
        x = default_x_grid(0.0, 0.0, math.sqrt(2.5))
        tom = marginal_analytic(StateSpec("fock", {"n": 3}), 1.0, 2.0, x)
        w = simpson_weights(x.size, x[1] - x[0])
        assert float(w @ tom.w) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("nbar, mu, nu", [(0.3, 1.0, 0.0), (1.0, 0.6, -0.8), (2.5, 1.2, 0.9)])
    def test_thermal_is_a_gaussian(self, nbar, mu, nu):
        # every family has a marginal: a thermal state's is the Gaussian of variance r^2 (nbar + 1/2)
        var = (mu * mu + nu * nu) * (nbar + 0.5)
        x = default_x_grid(0.0, 0.0, math.sqrt(var))
        tom = marginal_analytic(StateSpec("thermal", {"nbar": nbar}), mu, nu, x)
        expect = np.exp(-x * x / (2.0 * var)) / math.sqrt(2.0 * math.pi * var)
        assert np.abs(tom.w - expect).max() < 1e-10

    def test_zero_direction_rejected(self):
        x = default_x_grid(0.0, 0.0, 1.0)
        with pytest.raises(StateValidationError):
            marginal_analytic(vacuum_spec(), 0.0, 0.0, x)


class TestWignerMarginals:
    def test_vacuum_matches_analytic(self):
        qd = wigner(outer(fock(0, 8)))
        x = default_x_grid(0.0, 0.0, math.sqrt(0.5))
        tw = marginal_from_wigner(qd, 1.0, 0.0, x)
        ta = marginal_analytic(vacuum_spec(), 1.0, 0.0, x)
        assert np.abs(tw.w - ta.w).max() < 1e-3

    def test_rotation_covariance_of_vacuum(self):
        qd = wigner(outer(fock(0, 8)))
        x = default_x_grid(0.0, 0.0, math.sqrt(0.5))
        t10 = marginal_from_wigner(qd, 1.0, 0.0, x)
        t01 = marginal_from_wigner(qd, 0.0, 1.0, x)
        assert np.abs(t10.w - t01.w).max() < 1e-9

    def test_fock2_matches_analytic_scaled_direction(self):
        qd = wigner(outer(fock(2, 8)))
        mu, nu = 1.2, -0.9
        x = default_x_grid(0.0, 0.0, math.sqrt((mu * mu + nu * nu) / 2.0))
        tw = marginal_from_wigner(qd, mu, nu, x)
        ta = marginal_analytic(StateSpec("fock", {"n": 2}), mu, nu, x)
        assert np.abs(tw.w - ta.w).max() < 1e-3

    def test_normalization_defect_reported(self):
        qd = wigner(outer(fock(1, 8)))
        x = default_x_grid(0.0, 0.0, math.sqrt(0.5))
        tom = marginal_from_wigner(qd, 1.0, 0.0, x)
        w = simpson_weights(x.size, x[1] - x[0])
        assert float(w @ tom.w) == pytest.approx(1.0, abs=1e-9)
        assert tom.quadrature_defect < 1e-6


def _narrow(n=101):
    return np.linspace(-1.0, 1.0, n)


def _wide(n=101):
    return np.linspace(-2.0, 2.0, n)


def _fock_basis_row(spec, theta, x):
    """The state's unnormalized marginal at one angle on one X grid: a one-row block."""
    return _marginals(spec)[2](np.array([theta]), x[None])[0]


class TestMassBand:
    """Every grid density checks its mass against the one band ``MASS_TOL`` when it is built."""

    @pytest.mark.parametrize(
        "make",
        [
            # a vacuum tomogram on a grid whose lower edge sits 1.5 sigma below the mean
            lambda: marginal_analytic(vacuum_spec(), 1.0, 0.0, default_x_grid(0.0, 0.0, math.sqrt(0.5)) + 6.0),
            # mass about 0.79: once renormalized without a word; one row of the Fock-basis marginal
            lambda: Tomogram(1.0, 0.0, _wide(), _fock_basis_row(parse_state_spec("thermal:2"), 0.0, _wide())),
            lambda: marginal_from_wigner(wigner(fock(0, 8)), 1.0, 0.0, _narrow()),
            lambda: wigner(fock(0, 8), PhaseGrid(-1.5, 1.5, -1.5, 1.5, 33, 33)),
            lambda: p_function_thermal(1.0, PhaseGrid(-2.0, 2.0, -2.0, 2.0, 33, 33)),
        ],
        ids=["analytic", "fock-basis", "wigner-marginal", "wigner", "p-function"],
    )
    def test_every_producer_rejects_a_grid_that_misses_the_state(self, make):
        with pytest.raises(GridError, match="mass"):
            make()

    def test_direct_tomogram_is_normalized_within_the_band(self):
        x = default_x_grid(0.0, 0.0, math.sqrt(0.5))
        w = gaussian_tomogram(1.0, 0.0, 0.0, x).w
        tom = Tomogram(1.0, 0.0, x, w * (1.0 + 1e-6))
        assert tom.quadrature_defect == pytest.approx(1e-6, rel=1e-6)
        assert float(simpson_weights(x.size, x[1] - x[0]) @ tom.w) == pytest.approx(1.0, abs=1e-14)
        with pytest.raises(GridError):
            Tomogram(1.0, 0.0, x, w * (1.0 + 1e-3))


class TestClassicalDivergence:
    def test_identical_tomograms_vanish(self):
        x = default_x_grid(0.0, 0.0, 1.0)
        t = gaussian_tomogram(1.0, 1.0, 0.3, x)
        for kind in ("hellinger", "kolmogorov", "bhattacharyya", "kullback"):
            assert classical_divergence(t, t, kind) == pytest.approx(0.0, abs=1e-12)

    def test_gaussian_hellinger(self):
        # equal-variance Gaussians: affinity exp(-gap^2 / (8 sigma^2))
        mu, nu, gap = 1.0, 0.0, 0.9
        sigma2 = (mu * mu + nu * nu) / 2.0
        x = default_x_grid(0.0, gap, math.sqrt(sigma2))
        ta = gaussian_tomogram(mu, nu, 0.0, x)
        tb = gaussian_tomogram(mu, nu, gap, x)
        expect = math.sqrt(2.0 - 2.0 * math.exp(-(gap**2) / (8.0 * sigma2)))
        assert classical_divergence(ta, tb, "hellinger") == pytest.approx(expect, abs=1e-9)

    def test_gaussian_bhattacharyya(self):
        mu, nu, gap = 0.8, 0.6, 1.1
        sigma2 = (mu * mu + nu * nu) / 2.0
        x = default_x_grid(0.0, gap, math.sqrt(sigma2))
        ta = gaussian_tomogram(mu, nu, 0.0, x)
        tb = gaussian_tomogram(mu, nu, gap, x)
        expect = gap**2 / (8.0 * sigma2)
        assert classical_divergence(ta, tb, "bhattacharyya") == pytest.approx(expect, abs=1e-9)

    def test_gaussian_kullback(self):
        mu, nu, gap = 1.0, 0.0, 0.7
        sigma2 = (mu * mu + nu * nu) / 2.0
        x = default_x_grid(0.0, gap, math.sqrt(sigma2))
        ta = gaussian_tomogram(mu, nu, 0.0, x)
        tb = gaussian_tomogram(mu, nu, gap, x)
        expect = gap**2 / sigma2
        assert classical_divergence(ta, tb, "kullback") == pytest.approx(expect, abs=1e-8)

    def test_kolmogorov_bounded_by_two(self):
        x = default_x_grid(0.0, 60.0, 1.0)
        ta = gaussian_tomogram(1.0, 1.0, 0.0, x)
        tb = gaussian_tomogram(1.0, 1.0, 60.0, x)
        d = classical_divergence(ta, tb, "kolmogorov")
        assert d == pytest.approx(2.0, abs=1e-6)

    def test_grid_mismatch(self):
        xa = default_x_grid(0.0, 0.0, 1.0)
        xb = default_x_grid(0.0, 0.0, 1.1)
        with pytest.raises(GridError):
            classical_divergence(
                gaussian_tomogram(1, 0, 0, xa), gaussian_tomogram(1, 0, 0, xb), "hellinger"
            )


class TestTomographicDistance:
    def test_depends_only_on_displacement_gap(self):
        # the angular rule splits its panels at the |cos|-type kink of the
        # integrand, wherever the pair is oriented, so both orientations
        # are integrated to rounding level
        gap = 0.8
        d1 = tomographic_distance(coherent_spec(0.0), coherent_spec(gap), "hellinger", angular_nodes=256)
        d2 = tomographic_distance(
            coherent_spec(0.3 + 0.4j),
            coherent_spec(0.3 + 0.4j + gap * np.exp(2.1j)),
            "hellinger",
            angular_nodes=256,
        )
        assert d1 == pytest.approx(d2, rel=1e-12)

    def test_triangle_inequality_on_coherent_triples(self, rng):
        for _ in range(4):
            pts = rng.normal(size=3) + 1j * rng.normal(size=3)
            d = {}
            for i, j in [(0, 1), (1, 2), (0, 2)]:
                d[i, j] = tomographic_distance(
                    coherent_spec(pts[i]), coherent_spec(pts[j]), "hellinger", angular_nodes=32
                )
            assert d[0, 2] <= d[0, 1] + d[1, 2] + 1e-6

    def test_unbounded_measures_grow(self):
        gaps = [1.0, 2.0, 4.0, 8.0]
        for kind in ("bhattacharyya", "kullback"):
            vals = [
                tomographic_distance(coherent_spec(0.0), coherent_spec(g), kind, angular_nodes=32)
                for g in gaps
            ]
            assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_kullback_is_eight_bhattacharyya_for_coherent(self):
        a, b = coherent_spec(0.0), coherent_spec(0.6)
        dj = tomographic_distance(a, b, "kullback")
        db = tomographic_distance(a, b, "bhattacharyya")
        assert dj / db == pytest.approx(8.0, rel=1e-6)

    def test_fock_basis_state_runs(self):
        # cat states have no closed-form tomogram; their Fock-basis
        # marginals agree with line integrals of the Wigner function
        a = StateSpec("cat", {"alpha": 1.0 + 0j, "phi": 0.0})
        d = tomographic_distance(a, coherent_spec(1.0), "hellinger", angular_nodes=8)
        assert 0.0 < d < 2.0 * math.pi * math.sqrt(2.0)
        qd = wigner(as_density(a, adaptive_dim(a)))
        x = default_x_grid(0.0, 0.0, math.sqrt(0.5), 2.0)
        for theta in (0.0, 0.7, 2.0):
            tf = Tomogram(math.cos(theta), math.sin(theta), x, _fock_basis_row(a, theta, x))
            tw = marginal_from_wigner(qd, math.cos(theta), math.sin(theta), x)
            assert np.abs(tf.w - tw.w).max() < 1e-4
            assert tf.quadrature_defect < 1e-10

    @pytest.mark.parametrize(
        "a, b, exact",
        [
            ("thermal:0.7", "coherent:0.5,0.2", 2.55168811998),
            ("squeezed:0.4", "squeezed:0.1,0.25", 1.13271549256),
            ("thermal:6", "coherent:0", 4.72126192713),
        ],
    )
    def test_fock_basis_distance_matches_gaussian_closed_form(self, a, b, exact):
        # thermal:6 is broader than the vacuum-sized X grid; the grid is
        # widened to 10 of its standard deviations at every angle
        spec_a, spec_b = parse_state_spec(a), parse_state_spec(b)
        ref = gaussian_hellinger_exact(spec_a, spec_b)
        assert ref == pytest.approx(exact, rel=1e-10)
        assert tomographic_distance(spec_a, spec_b, "hellinger") == pytest.approx(ref, rel=1e-8)

    def test_angular_rule_integrates_kinked_integrand(self):
        # for a coherent pair at gap s and direction phi the per-angle
        # distance vanishes, with a kink, where cos(theta - phi) = 0;
        # |cos| has the same kinks and integrates to 4
        phi = 2.3
        kinks = _kink_angles((0j, 0j, 0.0), (1.5 * np.exp(1j * phi), 0j, 2.25))
        assert np.cos(kinks - phi) == pytest.approx([0.0, 0.0], abs=1e-12)
        thetas, weights = _angular_rule(kinks, 64)
        assert thetas.size == 64
        assert float(weights @ np.abs(np.cos(thetas - phi))) == pytest.approx(4.0, rel=1e-13)

    def test_kink_angles_of_equal_mean_pair_match_variances(self):
        # squeezed vacua share the mean 0; their tomograms can coincide
        # only where the quadrature variances, taken here straight from
        # the density matrices, agree
        dim = 40
        rhos = [
            as_density(StateSpec("squeezed_vacuum", {"zeta": z}), dim)
            for z in (0.4 + 0j, 0.1 + 0.25j)
        ]
        moments = [(m[0, 1], m[0, 2], m[1, 1].real) for m in (dense_moments(r.mat, 2) for r in rhos)]
        kinks = _kink_angles(*moments)
        assert kinks.size == 4
        a = annihilation(dim)
        for theta in kinks:
            x = (a * np.exp(-1j * theta) + a.conj().T * np.exp(1j * theta)) / math.sqrt(2.0)
            var = [np.trace(x @ x @ r.mat).real - np.trace(x @ r.mat).real ** 2 for r in rhos]
            assert var[0] == pytest.approx(var[1], abs=1e-9)

    def test_node_counts_must_be_positive(self):
        with pytest.raises(StateValidationError):
            tomographic_distance(coherent_spec(0.0), coherent_spec(1.0), "hellinger", angular_nodes=0)

    def test_node_count_is_capped_before_the_rule_is_built(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the angular rule was built")

        monkeypatch.setattr("qdist.tomography._angular_rule", refuse)
        with pytest.raises(StateValidationError, match="4096"):
            tomographic_distance(coherent_spec(0.0), coherent_spec(1.0), "hellinger", angular_nodes=4097)
        with pytest.raises(AssertionError):
            tomographic_distance(coherent_spec(0.0), coherent_spec(1.0), "hellinger", angular_nodes=4096)

    def test_fock_pair_value_is_finite_and_positive(self):
        d = tomographic_distance(
            StateSpec("fock", {"n": 0}), StateSpec("fock", {"n": 1}), "hellinger", angular_nodes=16
        )
        assert 0.0 < d <= 2.0 * math.pi * math.sqrt(2.0)


KINDS = ("hellinger", "kolmogorov", "bhattacharyya", "kullback")
GENCOH = StateSpec("generalized_coherent", {"alpha": 0.6 + 0.2j, "phases": list(np.linspace(0.0, 3.0, 64) ** 2)})


def _spec(text):
    return GENCOH if text == "gencoh" else parse_state_spec(text)


class TestStreamedMarginals:
    """The Fock-basis route of ``_marginals``, one walk over a block, against the per-row tables of ``conftest``."""

    @pytest.mark.parametrize("text", ["fock:0", "fock:3", "fock:40", "thermal:0.7", "thermal:6", "squeezed:0.4,0.2",
                                      "cat:1.2,0.3,0.5", "phase:0.4,0.2", "gencoh"])
    def test_block_matches_the_per_row_tables(self, text):
        spec = _spec(text)
        moments, _, marginal = _marginals(spec)
        thetas = np.array([0.0, 0.4, 1.3, 2.9, 4.4])
        mean, sigma = quadrature_moments(moments, thetas)
        # rows of different lengths, so all but the longest run on into padding
        x, _ = tomography._x_rows(mean - 10.0 * sigma, mean + 10.0 * sigma, np.array([1025, 1201, 1103, 1301, 1025]))
        ref = table_marginals(spec, thetas, x)
        assert np.abs(marginal(thetas, x) - ref).max() <= 1e-13 * np.abs(ref).max()


# the Kullback rows whose narrow density underflows the divergence's floor far from its mean
FLOORED_KULLBACK = {("thermal:20", "coherent:0"), ("squeezed:0.97", "coherent:0")}


def _gaussian_case(a, b, kind):
    if kind == "kolmogorov":
        return pytest.param(a, b, kind, marks=pytest.mark.xfail(strict=True, reason=(
            "ROADMAP item 17: Simpson on each X row drops to O(h^2) at the crossings of |p - q|, "
            "2.5e-6 to 5e-5 relative on these pairs")))
    if (a, b) in FLOORED_KULLBACK and kind == "kullback":
        return pytest.param(a, b, kind, marks=pytest.mark.xfail(strict=True, reason=(
            "FOUND in CHANGES.md: KULLBACK_FLOOR clips the narrow density far from its mean, "
            "1.3e-8 and 3.3e-6 relative on these two rows")))
    return pytest.param(a, b, kind)


class TestGaussianTomograms:
    """The Gaussian marginals of ``_marginals`` against the per-angle closed forms of ``conftest``."""

    # the last two needed more than 512 levels on the Fock-basis route, and were refused
    PAIRS = [("thermal:2", "squeezed:0.5"), ("squeezed:0.95", "squeezed:0.9"), ("squeezed:0.4", "squeezed:0.1,0.25"),
             ("thermal:0.7", "coherent:0.5,0.2"), ("thermal:20", "coherent:0"), ("squeezed:0.97", "coherent:0")]

    @pytest.mark.parametrize("a, b, kind", [_gaussian_case(a, b, kind) for a, b in PAIRS for kind in KINDS])
    def test_distance_matches_the_closed_form_at_every_node(self, a, b, kind):
        spec_a, spec_b = parse_state_spec(a), parse_state_spec(b)
        ref = gaussian_tomographic_distance(spec_a, spec_b, kind)
        assert tomographic_distance(spec_a, spec_b, kind) == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("m1, v1, m2, v2", [(0.3, 0.5, -0.4, 2.1), (0.0, 0.05, 0.0, 20.5),
                                                (1.0, 0.5, 1.0, 0.501), (-2.0, 0.7, 1.5, 0.7)])
    def test_the_closed_forms_match_quadrature(self, m1, v1, m2, v2, kind):
        # the oracle itself, against adaptive quadrature of the two normal densities, split where they cross
        from scipy.integrate import quad

        def log_pdf(x, m, v):
            return -((x - m) ** 2) / (2.0 * v) - 0.5 * math.log(2.0 * math.pi * v)

        integrands = {
            "hellinger": lambda x: (math.exp(0.5 * log_pdf(x, m1, v1)) - math.exp(0.5 * log_pdf(x, m2, v2))) ** 2,
            "bhattacharyya": lambda x: math.exp(0.5 * (log_pdf(x, m1, v1) + log_pdf(x, m2, v2))),
            "kullback": lambda x: ((math.exp(log_pdf(x, m1, v1)) - math.exp(log_pdf(x, m2, v2)))
                                   * (log_pdf(x, m1, v1) - log_pdf(x, m2, v2))),
            "kolmogorov": lambda x: abs(math.exp(log_pdf(x, m1, v1)) - math.exp(log_pdf(x, m2, v2))),
        }
        # log p - log q is a quadratic in x; its real roots are the crossings
        coeffs = [1.0 / (2.0 * v2) - 1.0 / (2.0 * v1), m1 / v1 - m2 / v2,
                  m2 * m2 / (2.0 * v2) - m1 * m1 / (2.0 * v1) + 0.5 * math.log(v2 / v1)]
        reach = 40.0 * math.sqrt(max(v1, v2)) + abs(m1) + abs(m2)
        edges = sorted({-reach, reach, *(r.real for r in np.roots(coeffs) if abs(r.imag) < 1e-12 and abs(r) < reach)})
        total = sum(quad(integrands[kind], lo, hi, epsabs=0.0, epsrel=1e-13, limit=200)[0]
                    for lo, hi in zip(edges, edges[1:]))
        exact = {"hellinger": math.sqrt(total), "bhattacharyya": -math.log(total)}.get(kind, total)
        assert float(gaussian_divergences(m1, v1, m2, v2, kind)) == pytest.approx(exact, rel=1e-10)


class TestBlockedNodes:
    """The blocked evaluation of ``tomographic_distance`` against the per-node loop of ``conftest``."""

    PAIRS = {
        # split at the angles where the means meet
        "kinked": [("coherent:0.3,0.4", "coherent:1.1,-0.2"), ("cat:1.2,0,0", "coherent:0.8"),
                   ("phase:0.4", "coherent:0.5"), ("gencoh", "coherent:0.4"), ("coherent:0.7", "fock:2"),
                   ("thermal:0.7", "coherent:0.5,0.2")],
        # equal means: split where the variances meet
        "variance-kinked": [("squeezed:0.4", "squeezed:0.1,0.25")],
        # equal means, variances that never meet: the uniform rule
        "unkinked": [("squeezed:0.2", "fock:3"), ("squeezed:0.3", "thermal:2")],
        # both states diagonal: one node
        "diagonal": [("fock:0", "fock:2"), ("thermal:0.5", "fock:1"), ("thermal:0.5", "thermal:2"),
                     ("coherent:0", "fock:1")],
    }
    CASES = [(a, b, kind) for pairs in PAIRS.values() for a, b in pairs for kind in KINDS]

    @staticmethod
    def _rows(monkeypatch):
        """Marginal rows evaluated, per call, once ``_marginals`` is wrapped to count them."""
        rows, marginals = [], tomography._marginals

        def counted(spec):
            moments, diagonal, marginal = marginals(spec)

            def count(thetas, x):
                rows.append(len(thetas))
                return marginal(thetas, x)

            return moments, diagonal, count

        monkeypatch.setattr(tomography, "_marginals", counted)
        return rows

    @pytest.mark.parametrize("a, b, kind", CASES)
    def test_blocks_match_the_per_node_loop(self, a, b, kind):
        spec_a, spec_b = _spec(a), _spec(b)
        ref = per_node_tomographic_distance(spec_a, spec_b, kind)
        assert tomographic_distance(spec_a, spec_b, kind) == pytest.approx(ref, rel=1e-12, abs=1e-14)

    @pytest.mark.parametrize("nodes", [1, 7, 64, 257])
    @pytest.mark.parametrize("a, b", [("coherent:0.3,0.4", "coherent:1.1,-0.2"), ("squeezed:0.4", "squeezed:0.1,0.25"),
                                      ("squeezed:0.3", "thermal:2"), ("cat:1.2,0,0", "coherent:0.8")])
    def test_every_node_count_matches_the_per_node_loop(self, a, b, nodes):
        spec_a, spec_b = _spec(a), _spec(b)
        ref = per_node_tomographic_distance(spec_a, spec_b, "hellinger", nodes)
        got = tomographic_distance(spec_a, spec_b, "hellinger", nodes)
        assert got == pytest.approx(ref, rel=1e-12, abs=1e-14)

    @pytest.mark.parametrize("a, b, block", [("coherent:0", "coherent:20", None), ("coherent:0", "coherent:20", 3000),
                                             ("thermal:0.7", "coherent:0.5,0.2", 3000)])
    def test_nodes_spanning_several_blocks_match_the_per_node_loop(self, monkeypatch, a, b, block):
        # coherent:0 vs coherent:20 has rows of up to about 3,100 points, so its 64 nodes fill 13 blocks
        # of NODE_BLOCK points; a block of 3,000 points holds one such row, or two of the other pair's
        if block is not None:
            monkeypatch.setattr(tomography, "NODE_BLOCK", block)
        spec_a, spec_b = _spec(a), _spec(b)
        ref = per_node_tomographic_distance(spec_a, spec_b, "kullback")
        rows = self._rows(monkeypatch)
        got = tomographic_distance(spec_a, spec_b, "kullback")
        assert len(rows) > 2 and sum(rows) == 128
        assert got == pytest.approx(ref, rel=1e-12, abs=1e-14)

    @pytest.mark.parametrize("a, b", PAIRS["diagonal"])
    @pytest.mark.parametrize("kind", KINDS)
    def test_a_diagonal_pair_takes_one_node(self, monkeypatch, a, b, kind):
        # both tomograms, and so the grid and the integrand, are the same at every angle
        spec_a, spec_b = _spec(a), _spec(b)
        ref = per_node_tomographic_distance(spec_a, spec_b, kind, 64)
        rows = self._rows(monkeypatch)
        got = tomographic_distance(spec_a, spec_b, kind)
        assert rows == [1, 1]
        assert got == pytest.approx(ref, rel=1e-13)

    @pytest.mark.parametrize("a, b", [("fock:1", "squeezed:0.3"), ("thermal:0.5", "coherent:0.3")])
    def test_a_pair_with_one_non_diagonal_state_keeps_every_node(self, monkeypatch, a, b):
        rows = self._rows(monkeypatch)
        tomographic_distance(_spec(a), _spec(b), "hellinger")
        assert sum(rows) == 128

    def test_gauss_legendre_panels_are_read_only_and_bounded(self):
        t, w = tomography._gauss_legendre(17)
        assert tomography._gauss_legendre(17)[0] is t
        assert not t.flags.writeable and not w.flags.writeable
        assert tomography._gauss_legendre.cache_info().maxsize < MAX_ANGULAR_NODES


class TestCsvExports:
    def test_grid_csv_round_trip(self, tmp_path):
        from qdist import fock, grid_to_csv, outer, wigner

        qd = wigner(outer(fock(0, 8)))
        path = tmp_path / "grid.csv"
        grid_to_csv(qd, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "q,p,value"
        assert len(lines) == qd.grid.nq * qd.grid.n_p + 1
