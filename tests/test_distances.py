import cmath
import math

import numpy as np
import pytest

from conftest import random_density, random_pure_density
from qdist import (
    DensityOperator,
    build_pair,
    bures_uhlmann,
    cat,
    coherent,
    coherent_pair,
    evaluate_metric,
    fock,
    hilbert_schmidt,
    hs_bounds,
    hs_from_moments,
    jmg_distance,
    modified_hs,
    moment_table,
    outer,
    parse_state_spec,
    polarized,
    polarized_sqrt,
    pure_state_distance,
    quasidistance_Da,
    quasidistance_DZ,
    thermal,
)
from qdist.closed_forms import METRIC_NAMES, parse_metric, thermal_pair
from qdist.distances import METRICS
from qdist.errors import DimensionMismatchError, StateValidationError, UnsupportedCombinationError

SQRT2 = math.sqrt(2.0)


class TestPureStateDistance:
    def test_global_phase_invariance(self):
        v = coherent(0.9 + 0.4j, 48)
        w = type(v)(v.amp * np.exp(1.7j))
        for kind in ("fs", "minimal", "wootters"):
            assert pure_state_distance(v, w, kind) == pytest.approx(0.0, abs=1e-7)

    @pytest.mark.parametrize("kind", ["fs", "minimal", "wootters"])
    @pytest.mark.parametrize(
        "state",
        [lambda: coherent(1.2 + 0.3j, 32), lambda: cat(1.2, 1.1, 32), lambda: fock(3, 8)],
    )
    def test_identical_pair_reads_zero(self, kind, state):
        # 1 - |<a|b>| would leave sqrt(eps) noise; ||a - e^{i phi} b|| does not
        assert pure_state_distance(state(), state(), kind) == 0.0

    def test_orthogonal_pair(self):
        a, b = fock(0, 8), fock(1, 8)
        assert pure_state_distance(a, b, "fs") == pytest.approx(SQRT2, abs=1e-12)
        assert pure_state_distance(a, b, "wootters") == pytest.approx(math.pi / 2, abs=1e-12)

    def test_coherent_pair_overlap_formula(self):
        # |<a|b>|^2 = exp(-|a-b|^2) gives d_FS = sqrt(2(1 - e^{-1}))
        d = pure_state_distance(coherent(0.0, 32), coherent(1.0, 32), "fs")
        assert d == pytest.approx(math.sqrt(2.0 * (1.0 - math.exp(-1.0))), abs=1e-10)


class TestHilbertSchmidt:
    def test_identical(self):
        rho = thermal(1.0, 64)
        assert hilbert_schmidt(rho, rho) == 0.0

    def test_orthogonal_pure_maximum(self):
        assert hilbert_schmidt(outer(fock(0, 8)), outer(fock(3, 8))) == pytest.approx(
            SQRT2, abs=1e-12
        )

    def test_thermal_vacuum(self):
        # nbar sqrt(2) / sqrt((1+nbar)(1+2nbar)) at nbar = 1
        d = hilbert_schmidt(thermal(1.0, 64), outer(fock(0, 64)))
        assert d == pytest.approx(SQRT2 / math.sqrt(6.0), abs=1e-10)


class TestJMG:
    def test_identical(self):
        rho = thermal(0.5, 48)
        assert jmg_distance(rho, rho) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_pure(self):
        assert jmg_distance(outer(fock(0, 4)), outer(fock(1, 4))) == pytest.approx(1.0, abs=1e-12)

    def test_coherent_pair(self):
        a, b = 0.3, 1.1
        d = jmg_distance(outer(coherent(a, 32)), outer(coherent(b, 32)))
        assert d == pytest.approx(math.sqrt(1.0 - math.exp(-abs(a - b) ** 2)), abs=1e-12)


class TestBuresUhlmann:
    def test_pure_pair_equals_minimal(self, rng):
        for _ in range(10):
            a = random_pure_density(rng, 12)
            b = random_pure_density(rng, 12)
            ov = abs(np.trace(a.mat @ b.mat).real) ** 0.5
            expect = math.sqrt(max(2.0 * (1.0 - ov), 0.0))
            assert bures_uhlmann(a, b) == pytest.approx(expect, abs=1e-8)

    def test_pure_vs_mixed(self, rng):
        psi = coherent(0.8, 48)
        rho = thermal(0.6, 48)
        fid = np.vdot(psi.amp, rho.mat @ psi.amp).real
        expect = SQRT2 * math.sqrt(1.0 - math.sqrt(fid))
        assert bures_uhlmann(outer(psi), rho) == pytest.approx(expect, abs=1e-10)

    def test_thermal_vacuum_value(self):
        d = bures_uhlmann(thermal(1.0, 64), outer(fock(0, 64)))
        expect = SQRT2 / math.sqrt(math.sqrt(2.0) * (1.0 + math.sqrt(2.0)))
        assert d == pytest.approx(expect, abs=1e-10)
        assert expect == pytest.approx(0.76537, abs=5e-6)

    def test_symmetry(self, rng):
        a, b = random_density(rng, 10), random_density(rng, 10)
        assert abs(bures_uhlmann(a, b) - bures_uhlmann(b, a)) <= 1e-8


class TestModifiedHS:
    def test_p_one_is_hilbert_schmidt(self, rng):
        a, b = random_density(rng, 8), random_density(rng, 8)
        assert modified_hs(a, b, 1.0) == pytest.approx(hilbert_schmidt(a, b), abs=1e-12)

    def test_commuting_pair_matches_bures(self):
        a, b = thermal(0.8, 96), thermal(2.0, 96)
        assert modified_hs(a, b, 0.5) == pytest.approx(bures_uhlmann(a, b), abs=1e-10)

    def test_pure_vs_mixed_upper_bound(self, rng):
        # sqrt(2(1 - <psi|rho|psi>)) bounds the p = 1/2 distance from
        # above (it is not an equality: rho = I/2 against |0> gives
        # sqrt(2 - sqrt(2)) on the left and 1 on the right)
        half = DensityOperator(np.eye(2, dtype=complex) / 2.0)
        e0 = DensityOperator(np.diag([1.0, 0.0]).astype(complex))
        assert modified_hs(e0, half, 0.5) == pytest.approx(math.sqrt(2.0 - SQRT2), abs=1e-12)
        for _ in range(20):
            pure = random_pure_density(rng, 8)
            mixed = random_density(rng, 8)
            bound = SQRT2 * math.sqrt(1.0 - np.trace(pure.mat @ mixed.mat).real)
            assert modified_hs(pure, mixed, 0.5) <= bound + 1e-10

    def test_p_out_of_range(self, rng):
        a = random_density(rng, 4)
        with pytest.raises(StateValidationError):
            modified_hs(a, a, 0.0)


class TestPolarized:
    def test_identity_reduces_to_hs(self, rng):
        for _ in range(20):
            a, b = random_density(rng, 12), random_density(rng, 12)
            z = np.ones(12)
            assert polarized(a, b, z) == pytest.approx(hilbert_schmidt(a, b), abs=1e-10)

    def test_fock_pair(self):
        z = np.arange(16, dtype=float)
        d = polarized(outer(fock(2, 16)), outer(fock(5, 16)), z)
        assert d == pytest.approx(math.sqrt(7.0), abs=1e-12)

    def test_coherent_vs_vacuum(self):
        alpha = 1.3
        dim = 48
        d = polarized(outer(coherent(alpha, dim)), outer(fock(0, dim)), np.arange(dim, dtype=float))
        assert d == pytest.approx(alpha, abs=1e-10)


class TestPolarizedSqrt:
    def test_identical(self):
        rho = thermal(1.5, 96)
        assert polarized_sqrt(rho, rho, np.arange(96, dtype=float)) == 0.0

    def test_thermal_vs_vacuum(self):
        nbar, dim = 1.5, 96
        d = polarized_sqrt(thermal(nbar, dim), outer(fock(0, dim)), np.arange(dim, dtype=float))
        assert d == pytest.approx(math.sqrt(nbar), abs=1e-9)

    def test_thermal_pair_value(self):
        # sqrt(3 - 2 sqrt(2) ((sqrt6 + sqrt2)/4)^2) for mean photon numbers 1 and 2
        dim = 128
        d = polarized_sqrt(thermal(1.0, dim), thermal(2.0, dim), np.arange(dim, dtype=float))
        expect = math.sqrt(3.0 - 2.0 * SQRT2 * ((math.sqrt(6.0) + SQRT2) / 4.0) ** 2)
        assert d == pytest.approx(expect, abs=1e-8)

    def test_matches_polarized_for_pure_pairs(self, rng):
        z = np.arange(32, dtype=float)
        a, b = outer(coherent(0.7, 32)), outer(coherent(-0.2 + 0.5j, 32))
        assert polarized_sqrt(a, b, z) == pytest.approx(polarized(a, b, z), abs=1e-8)

    def test_pure_pair_at_dim_496(self):
        # the root of a projector taken by the eigensolver was ~1e-7 off here
        alpha, beta = 18.7, 18.74 * cmath.exp(0.2j)
        value = evaluate_metric("dn-sqrt", coherent(alpha, 496), coherent(beta, 496)).value
        assert value == pytest.approx(coherent_pair(alpha, beta)["dN"], abs=1e-9)


@pytest.mark.parametrize("kernel", [polarized, polarized_sqrt, quasidistance_DZ], ids=lambda f: f.__name__)
@pytest.mark.parametrize(
    "weights,error",
    [
        (np.arange(16.0) - 1.0, StateValidationError),
        (np.diag(np.arange(16.0)), StateValidationError),
        (np.arange(17.0), DimensionMismatchError),
    ],
    ids=["negative", "two-dimensional", "wrong-length"],
)
def test_polarization_weights_are_checked(kernel, weights, error):
    with pytest.raises(error):
        kernel(thermal(0.1, 16), outer(fock(1, 16)), weights)


@pytest.mark.parametrize("kernel", [polarized, polarized_sqrt, quasidistance_DZ], ids=lambda f: f.__name__)
@pytest.mark.parametrize("other", [lambda: fock(1, 16), lambda: outer(fock(1, 16))], ids=["structured", "dense"])
def test_nan_polarization_weights_are_refused(kernel, other):
    # (z < 0).any() is False for NaN, which once let the value come out NaN
    z = np.arange(16.0)
    z[3] = np.nan
    with pytest.raises(StateValidationError):
        kernel(thermal(0.1, 16), other(), z)


class TestQuasidistances:
    def test_dz_fock_pairs(self):
        z = np.arange(16, dtype=float)
        for m, n in [(4, 1), (0, 3), (2, 2)]:
            d = quasidistance_DZ(outer(fock(m, 16)), outer(fock(n, 16)), z)
            expect = abs(math.sqrt(m) - math.sqrt(n)) / SQRT2
            assert d == pytest.approx(expect, abs=1e-12)
        assert quasidistance_DZ(outer(fock(4, 16)), outer(fock(1, 16)), z) == pytest.approx(
            1.0 / SQRT2, abs=1e-12
        )

    def test_dz_identical_is_zero(self):
        rho = thermal(0.7, 48)
        assert quasidistance_DZ(rho, rho, np.arange(48, dtype=float)) == 0.0

    def test_da_coherent_pair(self):
        a, b = 0.2 + 0.4j, 1.0 - 0.3j
        s = abs(a - b)
        d = quasidistance_Da(outer(coherent(a, 48)), outer(coherent(b, 48)))
        expect = s * math.sqrt((1.0 + math.exp(-s * s)) / 2.0)
        assert d == pytest.approx(expect, abs=1e-10)

    def test_da_unit_gap_value(self):
        d = quasidistance_Da(outer(coherent(0.0, 32)), outer(coherent(1.0, 32)))
        assert d == pytest.approx(math.sqrt((1.0 + math.exp(-1.0)) / 2.0), abs=1e-10)
        assert d == pytest.approx(0.8270, abs=5e-5)

    def test_da_identical_is_zero(self):
        rho = outer(coherent(0.5, 32))
        assert quasidistance_Da(rho, rho) == 0.0

    def test_dz_nonnegative_random(self, rng):
        z = np.arange(10, dtype=float)
        for _ in range(100):
            a, b = random_density(rng, 10), random_density(rng, 10)
            assert quasidistance_DZ(a, b, z) >= 0.0


class TestMomentSeries:
    def test_identical_tables_vanish(self):
        t = moment_table(outer(coherent(0.6, 48)), 12)
        d, partials = hs_from_moments(t, t, 12)
        assert d == 0.0
        assert np.abs(partials).max() == 0.0

    def test_fock_pair_closes_at_order_two(self):
        ta = moment_table(outer(fock(0, 24)), 4)
        tb = moment_table(outer(fock(1, 24)), 4)
        d, partials = hs_from_moments(ta, tb, 4)
        assert partials[1] == pytest.approx(0.0, abs=1e-12)
        assert partials[2] == pytest.approx(2.0, abs=1e-12)  # squared distance
        assert partials[4] == pytest.approx(2.0, abs=1e-12)
        assert d == pytest.approx(SQRT2, abs=1e-12)

    def test_coherent_pair_converges_to_closed_form(self):
        a, b = 0.3, 1.0
        dim = 64
        ta = moment_table(outer(coherent(a, dim)), 30)
        tb = moment_table(outer(coherent(b, dim)), 30)
        d, partials = hs_from_moments(ta, tb, 30)
        expect = math.sqrt(2.0 * (1.0 - math.exp(-abs(a - b) ** 2)))
        assert abs(d - expect) < 1e-10
        assert abs(partials[-1] - expect**2) < 1e-10

    def test_partial_sums_match_literal_coefficient_loop(self):
        # brute-force oracle: evaluate the order-by-order coefficient
        # (-1)^(s+k+l) s! / (k!(s-k)! l!(s-l)!) term by term
        ta = moment_table(outer(coherent(0.4 + 0.2j, 32)), 8)
        tb = moment_table(outer(cat(0.7, 0.9, 32)), 8)
        dm = ta.m - tb.m
        brute = []
        total = 0.0
        for s in range(9):
            acc = 0.0
            for k in range(s + 1):
                for l in range(s + 1):
                    coeff = (-1.0) ** (s + k + l) * math.factorial(s) / (
                        math.factorial(k)
                        * math.factorial(s - k)
                        * math.factorial(l)
                        * math.factorial(s - l)
                    )
                    acc += (coeff * dm[k, l] * dm[s - k, s - l]).real
            total += acc
            brute.append(total)
        _, partials = hs_from_moments(ta, tb, 8)
        assert np.abs(np.array(brute) - partials).max() < 1e-12

    def test_orders_past_170_stay_finite(self):
        # s! overflows a double from s = 171; the coefficients never form it
        ta = moment_table(thermal(0.05, 200), 180)
        tb = moment_table(thermal(0.06, 200), 180)
        d, partials = hs_from_moments(ta, tb, 175)
        assert np.isfinite(partials).all()
        assert d == pytest.approx(thermal_pair(0.05, 0.06)["hs"], rel=1e-9)


class TestBounds:
    def test_vacuum_reference(self):
        rho = outer(fock(0, 16))
        b = hs_bounds(rho, 0)
        assert b.b0 == pytest.approx(0.0, abs=1e-12)
        assert b.bn >= 0.0 and b.bvar >= 0.0

    def test_thermal_bound_zero(self):
        rho = thermal(0.1, 32)
        b = hs_bounds(rho, 0)
        assert b.b0 == pytest.approx(math.sqrt(0.2), abs=1e-10)
        assert b.b0 >= hilbert_schmidt(rho, outer(fock(0, 32)))

    def test_coherent_variance_bound(self):
        dim = 48
        rho = outer(coherent(1.0, dim))
        b = hs_bounds(rho, 1)
        assert b.bvar == pytest.approx(SQRT2, abs=1e-9)  # sigma = 1, nbar = 1
        assert b.bvar >= hilbert_schmidt(rho, outer(fock(1, dim)))


def _diagonal_pair_mp(mp, metric, a, b):
    """A squared-difference metric or bu of two diagonal states, in the mpmath context ``mp``.

    Read off the states' double populations.  Bures of a commuting pair is the Hilbert-Schmidt
    distance of the roots; d = rho1 - rho2 is diagonal, so Tr(a d^2) = 0 and D_a^2 = Tr(N d^2).
    """
    base, p = parse_metric(metric)
    power = mp.mpf(p if base == "hs-p" else 0.5 if base in ("dn-sqrt", "bu") else 1.0)
    dd = [(mp.mpf(float(x)) ** power - mp.mpf(float(y)) ** power) ** 2 for x, y in zip(a.populations, b.populations)]
    t, t_n = mp.fsum(dd), mp.fsum(n * e for n, e in enumerate(dd))
    if base == "DZ":
        return mp.sqrt(t_n - mp.fsum(mp.sqrt(n) * e for n, e in enumerate(dd)) ** 2 / t)
    return mp.sqrt(t_n if base in ("dn", "dn-sqrt", "Da") else t)


@pytest.mark.parametrize("metric", ["hs", "hs-p:0.3", "dn", "dn-sqrt", "DZ", "Da", "bu"])
@pytest.mark.parametrize("n", [0, 1])
@pytest.mark.parametrize("nbar", [1e-2, 1e-5, 1e-8])
def test_thermal_neighbour_of_a_number_state_keeps_its_digits(metric, n, nbar):
    # both factors are 1-d, so p1^p - p2^p is formed level by level before it is squared; a 2-d
    # factor on either side would square Tr rho1^2p + Tr rho2^2p - 2 Tr rho1^p rho2^p and cancel,
    # and DZ and Da once read 0 below Tr d^2 = 1e-14
    mp = pytest.importorskip("mpmath").mp.clone()
    mp.dps = 50
    a, b = build_pair(parse_state_spec(f"thermal:{nbar}"), parse_state_spec(f"fock:{n}"))
    exact = float(_diagonal_pair_mp(mp, metric, a, b))
    assert abs(evaluate_metric(metric, a, b).value - exact) <= 1e-12 * exact


@pytest.mark.parametrize("nbar", [1e-2, 1e-5, 1e-8])
def test_thermal_neighbour_of_the_thermal_vacuum_keeps_its_bures_digits(nbar):
    # bu once formed 2 - 2 sum sqrt(p1 p2), which cancels as the pair closes
    mp = pytest.importorskip("mpmath").mp.clone()
    mp.dps = 50
    a, b = build_pair(parse_state_spec(f"thermal:{nbar}"), parse_state_spec("thermal:0"))
    exact = float(_diagonal_pair_mp(mp, "bu", a, b))
    assert abs(evaluate_metric("bu", a, b).value - exact) <= 1e-12 * exact


@pytest.mark.parametrize("metric", ["bu", "dn-sqrt", "hs-p:0.3"])
@pytest.mark.parametrize("gap", [1e-2, 1e-5, 1e-8])
def test_close_thermal_populations_keep_their_digits(metric, gap):
    # p1^p - p2^p of populations within a factor of 2 is p2^p expm1(p log1p((p1 - p2) / p2)); the
    # difference of the two rounded powers lost 3.8e-9 of bu at thermal:1 vs thermal:1.00000001
    mp = pytest.importorskip("mpmath").mp.clone()
    mp.dps = 50
    a, b = build_pair(parse_state_spec("thermal:1"), parse_state_spec(f"thermal:{1 + gap!r}"), dim=160)
    exact = float(_diagonal_pair_mp(mp, metric, a, b))
    assert abs(evaluate_metric(metric, a, b).value - exact) <= 1e-12 * exact


def _pure_pair_mp(mp, a, b):
    """hs, dn, DZ, Da and minimal of two pure states, in the mpmath context ``mp``.

    Read off the states' double amplitudes, with rho = a a^dag as stored (a projector is its own
    power, so hs-p and dn-sqrt equal hs and dn).  d = a a^dag - b b^dag has rank two, so
    (d^2)_il = a_i conj(a_l) |a|^2 - a_i <a|b> conj(b_l) - b_i <b|a> conj(a_l) + b_i conj(b_l) |b|^2.
    """
    x, y = ([mp.mpc(complex(c)) for c in state.amp] for state in (a, b))
    na, nb = (mp.fsum(abs(c) ** 2 for c in v) for v in (x, y))
    ab = mp.fsum(mp.conj(u) * v for u, v in zip(x, y))

    def d2(i, l):
        return (x[i] * mp.conj(x[l]) * na - x[i] * ab * mp.conj(y[l])
                - y[i] * mp.conj(ab) * mp.conj(x[l]) + y[i] * mp.conj(y[l]) * nb)

    dd = [mp.re(d2(i, i)) for i in range(a.dim)]
    t, t_n = mp.fsum(dd), mp.fsum(n * e for n, e in enumerate(dd))
    t_root = mp.fsum(mp.sqrt(n) * e for n, e in enumerate(dd))
    lower = mp.fsum(mp.sqrt(m + 1) * d2(m + 1, m) for m in range(a.dim - 1))  # Tr(a d^2)
    exact = {"hs": mp.sqrt(t), "dn": mp.sqrt(t_n), "DZ": mp.sqrt(t_n - t_root**2 / t),
             "Da": mp.sqrt(t_n - abs(lower) ** 2 / t), "minimal": mp.sqrt(na + nb - 2 * abs(ab))}
    return {**exact, "hs-p:0.3": exact["hs"], "dn-sqrt": exact["dn"]}


# (a, b) at a gap g; the complex parameters give complex overlaps, whose phase is aligned away
PURE_NEIGHBOURS = {
    "coherent": lambda g: ("coherent:1", f"coherent:{1 + g!r}"),
    "coherent-complex": lambda g: ("coherent:0.6,0.8", f"coherent:0.6,{0.8 + g!r}"),
    "squeezed": lambda g: ("squeezed:0.3", f"squeezed:{0.3 + g!r}"),
    "squeezed-complex": lambda g: ("squeezed:0.2,0.2", f"squeezed:0.2,{0.2 + g!r}"),
    "phase": lambda g: ("phase:0.3", f"phase:{0.3 + g!r}"),
    "phase-complex": lambda g: ("phase:0.3,0.2", f"phase:0.3,{0.2 + g!r}"),
    "cat-phi": lambda g: ("cat:1.2,0,0.7", f"cat:1.2,0,{0.7 + g!r}"),
    "cat-alpha": lambda g: ("cat:0.9,0.5,2", f"cat:0.9,{0.5 + g!r},2"),
    "coherent-fock": lambda g: (f"coherent:{g!r},{g!r}", "fock:0"),
}


@pytest.mark.parametrize("gap", [1e-2, 1e-5, 1e-8])
@pytest.mark.parametrize("pair", PURE_NEIGHBOURS)
def test_pure_neighbours_keep_their_digits(pair, gap):
    # rho1 - rho2 is formed from d = a - c b before it is squared; squaring
    # Tr rho1^2 + Tr rho2^2 - 2 Tr rho1 rho2 lost 2.1e-5 of dn at coherent:1 vs coherent:1.000001,
    # and rotating b by a rounded phase e^{i phi} lost 1e-9 at gap 1e-8 on complex overlaps
    mp = pytest.importorskip("mpmath").mp.clone()
    mp.dps = 50
    a, b = build_pair(*map(parse_state_spec, PURE_NEIGHBOURS[pair](gap)))
    for metric, value in _pure_pair_mp(mp, a, b).items():
        exact = float(value)
        assert abs(evaluate_metric(metric, a, b).value - exact) <= 1e-12 * exact, metric


_GENERAL_MATRIX = random_density(np.random.default_rng(5), 24).mat
# route -> a builder; each call builds the state anew, so a pair of calls gives equal, separate inputs
IDENTICAL_ROUTES = {
    "pure": lambda: coherent(0.9 + 0.4j, 24),
    "number": lambda: fock(3, 24),
    "diagonal": lambda: thermal(0.3, 24),
    "number-projector": lambda: outer(fock(3, 24)),
    "diagonal-matrix": lambda: DensityOperator(np.diag(np.linspace(1.0, 2.0, 24) / 36.0)),
    "projector": lambda: outer(cat(1.1, 0.6, 24)),
    "general": lambda: DensityOperator(_GENERAL_MATRIX),
}
SQUARED_DIFFERENCE = ("hs", "hs-p", "hs-p:0.3", "dn", "dn-sqrt", "DZ", "Da")


@pytest.mark.parametrize("route", IDENTICAL_ROUTES)
def test_identical_inputs_read_exactly_zero(route):
    # X X + Y Y - X Y - Y X is 0 when X = Y bit for bit, and the pure and diagonal routes difference
    # the states first.  bu takes 2 - 2F on a one-column or general factor, which leaves rounding
    # of order sqrt(eps) there, so it is held to 0 only on the routes that form a difference.
    a, b = IDENTICAL_ROUTES[route](), IDENTICAL_ROUTES[route]()
    metrics = SQUARED_DIFFERENCE + (() if route in ("projector", "general") else ("bu",))
    assert {m: evaluate_metric(m, a, b).value for m in metrics} == dict.fromkeys(metrics, 0.0)


class TestMetricAxiomsSample:
    # a quick fuzz here; the full 500-triple corpus runs in the acceptance suite
    def test_symmetry_and_triangle(self, rng):
        z = None
        for _ in range(60):
            dim = int(rng.integers(4, 17))
            a, b, c = (random_density(rng, dim) for _ in range(3))
            zn = np.arange(dim, dtype=float)
            metrics = [
                hilbert_schmidt,
                jmg_distance,
                bures_uhlmann,
                lambda x, y: modified_hs(x, y, 0.5),
                lambda x, y: polarized(x, y, zn),
                lambda x, y: polarized_sqrt(x, y, zn),
            ]
            for m in metrics:
                assert abs(m(a, b) - m(b, a)) <= 1e-10
                assert m(a, c) <= m(a, b) + m(b, c) + 1e-9

    def test_puremix_upper_bound(self, rng):
        for _ in range(50):
            dim = int(rng.integers(4, 17))
            pure = random_pure_density(rng, dim)
            mixed = random_density(rng, dim)
            bound = SQRT2 * math.sqrt(max(1.0 - np.trace(pure.mat @ mixed.mat).real, 0.0))
            assert hilbert_schmidt(pure, mixed) <= bound + 1e-10


class TestDispatch:
    def test_pure_only_metrics_reject_mixed(self):
        with pytest.raises(UnsupportedCombinationError):
            evaluate_metric("fs", thermal(1.0, 48), fock(0, 48))

    def test_named_power(self):
        a, b = thermal(0.5, 64), thermal(1.5, 64)
        r = evaluate_metric("hs-p:1.0", a, b)
        assert r.value == pytest.approx(hilbert_schmidt(a, b), abs=1e-12)

    def test_every_cli_metric_has_a_kernel(self):
        # a name without one would end in a KeyError traceback rather than exit 2
        assert set(METRICS) == set(METRIC_NAMES)

    def test_unknown_metric(self):
        with pytest.raises(StateValidationError):
            evaluate_metric("nope", fock(0, 4), fock(1, 4))
