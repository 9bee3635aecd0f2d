import math

import numpy as np
import pytest

from qdist import (
    adaptive_dim,
    build_state,
    cat_distances,
    coherent_fock,
    coherent_pair,
    evaluate_metric,
    fock_pair,
    parse_state_spec,
    phase_pair,
    squeezed_pair,
    thermal_pair,
)
from qdist.closed_forms import METRIC_NAMES, closed_form_lookup, parse_metric, thermal_approximations
from qdist.errors import StateValidationError

SQRT2 = math.sqrt(2.0)


class TestCoherentPair:
    def test_equal_states_vanish(self):
        r = coherent_pair(0.7 + 0.2j, 0.7 + 0.2j)
        assert r["hs"] == 0.0 and r["dN"] == 0.0 and r["Da"] == 0.0

    def test_unit_gap_hs(self):
        assert coherent_pair(1.0, 0.0)["hs"] == pytest.approx(1.1243847729568, abs=1e-12)

    def test_orthogonal_displacements_give_geometric_dn(self):
        # Re(alpha conj(beta)) = 0 makes the N-distance the plane distance
        a, b = 1.2, 0.9j
        assert coherent_pair(a, b)["dN"] == pytest.approx(abs(a - b), abs=1e-12)

    def test_small_gap_hs_is_geometric(self):
        s = 1e-4
        assert coherent_pair(s, 0.0)["hs"] == pytest.approx(SQRT2 * s, rel=1e-6)


class TestCoherentFock:
    def test_hs_minimum_at_matching_energy(self):
        for m in (1, 2, 3):
            grid = np.linspace(0.05, 10.0, 400)
            vals = [coherent_fock(math.sqrt(s), m)["hs"] for s in grid]
            smin = grid[int(np.argmin(vals))]
            assert smin == pytest.approx(m, abs=0.05)

    def test_vacuum_vs_one_photon(self):
        r = coherent_fock(0.0, 1)
        assert r["hs"] == pytest.approx(SQRT2, abs=1e-12)
        assert r["dN"] == pytest.approx(1.0, abs=1e-12)

    def test_dn_monotone_only_above_one(self):
        grid = np.linspace(0.0, 10.0, 1001)
        for m, expect_min in [(1, True), (2, False), (3, False)]:
            vals = np.array([coherent_fock(math.sqrt(s), m)["dN"] for s in grid])
            has_interior_min = bool((np.diff(vals) < 0).any())
            assert has_interior_min == expect_min


class TestFockPair:
    def test_two_three(self):
        assert fock_pair(2, 3)["dN"] == pytest.approx(math.sqrt(5.0), abs=1e-12)

    def test_high_neighbours_quasidistance(self):
        assert fock_pair(100, 101)["DN"] == pytest.approx(0.035268, abs=1e-6)

    def test_diagonal_vanishes(self):
        r = fock_pair(7, 7)
        assert r["dN"] == 0.0 and r["DN"] == 0.0


class TestSqueezedPair:
    def test_vacuum_distance_matches_tau_form(self):
        z1 = math.tanh(1.0)
        r = squeezed_pair(z1, 0.0)
        expect = 2.0 * math.sinh(0.5) / math.sqrt(math.cosh(1.0))
        assert r["hs"] == pytest.approx(expect, abs=1e-12)
        assert expect == pytest.approx(0.83898, abs=5e-6)
        assert r["dN"] == pytest.approx(math.sinh(1.0), abs=1e-12)

    def test_same_phase_specializations_match_general(self):
        for t1, t2, phase in [(0.3, 0.0, 0.0), (1.0, 0.4, 1.3), (1.5, 0.7, -2.0)]:
            z1 = math.tanh(t1) * np.exp(1j * phase)
            z2 = math.tanh(t2) * np.exp(1j * phase)
            r = squeezed_pair(complex(z1), complex(z2))
            assert r["hs_samephase"] == pytest.approx(r["hs"], abs=1e-10)
            assert r["dN_samephase"] == pytest.approx(r["dN"], abs=1e-10)

    def test_weak_squeezing_limit(self):
        z1, z2 = 1e-3, -0.5e-3 + 0.7e-3j
        r = squeezed_pair(z1, z2)
        assert r["hs"] == pytest.approx(abs(z1 - z2), rel=1e-4)
        assert r["dN"] == pytest.approx(abs(z1 - z2), rel=1e-4)

    def test_modulus_bound(self):
        with pytest.raises(StateValidationError):
            squeezed_pair(1.0, 0.0)


class TestCatDistances:
    def test_equal_phases_vanish(self):
        r = cat_distances(1.0, 0.7, 0.7)
        assert r["d_between"] == 0.0 and r["dN_between"] == 0.0

    def test_large_alpha_phase_gap_limits(self):
        alpha, p1, p2 = 4.0, 0.4, 2.1
        r = cat_distances(alpha, p1, p2)
        assert r["d_between"] ** 2 == pytest.approx(
            2.0 * math.sin(abs(p1 - p2) / 2.0) ** 2, rel=1e-9
        )
        assert r["dN_between"] == pytest.approx(
            SQRT2 * alpha * math.sin(abs(p1 - p2) / 2.0), rel=1e-9
        )

    def test_odd_cat_orthogonal_to_vacuum(self):
        # the corrected vacuum formula must reach the orthogonal maximum
        for a2 in (0.3, 1.0, 2.5):
            r = cat_distances(math.sqrt(a2), math.pi, 0.0)
            assert r["d_to_vacuum"] == pytest.approx(SQRT2, abs=1e-12)

    def test_yurke_stoler_between_even_and_odd(self):
        alpha = 1.0
        d_even = cat_distances(alpha, 0.0, 0.0)["d_to_coherent"]
        d_ys = cat_distances(alpha, math.pi / 2.0, 0.0)["d_to_coherent"]
        d_odd = cat_distances(alpha, math.pi, 0.0)["d_to_coherent"]
        assert d_even < d_ys < d_odd


def _cat_overlap_mp(mp, alpha: float, phi1: float, phi2: float | None):
    """|<cat(phi1)|cat(phi2)>|, or |<0|cat(phi1)>| when phi2 is None, in the mpmath context ``mp``.

    Built from <alpha|-alpha> = exp(-2|alpha|^2) and <0|+-alpha> =
    exp(-|alpha|^2/2) term by term, not from the half-angle forms.
    """
    a = mp.mpf(alpha)
    ov = mp.exp(-2 * a * a)

    def ket(phi):
        return mp.exp(1j * mp.mpf(phi)), 1 / mp.sqrt(2 * (1 + mp.cos(phi) * ov))

    e1, n1 = ket(phi1)
    if phi2 is None:
        return abs(n1 * mp.exp(-a * a / 2) * (1 + e1))
    e2, n2 = ket(phi2)
    return abs(n1 * n2 * (1 + e2 * ov + mp.conj(e1) * ov + mp.conj(e1) * e2))


@pytest.mark.parametrize(
    "a, b, phis",
    [("cat:1.2,0,3.14159", "fock:0", (3.14159, None)), ("cat:1.2,0,0", "cat:1.2,0,3.14159", (0.0, 3.14159))],
)
def test_near_orthogonal_cat_oracle_cells(a, b, phis):
    # the overlap (~5e-7 here) comes from the cat formulas, not from hs
    mp = pytest.importorskip("mpmath").mp.clone()
    mp.dps = 40
    o = _cat_overlap_mp(mp, 1.2, *phis)
    exact = {"minimal": mp.sqrt(2 - 2 * o), "bu": mp.sqrt(2 - 2 * o), "wootters": mp.acos(o)}
    spec_a, spec_b = parse_state_spec(a), parse_state_spec(b)
    for metric, value in exact.items():
        assert abs(mp.mpf(closed_form_lookup(spec_a, spec_b, metric)) - value) <= 1e-15, metric


class TestPhasePair:
    def test_vacuum_distance(self):
        eps = 0.62 * np.exp(0.9j)
        r = phase_pair(complex(eps), 0.0)
        assert r["hs"] == pytest.approx(SQRT2 * abs(eps), abs=1e-12)
        assert r["dN"] == pytest.approx(abs(eps) / math.sqrt(1.0 - abs(eps) ** 2), abs=1e-12)

    def test_equal_states_vanish(self):
        r = phase_pair(0.4 + 0.2j, 0.4 + 0.2j)
        assert r["hs"] == 0.0 and r["dN"] == 0.0


class TestThermalPair:
    def test_vacuum_distance_and_limit(self):
        r = thermal_pair(1.0, 0.0)
        assert r["hs"] == pytest.approx(SQRT2 / math.sqrt(6.0), abs=1e-12)
        assert thermal_pair(1e6, 0.0)["hs"] == pytest.approx(1.0, rel=1e-5)

    def test_bures_limit_rate(self):
        # the vacuum distance approaches sqrt(2) from below at the slow
        # rate sqrt(2)/(2 sqrt(nbar)); the scaled deficit tends to 1/2
        assert thermal_pair(100.0, 0.0)["bu"] == pytest.approx(1.3420106415218929, abs=1e-12)
        for nbar in (1e4, 1e6, 1e8):
            deficit = (SQRT2 - thermal_pair(nbar, 0.0)["bu"]) / SQRT2
            assert deficit * math.sqrt(nbar) == pytest.approx(0.5, rel=0.01)

    def test_polarized_vacuum_limit(self):
        assert thermal_pair(4.0, 0.0)["dN"] == pytest.approx(4.0 / 9.0, abs=1e-12)
        assert thermal_pair(1e8, 0.0)["dN"] == pytest.approx(0.5, rel=1e-6)

    def test_sqrt_variant_vacuum(self):
        assert thermal_pair(2.5, 0.0)["dN_sqrt"] == pytest.approx(math.sqrt(2.5), abs=1e-12)

    def test_pseudothermal_minimum_dominates(self, rng):
        for _ in range(50):
            n1, n2 = rng.uniform(0.0, 8.0, size=2)
            r = thermal_pair(n1, n2)
            assert r["dN_min_pseudo"] >= r["dN_sqrt"] - 1e-12

    def test_large_nbar_bures_approximation(self):
        exact = thermal_pair(50.0, 100.0)["bu"]
        approx = thermal_approximations(50.0, 100.0)["bu_large"]
        assert abs(approx - exact) / exact < 0.05

    def test_close_gap_approximations(self):
        r = thermal_pair(100.0, 110.0)
        assert abs(thermal_approximations(100.0, 110.0)["dN_sqrt_close"] - r["dN_sqrt"]) / r["dN_sqrt"] < 0.01
        assert abs(thermal_approximations(100.0, 110.0)["dN_min_close"] - r["dN_min_pseudo"]) / r["dN_min_pseudo"] < 0.01

    def test_negative_nbar_rejected(self):
        with pytest.raises(StateValidationError):
            thermal_pair(-0.1, 1.0)


def _neighbour_oracles_mp(mp, alpha: complex, beta: complex, n1: float, n2: float) -> dict:
    """The printed coherent- and thermal-pair forms, cancellations and all, in the mpmath context ``mp``."""
    a, b = mp.mpc(alpha), mp.mpc(beta)
    g2 = abs(a - b) ** 2
    e = mp.exp(-g2)
    n1, n2 = mp.mpf(n1), mp.mpf(n2)
    s = 1 + n1 + n2
    cross = (mp.sqrt((1 + n1) * (1 + n2)) + mp.sqrt(n1 * n2)) / s
    g = mp.sqrt(n1 * n2)
    return {
        "coherent": {"hs": mp.sqrt(2 * (1 - e)), "dN": mp.sqrt(abs(a) ** 2 + abs(b) ** 2 - 2 * mp.re(mp.conj(b) * a) * e),
                     "Da": mp.sqrt(g2 * (1 + e) / 2), "overlap": mp.exp(-g2 / 2)},
        "thermal": {"hs": mp.sqrt(2) * abs(n1 - n2) / mp.sqrt((1 + 2 * n1) * (1 + 2 * n2) * s),
                    "bu": mp.sqrt(2 * (1 - cross)),
                    "dN": abs(n1 - n2) * mp.sqrt(s * s + 2 * n1 * n2 * (1 + 2 * n1) * (1 + 2 * n2))
                    / ((1 + 2 * n1) * (1 + 2 * n2) * s),
                    "dN_sqrt": mp.sqrt(n1 + n2 - 2 * g * cross**2),
                    "dN_min_pseudo": mp.sqrt(n1 + n2 - 2 * g * cross**3)},
    }


@pytest.mark.parametrize("gap", [1e-6, 1e-3, 1.0])
@pytest.mark.parametrize("base", [1.0, 0.3 + 0.4j, 5.0])
def test_neighbour_oracles_keep_their_digits(base, gap):
    # the neighbour-state bounds live at small gaps, where 1 - e^{-g^2} and 1 - cross cancel
    mp = pytest.importorskip("mpmath").mp.clone()
    mp.dps = 50
    alpha, beta = complex(base), complex(base) + gap * complex(math.cos(0.7), math.sin(0.7))
    n1, n2 = abs(base), abs(base) + gap
    exact = _neighbour_oracles_mp(mp, alpha, beta, n1, n2)
    for family, got in (("coherent", coherent_pair(alpha, beta)), ("thermal", thermal_pair(n1, n2))):
        for key, value in exact[family].items():
            assert abs(mp.mpf(got[key]) - value) <= 1e-13 * value, (family, key)


def _cat_oracles_mp(mp, alpha: float, phi1: float, phi2: float) -> dict:
    """``cat_distances``' distance keys, as printed, in the mpmath context ``mp``."""
    a2 = mp.mpf(alpha) ** 2
    x = mp.exp(-a2)
    q = x * x
    den1, den2 = 1 + mp.cos(phi1) * q, 1 + mp.cos(phi2) * q
    gap = 1 - mp.cos(mp.mpf(phi1) - mp.mpf(phi2))
    return {"d_to_coherent": mp.sqrt((1 - q * q) / den1),
            "d_to_vacuum": mp.sqrt(2 * (1 - x) * (1 - mp.cos(phi1) * x) / den1),
            "d_between": mp.sqrt((1 - q * q) * gap / (den1 * den2)),
            "dN_to_vacuum": mp.sqrt(a2 * (1 - mp.cos(phi1) * q) / den1),
            "dN_between": mp.sqrt(a2 * (1 + q * q) * gap / (den1 * den2))}


@pytest.mark.parametrize("gap", [1e-2, 1e-5, 1e-8])
def test_cat_and_coherent_fock_oracles_keep_their_digits(gap):
    # a small phase gap, or |alpha| near 0, cancels 1 - e^{-t}, 1 - cos t and 1 - y cos t
    mp = pytest.importorskip("mpmath").mp.clone()
    mp.dps = 50
    for alpha, phi1, phi2 in ((1.2, 0.7, 0.7 + gap), (0.8, 2.0, 2.0 - gap), (gap, 0.7, 1.9), (gap, 0.0, 0.0)):
        got = cat_distances(alpha, phi1, phi2)
        for key, value in _cat_oracles_mp(mp, alpha, phi1, phi2).items():
            assert abs(mp.mpf(got[key]) - value) <= 1e-13 * value, (alpha, phi1, phi2, key)
    value = mp.sqrt(2 * (1 - mp.exp(-mp.mpf(gap) ** 2)))
    assert abs(mp.mpf(coherent_fock(gap, 0)["hs"]) - value) <= 1e-13 * value


class TestCrossValidationAgainstPhaseStates:
    def test_min_pseudo_equals_aligned_phase_pair(self):
        # aligning the phase parameters realizes the minimum, which the
        # nbar-parametrized formula reproduces exactly
        for n1, n2 in [(3.0, 1.2), (0.5, 0.1), (8.0, 8.0)]:
            e1 = math.sqrt(n1 / (1.0 + n1))
            e2 = math.sqrt(n2 / (1.0 + n2))
            assert phase_pair(e1, e2)["dN"] == pytest.approx(
                thermal_pair(n1, n2)["dN_min_pseudo"], rel=1e-9, abs=1e-6
            )


PURE = {"fs", "minimal", "wootters", "hs", "jmg", "bu", "hs-p", "hs-p:0.3"}
POLARIZED = {"dn", "dn-sqrt"}
THERMAL = {"hs", "bu", "hs-p", "dn", "dn-sqrt"}

# (a, b, the metrics the table fills); two draws per row, then vacuum
# specs of another family, which are read as the partner's vacuum
TABLE_CASES = [
    ("coherent:0.7,0.2", "coherent:-0.3,0.9", PURE | POLARIZED | {"Da"}),
    ("coherent:1.6,-0.4", "coherent:1.2,0.5", PURE | POLARIZED | {"Da"}),
    ("coherent:1.1,0.5", "fock:2", PURE | POLARIZED),
    ("fock:7", "coherent:0.4,-1.9", PURE | POLARIZED),
    ("fock:1", "fock:4", PURE | POLARIZED | {"DZ"}),
    ("fock:3", "fock:3", PURE | POLARIZED | {"DZ"}),
    ("squeezed:0.3,0.2", "squeezed:-0.4", PURE | POLARIZED),
    ("squeezed:0.5", "squeezed:0.2,0.1", PURE | POLARIZED),
    ("phase:0.4,0.1", "phase:0.2,-0.3", PURE | POLARIZED),
    ("phase:-0.6", "phase:0.1,0.5", PURE | POLARIZED),
    ("thermal:0.8", "thermal:2.1", THERMAL),
    ("thermal:0.3", "thermal:0", THERMAL),
    ("cat:1.1,0.3,0.4", "cat:1.1,0.3,2.5", PURE | POLARIZED),
    ("cat:0.8,-0.5,3.0", "cat:0.8,-0.5,1.0", PURE | POLARIZED),
    ("cat:1.2,0,1.0", "coherent:1.2", PURE),
    ("coherent:0.4,0.6", "cat:0.4,0.6,2.0", PURE),
    ("cat:0.9,0.4,2.0", "fock:0", PURE | POLARIZED),
    ("cat:1.2,0,3.14159", "phase:0", PURE | POLARIZED),
    ("thermal:0", "cat:1.0,0.2,0.5", PURE | POLARIZED),
    ("squeezed:0.4,0.1", "coherent:0", PURE | POLARIZED),
    ("coherent:0", "phase:0.5", PURE | POLARIZED),
    ("coherent:1.3,0.2", "thermal:0", PURE | POLARIZED | {"Da"}),
    ("thermal:1.5", "fock:0", THERMAL),
    ("squeezed:0", "thermal:1.2", THERMAL),
    ("fock:3", "squeezed:0", PURE | POLARIZED | {"DZ"}),
    ("phase:0", "squeezed:0", PURE | POLARIZED),
    ("thermal:0", "coherent:0", PURE | POLARIZED | {"Da"} | THERMAL),
    ("coherent:0.5", "coherent:0.5,1e-3", PURE | POLARIZED | {"Da"}),
    # no row: cats of different displacement; a thermal state and |2>
    ("cat:1.0,0,0", "cat:1.1,0,0", set()),
    ("thermal:1.0", "fock:2", set()),
]


@pytest.mark.parametrize("a, b, filled", TABLE_CASES, ids=[f"{a}|{b}" for a, b, _ in TABLE_CASES])
def test_oracle_table_matches_matrix_route(a, b, filled):
    spec_a, spec_b = parse_state_spec(a), parse_state_spec(b)
    metrics = METRIC_NAMES + ("hs-p:0.3",)
    oracles = {m: closed_form_lookup(spec_a, spec_b, m) for m in metrics}
    assert {m for m, v in oracles.items() if v is not None} == filled
    dim = max(adaptive_dim(spec_a), adaptive_dim(spec_b))
    assert dim <= 96
    sa, sb = build_state(spec_a, dim), build_state(spec_b, dim)
    both_pure = spec_a.is_pure and spec_b.is_pure
    for m in sorted(filled):
        if m in ("fs", "minimal", "wootters") and not both_pure:
            continue  # the matrix route rejects pure-only metrics on a density operator
        assert evaluate_metric(m, sa, sb).value == pytest.approx(oracles[m], abs=1e-9), m


BAD_METRIC_NAMES = [
    "dn:7", "fs:abc", "hs:x", "bu:", "Da:0.5", "nope", "",
    "hs-p:", "hs-p:zz", "hs-p:0", "hs-p:-0.5", "hs-p:nan", "hs-p:inf", "hs-p:2",
]


@pytest.mark.parametrize("name", BAD_METRIC_NAMES)
def test_bad_metric_names_are_refused_by_both_callers(name):
    spec = parse_state_spec("coherent:1")
    state = build_state(spec, adaptive_dim(spec))
    with pytest.raises(StateValidationError):
        closed_form_lookup(spec, spec, name)
    with pytest.raises(StateValidationError):
        evaluate_metric(name, state, state)


def test_parse_metric_reads_the_power():
    assert parse_metric("hs-p") == ("hs-p", 0.5)
    assert parse_metric("hs-p:0.3") == ("hs-p", 0.3)
    assert parse_metric("hs-p:1") == ("hs-p", 1.0)
    assert [parse_metric(m)[0] for m in METRIC_NAMES] == list(METRIC_NAMES)
