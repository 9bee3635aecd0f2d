"""End-to-end acceptance suite.

One test per numbered criterion.  Criteria 3 and 4 also carry a
separate limit check, each at a 1% band on its limit: the thermal Bures
distance to the vacuum against sqrt(2) at nbar = 1e4, and the coherent
tomographic Hellinger distance against 2 pi sqrt(2) at gap 100, where
the exact values are 0.50% and 0.57% short.  The latter also checks the
default quadrature against an exact value at gap 20 to 1e-6.

Every test prints a one-line PASS/FAIL summary; run with ``pytest -v``
to see a line per criterion, or ``-s`` for the summaries of passing
criteria too.
"""

import math
import time

import numpy as np
import pytest

from conftest import random_density
from qdist import (
    DensityOperator,
    StateSpec,
    adaptive_dim,
    as_density,
    build_pair,
    bures_uhlmann,
    cat_distances,
    coherent_fock,
    coherent_pair,
    fock,
    fock_pair,
    hilbert_schmidt,
    hs_bounds,
    hs_from_moments,
    hs_from_phase_space,
    jmg_distance,
    marginal_analytic,
    marginal_from_wigner,
    modified_hs,
    moment_table,
    outer,
    phase_pair,
    polarized,
    polarized_sqrt,
    quasidistance_Da,
    quasidistance_DZ,
    squeezed_pair,
    thermal_pair,
    tomographic_distance,
    wigner,
)
from qdist.cli import figure1_rows, figure2_rows
from qdist.tomography import default_x_grid

SQRT2 = math.sqrt(2.0)


def report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)


def spec_of(family, **params):
    return StateSpec(family, params)


def pair_states(spec_a, spec_b):
    ra, rb = build_pair(spec_a, spec_b)
    return DensityOperator(ra.mat, ra.tail_mass), DensityOperator(rb.mat, rb.tail_mass), ra.dim


# ---------------------------------------------------------------------------
# criterion 1: closed-form vs numeric cross-validation, <= 1e-7
# ---------------------------------------------------------------------------

def _criterion_1_checks():
    checks = []  # (label, closed, numeric)

    def add(label, closed, numeric):
        checks.append((label, float(closed), float(numeric)))

    # coherent pairs: hs, dN, Da
    coh_pairs = [
        (0.0 + 0j, 0.5 + 0j),
        (1.0 + 0j, 0.3 + 0.4j),
        (2.5 + 0j, 1.0 - 1.1j),
        (-1.2 + 2.0j, 0.5j),
        (1.7 + 0j, 1.7 + 0j),
    ]
    for a, b in coh_pairs:
        ra, rb, dim = pair_states(spec_of("coherent", alpha=a), spec_of("coherent", alpha=b))
        cf = coherent_pair(a, b)
        zn = np.arange(dim, dtype=float)
        add(f"coherent hs {a},{b}", cf["hs"], hilbert_schmidt(ra, rb))
        add(f"coherent dN {a},{b}", cf["dN"], polarized(ra, rb, zn))
        add(f"coherent Da {a},{b}", cf["Da"], quasidistance_Da(ra, rb))

    # coherent vs number states: hs, dN
    for a in (0.0 + 0j, 0.8 + 0j, 1.6 + 0.9j, 2.5 + 0j):
        for m in (0, 1, 3, 7, 12):
            ra, rb, dim = pair_states(spec_of("coherent", alpha=a), spec_of("fock", n=m))
            cf = coherent_fock(a, m)
            zn = np.arange(dim, dtype=float)
            add(f"coh-fock hs {a},{m}", cf["hs"], hilbert_schmidt(ra, rb))
            add(f"coh-fock dN {a},{m}", cf["dN"], polarized(ra, rb, zn))

    # number-state pairs: dN, quasidistance DN
    for m, n in [(0, 1), (2, 3), (5, 5), (0, 12), (7, 12)]:
        ra, rb, dim = pair_states(spec_of("fock", n=m), spec_of("fock", n=n))
        cf = fock_pair(m, n)
        zn = np.arange(dim, dtype=float)
        add(f"fock dN {m},{n}", cf["dN"], polarized(ra, rb, zn))
        add(f"fock DN {m},{n}", cf["DN"], quasidistance_DZ(ra, rb, zn))

    # squeezed pairs, general complex parameters: hs, dN
    sq_pairs = [
        (math.tanh(0.3) * np.exp(0.7j), math.tanh(1.1) * np.exp(-1.9j)),
        (math.tanh(1.5) + 0j, math.tanh(0.6) * np.exp(2.4j)),
        (0j, math.tanh(1.2) * np.exp(0.5j)),
    ]
    for z1, z2 in sq_pairs:
        z1, z2 = complex(z1), complex(z2)
        ra, rb, dim = pair_states(
            spec_of("squeezed_vacuum", zeta=z1), spec_of("squeezed_vacuum", zeta=z2)
        )
        cf = squeezed_pair(z1, z2)
        zn = np.arange(dim, dtype=float)
        add(f"squeezed hs {z1:.3f},{z2:.3f}", cf["hs"], hilbert_schmidt(ra, rb))
        add(f"squeezed dN {z1:.3f},{z2:.3f}", cf["dN"], polarized(ra, rb, zn))

    # same-phase squeezed pairs through the tau parametrization
    for t1, t2 in [(0.5, 0.0), (1.0, 0.4), (1.5, 0.7)]:
        z1 = math.tanh(t1) * np.exp(0.9j)
        z2 = math.tanh(t2) * np.exp(0.9j)
        ra, rb, dim = pair_states(
            spec_of("squeezed_vacuum", zeta=complex(z1)), spec_of("squeezed_vacuum", zeta=complex(z2))
        )
        cf = squeezed_pair(complex(z1), complex(z2))
        zn = np.arange(dim, dtype=float)
        add(f"squeezed tau-hs {t1},{t2}", cf["hs_samephase"], hilbert_schmidt(ra, rb))
        add(f"squeezed tau-dN {t1},{t2}", cf["dN_samephase"], polarized(ra, rb, zn))

    # cat family: distances to the matching coherent state, to the
    # vacuum, and between two phases, in both hs and dN flavours
    for alpha, p1, p2 in [(0.4 + 0j, 0.0, math.pi), (1.0 + 0.7j, math.pi / 2, 2.2), (2.5 + 0j, 0.3, 1.1)]:
        sc1 = spec_of("cat", alpha=alpha, phi=p1)
        sc2 = spec_of("cat", alpha=alpha, phi=p2)
        scoh = spec_of("coherent", alpha=alpha)
        svac = spec_of("fock", n=0)
        cf = cat_distances(alpha, p1, p2)
        r1, rcoh, dim = pair_states(sc1, scoh)
        zn = np.arange(dim, dtype=float)
        add(f"cat-coh {alpha},{p1}", cf["d_to_coherent"], hilbert_schmidt(r1, rcoh))
        r1, rvac, dim = pair_states(sc1, svac)
        zn = np.arange(dim, dtype=float)
        add(f"cat-vac {alpha},{p1}", cf["d_to_vacuum"], hilbert_schmidt(r1, rvac))
        add(f"cat-vac dN {alpha},{p1}", cf["dN_to_vacuum"], polarized(r1, rvac, zn))
        r1, r2, dim = pair_states(sc1, sc2)
        zn = np.arange(dim, dtype=float)
        add(f"cat-cat {alpha},{p1},{p2}", cf["d_between"], hilbert_schmidt(r1, r2))
        add(f"cat-cat dN {alpha},{p1},{p2}", cf["dN_between"], polarized(r1, r2, zn))

    # coherent phase states: hs, dN
    eps_pairs = [
        (0.3 + 0j, 0j),
        (0.6 * np.exp(1.2j), 0.2 - 0.35j),
        (0.9 + 0j, 0.45 * np.exp(-0.7j)),
    ]
    for e1, e2 in eps_pairs:
        e1, e2 = complex(e1), complex(e2)
        ra, rb, dim = pair_states(
            spec_of("coherent_phase", epsilon=e1), spec_of("coherent_phase", epsilon=e2)
        )
        cf = phase_pair(e1, e2)
        zn = np.arange(dim, dtype=float)
        add(f"phase hs {e1:.3f},{e2:.3f}", cf["hs"], hilbert_schmidt(ra, rb))
        add(f"phase dN {e1:.3f},{e2:.3f}", cf["dN"], polarized(ra, rb, zn))

    # thermal pairs: hs, bures, both number-polarized variants
    for n1, n2 in [(0.5, 0.0), (1.0, 2.0), (3.3, 0.7), (8.0, 5.0), (8.0, 0.0)]:
        ra, rb, dim = pair_states(spec_of("thermal", nbar=n1), spec_of("thermal", nbar=n2))
        cf = thermal_pair(n1, n2)
        zn = np.arange(dim, dtype=float)
        add(f"thermal hs {n1},{n2}", cf["hs"], hilbert_schmidt(ra, rb))
        add(f"thermal bu {n1},{n2}", cf["bu"], bures_uhlmann(ra, rb))
        add(f"thermal dN {n1},{n2}", cf["dN"], polarized(ra, rb, zn))
        add(f"thermal dN-sqrt {n1},{n2}", cf["dN_sqrt"], polarized_sqrt(ra, rb, zn))
    return checks


def test_criterion_1_closed_form_cross_validation():
    t0 = time.time()
    checks = _criterion_1_checks()
    worst = max(abs(c - n) for _, c, n in checks)
    elapsed = time.time() - t0
    ok = worst <= 1e-7 and elapsed <= 120.0
    report(1, ok, f"max |closed - numeric| = {worst:.3e} over {len(checks)} checks, {elapsed:.1f} s")
    for label, closed, numeric in checks:
        assert abs(closed - numeric) <= 1e-7, f"{label}: closed {closed!r} vs numeric {numeric!r}"
    assert elapsed <= 120.0


# ---------------------------------------------------------------------------
# criterion 2: coherent-vs-number distance curves
# ---------------------------------------------------------------------------

def test_criterion_2_figure1_reproduction():
    t0 = time.time()
    rows = figure1_rows()
    by_m = {}
    for s, m, d_hs, d_n in rows:
        by_m.setdefault(m, []).append((s, d_hs, d_n))
    for m, series in by_m.items():
        hs_vals = [d for _, d, _ in series]
        s_at_min = series[int(np.argmin(hs_vals))][0]
        assert abs(s_at_min - m) <= 0.05 + 1e-12, f"hs minimum for m={m} at {s_at_min}"
    for i in range(len(by_m[1])):
        assert by_m[1][i][2] < by_m[2][i][2] < by_m[3][i][2], f"dN ordering broken at row {i}"
    elapsed = time.time() - t0
    report(2, elapsed <= 10.0, f"hs minima at m and dN ordered in m, {elapsed:.2f} s")
    assert elapsed <= 10.0


# ---------------------------------------------------------------------------
# criterion 3: thermal/pseudothermal distance curves and their limits
# ---------------------------------------------------------------------------

def test_criterion_3_figure2_reproduction():
    rows = figure2_rows()
    for r in rows:
        assert abs(r[5] - r[6]) <= 1e-9 * max(r[6], 1e-300), "pseudo dN must equal sqrt-variant"
    at10 = rows[-1]
    assert at10[1] < at10[2] < at10[3] < at10[4] < at10[5], "curve ordering at nbar = 10"
    big = thermal_pair(100.0, 0.0)
    eps = math.sqrt(100.0 / 101.0)
    pseudo = phase_pair(eps, 0.0)
    assert abs(big["hs"] - 1.0) <= 0.01
    assert abs(big["dN"] - 0.5) <= 0.01 * 0.5
    assert abs(big["dN_sqrt"] - 10.0) <= 1e-9 * 10.0
    assert abs(pseudo["hs"] - SQRT2) <= 0.01 * SQRT2
    assert abs(pseudo["dN"] - big["dN_sqrt"]) <= 1e-9 * 10.0
    report(3, True, "figure-2 table, orderings and large-nbar limits (except the Bures clause)")


def test_criterion_3_bures_limit_clause():
    """Bures distance from the thermal state to the vacuum within 1% of sqrt(2).

    With the root fidelity <0|rho|0>^{1/2} = (1 + nbar)^{-1/2} that
    ``bures_uhlmann`` uses, the closed form is
    sqrt(2 - 2/sqrt(1 + nbar)).  Its relative deficit is about
    1/(2 sqrt(nbar)): 5.1% at nbar = 100, and below 1% only from
    nbar ~ 2524 on.  So the 1% band is checked at nbar = 1e4, where the
    exact value is 0.50% short, and the closed form is checked against
    the independent expression at both nbar = 100 and nbar = 1e4.
    """
    for nbar in (100.0, 1e4):
        bu = thermal_pair(nbar, 0.0)["bu"]
        expect = math.sqrt(2.0 - 2.0 / math.sqrt(1.0 + nbar))
        assert abs(bu - expect) <= 1e-12 * expect, f"bu({nbar}, 0) = {bu!r} vs {expect!r}"
    deficit_100 = (SQRT2 - thermal_pair(100.0, 0.0)["bu"]) / SQRT2
    bu = thermal_pair(1e4, 0.0)["bu"]
    deficit = (SQRT2 - bu) / SQRT2
    ok = deficit <= 0.01
    report(
        "3 (Bures clause)",
        ok,
        f"bu(1e4, 0) = {bu:.6f}, sqrt(2) = {SQRT2:.6f}, relative deficit {deficit:.4f} "
        f"(at nbar = 100: {deficit_100:.4f}; rate ~ 1/(2 sqrt(nbar)))",
    )
    assert ok, f"bu(1e4, 0) = {bu:.6f} sits {deficit:.2%} below sqrt(2)"


# ---------------------------------------------------------------------------
# criterion 4: tomographic-distance limits for coherent pairs
# ---------------------------------------------------------------------------

def test_criterion_4_tomographic_limits():
    t0 = time.time()
    vac = spec_of("coherent", alpha=0j)

    d_small = tomographic_distance(vac, spec_of("coherent", alpha=0.01 + 0j), "hellinger")
    assert abs(d_small - 0.04) <= 0.02 * 0.04, f"D_H(0.01) = {d_small}"

    ratios = []
    for s in (0.1, 0.5, 1.0):
        other = spec_of("coherent", alpha=s + 0j)
        dj = tomographic_distance(vac, other, "kullback")
        db = tomographic_distance(vac, other, "bhattacharyya")
        expect_j = 4.0 * math.pi * s * s
        assert abs(dj - expect_j) <= 0.01 * expect_j, f"kullback at gap {s}: {dj} vs {expect_j}"
        assert abs(dj / db - 8.0) <= 0.01 * 8.0, f"ratio at gap {s}: {dj / db}"
        ratios.append(float(dj / db))
    elapsed = time.time() - t0
    ok = elapsed <= 60.0
    report(
        4,
        ok,
        f"D_H(0.01) = {d_small:.6f} ~ 4|a-b|, J/B = {[f'{r:.6f}' for r in ratios]} ~ 8, "
        f"{elapsed:.1f} s (saturation clause reported separately)",
    )
    assert elapsed <= 60.0


def _simpson(f, h):
    return h / 3.0 * (f[0] + f[-1] + 4.0 * f[1:-1:2].sum() + 2.0 * f[2:-2:2].sum())


def _coherent_hellinger_exact(s):
    """D_H of a coherent pair at gap s, on a fine Simpson grid.

    For coherent pairs the partial distance does not depend on the
    radius, so the exact value is a 1-d angular integral.
    """
    th = np.linspace(0.0, 2.0 * math.pi, 400001)
    return _simpson(np.sqrt(2.0 - 2.0 * np.exp(-0.5 * s * s * np.cos(th) ** 2)), th[1] - th[0])


def test_criterion_4_hellinger_saturation_clause():
    """Hellinger distance of coherent pairs saturating at 2 pi sqrt(2).

    The angular integral of sqrt(2 - 2 exp(-s^2 cos^2(t)/2)) approaches
    its limit with a deficit of 8 I / s,
    I = int_0^inf (1 - sqrt(1 - exp(-t^2))) dt ~ 0.6285: a relative
    2.8% at s = 20, and below 1% only from s ~ 57 on.  So the clause
    checks two things apart: at s = 20 the default quadrature is within
    1e-6 relative of the exact value, and at s = 100, where the exact
    value is 0.57% short, the default value is within 1% of the limit.
    """
    limit = 2.0 * math.pi * SQRT2
    vac = spec_of("coherent", alpha=0j)
    d20 = tomographic_distance(vac, spec_of("coherent", alpha=20.0 + 0j), "hellinger")
    exact20 = _coherent_hellinger_exact(20.0)
    quad_err = abs(d20 - exact20) / exact20
    d100 = tomographic_distance(vac, spec_of("coherent", alpha=100.0 + 0j), "hellinger")
    exact100 = _coherent_hellinger_exact(100.0)
    deficit = (limit - d100) / limit
    # asymptotic deficit constant 8 I / s
    t = np.linspace(0.0, 12.0, 200001)
    g = 1.0 - np.sqrt(1.0 - np.exp(-t * t))
    g[0] = 1.0
    i_const = _simpson(g, t[1] - t[0])
    ok_quad = quad_err <= 1e-6
    ok_limit = abs(d100 - limit) <= 0.01 * limit
    report(
        "4 (saturation clause)",
        ok_quad and ok_limit,
        f"D_H(20) = {d20:.7f} vs exact {exact20:.7f} (quadrature error {quad_err:.1e}); "
        f"D_H(100) = {d100:.5f} (exact {exact100:.5f}), 2 pi sqrt(2) = {limit:.5f}, deficit "
        f"{deficit:.4f} (exact rate 8I/s = {8.0 * i_const / 100.0 / limit:.4f} relative)",
    )
    assert ok_quad, (
        f"D_H(20) = {d20!r} misses the exact value {exact20!r} by {quad_err:.1e} relative "
        f"(quadrature error, allowed 1e-6)"
    )
    assert ok_limit, (
        f"D_H(100) = {d100:.5f} (exact value {exact100:.5f}) sits {deficit:.2%} below "
        f"2 pi sqrt(2) = {limit:.5f}; the saturation rate 8I/s (I = {i_const:.4f}) predicts "
        f"{8.0 * i_const / 100.0 / limit:.2%}"
    )


# ---------------------------------------------------------------------------
# criterion 5: metric axioms over random mixed triples
# ---------------------------------------------------------------------------

def test_criterion_5_metric_axioms():
    rng = np.random.default_rng(5150)
    n_triples = 500
    worst_sym = 0.0
    worst_slack = -math.inf  # max of d(a,c) - d(a,b) - d(b,c); negative when the axiom holds
    for _ in range(n_triples):
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
            ab, ba = m(a, b), m(b, a)
            worst_sym = max(worst_sym, abs(ab - ba))
            slack = m(a, c) - (ab + m(b, c))
            worst_slack = max(worst_slack, slack)
            assert abs(ab - ba) <= 1e-10
            assert slack <= 1e-9
        for x, y in [(a, b), (b, c), (a, c)]:
            assert quasidistance_DZ(x, y, zn) >= 0.0

    # the coherent-pair quasidistance expression obeys the triangle
    # inequality as a function on the displacement plane
    pts = rng.normal(size=(n_triples, 3)) + 1j * rng.normal(size=(n_triples, 3))

    def da(u, v):
        s = abs(u - v)
        return s * math.sqrt((1.0 + math.exp(-s * s)) / 2.0)

    for al, be, ga in pts:
        assert da(al, ga) <= da(al, be) + da(be, ga) + 1e-9
    report(
        5,
        True,
        f"{n_triples} mixed triples x 6 metrics: max asymmetry {worst_sym:.2e}, "
        f"max triangle slack {worst_slack:.2e}; DZ >= 0; coherent Da triangle holds",
    )


# ---------------------------------------------------------------------------
# criterion 6: neighbour-state bounds dominate the distances
# ---------------------------------------------------------------------------

def test_criterion_6_inequality_suite():
    rng = np.random.default_rng(6060)
    margin = -1e-12
    for _ in range(200):
        dim = int(rng.integers(9, 33))
        rho = random_density(rng, dim)
        b0 = hs_bounds(rho, 0).b0
        assert b0 - hilbert_schmidt(rho, outer(fock(0, dim))) >= margin
        for n in range(9):
            b = hs_bounds(rho, n)
            d = hilbert_schmidt(rho, outer(fock(n, dim)))
            assert b.bn - d >= margin
            assert b.bvar - d >= margin
            # the pure-reference bound that both inherit
            pop = rho.mat[n, n].real
            assert SQRT2 * math.sqrt(max(1.0 - pop, 0.0)) - d >= margin
    report(6, True, "bounds b0, bn, bvar and the pure-reference bound dominate on 200 states, n <= 8")


# ---------------------------------------------------------------------------
# criterion 7: moment-series convergence for coherent pairs
# ---------------------------------------------------------------------------

def test_criterion_7_moment_series_convergence():
    pairs = [
        (0.0 + 0j, 0.3 + 0j),
        (0.2 + 0.1j, 0.2 + 0.1j + 0.9 * np.exp(0.4j)),
        (1.0 + 0j, 1.0 + 1.0j),
        (0.5j, 0.5j + 0.999),
    ]
    worst = 0.0
    for a, b in pairs:
        a, b = complex(a), complex(b)
        dim = max(adaptive_dim(spec_of("coherent", alpha=a)), adaptive_dim(spec_of("coherent", alpha=b))) + 32
        ta = moment_table(as_density(spec_of("coherent", alpha=a), dim), 30)
        tb = moment_table(as_density(spec_of("coherent", alpha=b), dim), 30)
        d, partials = hs_from_moments(ta, tb, 30)
        target = coherent_pair(a, b)["hs"]
        worst = max(worst, abs(partials[-1] - target**2), abs(d - target))
        assert abs(partials[-1] - target**2) <= 1e-6
        assert abs(d - target) <= 1e-6
    report(7, True, f"series through order 30 within {worst:.2e} of the closed form on {len(pairs)} pairs")


# ---------------------------------------------------------------------------
# criterion 8: phase-space integral forms match the matrix distance
# ---------------------------------------------------------------------------

def test_criterion_8_phase_space_equivalence():
    t0 = time.time()
    worst = 0.0
    wigner_pairs = [
        (spec_of("coherent", alpha=1.2 + 0j), spec_of("coherent", alpha=-0.4 + 0.8j)),
        (spec_of("fock", n=0), spec_of("fock", n=3)),
        (spec_of("fock", n=2), spec_of("fock", n=5)),
        (spec_of("cat", alpha=1.5 + 0j, phi=0.0), spec_of("cat", alpha=1.5 + 0j, phi=math.pi / 2)),
        (
            spec_of("squeezed_vacuum", zeta=math.tanh(1.0) + 0j),
            spec_of("squeezed_vacuum", zeta=complex(math.tanh(0.4) * np.exp(0.8j))),
        ),
    ]
    for sa, sb in wigner_pairs:
        ra, rb, _ = pair_states(sa, sb)
        diff = abs(hs_from_phase_space(sa, sb, "wigner") - hilbert_schmidt(ra, rb))
        worst = max(worst, diff)
        assert diff <= 1e-4, f"wigner form for {sa.family}/{sb.family}: {diff:.2e}"
    for n1, n2 in [(1.0, 2.0), (4.0, 0.5), (2.5, 2.5)]:
        d = hs_from_phase_space(spec_of("thermal", nbar=n1), spec_of("thermal", nbar=n2), "pp")
        diff = abs(d - thermal_pair(n1, n2)["hs"])
        worst = max(worst, diff)
        assert diff <= 1e-4, f"pp form at ({n1}, {n2}): {diff:.2e}"
    elapsed = time.time() - t0
    report(8, True, f"wigner and pp forms within {worst:.2e} of the matrix distance, {elapsed:.1f} s")


# ---------------------------------------------------------------------------
# criterion 9: Wigner-backed tomograms match the closed forms
# ---------------------------------------------------------------------------

def test_criterion_9_tomography_forward_consistency():
    directions = [(1.0, 0.0), (0.0, 1.0), (0.6, -0.8), (2.0, 1.0)]
    worst = 0.0
    for n in range(4):
        spec = spec_of("fock", n=n)
        qd = wigner(as_density(spec, adaptive_dim(spec)))
        for mu, nu in directions:
            sigma = math.sqrt((mu * mu + nu * nu) / 2.0)
            x = default_x_grid(0.0, 0.0, sigma)
            sup = np.abs(
                marginal_from_wigner(qd, mu, nu, x).w - marginal_analytic(spec, mu, nu, x).w
            ).max()
            worst = max(worst, sup)
            assert sup <= 1e-3, f"fock({n}) at ({mu}, {nu}): sup {sup:.2e}"
    for alpha in (1.5 + 0j, complex(1.5 * np.exp(0.25j * math.pi))):
        spec = spec_of("coherent", alpha=alpha)
        qd = wigner(as_density(spec, adaptive_dim(spec)))
        for mu, nu in directions:
            sigma = math.sqrt((mu * mu + nu * nu) / 2.0)
            mean = math.sqrt(2.0) * (mu * alpha.real + nu * alpha.imag)
            x = default_x_grid(mean, mean, sigma)
            sup = np.abs(
                marginal_from_wigner(qd, mu, nu, x).w - marginal_analytic(spec, mu, nu, x).w
            ).max()
            worst = max(worst, sup)
            assert sup <= 1e-3, f"coherent({alpha}) at ({mu}, {nu}): sup {sup:.2e}"
    report(9, True, f"line-integral marginals within sup {worst:.2e} of the closed forms")
