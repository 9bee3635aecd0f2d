import dataclasses
import inspect
import math
import os
import random
import subprocess
import sys

import numpy as np
import pytest

import qdist
from conftest import bessel_pp_distance
from qdist import (
    PhaseGrid,
    QuasiDistribution,
    StateSpec,
    adaptive_dim,
    build_pair,
    cat,
    coherent,
    default_grid,
    fock,
    hilbert_schmidt,
    hs_from_phase_space,
    husimi_q,
    oscillator_eigenfunctions,
    outer,
    p_function_thermal,
    parse_state_spec,
    squeezed_vacuum,
    thermal,
    wigner,
)
from qdist.closed_forms import thermal_pair
from qdist.errors import GridError, UnsupportedCombinationError
from qdist.phase_space import _bandwidth, _nyquist_grid, _radial_rule, _wigner_functions, grid_integral, simpson_weights

TWO_PI = 2.0 * math.pi


def center_indices(grid):
    return int(np.argmin(np.abs(grid.q_axis))), int(np.argmin(np.abs(grid.p_axis)))


class TestWigner:
    def test_vacuum_gaussian(self):
        qd = wigner(outer(fock(0, 8)))
        i, j = center_indices(qd.grid)
        assert qd.values[i, j] == pytest.approx(2.0, abs=1e-9)
        assert qd.values.max() == pytest.approx(2.0, abs=1e-9)
        assert grid_integral(qd.grid, qd.values) / TWO_PI == pytest.approx(1.0, abs=1e-6)

    def test_fock1_negative_at_origin(self):
        qd = wigner(outer(fock(1, 8)))
        i, j = center_indices(qd.grid)
        assert qd.values[i, j] < -1.9  # parity gives exactly -2

    def test_coherent_peak_position(self):
        alpha = 0.8 + 0.5j
        dim = adaptive_dim(StateSpec("coherent", {"alpha": alpha}))
        qd = wigner(outer(coherent(alpha, dim)))
        g = qd.grid
        i, j = np.unravel_index(np.argmax(qd.values), qd.values.shape)
        assert abs(g.q_axis[i] - math.sqrt(2.0) * alpha.real) <= g.dq
        assert abs(g.p_axis[j] - math.sqrt(2.0) * alpha.imag) <= g.dp

    def test_marginal_reproduces_position_density(self):
        rho = outer(cat(1.2, 0.0, 32))
        qd = wigner(rho)
        g = qd.grid
        wp = simpson_weights(g.n_p, g.dp)
        marg = (qd.values @ wp) / TWO_PI
        psi = oscillator_eigenfunctions(g.q_axis, rho.dim)
        dens = np.einsum("am,mn,an->a", psi, rho.mat, psi).real  # <q|rho|q>
        assert np.abs(marg - dens).max() < 1e-4

    def test_mass_check_rejects_small_grid(self):
        n = 33
        small = PhaseGrid(-2.0, 2.0, -2.0, 2.0, n, n)
        with pytest.raises(GridError):
            wigner(outer(coherent(2.0, 40)), small)

    def test_aliasing_guard(self):
        n = 17
        coarse = PhaseGrid(-12.0, 12.0, -12.0, 12.0, n, n)
        with pytest.raises(GridError):
            wigner(thermal(2.5, 96), coarse)


class TestPairChecks:
    """A pair's shared tables skip no state's check: the state that fails raises, first or second."""

    @staticmethod
    def raises_as_alone(bad, good, grid, fragment):
        with pytest.raises(GridError) as alone:
            wigner(bad, grid)
        assert fragment in str(alone.value)
        wigner(good, grid)
        for pair in ([bad, good], [good, bad]):
            with pytest.raises(GridError) as info:
                _wigner_functions(pair, grid)
            assert str(info.value) == str(alone.value)

    def test_one_state_aliases(self):
        # 2pi/dq = 15.7 resolves the vacuum's bandwidth (10.4), not the thermal state's (22.6)
        grid = PhaseGrid(-8.0, 8.0, -8.0, 8.0, 41, 41)
        self.raises_as_alone(thermal(2.5, 96), outer(fock(0, 96)), grid, "aliases momenta")

    def test_one_state_misses_its_mass(self):
        # the window holds the vacuum, not the coherent peak at q = 3 sqrt(2)
        grid = PhaseGrid(-6.0, 6.0, -6.0, 6.0, 65, 65)
        self.raises_as_alone(outer(coherent(3.0, 48)), fock(0, 48), grid, "s = 0 mass on grid")


class TestHusimi:
    def test_coherent_self_overlap(self):
        # grid centered on the displacement so a node hits alpha exactly
        alpha = 0.75 + 0.25j
        qc, pc = math.sqrt(2.0) * alpha.real, math.sqrt(2.0) * alpha.imag
        n = 33
        grid = PhaseGrid(qc - 4, qc + 4, pc - 4, pc + 4, n, n)
        qd = husimi_q(outer(coherent(alpha, 24)), grid)
        i = int(np.argmin(np.abs(qd.grid.q_axis - qc)))
        j = int(np.argmin(np.abs(qd.grid.p_axis - pc)))
        assert qd.values[i, j] == pytest.approx(1.0, abs=1e-9)

    def test_thermal_at_origin(self):
        for nbar in (0.5, 2.0):
            dim = adaptive_dim(StateSpec("thermal", {"nbar": nbar}))
            qd = husimi_q(thermal(nbar, dim))
            i, j = center_indices(qd.grid)
            assert qd.values[i, j] == pytest.approx(1.0 / (1.0 + nbar), abs=1e-10)

    def test_nonnegative_everywhere(self):
        qd = husimi_q(outer(cat(1.0, math.pi, 32)))
        assert qd.values.min() >= 0.0
        assert qd.s == -1

    def test_chunks_fit_a_capped_child(self):
        # 16,384 points x 2048 levels once asked for 512 MiB per block, a MemoryError under a 1 GB cap
        code = (
            "import resource\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "from qdist import fock, husimi_q\n"
            "qd = husimi_q(fock(0, 2048))\n"
            "print(qd.values.shape, qd.values.max())\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(qdist.__file__)))
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=env)
        assert proc.returncode == 0, proc.stderr[-300:]
        assert proc.stdout.split() == ["(257,", "257)", "1.0"]


class TestThermalP:
    def test_normalization(self):
        qd = p_function_thermal(1.5)
        assert grid_integral(qd.grid, qd.values) / TWO_PI == pytest.approx(1.0, abs=1e-4)

    def test_peak_value(self):
        qd = p_function_thermal(2.0)
        i, j = center_indices(qd.grid)
        assert qd.values[i, j] == pytest.approx(0.5, abs=1e-12)

    def test_vacuum_population_reconstruction(self):
        # rho_00 = int P(alpha) e^{-|alpha|^2} d2alpha/pi = 1/(1+nbar)
        nbar = 1.25
        qd = p_function_thermal(nbar)
        g = qd.grid
        qq, pp = np.meshgrid(g.q_axis, g.p_axis, indexing="ij")
        integrand = qd.values * np.exp(-(qq**2 + pp**2) / 2.0)
        got = grid_integral(g, integrand) / TWO_PI
        assert got == pytest.approx(1.0 / (1.0 + nbar), abs=1e-4)

    def test_singular_p_rejected(self):
        with pytest.raises(UnsupportedCombinationError):
            p_function_thermal(0.0)


class TestPhaseSpaceDistance:
    def test_wigner_form_matches_closed_form(self):
        a = StateSpec("coherent", {"alpha": 0.5 + 0j})
        b = StateSpec("coherent", {"alpha": -0.5 + 0j})
        d = hs_from_phase_space(a, b, "wigner")
        expect = math.sqrt(2.0 * (1.0 - math.exp(-1.0)))
        assert d == pytest.approx(expect, abs=1e-4)

    def test_identical_states_vanish(self):
        a = StateSpec("cat", {"alpha": 1.0 + 0j, "phi": 0.0})
        assert hs_from_phase_space(a, a, "wigner") == pytest.approx(0.0, abs=1e-6)

    def test_pp_form_thermal(self):
        a = StateSpec("thermal", {"nbar": 1.0})
        b = StateSpec("thermal", {"nbar": 2.0})
        d = hs_from_phase_space(a, b, "pp")
        assert d == pytest.approx(0.18257418583505539, abs=1e-4)

    @pytest.mark.parametrize(
        "n1,n2",
        [(0.2, 0.5), (1.0, 2.0), (1.5, 3.5), (3.0, 7.0), (30.0, 50.0), (100.0, 300.0), (1000.0, 700.0)],
    )
    def test_pp_form_matches_the_bessel_kernel(self, n1, n2):
        # the dense kernel on the form's own nodes checks the factored one; pairs of at most 1,300 nodes
        a = StateSpec("thermal", {"nbar": n1})
        b = StateSpec("thermal", {"nbar": n2})
        expect = bessel_pp_distance(n1, n2, *_radial_rule(min(n1, n2), max(n1, n2)))
        assert abs(hs_from_phase_space(a, b, "pp") - expect) <= 1e-12 * expect

    @pytest.mark.parametrize(
        "n1,n2",
        [(0.2, 1000.0), (1e4, 1.0), (0.001, 0.002), (0.01, 5.0), (1.5, 3.5), (1e4, 5e3), (1e4, 1.01e4)],
    )
    def test_pp_form_matches_the_thermal_pair_oracle(self, n1, n2):
        # scales that differ by up to 1e4, and P functions as narrow as nbar = 0.001
        a = StateSpec("thermal", {"nbar": n1})
        b = StateSpec("thermal", {"nbar": n2})
        expect = thermal_pair(n1, n2)["hs"]
        assert abs(hs_from_phase_space(a, b, "pp") - expect) <= 1e-12 * expect

    @pytest.mark.parametrize("gap", [1e-2, 1e-5, 1e-7, 1e-9])
    @pytest.mark.parametrize("nbar", [0.3, 2.5, 40.0])
    def test_pp_form_keeps_its_digits_at_a_small_gap(self, nbar, gap):
        mp = pytest.importorskip("mpmath").mp.clone()
        mp.dps = 40
        n1, n2 = nbar, nbar + gap
        x1, x2 = mp.mpf(n1), mp.mpf(n2)  # the same doubles
        expect = mp.sqrt(2) * (x2 - x1) / mp.sqrt((1 + 2 * x1) * (1 + 2 * x2) * (1 + x1 + x2))
        a = StateSpec("thermal", {"nbar": n1})
        b = StateSpec("thermal", {"nbar": n2})
        d = hs_from_phase_space(a, b, "pp")
        assert abs(d - expect) <= 1e-12 * expect
        assert hs_from_phase_space(b, a, "pp") == d

    @pytest.mark.parametrize("nbar", [0.2, 2.5, 1000.0])
    def test_pp_form_identical_pair_is_zero(self, nbar):
        a = StateSpec("thermal", {"nbar": nbar})
        assert hs_from_phase_space(a, a, "pp") == 0.0

    def test_qp_form_thermal(self):
        a = StateSpec("thermal", {"nbar": 0.5})
        b = StateSpec("thermal", {"nbar": 1.5})
        expect = hilbert_schmidt(*build_pair(a, b))
        assert hs_from_phase_space(a, b, "qp") == pytest.approx(expect, abs=1e-4)

    def test_qp_form_wide_thermal_pair(self):
        # dim 240: the factored Husimi grids make this a fraction of a second
        a = StateSpec("thermal", {"nbar": 5.0})
        b = StateSpec("thermal", {"nbar": 8.0})
        assert abs(hs_from_phase_space(a, b, "qp") - thermal_pair(5.0, 8.0)["hs"]) <= 1e-10

    def test_qp_rejects_non_thermal(self):
        a = StateSpec("thermal", {"nbar": 1.0})
        b = StateSpec("coherent", {"alpha": 1.0 + 0j})
        with pytest.raises(UnsupportedCombinationError):
            hs_from_phase_space(a, b, "qp")
        with pytest.raises(UnsupportedCombinationError):
            hs_from_phase_space(a, b, "pp")

    def test_resolution_convergence(self):
        # doubling the grid changes the wigner-form value by much less
        # than the quoted tolerance
        a = StateSpec("squeezed_vacuum", {"zeta": math.tanh(0.8) + 0j})
        b = StateSpec("fock", {"n": 2})
        ra, rb = build_pair(a, b)

        def hs_on(n):
            grid = default_grid(ra.dim, n)
            diff = wigner(ra, grid).values - wigner(rb, grid).values
            return math.sqrt(grid_integral(grid, diff**2) / TWO_PI)

        assert abs(hs_on(301) - hs_on(601)) < 1e-5


def _spec(family, *values):
    return parse_state_spec(f"{family}:" + ",".join(f"{v:.6f}" for v in values))


def _polar(r, theta):
    return r * math.cos(theta), r * math.sin(theta)


def _form_pairs(seed):
    """The wigner- and qp-form pair classes of the benchmark's grid mix, each drawn in its parameter window."""
    rng = random.Random(f"nyquist:{seed}")
    turn = 2.0 * math.pi
    pairs = [("wigner", _spec("coherent", *_polar(rng.uniform(0.0, 1.2), rng.uniform(0.0, turn))),
              _spec("coherent", *_polar(rng.uniform(0.0, 1.2), rng.uniform(0.0, turn)))) for _ in range(5)]
    pairs += [("wigner", parse_state_spec(f"fock:{n % 3}"), parse_state_spec(f"fock:{n % 3 + 1 + rng.randint(0, 2)}"))
              for n in range(5)]
    for _ in range(5):
        alpha = _polar(rng.uniform(1.2, 1.6), rng.uniform(0.0, turn))
        phis = rng.uniform(0.0, turn), rng.uniform(0.0, turn)
        pairs.append(("wigner", _spec("cat", *alpha, phis[0]), _spec("cat", *alpha, phis[1])))
    th = rng.uniform(0.0, turn)
    for _ in range(2):
        pairs.append(("wigner", _spec("squeezed", *_polar(rng.uniform(0.35, 0.45), th)),
                      _spec("squeezed", *_polar(rng.uniform(0.2, 0.3), th + rng.uniform(-1.0, 1.0)))))
    pairs += [("qp", _spec("thermal", rng.uniform(0.47, 0.63)), _spec("thermal", rng.uniform(0.47, 0.63)))
              for _ in range(2)]
    return pairs


NYQUIST_PAIRS = [
    ("fock:0", "fock:3"), ("coherent:1.2", "coherent:-0.4,0.8"), ("cat:1.5,0,0", "cat:1.5,0,1.57"),
    ("squeezed:0.4", "squeezed:0.2,0.1"), ("thermal:0.5", "thermal:0.6"),
]


class TestNyquistGrid:
    """The wigner and qp forms' grid: the coarsest over the default window with 2 pi/dq >= 2 band."""

    @pytest.mark.parametrize("a,b", NYQUIST_PAIRS)
    def test_one_step_coarser_than_the_rule_is_refused(self, a, b):
        ra, rb = build_pair(parse_state_spec(a), parse_state_spec(b))
        grid = _nyquist_grid([ra, rb])
        span = grid.q_max
        band = max(_bandwidth(r, span) for r in (ra, rb))

        def square(n):
            return PhaseGrid(-span, span, -span, span, n, n)

        # W itself: the rule 2 pi/dq >= band holds at its point count and is refused one step coarser
        n = math.ceil(span * band / math.pi) + 1
        _wigner_functions([ra, rb], square(n))
        with pytest.raises(GridError, match="aliases momenta"):
            _wigner_functions([ra, rb], square(n - 1))
        # the forms' integrand, a square, at twice the bandwidth: the grid is the coarsest that holds it
        assert 2.0 * math.pi / grid.dq >= 2.0 * band > 2.0 * math.pi / square(grid.nq - 1).dq

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_forms_match_the_matrix_route(self, seed):
        for form, a, b in _form_pairs(seed):
            got = hs_from_phase_space(a, b, form)
            if form == "wigner":
                expect = hilbert_schmidt(*build_pair(a, b))
            else:
                expect = thermal_pair(a.params["nbar"], b.params["nbar"])["hs"]
            assert abs(got - expect) <= 1e-12 * expect, (form, a, b)

    @pytest.mark.parametrize("n1,n2", [(0.01, 0.02), (0.03, 0.06), (0.03, 0.035)])
    def test_qp_grid_resolves_narrow_p_functions(self, n1, n2):
        # P's width sqrt(nbar) is under the Wigner rule's step here; the qp grid is sized by P's own band
        got = hs_from_phase_space(parse_state_spec(f"thermal:{n1}"), parse_state_spec(f"thermal:{n2}"), "qp")
        expect = thermal_pair(n1, n2)["hs"]
        assert abs(got - expect) <= 1e-12 * expect


class TestEigenfunctions:
    def test_orthonormality(self):
        from qdist.phase_space import oscillator_eigenfunctions

        x = np.linspace(-25.0, 25.0, 4001)
        psi = oscillator_eigenfunctions(x, 150)
        w = simpson_weights(x.size, x[1] - x[0])
        gram = psi.T @ (w[:, None] * psi)
        assert np.abs(gram - np.eye(150)).max() < 1e-8


class TestGridFlexibility:
    def test_off_center_grid_reproduces_peak(self):
        # a window centered on the displacement rather than the origin
        # must reproduce the same Wigner values (peak 2 at the center)
        alpha = 1.1 + 0j
        rho = outer(coherent(alpha, 24))
        qc = math.sqrt(2.0) * alpha.real
        span = default_grid(24).q_max
        off = PhaseGrid(qc - span, qc + span, -span, span, 257, 257)
        qd = wigner(rho, off)
        iq = int(np.argmin(np.abs(qd.grid.q_axis - qc)))
        ip = int(np.argmin(np.abs(qd.grid.p_axis)))
        assert qd.values[iq, ip] == pytest.approx(2.0, abs=1e-9)
        assert qd.values.max() == pytest.approx(2.0, abs=1e-9)

    def test_direct_state_inputs(self):
        # prebuilt states of equal dimension work without a spec
        a = outer(coherent(0.6, 32))
        b = outer(fock(1, 32))
        d = hs_from_phase_space(a, b, "wigner")
        assert d == pytest.approx(hilbert_schmidt(a, b), abs=1e-4)


class TestGridAndValues:
    def test_a_grid_is_geometry_only(self):
        assert [f.name for f in dataclasses.fields(PhaseGrid)] == ["q_min", "q_max", "p_min", "p_max", "nq", "n_p"]
        assert list(inspect.signature(hs_from_phase_space).parameters) == ["a", "b", "form"]

    def test_values_are_a_read_only_copy(self):
        grid = default_grid(4, 33)
        source = wigner(fock(0, 4), grid).values.copy()
        qd = QuasiDistribution(0, grid, source)
        source[0, 0] = 99.0
        assert qd.values[0, 0] != 99.0
        with pytest.raises(ValueError):
            qd.values[0, 0] = 1.0
