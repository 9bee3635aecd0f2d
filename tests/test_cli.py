import math
import os
import subprocess
import sys

import numpy as np
import pytest

import qdist
from qdist.cli import main
from qdist.errors import TruncationInfeasibleError
from qdist.states import MAX_HORIZON, adaptive_dim, parse_state_spec


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def last_row(out):
    return out.strip().splitlines()[-1].split(",")


class TestDistanceCommand:
    def test_orthogonal_fock_pair(self, capsys):
        code, out = run(capsys, "distance", "--a", "fock:0", "--b", "fock:1", "--metric", "hs")
        assert code == 0
        row = last_row(out)
        assert float(row[1]) == pytest.approx(math.sqrt(2.0), abs=1e-9)

    def test_thermal_bures_closed_form_column(self, capsys):
        code, out = run(capsys, "distance", "--a", "thermal:1", "--b", "thermal:0", "--metric", "bu")
        assert code == 0
        row = last_row(out)
        assert float(row[1]) == pytest.approx(0.76537, abs=5e-6)
        assert float(row[4]) < 1e-9  # |numeric - closed form|

    def test_identical_quasidistance(self, capsys):
        code, out = run(
            capsys, "distance", "--a", "coherent:1,0", "--b", "coherent:1,0", "--metric", "Da"
        )
        assert code == 0
        assert float(last_row(out)[1]) == 0.0

    def test_parse_error_exit_code(self, capsys):
        assert run(capsys, "distance", "--a", "bogus:1", "--b", "fock:0", "--metric", "hs")[0] == 2
        assert run(capsys, "distance", "--a", "fock:0", "--b", "fock:1", "--metric", "zzz")[0] == 2

    def test_unsupported_combination_exit_code(self, capsys):
        code, _ = run(capsys, "distance", "--a", "thermal:1", "--b", "fock:0", "--metric", "fs")
        assert code == 4

    def test_truncation_exit_code(self, capsys):
        code, _ = run(capsys, "distance", "--a", "thermal:100", "--b", "fock:0", "--metric", "hs")
        assert code == 3

    def test_dim_cap_env(self, capsys, monkeypatch):
        monkeypatch.setenv("QDIST_MAX_DIM", "32")
        code, _ = run(capsys, "distance", "--a", "thermal:2", "--b", "fock:0", "--metric", "hs")
        assert code == 3

    def test_malformed_dim_cap_env_is_parse_error(self, capsys, monkeypatch):
        for text in ("abc", "0", "-5", "1.5", "65473", "1000000000"):
            monkeypatch.setenv("QDIST_MAX_DIM", text)
            code = main(["distance", "--a", "fock:0", "--b", "fock:1", "--metric", "hs"])
            err = capsys.readouterr().err
            assert code == 2, text
            assert err.startswith("error: QDIST_MAX_DIM") and err.count("\n") == 1

    def test_coherent_fock_oracle_at_large_occupation(self, capsys):
        # lam**m overflows a float at m = 230; the oracle works in logs
        for metric, tol in (("hs", 1e-12), ("dn", 1e-9)):
            code, out = run(
                capsys, "distance", "--a", "coherent:15", "--b", "fock:230", "--metric", metric
            )
            assert code == 0
            assert float(last_row(out)[4]) < tol

    def test_hs_p_oracle_only_at_half(self, capsys):
        # the thermal Bures row equals hs-p only at p = 1/2
        _, out = run(capsys, "distance", "--a", "thermal:1", "--b", "thermal:2", "--metric", "hs-p:0.3")
        assert last_row(out)[3:] == ["", ""]
        _, out = run(capsys, "distance", "--a", "thermal:1", "--b", "thermal:2", "--metric", "hs-p:0.5")
        assert float(last_row(out)[4]) < 1e-9

    def test_auto_dim_agrees_with_larger_dim(self, capsys):
        vals = {}
        for dim in ("auto", "96"):
            for metric in ("hs", "jmg", "bu", "dn", "dn-sqrt", "DZ", "Da"):
                _, out = run(
                    capsys,
                    "distance",
                    "--a", "coherent:0.9,0.4",
                    "--b", "thermal:0.8",
                    "--metric", metric,
                    "--dim", dim,
                )
                vals.setdefault(metric, []).append(float(last_row(out)[1]))
        for metric, (auto_val, big_val) in vals.items():
            assert auto_val == pytest.approx(big_val, abs=1e-7), metric


class TestSweepCommand:
    def test_sweep_is_monotone_for_da(self, capsys):
        code, out = run(
            capsys,
            "sweep",
            "--a", "coherent:0,0",
            "--b", "coherent:?,0",
            "--metric", "Da",
            "--range", "0:2:0.25",
        )
        assert code == 0
        vals = [float(line.split(",")[2]) for line in out.strip().splitlines()[1:]]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_cat_phase_sweep_yurke_stoler_between(self, capsys):
        code, out = run(
            capsys,
            "sweep",
            "--a", "coherent:1,0",
            "--b", "cat:1,0,?",
            "--metric", "hs",
            "--range", "0:3.14159265:0.39269908",  # 0 .. pi in pi/8 steps
        )
        assert code == 0
        rows = out.strip().splitlines()[1:]
        vals = [float(r.split(",")[2]) for r in rows]
        assert all(b > a for a, b in zip(vals, vals[1:]))  # even ... odd increasing
        ys = vals[4]  # phi = pi/2
        assert vals[0] < ys < vals[-1]

    def test_empty_range_exit_code(self, capsys):
        code, _ = run(
            capsys,
            "sweep", "--a", "coherent:0,0", "--b", "coherent:?,0",
            "--metric", "hs", "--range", "1:0:0.1",
        )
        assert code == 2

    def test_non_finite_range_is_parse_error(self, capsys):
        for rng in ("0:1:nan", "0:inf:1", "nan:1:0.1"):
            code, _ = run(capsys, "sweep", "--a", "coherent:?", "--b", "fock:0", "--metric", "hs", "--range", rng)
            assert code == 2, rng

    def test_placeholder_required(self, capsys):
        code, _ = run(
            capsys,
            "sweep", "--a", "coherent:0,0", "--b", "coherent:1,0",
            "--metric", "hs", "--range", "0:1:0.5",
        )
        assert code == 2


class TestFigureCommand:
    def test_figure1_minima_and_monotonicity(self, capsys, tmp_path):
        out_path = tmp_path / "fig1.csv"
        code, _ = run(capsys, "figure", "--id", "1", "--out", str(out_path))
        assert code == 0
        rows = [line.split(",") for line in out_path.read_text().strip().splitlines()[1:]]
        by_m = {}
        for s, m, d_hs, d_n in rows:
            by_m.setdefault(int(m), []).append((float(s), float(d_hs), float(d_n)))
        for m, series in by_m.items():
            hs_vals = [d for _, d, _ in series]
            s_at_min = series[int(np.argmin(hs_vals))][0]
            assert s_at_min == pytest.approx(float(m), abs=0.051)
        for i in range(len(by_m[1])):
            assert by_m[1][i][2] < by_m[2][i][2] < by_m[3][i][2]

    def test_figure2_coincidence_and_ordering(self, capsys, tmp_path):
        out_path = tmp_path / "fig2.csv"
        code, _ = run(capsys, "figure", "--id", "2", "--out", str(out_path))
        assert code == 0
        rows = [
            [float(v) for v in line.split(",")]
            for line in out_path.read_text().strip().splitlines()[1:]
        ]
        for r in rows:
            assert abs(r[5] - r[6]) <= 1e-9 * max(r[6], 1e-300)  # pseudo dN == thermal sqrt variant
        tail = rows[-1]  # nbar = 10
        assert tail[1] < tail[2] < tail[3] < tail[4] < tail[5]

    def test_byte_identical_reruns(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(capsys, "figure", "--id", "1", "--out", str(a))
        run(capsys, "figure", "--id", "1", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()


class TestTomoCommand:
    def test_small_gap_hellinger(self, capsys):
        code, out = run(
            capsys,
            "tomo-distance",
            "--a", "coherent:0,0",
            "--b", "coherent:0.05,0",
            "--kind", "hellinger",
        )
        assert code == 0
        assert float(last_row(out)[1]) == pytest.approx(0.2, rel=0.02)

    def test_thermal_pair_uses_fock_basis_marginals(self, capsys):
        code, out = run(
            capsys, "tomo-distance", "--a", "thermal:0.7", "--b", "coherent:0.5,0.2", "--kind", "hellinger"
        )
        assert code == 0
        header, row = out.strip().splitlines()
        assert header == "kind,value,nodes_angular"
        kind, value, nodes = row.split(",")
        assert (kind, nodes) == ("hellinger", "64")
        assert float(value) == pytest.approx(2.55168811998, rel=1e-8)  # Gaussian closed form

    def test_unknown_kind(self, capsys):
        code, _ = run(
            capsys, "tomo-distance", "--a", "coherent:0,0", "--b", "coherent:1,0", "--kind", "zzz"
        )
        assert code == 2


class TestPureMetricDimStability:
    def test_auto_dim_agrees_for_pure_metrics(self, capsys):
        for metric in ("fs", "minimal", "wootters"):
            vals = []
            for dim in ("auto", "64"):
                _, out = run(
                    capsys,
                    "distance",
                    "--a", "coherent:1.2,0.3",
                    "--b", "cat:1.2,0.3,1.1",
                    "--metric", metric,
                    "--dim", dim,
                )
                vals.append(float(last_row(out)[1]))
            assert vals[0] == pytest.approx(vals[1], abs=1e-7), metric


class TestBoundedAllocations:
    """Inputs whose sizes once went unchecked, each run in a child capped at 1 GB."""

    CHILD = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from qdist.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )

    def run_capped(self, *argv, env=None):
        src = os.path.dirname(os.path.dirname(os.path.abspath(qdist.__file__)))
        env = dict(os.environ, **(env or {}), PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        proc = subprocess.run(
            [sys.executable, "-c", self.CHILD, *argv], capture_output=True, text=True, timeout=20, env=env
        )
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr[-300:]
        return proc.returncode

    def test_huge_displacement_is_a_truncation_error(self):
        for dim in ("auto", "64"):
            argv = ("distance", "--a", "coherent:1e5", "--b", "fock:0", "--metric", "hs", "--dim", dim)
            assert self.run_capped(*argv) == 3, dim

    def test_sweep_row_count_is_bounded(self):
        argv = ("sweep", "--a", "coherent:?", "--b", "fock:0", "--metric", "hs", "--range", "0:1e9:1e-9")
        assert self.run_capped(*argv) == 2

    def test_huge_dim_cap_is_a_parse_error(self):
        for spec in ("thermal:1", "phase:0.3", "coherent:1"):
            argv = ("distance", "--a", spec, "--b", "fock:0", "--metric", "hs")
            assert self.run_capped(*argv, env={"QDIST_MAX_DIM": "1000000000"}) == 2, spec


class TestLargestDimCap:
    """At the largest accepted QDIST_MAX_DIM every family's tail sums still fit."""

    @pytest.mark.parametrize("spec", ["coherent:1", "thermal:1", "phase:0.3", "squeezed:0.3", "cat:1,0,0"])
    def test_small_states_keep_their_dim(self, capsys, monkeypatch, spec):
        monkeypatch.setenv("QDIST_MAX_DIM", str(MAX_HORIZON - 64))
        code, out = run(capsys, "distance", "--a", spec, "--b", "fock:0", "--metric", "hs")
        assert code == 0
        assert int(last_row(out)[2]) <= 64

    def test_every_horizon_is_checked(self):
        # these three horizons once skipped the check; at a cap of 1e9 that asked for GiBs
        for text in ("thermal:1", "phase:0.3", "squeezed:0"):
            with pytest.raises(TruncationInfeasibleError):
                adaptive_dim(parse_state_spec(text), max_dim=MAX_HORIZON)


class TestHugeAmplitudes:
    """Displacements whose smallest amplitudes underflow exit 3 with one line."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("distance", "--a", "coherent:28", "--b", "fock:0", "--metric", "hs"),
            ("distance", "--a", "cat:28,0,0", "--b", "fock:0", "--metric", "hs"),
            ("tomo-distance", "--a", "cat:28,0,0", "--b", "coherent:0"),
            ("distance", "--a", "coherent:40", "--b", "fock:0", "--metric", "hs"),
            ("distance", "--a", "coherent:40", "--b", "fock:0", "--metric", "hs", "--dim", "64"),
            ("distance", "--a", "coherent:28", "--b", "fock:0", "--metric", "hs", "--dim", "64"),
        ],
    )
    def test_exits_with_truncation_error(self, capsys, argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


class TestArgumentEdgeCases:
    def test_non_finite_parameters_are_parse_errors(self, capsys):
        for spec in ("coherent:nan", "coherent:inf", "coherent:1,-inf", "thermal:nan", "cat:1,0,inf"):
            code, _ = run(capsys, "distance", "--a", spec, "--b", "fock:0", "--metric", "hs")
            assert code == 2, spec

    def test_bad_dim_is_parse_error(self, capsys):
        code, _ = run(
            capsys, "distance", "--a", "fock:0", "--b", "fock:1", "--metric", "hs", "--dim", "big"
        )
        assert code == 2

    def test_bad_power_is_parse_error(self, capsys):
        code, _ = run(
            capsys, "distance", "--a", "fock:0", "--b", "fock:1", "--metric", "hs-p:zz"
        )
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ("distance", "--a", "fock:0", "--b", "fock:1", "--metric", "fs:abc"),
            ("distance", "--a", "fock:0", "--b", "fock:1", "--metric", "hs:x"),
            ("distance", "--a", "thermal:1", "--b", "fock:0", "--metric", "dn:7"),
            ("distance", "--a", "coherent:1", "--b", "fock:0", "--metric", "bu:"),
            ("sweep", "--a", "coherent:?", "--b", "fock:0", "--metric", "hs:1", "--range", "0:1:0.5"),
            ("sweep", "--a", "coherent:?", "--b", "fock:0", "--metric", "Da:0.5", "--range", "0:1:0.5"),
        ],
    )
    def test_only_hs_p_takes_a_suffix(self, capsys, argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
