import itertools
import math
import os
import pathlib
import shlex
import subprocess
import sys

import numpy as np
import pytest

import qdist
from qdist.cli import main
from qdist.errors import TruncationInfeasibleError
from qdist.states import MAX_HORIZON, TAIL_MARGIN, adaptive_dim, parse_state_spec


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def last_row(out):
    return out.strip().splitlines()[-1].split(",")


# one light call of each subcommand
COMMANDS = {
    "distance": ["distance", "--a", "fock:0", "--b", "fock:1", "--metric", "hs"],
    "sweep": ["sweep", "--a", "coherent:?", "--b", "fock:1", "--metric", "hs", "--range", "0:1:0.5"],
    "figure": ["figure", "--id", "2"],
    "tomo-distance": ["tomo-distance", "--a", "fock:0", "--b", "fock:1"],
}


class TestOutFile:
    @pytest.mark.parametrize("argv", COMMANDS.values(), ids=COMMANDS)
    def test_file_matches_stdout(self, capsys, tmp_path, argv):
        path = tmp_path / "x.csv"
        assert main([*argv, "--out", str(path)]) == 0
        assert path.read_text(encoding="utf-8") == capsys.readouterr().out

    @pytest.mark.parametrize("argv", COMMANDS.values(), ids=COMMANDS)
    def test_unwritable_file_prints_nothing(self, capsys, tmp_path, argv):
        # the file is written first: a failed --out once printed the whole CSV before its error line
        code = main([*argv, "--out", str(tmp_path / "missing" / "x.csv")])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


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

    def test_number_state_beyond_dim_is_a_truncation_error(self, capsys):
        code = main(["distance", "--a", "fock:3", "--b", "fock:0", "--metric", "hs", "--dim", "2"])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("error: truncation discards") and err.count("\n") == 1

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

    @pytest.mark.parametrize("argv", [COMMANDS["distance"], COMMANDS["sweep"]], ids=["distance", "sweep"])
    def test_malformed_dim_cap_env_is_reported_before_a_bad_dim(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("QDIST_MAX_DIM", "abc")
        code = main([*argv, "--dim", "big"])
        err = capsys.readouterr().err
        assert code == 2
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

    def test_negative_start_is_attached_to_its_option(self, capsys):
        # argparse reads "--range -1:1:1" as an option and exits 2; "--range=-1:1:1" is one argument
        code, out = run(capsys, "sweep", "--a", "coherent:?", "--b", "coherent:0", "--metric", "hs", "--range=-1:1:1")
        assert code == 0
        assert [row.split(",")[0] for row in out.strip().splitlines()[1:]] == ["-1", "0", "1"]

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

    def test_kind_help_and_the_divergence_check_read_one_tuple(self, capsys):
        from qdist import cli, closed_forms, tomography

        code, out = run(capsys, "tomo-distance", "--help")
        assert code == 0
        assert "  --kind KIND           hellinger|kolmogorov|bhattacharyya|kullback\n" in out
        # the help line and classical_divergence's check read this one tuple
        assert cli.DIVERGENCE_KINDS is tomography.DIVERGENCE_KINDS is closed_forms.DIVERGENCE_KINDS

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

    @pytest.mark.parametrize("n", [511, 2000, 100_000])
    def test_number_state_level_is_bounded_before_any_table(self, capsys, monkeypatch, n):
        # fock:100000 once asked for a 341 GiB eigenfunction table
        from qdist import tomography

        def refuse(*args):
            raise AssertionError("an eigenfunction table was built")

        # the eigenfunction levels the Fock-basis route walks, a number state's included
        monkeypatch.setattr(tomography, "_oscillator_levels", refuse)
        code = main(["tomo-distance", "--a", f"fock:{n}", "--b", "fock:0"])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_dim_cap_env_reaches_distance_but_not_tomo_distance(self, capsys, monkeypatch):
        # QDIST_MAX_DIM caps --dim auto for distance and sweep; tomo-distance keeps adaptive_dim's 512
        monkeypatch.setenv("QDIST_MAX_DIM", "4096")
        code, out = run(capsys, "distance", "--a", "thermal:20", "--b", "thermal:19", "--metric", "hs")
        assert code == 0
        assert last_row(out)[2] == "568"
        # a Gaussian state builds no truncation there, so the cap is shown on one that does
        code = main(["tomo-distance", "--a", "phase:0.99", "--b", "coherent:0"])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("error: coherent_phase state needs more than 512 levels") and err.count("\n") == 1

    def test_huge_node_count_is_a_parse_error(self, capsys):
        code = main(["tomo-distance", "--a", "coherent:1", "--b", "fock:1", "--nodes-angular", "100000000"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_unknown_kind(self, capsys):
        code, _ = run(
            capsys, "tomo-distance", "--a", "coherent:0,0", "--b", "coherent:1,0", "--kind", "zzz"
        )
        assert code == 2

    @pytest.mark.parametrize(
        "a,b,kind,value",
        [
            ("coherent:0.5", "coherent:1,0.3", "hellinger", "2.26812876465"),
            ("coherent:0.8", "fock:1", "kullback", "14.5394650934"),
            ("fock:0", "fock:2", "kolmogorov", "7.95375299031"),
            ("cat:1,0,0", "coherent:0.5", "bhattacharyya", "0.718555339225"),
            ("thermal:0.5", "coherent:0.3", "hellinger", "1.83855061747"),
            # mpmath 1.11391745711; the Gaussian marginal moved it from 1.11392952414, toward that value
            ("squeezed:0.3", "squeezed:0.1,0.2", "kolmogorov", "1.11392951691"),
        ],
    )
    def test_default_csv_is_pinned(self, capsys, a, b, kind, value):
        # the default output stays byte-identical; a change of any digit here is a change of result
        code, out = run(capsys, "tomo-distance", "--a", a, "--b", b, "--kind", kind)
        assert code == 0
        assert out == f"kind,value,nodes_angular\n{kind},{value},64\n"


class TestDistanceCsvPin:
    @pytest.mark.parametrize(
        "a,b,row",
        [
            ("fock:0", "fock:1", "fs,1.41421356237,8,1.41421356237,0"),
            ("coherent:1", "coherent:0.5,0.5", "minimal,0.665130388614,16,0.665130388614,1.08801856413e-14"),
            ("cat:1,0,0", "coherent:1", "wootters,0.717522237805,16,0.717522237805,7.1054273576e-15"),
            ("squeezed:0.3", "squeezed:0.1,0.2", "hs,0.29423578024,24,0.29423578024,1.48214773787e-13"),
            ("thermal:0.5", "fock:3", "jmg,0.975308641975,32,,"),
            ("thermal:1", "coherent:1,0.5", "jmg,0.756962664059,48,,"),
            ("coherent:0.8", "coherent:0.3", "bu,0.48477437518,16,0.48477437518,0"),
            ("thermal:1", "thermal:0.3", "bu,0.348694325879,48,0.348694325879,4.82947015712e-15"),
            ("thermal:0.5", "coherent:0.4", "bu,0.672174137734,32,,"),
            ("thermal:1", "thermal:0", "hs-p,0.76536686473,48,0.76536686473,1.7763568394e-15"),
            ("phase:0.3", "phase:0.5", "hs-p:0.25,0.332756132323,24,0.332756132323,1.00475183729e-14"),
            ("thermal:0.7", "thermal:0.2", "dn,0.167078666621,40,0.167078666621,8.32667268469e-17"),
            ("thermal:0.5", "squeezed:0.3", "dn-sqrt,0.741608452164,32,,"),
            ("fock:1", "fock:4", "DZ,0.707106781187,8,0.707106781187,1.11022302463e-16"),
            ("thermal:0.4", "coherent:0.6,0.2", "Da,0.497003276006,24,,"),
        ],
    )
    def test_default_distance_csv_is_pinned(self, capsys, a, b, row):
        # every metric; pure, diagonal and pure-vs-diagonal pairs; both jmg routes (populations,
        # dense trace norm) and all three bu routes (pure, two diagonals, rank one).  hs-p below
        # 1/2 stays off mixed states.  A change of any digit here is a change of result.
        code, out = run(capsys, "distance", "--a", a, "--b", b, "--metric", row.split(",")[0])
        assert code == 0
        assert out == f"metric,value,dim,closed_form,abs_diff\n{row}\n"


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

    LIMIT = "import resource, sys\nresource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
    CHILD = LIMIT + "from qdist.cli import main\nsys.exit(main(sys.argv[1:]))\n"

    def run_capped(self, *argv, env=None, code=CHILD):
        src = os.path.dirname(os.path.dirname(os.path.abspath(qdist.__file__)))
        env = dict(os.environ, **(env or {}), PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        proc = subprocess.run(
            [sys.executable, "-c", code, *argv], capture_output=True, text=True, timeout=20, env=env
        )
        if proc.returncode:
            assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr[-300:]
        else:
            assert proc.stderr == "", proc.stderr[-300:]
        return proc

    def test_huge_displacement_is_a_truncation_error(self):
        for dim in ("auto", "64"):
            argv = ("distance", "--a", "coherent:1e5", "--b", "fock:0", "--metric", "hs", "--dim", dim)
            assert self.run_capped(*argv).returncode == 3, dim

    def test_sweep_row_count_is_bounded(self):
        argv = ("sweep", "--a", "coherent:?", "--b", "fock:0", "--metric", "hs", "--range", "0:1e9:1e-9")
        assert self.run_capped(*argv).returncode == 2

    def test_dense_metrics_stop_at_their_dim_cap(self):
        # hs at dim 60008 once asked for 53.7 GiB; it reads amplitudes now, as fs does
        env = {"QDIST_MAX_DIM": str(MAX_HORIZON - TAIL_MARGIN)}
        argv = ("distance", "--a", "fock:60000", "--b", "fock:0", "--metric")
        for metric in ("hs", "fs"):
            proc = self.run_capped(*argv, metric, env=env)
            assert proc.returncode == 0, metric
            assert last_row(proc.stdout)[1] == f"{math.sqrt(2.0):.12g}", metric
        # a thermal state stores its populations: hs reads them, fs refuses a mixed state as at small dims
        argv = ("distance", "--a", "thermal:1", "--b", "fock:0", "--dim", "60000", "--metric")
        assert self.run_capped(*argv, "hs", env=env).returncode == 0
        assert self.run_capped(*argv, "fs", env=env).returncode == 4
        # the trace norm against a non-number pure state needs the dense mat, which stops at its cap
        argv = ("distance", "--a", "thermal:1", "--b", "coherent:1", "--metric", "jmg", "--dim", "60000")
        assert self.run_capped(*argv, env=env).returncode == 3

    def test_angular_nodes_go_in_bounded_blocks(self):
        # 4,096 nodes of up to about 11,300 X points each: held all at once, each array of them would
        # take 370 MB; in blocks of NODE_BLOCK points the run stays inside the cap
        argv = ("tomo-distance", "--a", "coherent:0", "--b", "coherent:100", "--nodes-angular", "4096")
        proc = self.run_capped(*argv)
        assert proc.returncode == 0
        assert last_row(proc.stdout)[1] == "8.83548048102"

    def test_phase_space_grid_is_refused_before_its_tables(self):
        # the wigner form's rule asks for 3285 points per axis at dim 2200, whose tables would not fit
        # the cap, and 26885 at dim 20000: both past MAX_GRID_POINTS, refused before any table is built
        code = self.LIMIT + (
            "from qdist import fock, hs_from_phase_space\n"
            "from qdist.errors import GridError\n"
            "for dim in map(int, sys.argv[1:]):\n"
            "    try:\n"
            "        hs_from_phase_space(fock(0, dim), fock(1, dim))\n"
            "    except GridError as exc:\n"
            "        print(exc)\n"
        )
        proc = self.run_capped("2200", "20000", code=code)
        assert proc.returncode == 0
        lines = proc.stdout.splitlines()
        assert len(lines) == 2, proc.stdout
        assert "needs 3285 grid points" in lines[0] and "needs 26885 grid points" in lines[1], proc.stdout

    @pytest.mark.parametrize("a, b", [("thermal:1e12", "coherent:0"), ("thermal:1e300", "coherent:1"),
                                      ("squeezed:0.9999999985", "coherent:0")])
    def test_gaussian_tomograms_are_refused_before_their_x_grids(self, a, b):
        # a Gaussian state builds no truncation: without the X rule's own bounds thermal:1e12 asked for a
        # 10.8 GiB grid, thermal:1e300 overflowed the int cast of its point count, and the squeezed state's
        # spread, which cancels to 0, divided by zero
        proc = self.run_capped("tomo-distance", "--a", a, "--b", b)
        assert proc.returncode == 3 and proc.stdout == ""

    def test_huge_dim_cap_is_a_parse_error(self):
        for spec in ("thermal:1", "phase:0.3", "coherent:1"):
            argv = ("distance", "--a", spec, "--b", "fock:0", "--metric", "hs")
            assert self.run_capped(*argv, env={"QDIST_MAX_DIM": "1000000000"}).returncode == 2, spec


class TestLargestDimCap:
    """At the largest accepted QDIST_MAX_DIM every family's tail sums still fit."""

    @pytest.mark.parametrize("spec", ["coherent:1", "thermal:1", "phase:0.3", "squeezed:0.3", "cat:1,0,0"])
    def test_small_states_keep_their_dim(self, capsys, monkeypatch, spec):
        monkeypatch.setenv("QDIST_MAX_DIM", str(MAX_HORIZON - TAIL_MARGIN))
        code, out = run(capsys, "distance", "--a", spec, "--b", "fock:0", "--metric", "hs")
        assert code == 0
        assert int(last_row(out)[2]) <= 64

    def test_every_horizon_is_checked(self):
        # these three horizons once skipped the check; at a cap of 1e9 that asked for GiBs
        for text in ("thermal:1", "phase:0.3", "squeezed:0"):
            with pytest.raises(TruncationInfeasibleError):
                adaptive_dim(parse_state_spec(text), max_dim=MAX_HORIZON)


class TestHugeAmplitudes:
    """Displacements whose smallest amplitudes underflow, or whose |alpha|^2 would overflow, exit 3 with one line."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("distance", "--a", "coherent:28", "--b", "fock:0", "--metric", "hs"),
            ("distance", "--a", "cat:28,0,0", "--b", "fock:0", "--metric", "hs"),
            ("tomo-distance", "--a", "cat:28,0,0", "--b", "coherent:0"),
            ("distance", "--a", "coherent:40", "--b", "fock:0", "--metric", "hs"),
            ("distance", "--a", "coherent:40", "--b", "fock:0", "--metric", "hs", "--dim", "64"),
            ("distance", "--a", "coherent:28", "--b", "fock:0", "--metric", "hs", "--dim", "64"),
            ("distance", "--a", "coherent:1e300", "--b", "fock:1", "--metric", "hs"),
            ("distance", "--a", "coherent:1e160", "--b", "fock:1", "--metric", "hs"),
            ("distance", "--a", "coherent:1e300", "--b", "fock:1", "--metric", "hs", "--dim", "64"),
            ("distance", "--a", "cat:1e300,0,0", "--b", "fock:1", "--metric", "hs"),
            ("distance", "--a", "coherent:1e300,1e300", "--b", "fock:1", "--metric", "hs"),
            ("distance", "--a", "coherent:1.7e308,-1.7e308", "--b", "fock:1", "--metric", "fs"),
            ("sweep", "--a", "coherent:?", "--b", "fock:0", "--metric", "hs", "--range", "1e300:1e300:1"),
            ("tomo-distance", "--a", "coherent:1e300", "--b", "fock:1"),
            ("tomo-distance", "--a", "fock:0", "--b", "cat:1e300,0,0"),
        ],
    )
    def test_exits_with_truncation_error(self, capsys, argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_generalized_coherent_overflow(self, capsys, tmp_path):
        phases = tmp_path / "phases.txt"
        phases.write_text("0\n0.5\n", encoding="utf-8")
        code = main(["distance", "--a", f"gencoh:1e300,0,@{phases}", "--b", "fock:1", "--metric", "hs"])
        assert code == 3
        assert capsys.readouterr().err.startswith("error: generalized_coherent state")


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


# command lines argparse itself refuses: a bad choice, a missing option, a bad int, an unknown
# flag, no subcommand, and a negative range start detached from its option
ARGPARSE_REFUSALS = {
    "choice": ("figure", "--id", "3"),
    "missing": ("distance", "--a", "fock:0", "--b", "fock:1"),
    "int": ("tomo-distance", "--a", "fock:0", "--b", "fock:1", "--nodes-angular", "x"),
    "unknown-flag": ("distance", "--a", "fock:0", "--b", "fock:1", "--metric", "hs", "--bogus"),
    "no-subcommand": (),
    "negative-range": ("sweep", "--a", "coherent:?", "--b", "coherent:0", "--metric", "hs", "--range", "-1:0:0.5"),
}


class TestArgparseRefusals:
    @pytest.mark.parametrize("argv", ARGPARSE_REFUSALS.values(), ids=ARGPARSE_REFUSALS)
    def test_one_error_line(self, capsys, argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: qdist") and captured.err.count("\n") == 1, captured.err

    def test_one_error_line_from_the_module(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(qdist.__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "qdist.cli", *ARGPARSE_REFUSALS["choice"]],
            capture_output=True, text=True, timeout=20, env=dict(os.environ, PYTHONPATH=src),
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == "error: qdist figure: argument --id: invalid choice: 3 (choose from 1, 2)\n"

    @pytest.mark.parametrize("argv", [("--help",), ("figure", "--help")], ids=["qdist", "figure"])
    def test_help_still_exits_zero(self, capsys, argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out.startswith("usage: qdist") and captured.err == ""


def _readme_commands():
    """(argv, expected stdout or None) for each ``qdist`` line of the README's command-line block."""
    text = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0].splitlines()
    commands = []
    for i, line in enumerate(block):
        if line.startswith("qdist "):
            shown = list(itertools.takewhile(lambda ln: ln.startswith("# "), block[i + 1:]))
            commands.append((shlex.split(line)[1:], "".join(ln[2:] + "\n" for ln in shown) or None))
    return commands


README_COMMANDS = _readme_commands()


@pytest.mark.parametrize("argv,shown", README_COMMANDS, ids=[" ".join(argv) for argv, _ in README_COMMANDS])
def test_readme_command_examples_run(capsys, monkeypatch, tmp_path, argv, shown):
    monkeypatch.chdir(tmp_path)  # the figure examples write --out files
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""
    if shown is not None:
        assert captured.out == shown
