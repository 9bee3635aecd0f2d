"""Running ops and checking their outputs.

An op reaches qdist in one of three ways: a fresh ``qdist`` process
(``proc``), ``qdist.cli.main`` in-process (``main``), or
``qdist.phase_space.hs_from_phase_space`` in-process (``ps``).  Outputs
are kept and checked after the timed phase, so the checks cost no op
time.  Every check is one any correct implementation passes, at the
test suite's own tolerances; none compares bytes with a previous output.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import subprocess
import sys
import time

# What the ``qdist`` console script runs.
ENTRY = "import sys; from qdist.cli import main; sys.exit(main())"
PROC_TIMEOUT_S = 150.0

SQRT2 = math.sqrt(2.0)
# Upper ends of each metric's range; the rest are nonnegative and finite.
METRIC_MAX = {"fs": SQRT2, "minimal": SQRT2, "wootters": math.pi / 2, "hs": SQRT2,
              "jmg": 1.0, "bu": SQRT2, "hs-p": SQRT2}
TOMO_MAX = {"hellinger": 2.0 * math.pi * SQRT2, "kolmogorov": 4.0 * math.pi}
ORACLE_TOL = 1e-7        # acceptance criterion 1
PHASE_SPACE_TOL = 1e-4   # acceptance criterion 8
TOMO_REL_TOL = 0.01      # acceptance criterion 4
FIGURE_SHAPE = {1: (303, 4), 2: (101, 7)}


def child_env(root: str) -> dict:
    """Environment for a fresh interpreter: this checkout's qdist, BLAS threads <= nproc."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    nproc = os.cpu_count() or 1
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            want = int(env.get(var, nproc))
        except ValueError:
            want = nproc
        env[var] = str(max(1, min(want, nproc)))
    return env


def run_proc(argv: list[str], root: str, env: dict) -> tuple[int, str, str]:
    proc = subprocess.Popen([sys.executable, "-c", ENTRY, *argv], cwd=root, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=PROC_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        return -9, out, f"timed out after {PROC_TIMEOUT_S} s"
    return proc.returncode, out, err


def run_main(argv: list[str]) -> tuple[int, str, str]:
    from qdist import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def run_ps(op: dict) -> float:
    from qdist.phase_space import hs_from_phase_space
    from qdist.states import parse_state_spec

    return hs_from_phase_space(parse_state_spec(op["a"]), parse_state_spec(op["b"]), op["form"])


def execute(op: dict, root: str, env: dict) -> dict:
    """Run one op; return its latency and raw output (never raises)."""
    res = {"rc": 0, "out": "", "err": "", "value": None}
    t0 = time.perf_counter()
    try:
        if op["via"] == "proc":
            res["rc"], res["out"], res["err"] = run_proc(op["argv"], root, env)
        elif op["via"] == "main":
            res["rc"], res["out"], res["err"] = run_main(op["argv"])
        else:
            res["value"] = run_ps(op)
    except Exception as exc:  # an op that raises is a failed op, not a failed run
        res["rc"] = None
        res["err"] = f"{type(exc).__name__}: {exc}"
    res["lat"] = time.perf_counter() - t0
    return res


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def parse_csv(text: str) -> list[dict]:
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    if len(lines) < 2:
        raise ValueError(f"want a header and rows, got {len(lines)} lines")
    header = lines[0].split(",")
    rows = []
    for ln in lines[1:]:
        fields = ln.split(",")
        if len(fields) != len(header):
            raise ValueError(f"row {ln!r} does not match header {lines[0]!r}")
        rows.append(dict(zip(header, fields)))
    return rows


def _finite(text) -> float:
    v = float(text)
    if not math.isfinite(v):
        raise ValueError(f"non-finite value {text!r}")
    return v


def check_distance_row(row: dict, metric: str) -> dict:
    """Range and oracle checks on one distance row; returns its counts."""
    if row.get("metric", metric) != metric:
        raise ValueError(f"row is for metric {row.get('metric')!r}, asked {metric!r}")
    v = _finite(row["value"])
    if not -1e-12 <= v <= METRIC_MAX.get(metric, math.inf) + 1e-9:
        raise ValueError(f"{metric} = {v!r} outside its range")
    info = {"dim": int(row["dim"]) if row.get("dim") else None, "oracle": False, "diff": None}
    if row.get("closed_form"):
        diff = abs(v - _finite(row["closed_form"]))
        if row.get("abs_diff"):
            diff = max(diff, _finite(row["abs_diff"]))
        if diff > ORACLE_TOL:
            raise ValueError(f"{metric}: |value - closed_form| = {diff:.3e} > {ORACLE_TOL}")
        info.update(oracle=True, diff=diff)
    return info


class Checker:
    """Checks op results and collects the exact counts the report prints."""

    def __init__(self):
        self.failures: list[str] = []
        self.dims: list[int] = []
        self.rows = 0
        self.oracle_rows = 0
        self.max_abs_diff = 0.0
        self._tomo_pairs: dict[str, dict] = {}
        self._ps_refs: dict[tuple, float] = {}

    def check(self, op: dict, res: dict) -> None:
        try:
            if res["rc"] != 0:
                raise ValueError(f"exit {res['rc']}: {res['err'].strip()[-300:]}")
            kind = op["check"]["type"]
            getattr(self, f"_check_{kind}")(op, res)
        except (ValueError, KeyError, TypeError, ArithmeticError) as exc:
            self.failures.append(f"{op['cls']} {op.get('argv') or op.get('form')}: {exc}")

    def _count_row(self, info: dict) -> None:
        self.rows += 1
        if info["dim"] is not None:
            self.dims.append(info["dim"])
        if info["oracle"]:
            self.oracle_rows += 1
            self.max_abs_diff = max(self.max_abs_diff, info["diff"])

    def _check_distance(self, op, res):
        rows = parse_csv(res["out"])
        if len(rows) != 1:
            raise ValueError(f"want one row, got {len(rows)}")
        self._count_row(check_distance_row(rows[0], op["check"]["metric"]))

    def _check_sweep(self, op, res):
        rows = parse_csv(res["out"])
        if len(rows) != op["check"]["rows"]:
            raise ValueError(f"want {op['check']['rows']} rows, got {len(rows)}")
        for row in rows:
            self._count_row(check_distance_row(row, op["check"]["metric"]))

    def _check_figure(self, op, res):
        rows = parse_csv(res["out"])
        n_rows, n_cols = FIGURE_SHAPE[op["check"]["id"]]
        if len(rows) != n_rows or len(rows[0]) != n_cols:
            raise ValueError(f"figure shape {len(rows)}x{len(rows[0])}, want {n_rows}x{n_cols}")
        for row in rows:
            for v in row.values():
                if _finite(v) < 0.0:
                    raise ValueError(f"negative figure entry {v!r}")

    def _check_tomo(self, op, res):
        rows = parse_csv(res["out"])
        chk = op["check"]
        v = _finite(rows[0]["value"])
        if rows[0].get("kind", chk["kind"]) != chk["kind"]:
            raise ValueError(f"row kind {rows[0].get('kind')!r}, asked {chk['kind']!r}")
        if not 0.0 <= v <= TOMO_MAX.get(chk["kind"], math.inf) + 1e-6:
            raise ValueError(f"{chk['kind']} = {v!r} outside its range")
        if "gap" not in chk:
            return
        # coherent pairs: J = 4 pi s^2 and J / B = 8 (criterion 4)
        pair = self._tomo_pairs.setdefault(chk["pair"], {})
        pair[chk["kind"]] = v
        if chk["kind"] == "kullback":
            want = 4.0 * math.pi * chk["gap"] ** 2
            if abs(v - want) > TOMO_REL_TOL * want:
                raise ValueError(f"kullback {v!r} vs 4 pi s^2 = {want!r}")
        if "kullback" in pair and "bhattacharyya" in pair and not pair.get("ratio_checked"):
            pair["ratio_checked"] = True
            ratio = pair["kullback"] / pair["bhattacharyya"]
            if abs(ratio - 8.0) > TOMO_REL_TOL * 8.0:
                raise ValueError(f"kullback / bhattacharyya = {ratio!r}, want 8")

    def _check_ps(self, op, res):
        v = _finite(res["value"])
        ref = self.ps_reference(op)
        if abs(v - ref) > PHASE_SPACE_TOL:
            raise ValueError(f"{op['form']} form {v!r} vs reference {ref!r}")

    def ps_reference(self, op: dict) -> float:
        """The matrix route (wigner form) or thermal_pair (qp, pp forms)."""
        key = (op["form"], op["a"], op["b"])
        if key not in self._ps_refs:
            if op["form"] == "wigner":
                rc, out, err = run_main(["distance", "--a", op["a"], "--b", op["b"], "--metric", "hs"])
                if rc != 0:
                    raise ValueError(f"matrix reference exit {rc}: {err.strip()}")
                ref = _finite(parse_csv(out)[0]["value"])
            else:
                from qdist.closed_forms import thermal_pair

                n1, n2 = (float(s.split(":", 1)[1]) for s in (op["a"], op["b"]))
                ref = thermal_pair(n1, n2)["hs"]
            self._ps_refs[key] = ref
        return self._ps_refs[key]

    def counts(self) -> dict:
        out = {"rows": self.rows, "oracle_rows": self.oracle_rows}
        if self.dims:
            out.update(dim_mean=sum(self.dims) / len(self.dims), dim_max=max(self.dims))
        if self.rows:
            out.update(oracle_coverage=self.oracle_rows / self.rows, max_abs_diff=self.max_abs_diff)
        return out
