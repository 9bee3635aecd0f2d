"""The traced run: span replays of the mixes and per-layer probes.

Every traced run reports every per-layer metric, whatever its workload:
it replays one pass of the matrix and grid mixes (the layers they load
are named in metrics.py), times the import and ``cli.main`` probes on the
cli mix, and adds the fock_core / tomography / phase_space probes on the
states those passes use.  The run's own workload is, in addition, run
untraced and traced on the same pass, which gives the tracing overhead;
the per-layer self time per op is taken over every replay.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import os
import re
import statistics
import subprocess
import sys
import time

import mixes
import ops
from spans import LAYERS, Absent, Spans, entry, replay

REPEAT_IMPORT = 3


class Probe:
    """Collects metric values; a probe whose entry point is gone marks them absent."""

    def __init__(self):
        self.values: dict[str, float] = {}
        self.absent: dict[str, str] = {}

    @contextlib.contextmanager
    def guard(self, *names: str):
        try:
            yield
        except Absent as exc:
            for name in names:
                self.absent.setdefault(name, f"{exc} is gone")

    def mean(self, name: str, samples: list[float], scale: float) -> None:
        if samples:
            self.values[name] = scale * statistics.fmean(samples)
        else:
            self.absent.setdefault(name, "no call was timed")


def _timed(fn, *args, repeat: int = 1, **kwargs) -> list[float]:
    out = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn(*args, **kwargs)
        out.append(time.perf_counter() - t0)
    return out


# ---------------------------------------------------------------------------
# fresh-interpreter probes
# ---------------------------------------------------------------------------

def _wall(cmd: list[str], env: dict, root: str) -> tuple[float, str, str]:
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True, timeout=60)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{cmd} exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
    return wall, proc.stdout, proc.stderr


def import_probes(pr: Probe, root: str, env: dict) -> None:
    py = sys.executable
    floor = [_wall([py, "-c", "pass"], env, root)[0] for _ in range(REPEAT_IMPORT)]
    numpy_ = [_wall([py, "-c", "import numpy"], env, root)[0] for _ in range(REPEAT_IMPORT)]
    timer = "import time; t = time.perf_counter(); import qdist; print(time.perf_counter() - t)"
    qd = [float(_wall([py, "-c", timer], env, root)[1]) for _ in range(REPEAT_IMPORT)]
    pr.values["cli.floor_ms.python"] = 1e3 * statistics.median(floor)
    pr.values["cli.floor_ms.numpy"] = 1e3 * statistics.median(numpy_)
    pr.values["cli.import_ms"] = 1e3 * statistics.median(qd)
    # -X importtime: "import time: self | cumulative | name", first import only
    cumul = {}
    for _ in range(REPEAT_IMPORT):
        err = _wall([py, "-X", "importtime", "-c", "import qdist"], env, root)[2]
        seen = {}
        for line in err.splitlines():
            m = re.match(r"import time:\s*(\d+)\s*\|\s*(\d+)\s*\|\s*(\S+)\s*$", line)
            if m and m.group(3) not in seen:
                seen[m.group(3)] = int(m.group(2)) / 1e3
        for mod in ("scipy.special", "scipy.ndimage"):
            cumul.setdefault(mod, []).append(seen.get(mod, 0.0))  # 0: not imported by `import qdist`
    for mod, vals in cumul.items():
        pr.values[f"cli.import_ms.{mod.replace('.', '_')}"] = statistics.median(vals)


# ---------------------------------------------------------------------------
# replays
# ---------------------------------------------------------------------------

def traced_pass(sp: Spans, workload: str, batch: list[dict], keep=None, per_op=None) -> list[float]:
    """Replay a pass in this process; return each op's traced duration."""
    durs = []
    for op in batch:
        sp.op = f"{workload}/{op['id']}"
        root = sp.open("op", op["cls"])
        try:
            with per_op(op) if per_op else contextlib.nullcontext():
                replay(sp, op, keep)
        except Absent as exc:
            sp.absent.add(str(exc))
        finally:
            sp.close(root)
        durs.append(root[6] - root[5])
    return durs


def traced_proc_pass(sp: Spans, root_dir: str, env: dict, batch: list[dict]) -> list[float]:
    """Replay cli_oneshot ops, each in a fresh process, as the untraced run does."""
    worker = os.path.join(root_dir, "perfbench", "worker.py")
    durs = []
    for op in batch:
        sp.op = f"cli_oneshot/{op['id']}"
        root = sp.open("op", op["cls"])
        proc = subprocess.run([sys.executable, worker, "replay", "--workload", "cli_oneshot",
                               "--op", json.dumps(op)], cwd=root_dir, env=env,
                              capture_output=True, text=True, timeout=ops.PROC_TIMEOUT_S)
        sp.close(root)
        durs.append(root[6] - root[5])
        if proc.returncode != 0:
            raise RuntimeError(f"traced replay of {op['argv']} failed: {proc.stderr.strip()[-300:]}")
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        sp.adopt([[sp.op, *row[1:]] for row in out["spans"]], root[1])
        sp.absent.update(out["absent"])
    return durs


def span_metrics(pr: Probe, sp: Spans, prefix: str) -> None:
    """Mean inclusive duration per call, by span name, for the table metrics."""
    by_name: dict[str, list[float]] = {}
    for op, layer, name, dur, _ in sp.self_times():
        if op and op.startswith(prefix):
            by_name.setdefault(name, []).append(dur)

    def pick(pred):
        return [d for n, ds in by_name.items() if pred(n) for d in ds]

    if prefix == "matrix_route":
        pr.mean("states.parse_us", pick(lambda n: n == "parse_state_spec"), 1e6)
        pr.mean("states.adaptive_dim_ms", pick(lambda n: n == "adaptive_dim"), 1e3)
        for kind in ("pure", "thermal"):
            pr.mean(f"states.build_ms.{kind}", pick(lambda n: n == f"build_state:{kind}"), 1e3)
        for metric in mixes.METRICS:
            pr.mean(f"distances.evaluate_ms.{metric}",
                    pick(lambda n: n.startswith(f"evaluate_metric:{metric}:")), 1e3)
        for kind in ("pure", "mixed"):
            pr.mean(f"distances.evaluate_ms.{kind}",
                    pick(lambda n: n.startswith("evaluate_metric:") and n.endswith(f":{kind}")), 1e3)
    else:
        for kind in ("analytic", "wigner"):
            pr.mean(f"tomography.distance_s.{kind}", pick(lambda n: n == f"tomographic_distance:{kind}"), 1.0)
        for form in ("wigner", "qp", "pp"):
            pr.mean(f"phase_space.hs_form_ms.{form}", pick(lambda n: n == f"hs_from_phase_space:{form}"), 1e3)


def self_time_metrics(pr: Probe, sp: Spans, n_ops: int) -> None:
    """Self time per op of each layer over every traced replay of the run.

    Every traced run replays the matrix and grid passes, so each layer
    below has calls to time whatever the run's own workload is.
    """
    total = {layer: 0.0 for layer in LAYERS + ("op",)}
    for _, layer, _, _, self_t in sp.self_times():
        total[layer] = total.get(layer, 0.0) + self_t
    for layer in LAYERS:
        if layer not in ("fock_core", "closed_forms"):  # no public call of theirs is on the CLI path
            pr.values[f"{layer}.self_ms_per_op"] = 1e3 * total[layer] / n_ops
    pr.values["other.self_ms_per_op"] = 1e3 * total["op"] / n_ops


@contextlib.contextmanager
def counting_wigner(counts: dict, key: list):
    """Count the grid points of every Wigner function qdist computes."""
    ps = importlib.import_module("qdist.phase_space")
    orig = getattr(ps, "wigner", None)
    if orig is None:
        raise Absent("qdist.phase_space.wigner")

    def counted(*args, **kwargs):
        qd = orig(*args, **kwargs)
        counts[key[0]] = counts.get(key[0], 0) + qd.grid.nq * qd.grid.n_p
        return qd

    patched = [m for name, m in list(sys.modules.items())
               if name.split(".")[0] == "qdist" and getattr(m, "wigner", None) is orig]
    for m in patched:
        m.wigner = counted
    try:
        yield
    finally:
        for m in patched:
            m.wigner = orig


# ---------------------------------------------------------------------------
# per-layer probes on the mixes' states
# ---------------------------------------------------------------------------

def fock_core_probes(pr: Probe, kept: list[tuple]) -> None:
    names = ("fock_core.outer_ms", "fock_core.validate_ms", "fock_core.trace_norm_ms", "fock_core.hermitian_sqrt_ms")
    with pr.guard(*names):
        outer = entry("fock_core", "outer")
        density = entry("fock_core", "DensityOperator")
        trace_norm = entry("fock_core", "trace_norm")
        hsqrt = entry("fock_core", "hermitian_sqrt")
        t_outer, t_valid, t_tn, t_sqrt = [], [], [], []
        for sa, sb in kept:
            mats = []
            for s in (sa, sb):
                if isinstance(s, density):
                    mats.append(s)
                else:
                    t_outer += _timed(outer, s)
                    mats.append(outer(s))
            for r in mats:
                t_valid += _timed(density, r.mat)
            t_tn += _timed(trace_norm, mats[0].mat - mats[1].mat)
            t_sqrt += _timed(hsqrt, mats[0])
        for name, samples in zip(names, (t_outer, t_valid, t_tn, t_sqrt)):
            pr.mean(name, samples, 1e3)


GRID_PROBES = ("tomography.marginal_ms.analytic", "tomography.marginal_ms.wigner", "phase_space.wigner_ms",
               "phase_space.husimi_ms", "phase_space.eigenfunctions_ms",
               *(f"tomography.divergence_us.{k}" for k in mixes.TOMO_KINDS))


def grid_probes(pr: Probe, batch: list[dict]) -> None:
    import numpy as np

    parse = entry("states", "parse_state_spec")
    tomo = [op for op in batch if op["cls"] == "tomo-analytic"]
    coh = [parse(s) for op in tomo for s in op["argv"][2:5:2] if s.startswith("coherent:")]
    fock = [parse(s) for op in tomo for s in op["argv"][2:5:2] if s.startswith("fock:")]
    wig = next(parse(op["argv"][2]) for op in batch if op["cls"] == "tomo-wigner")
    therm = next(parse(op["a"]) for op in batch if op["cls"] == "ps-qp")
    x = np.linspace(-12.0, 12.0, 1025)

    with pr.guard("tomography.marginal_ms.analytic", *(f"tomography.divergence_us.{k}" for k in mixes.TOMO_KINDS)):
        marginal = entry("tomography", "marginal_analytic")
        pr.mean("tomography.marginal_ms.analytic",
                [t for s in coh[:2] + fock[:2] for t in _timed(marginal, s, 0.6, 0.8, x, repeat=5)], 1e3)
        ta, tb = marginal(coh[0], 0.6, 0.8, x), marginal(coh[1], 0.6, 0.8, x)
        divergence = entry("tomography", "classical_divergence")
        for kind in mixes.TOMO_KINDS:
            pr.mean(f"tomography.divergence_us.{kind}", _timed(divergence, ta, tb, kind, repeat=30), 1e6)
    with pr.guard("phase_space.wigner_ms", "tomography.marginal_ms.wigner", "phase_space.husimi_ms"):
        as_density, adaptive_dim = entry("states", "as_density"), entry("states", "adaptive_dim")
        rho = as_density(wig, adaptive_dim(wig))
        wigner = entry("phase_space", "wigner")
        pr.mean("phase_space.wigner_ms", _timed(wigner, rho, repeat=2), 1e3)
        qd = wigner(rho)
        span = qd.grid.q_max
        with pr.guard("tomography.marginal_ms.wigner"):
            pr.mean("tomography.marginal_ms.wigner",
                    _timed(entry("tomography", "marginal_from_wigner"), qd, 0.6, 0.8,
                           np.linspace(-span, span, 2049), repeat=2), 1e3)
        with pr.guard("phase_space.husimi_ms"):
            pr.mean("phase_space.husimi_ms",
                    _timed(entry("phase_space", "husimi_q"), as_density(therm, adaptive_dim(therm))), 1e3)
    with pr.guard("phase_space.eigenfunctions_ms"):
        pr.mean("phase_space.eigenfunctions_ms",
                _timed(entry("phase_space", "oscillator_eigenfunctions"), np.linspace(-10.0, 10.0, 1025), 64,
                       repeat=10), 1e3)


# ---------------------------------------------------------------------------
# the traced run
# ---------------------------------------------------------------------------

def mode_trace(args, root: str, first: list[dict], warm: dict, warm_res: dict) -> dict:
    workload = args.workload
    env = ops.child_env(root)
    pr = Probe()
    sp = Spans()
    checker = ops.Checker()
    checker.check(warm, warm_res)
    attempted = 1

    matrix_checker = ops.Checker()  # its counts describe the matrix mix alone

    def untraced(batch, chk=checker):
        nonlocal attempted
        out = []
        for op in batch:
            res = ops.execute(op, root, env)
            chk.check(op, res)
            out.append(res["lat"])
            attempted += 1
        return out

    def pass0(name):
        return first if name == workload else mixes.make_pass(name, args.seed, 0)

    import_probes(pr, root, env)

    # cli.main in-process on the cli mix's argument vectors
    per_cmd: dict[str, list[float]] = {}
    for op in pass0("cli_oneshot"):
        lat = untraced([{**op, "via": "main"}])[0]
        per_cmd.setdefault(op["argv"][0], []).append(lat)
    for cmd in ("distance", "sweep", "figure", "tomo-distance"):
        pr.mean(f"cli.main_ms.{cmd}", per_cmd.get(cmd, []), 1e3)

    # matrix route: untraced for the output counts, traced for the layers
    batch = pass0("matrix_route")
    own = {"matrix_route": (batch, untraced(batch, matrix_checker))}
    counts = matrix_checker.counts()
    pr.values.update({"states.dim_mean": counts["dim_mean"], "states.dim_max": counts["dim_max"],
                      "closed_forms.coverage": counts["oracle_coverage"],
                      "closed_forms.max_abs_diff": counts["max_abs_diff"]})
    kept: dict[tuple, tuple] = {}
    traced = {"matrix_route": traced_pass(
        sp, "matrix_route", batch,
        keep=lambda sa, sb, dim, mixed: kept.setdefault((dim, mixed), (sa, sb)))}
    span_metrics(pr, sp, "matrix_route")
    fock_core_probes(pr, list(kept.values()))

    # grid route: traced, counting Wigner grid points per op
    batch = pass0("grid_route")
    if workload == "grid_route":
        own["grid_route"] = (batch, untraced(batch))
    points: dict[str, int] = {}
    key = [None]

    @contextlib.contextmanager
    def per_op(op):
        key[0] = op["cls"]
        yield

    with pr.guard("tomography.wigner_grid_points", "phase_space.wigner_grid_points"):
        with counting_wigner(points, key):
            traced["grid_route"] = traced_pass(sp, "grid_route", batch, per_op=per_op)
        n_cls = {c: sum(op["cls"] == c for op in batch) for c in ("tomo-wigner", "ps-wigner")}
        pr.values["tomography.wigner_grid_points"] = points.get("tomo-wigner", 0) / n_cls["tomo-wigner"]
        pr.values["phase_space.wigner_grid_points"] = points.get("ps-wigner", 0) / n_cls["ps-wigner"]
    span_metrics(pr, sp, "grid_route")
    with pr.guard(*GRID_PROBES):
        grid_probes(pr, batch)

    if workload == "cli_oneshot":
        batch = first
        own["cli_oneshot"] = (batch, untraced(batch))
        traced["cli_oneshot"] = traced_proc_pass(sp, root, env, batch)

    batch, lats = own[workload]
    self_time_metrics(pr, sp, sum(len(t) for t in traced.values()))
    pr.values["trace.ops_per_s"] = len(batch) / sum(traced[workload])
    pr.values["trace.untraced_ops_per_s"] = len(batch) / sum(lats)
    pr.values["trace.overhead"] = sum(traced[workload]) / sum(lats) - 1.0
    for name in sorted(sp.absent):
        pr.absent.setdefault(name, "entry point gone")

    os.makedirs(os.path.join(root, ".perfbench_run"), exist_ok=True)
    with open(os.path.join(root, ".perfbench_run", f"spans-{workload}-seed{args.seed}.jsonl"), "w",
              encoding="utf-8") as fh:
        for row in sp.rows:
            fh.write(json.dumps(dict(zip(("op", "id", "parent", "layer", "name", "t0", "t1"), row))) + "\n")
    failures = checker.failures + matrix_checker.failures
    return {"metrics": pr.values, "absent": pr.absent, "attempted": attempted,
            "failed": len(failures), "failures": failures[:20],
            "counts": counts}
