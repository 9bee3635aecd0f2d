"""One workload in one fresh interpreter; prints one JSON line.

Modes:
  setup   import qdist (in-process workloads), generate the inputs, run the
          untimed warm-up op; report the set-up time.
  run     set-up, then the timed phase: whole passes of the mix, as many
          as bring its length nearest to --seconds (at least MIN_PASSES),
          then the output checks.
  trace   set-up, then the traced replays and per-layer probes.
  replay  (internal) replay one cli_oneshot op with spans in this fresh
          process and print the spans.
"""

import time

T_START = time.perf_counter()  # before qdist, numpy or anything else heavy is imported

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import mixes  # noqa: E402
import ops  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# A run stops starting passes (and, past the second limit, ops) here, so
# it ends within its time limit even on a much slower version of qdist.
PASS_STOP_S = 100.0
OP_STOP_S = 130.0


def setup(workload: str, seed: int) -> tuple[list[dict], dict, float]:
    """Import qdist, build the inputs and run the warm-up op; time all of it."""
    if workload != "cli_oneshot":
        import qdist  # noqa: F401
        import qdist.cli  # noqa: F401

        src = os.path.join(ROOT, "src")
        if not os.path.abspath(qdist.__file__).startswith(src + os.sep):
            raise SystemExit(f"imported qdist from {qdist.__file__}, not from {src}")
    mixes.write_phase_file(seed, ROOT)
    first = mixes.make_pass(workload, seed, 0)
    warm = mixes.warmup_op(workload, seed)
    res = ops.execute(warm, ROOT, ops.child_env(ROOT))
    return first, (warm, res), time.perf_counter() - T_START


def usage(workload: str) -> resource.struct_rusage:
    who = resource.RUSAGE_CHILDREN if workload == "cli_oneshot" else resource.RUSAGE_SELF
    return resource.getrusage(who)


def run_versions() -> dict:
    """Versions and BLAS threading of the interpreter the ops run in."""
    import ctypes
    import glob
    import platform

    import numpy
    import scipy

    info = {"python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        info["blas"] = "unknown"
    info["blas_threads"] = None
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for lib in libs:
        try:
            dll = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["blas_threads"] = fn()
                break
    return info


def timed_phase(workload: str, seed: int, seconds: float, first: list[dict]) -> dict:
    env = ops.child_env(ROOT)
    done: list[tuple[dict, dict]] = []
    ru0 = usage(workload)
    t0 = time.perf_counter()
    p = 0
    while True:
        batch = first if p == 0 else mixes.make_pass(workload, seed, p)
        for op in batch:
            done.append((op, ops.execute(op, ROOT, env)))
            if time.perf_counter() - t0 > OP_STOP_S:
                break
        p += 1
        elapsed = time.perf_counter() - t0
        # stop at the pass count whose end lies nearest to --seconds
        if elapsed > PASS_STOP_S or (p >= mixes.MIN_PASSES[workload] and elapsed + elapsed / (2 * p) >= seconds):
            break
    wall = time.perf_counter() - t0
    ru1 = usage(workload)
    return {"done": done, "passes": p, "wall": wall,
            "cpu": (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime),
            "maxrss_kib": ru1.ru_maxrss}


def tail(lats: list[float], q: int) -> tuple[float, int]:
    """Nearest-rank q-th percentile and the number of samples beyond it."""
    s = sorted(lats)
    rank = max(1, -(-q * len(s) // 100))
    return s[rank - 1], len(s) - rank


def mode_run(args) -> dict:
    first, (warm, warm_res), setup_s = setup(args.workload, args.seed)
    phase = timed_phase(args.workload, args.seed, args.seconds, first)
    checker = ops.Checker()
    checker.check(warm, warm_res)
    per_class: dict[str, list[float]] = {}
    for op, res in phase["done"]:
        checker.check(op, res)
        per_class.setdefault(op["cls"], []).append(res["lat"])
    lats = [res["lat"] for _, res in phase["done"]]
    n = len(lats)
    q = mixes.TAIL_PERCENTILE[args.workload]
    tail_s, beyond = tail(lats, q)
    return {
        "setup_s": setup_s,
        "attempted": n + 1,
        "failed": len(checker.failures),
        "failures": checker.failures[:20],
        "passes": phase["passes"],
        "timed_s": phase["wall"],
        "ops_per_s": n / phase["wall"],
        "latency_p50_ms": 1e3 * statistics.median(lats),
        "latency_tail_ms": 1e3 * tail_s,
        "tail": {"percentile": q, "samples": n, "beyond": beyond},
        "cpu_ms_per_op": 1e3 * phase["cpu"] / n,
        "peak_rss_mb": phase["maxrss_kib"] * 1024 / 1e6,
        "ops_per_pass": {k: len(v) // phase["passes"] for k, v in sorted(per_class.items())},
        "class_p50_ms": {k: 1e3 * statistics.median(v) for k, v in sorted(per_class.items())},
        "latencies_ms": [[op["cls"], 1e3 * res["lat"]] for op, res in phase["done"]],
        "counts": checker.counts(),
        "versions": run_versions(),
    }


def mode_setup(args) -> dict:
    _, (warm, res), setup_s = setup(args.workload, args.seed)
    checker = ops.Checker()
    checker.check(warm, res)
    return {"setup_s": setup_s, "failed": len(checker.failures),
            "failures": checker.failures}


def mode_replay(args) -> dict:
    """Fresh-process replay of one cli_oneshot op (the traced twin of a ``proc`` op)."""
    import spans

    sp = spans.Spans()
    op = json.loads(args.op)
    sp.op = op["id"]
    row = sp.open("cli", "import qdist")
    import qdist  # noqa: F401

    sp.close(row)
    spans.replay(sp, op)
    return {"spans": sp.rows, "absent": sorted(sp.absent)}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("setup", "run", "trace", "replay"))
    ap.add_argument("--workload", choices=mixes.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--op")
    args = ap.parse_args()
    os.chdir(ROOT)
    if args.mode == "trace":
        import probes

        first, (warm, warm_res), setup_s = setup(args.workload, args.seed)
        out = probes.mode_trace(args, ROOT, first, warm, warm_res)
        out["setup_s"] = setup_s
    else:
        out = {"setup": mode_setup, "run": mode_run, "replay": mode_replay}[args.mode](args)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
