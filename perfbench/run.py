"""qdist benchmark: one workload per call, run from the root of a checkout.

    python3 perfbench/run.py --workload matrix_route --seed 1 --seconds 20 --trace 0

Workloads (see README.md): cli_oneshot, matrix_route, grid_route.  The
workload runs in fresh worker processes that import this checkout's
``src/qdist``; set-up is repeated in SETUP_SAMPLES fresh processes and
reported as the median.  With --trace 0 the last stdout line is a JSON
object holding every end-to-end metric; with --trace 1 it holds every
per-layer metric.  The lines before it are a readable report.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import metrics
import mixes
import ops

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_SAMPLES = 5
RUN_LIMIT_S = 175.0


class RunError(Exception):
    pass


def worker(mode: str, args, deadline: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), mode, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=ops.child_env(ROOT), capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"worker {mode} ran past the {RUN_LIMIT_S} s limit") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RunError(f"worker {mode} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=mixes.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "qdist", "__init__.py")):
        print(f"error: no qdist source under {ROOT}/src; run from a qdist checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        worker("setup", args, deadline)  # untimed: fills bytecode and file caches
        setups = [worker("setup", args, deadline) for _ in range(SETUP_SAMPLES - 1)]
        main_out = worker("trace" if args.trace else "run", args, deadline)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setup_samples = [s["setup_s"] for s in setups] + [main_out["setup_s"]]
    setup_s = statistics.median(setup_samples)
    failures = [f for s in setups for f in s["failures"]] + main_out["failures"]
    failed = sum(s["failed"] for s in setups) + main_out["failed"]
    attempted = len(setups) + main_out["attempted"]

    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"record: nproc={os.cpu_count()} commit={git_commit()}"
          + (f" {json.dumps(main_out['versions'])}" if "versions" in main_out else ""))
    if args.trace:
        values = dict(main_out["metrics"])
        for name, why in sorted(main_out["absent"].items()):
            print(f"absent  {name}: {why}")
    else:
        values = {name: main_out[name] for name, *_ in metrics.END_TO_END if name != "setup_s"}
        t = main_out["tail"]
        print(f"mix per pass: {json.dumps(main_out['ops_per_pass'])}; passes={main_out['passes']}, "
              f"timed {main_out['timed_s']:.1f} s")
        print(f"tail: p{t['percentile']} of n={t['samples']} ({t['beyond']} beyond)")
        print("p50 by class (ms): " + ", ".join(f"{k} {v:.4g}" for k, v in main_out["class_p50_ms"].items()))
        values["setup_s"] = setup_s
    print(f"counts: {json.dumps(main_out['counts'])}")
    print(f"setup samples (s): {' '.join(f'{s:.4f}' for s in setup_samples)}")
    for name, value in values.items():
        print(f"{name:34s} {value:14.6g} {metrics.UNITS.get(name, '')}")
    print(f"{'failed_ratio':34s} {failed / attempted:14.6g} ({failed} of {attempted} ops)")
    for f in failures:
        print(f"FAILED {f}")

    os.makedirs(os.path.join(ROOT, ".perfbench_run"), exist_ok=True)
    record = {"args": vars(args), "nproc": os.cpu_count(), "commit": git_commit(),
              "setup_samples": setup_samples, **main_out}
    with open(os.path.join(ROOT, ".perfbench_run", f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": metrics.UNITS[name]} for name, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
