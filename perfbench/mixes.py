"""Seeded op mixes for the three workloads.

Each workload is a closed loop over *passes*.  A pass is a fixed list of
op classes; the seed only draws the parameters inside each class, from
windows chosen so that the truncation dim (and so the cost) of a class
does not depend on the seed.  The timed phase runs whole passes, so every
run of a workload does the same mix of work whatever its length.

Nothing here imports qdist: the program only ever sees the argument
vectors (and, for the phase-space ops, the spec strings) built below.
"""

from __future__ import annotations

import math
import os
import random

WORKLOADS = ("cli_oneshot", "matrix_route", "grid_route")

METRICS = ("fs", "minimal", "wootters", "hs", "jmg", "bu", "hs-p", "dn", "dn-sqrt", "DZ", "Da")
PURE_ONLY = ("fs", "minimal", "wootters")
TOMO_KINDS = ("hellinger", "kolmogorov", "bhattacharyya", "kullback")

# Truncation dims the matrix mix spreads over, and for each family the
# parameter window (|alpha|, |zeta|, |epsilon| or nbar) that adaptive_dim
# maps to that dim with a 1e-12 tail.  The windows are the inner part of
# the measured ones, so the dim holds for every draw.
DIM_LEVELS = (24, 40, 64, 96, 144, 224, 344, 496)
WINDOWS = {
    "coherent": ((1.15, 1.70), (2.60, 3.00), (4.30, 4.60), (6.10, 6.40),
                 (8.35, 8.55), (11.33, 11.50), (14.94, 15.07), (18.68, 18.78)),
    "cat": ((1.20, 1.75), (2.65, 3.05), (4.33, 4.63), (6.13, 6.42),
            (8.37, 8.57), (11.35, 11.52), (14.95, 15.08), (18.69, 18.79)),
    "squeezed": ((0.22, 0.32), (0.46, 0.51), (0.638, 0.664), (0.751, 0.763),
                 (0.8305, 0.8360), (0.8895, 0.8917), (0.9273, 0.9282), (0.9494, 0.9498)),
    "phase": ((0.42, 0.53), (0.65, 0.69), (0.782, 0.798), (0.8555, 0.8625),
              (0.9038, 0.9067), (0.9382, 0.9394), (0.95995, 0.96035), (0.97212, 0.97226)),
    "thermal": ((0.23, 0.39), (0.74, 0.93), (1.58, 1.77), (2.73, 2.91),
                (4.45, 4.64), (7.34, 7.53), (11.68, 11.87), (17.18, 17.38)),
}

# The eight pair classes of the matrix mix: six pure, two mixed.
MATRIX_CLASSES = (
    "coherent-coherent", "coherent-fock", "gencoh-coherent", "cat-cat",
    "squeezed-squeezed", "phase-phase", "thermal-thermal", "thermal-fock",
)
MIXED_CLASSES = ("thermal-thermal", "thermal-fock")
# Known defect: on pure pairs at dim >= 344 the dense dn-sqrt route misses
# the closed form by up to ~1.3e-7, beyond criterion 1's 1e-7, so pure
# dn-sqrt rows stop at dim 224 until that is fixed.
DN_SQRT_PURE_MAX_LEVEL = 5

# Passes a run makes at least, and the latency percentile reported as the
# tail: at the minimum pass count at least ten samples lie beyond it.
MIN_PASSES = {"cli_oneshot": 5, "matrix_route": 3, "grid_route": 1}
TAIL_PERCENTILE = {"cli_oneshot": 75, "matrix_route": 95, "grid_route": 83}

PHASE_FILE = os.path.join(".perfbench_run", "gencoh_phases.txt")
PHASE_LEVELS = 512


def _num(x: float) -> str:
    return f"{x:.6f}"


def _rot(r: float, theta: float) -> tuple[float, float]:
    return r * math.cos(theta), r * math.sin(theta)


def _cplx(r: float, theta: float) -> str:
    return ",".join(_num(v) for v in _rot(r, theta))


def _draw(rng: random.Random, family: str, level: int) -> float:
    lo, hi = WINDOWS[family][level]
    return rng.uniform(lo, hi)


def write_phase_file(seed: int, root: str) -> str:
    """Write the gencoh phase table for this seed; return its relative path."""
    rng = random.Random(f"phases:{seed}")
    path = os.path.join(root, PHASE_FILE)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for _ in range(PHASE_LEVELS):
            fh.write(f"{rng.uniform(-math.pi, math.pi):.12f}\n")
    return PHASE_FILE


def _pair_specs(rng: random.Random, cls: str, level: int) -> tuple[str, str]:
    """Two state specs of one matrix class whose shared dim is DIM_LEVELS[level]."""
    th = rng.uniform(0.0, 2.0 * math.pi)
    dth = rng.uniform(-0.3, 0.3)
    if cls == "coherent-coherent":
        return (f"coherent:{_cplx(_draw(rng, 'coherent', level), th)}",
                f"coherent:{_cplx(_draw(rng, 'coherent', level), th + dth)}")
    if cls == "coherent-fock":
        # Fock levels as in acceptance criterion 1 (m <= 12)
        return f"coherent:{_cplx(_draw(rng, 'coherent', level), th)}", f"fock:{rng.randint(0, 12)}"
    if cls == "gencoh-coherent":
        return (f"gencoh:{_cplx(_draw(rng, 'coherent', level), th)},@{PHASE_FILE}",
                f"coherent:{_cplx(_draw(rng, 'coherent', level), th + dth)}")
    if cls == "cat-cat":
        alpha = _cplx(_draw(rng, "cat", level), th)
        return (f"cat:{alpha},{_num(rng.uniform(0.0, 2.0 * math.pi))}",
                f"cat:{alpha},{_num(rng.uniform(0.0, 2.0 * math.pi))}")
    if cls == "squeezed-squeezed":
        return (f"squeezed:{_cplx(_draw(rng, 'squeezed', level), th)}",
                f"squeezed:{_cplx(_draw(rng, 'squeezed', level), th + dth)}")
    if cls == "phase-phase":
        return (f"phase:{_cplx(_draw(rng, 'phase', level), th)}",
                f"phase:{_cplx(_draw(rng, 'phase', level), th + dth)}")
    if cls == "thermal-thermal":
        return (f"thermal:{_num(_draw(rng, 'thermal', level))}",
                f"thermal:{_num(_draw(rng, 'thermal', level))}")
    if cls == "thermal-fock":
        return f"thermal:{_num(_draw(rng, 'thermal', level))}", f"fock:{rng.randint(0, 3)}"
    raise ValueError(cls)


def _distance_op(cls: str, a: str, b: str, metric: str) -> dict:
    return {
        "cls": cls,
        "via": "main",
        "argv": ["distance", "--a", a, "--b", b, "--metric", metric],
        "check": {"type": "distance", "metric": metric},
    }


def matrix_pass(seed: int, p: int) -> list[dict]:
    """One pass: every class with every metric it admits, dims rotated.

    Class c and metric m get dim level (c + m + p) mod 8, so within a
    pass each metric meets each dim level once (the pure-only metrics
    skip the two mixed classes) and every pass costs about the same.
    """
    rng = random.Random(f"matrix_route:{seed}:{p}")
    ops = []
    for c, cls in enumerate(MATRIX_CLASSES):
        for m, metric in enumerate(METRICS):
            if cls in MIXED_CLASSES and metric in PURE_ONLY:
                continue
            level = (c + m + p) % len(DIM_LEVELS)
            if metric == "dn-sqrt" and cls not in MIXED_CLASSES:
                level = min(level, DN_SQRT_PURE_MAX_LEVEL)
            a, b = _pair_specs(rng, cls, level)
            ops.append(_distance_op(cls, a, b, metric))
    return ops


def _light_pair(rng: random.Random) -> tuple[str, str, str]:
    """A distance argument triple whose dim stays <= 64."""
    kind = rng.choice(("coherent-coherent", "coherent-fock", "thermal-thermal", "squeezed-squeezed"))
    a, b = _pair_specs(rng, kind, rng.randint(0, 2))
    metric = rng.choice([m for m in METRICS if not (kind == "thermal-thermal" and m in PURE_ONLY)])
    return a, b, metric


def cli_pass(seed: int, p: int) -> list[dict]:
    """One pass of fresh-process ops: every subcommand, light inputs."""
    rng = random.Random(f"cli_oneshot:{seed}:{p}")
    ops = []
    for _ in range(3):
        a, b, metric = _light_pair(rng)
        ops.append({**_distance_op("distance", a, b, metric), "via": "proc"})
    r = _draw(rng, "coherent", 1)
    ops.append({**_distance_op(
        "distance-gencoh", f"gencoh:{_cplx(r, 0.0)},@{PHASE_FILE}",
        f"coherent:{_cplx(_draw(rng, 'coherent', 1), rng.uniform(-0.3, 0.3))}",
        rng.choice(("hs", "fs", "jmg", "dn"))), "via": "proc"})
    # sweep: a '?' in one spec, at most 20 rows
    start = rng.uniform(0.0, 1.0)
    step = rng.choice((0.1, 0.125, 0.2))
    rows = rng.randint(12, 20)
    stop = start + (rows - 1) * step
    metric = rng.choice(("hs", "dn", "fs", "Da"))
    ops.append({
        "cls": "sweep", "via": "proc",
        "argv": ["sweep", "--a", "coherent:?", "--b", f"fock:{rng.randint(0, 3)}",
                 "--metric", metric, "--range", f"{start:.6f}:{stop + step / 4:.6f}:{step}"],
        "check": {"type": "sweep", "metric": metric, "rows": rows},
    })
    for fid in (1, 2):
        ops.append({"cls": f"figure-{fid}", "via": "proc", "argv": ["figure", "--id", str(fid)],
                    "check": {"type": "figure", "id": fid}})
    ops.append({**_tomo_analytic_op(rng, rng.choice(TOMO_KINDS)), "cls": "tomo-distance", "via": "proc"})
    return ops


def _tomo_op(cls: str, a: str, b: str, kind: str, gap: float | None = None, pair: str | None = None) -> dict:
    check = {"type": "tomo", "kind": kind}
    if gap is not None:
        check.update(gap=gap, pair=pair)
    return {"cls": cls, "via": "main",
            "argv": ["tomo-distance", "--a", a, "--b", b, "--kind", kind], "check": check}


def _tomo_analytic_op(rng: random.Random, kind: str) -> dict:
    if rng.random() < 0.5:
        return _tomo_op("tomo-analytic", f"coherent:{_cplx(rng.uniform(0.0, 1.5), rng.uniform(0, 6.283))}",
                        f"fock:{rng.randint(0, 3)}", kind)
    n = rng.randint(0, 3)
    return _tomo_op("tomo-analytic", f"fock:{n}", f"fock:{n + rng.randint(1, 2)}", kind)


def _ps_op(cls: str, form: str, a: str, b: str) -> dict:
    return {"cls": cls, "via": "ps", "form": form, "a": a, "b": b,
            "check": {"type": "ps", "form": form}}


def grid_pass(seed: int, p: int) -> list[dict]:
    """One pass of the tomography / phase-space mix: 62 ops.

    In rising cost: 17 ``wigner``-form HS distances on the criterion-8
    families (5 coherent, 5 Fock, 5 cat and 2 squeezed pairs), 24
    ``pp``-form ones, 18 analytic tomographic distances (two coherent
    pairs under all four kinds, so the kullback / bhattacharyya checks
    apply, a third under kullback and bhattacharyya, a coherent-Fock and
    a Fock-Fock pair under all four), 2 ``qp``-form ones and one
    Wigner-backed tomographic distance.  The counts put the median (rank
    31) inside the ``pp`` block and the tail (rank 52, the last with ten
    samples beyond it) inside the tomographic block, so neither sits on
    the edge between two classes.  The seed draws only inside windows
    where each class's cost is flat (``pp`` above nbar 1, ``qp`` at dim
    32); the Fock levels and the Wigner-backed family follow the pass
    index, so every seed's pass costs the same.
    """
    rng = random.Random(f"grid_route:{seed}:{p}")
    ops = []
    th = rng.uniform(0.0, 2.0 * math.pi)
    for j, kinds in enumerate((TOMO_KINDS, TOMO_KINDS, ("bhattacharyya", "kullback"))):
        za = complex(*(round(v, 6) for v in _rot(rng.uniform(0.0, 1.0), th)))
        zb = za + complex(*(round(v, 6) for v in _rot(rng.uniform(0.1, 1.0), rng.uniform(0.0, 2.0 * math.pi))))
        ca, cb = f"coherent:{_num(za.real)},{_num(za.imag)}", f"coherent:{_num(zb.real)},{_num(zb.imag)}"
        for kind in kinds:
            ops.append(_tomo_op("tomo-analytic", ca, cb, kind, gap=abs(zb - za), pair=f"{p}:coh{j}"))
    coh = f"coherent:{_cplx(rng.uniform(0.5, 1.5), th)}"
    for kind in TOMO_KINDS:
        ops.append(_tomo_op("tomo-analytic", coh, f"fock:{p % 4}", kind))
    for kind in TOMO_KINDS:
        ops.append(_tomo_op("tomo-analytic", f"fock:{p % 3}", f"fock:{p % 3 + 2}", kind))
    family = ("squeezed", "cat", "thermal", "phase")[p % 4]
    other = {
        "squeezed": f"squeezed:{_cplx(rng.uniform(0.3, 0.5), th)}",
        "cat": f"cat:{_cplx(rng.uniform(1.2, 1.6), th)},{_num(rng.uniform(0.0, 6.283))}",
        "thermal": f"thermal:{_num(rng.uniform(0.5, 1.0))}",
        "phase": f"phase:{_cplx(rng.uniform(0.3, 0.5), th)}",
    }[family]
    ops.append(_tomo_op("tomo-wigner", other, f"coherent:{_cplx(rng.uniform(0.0, 1.0), th)}",
                        TOMO_KINDS[p % 4]))
    # the wigner form on the criterion-8 families, qp and pp on thermal pairs
    for _ in range(5):
        ops.append(_ps_op("ps-wigner", "wigner", f"coherent:{_cplx(rng.uniform(0.0, 1.2), rng.uniform(0, 6.283))}",
                          f"coherent:{_cplx(rng.uniform(0.0, 1.2), rng.uniform(0, 6.283))}"))
    for n in range(5):
        ops.append(_ps_op("ps-wigner", "wigner", f"fock:{n % 3}", f"fock:{n % 3 + 1 + rng.randint(0, 2)}"))
    for _ in range(5):
        alpha = _cplx(rng.uniform(1.2, 1.6), rng.uniform(0, 6.283))
        ops.append(_ps_op("ps-wigner", "wigner", f"cat:{alpha},{_num(rng.uniform(0, 6.283))}",
                          f"cat:{alpha},{_num(rng.uniform(0, 6.283))}"))
    for _ in range(2):
        ops.append(_ps_op("ps-wigner", "wigner", f"squeezed:{_cplx(rng.uniform(0.35, 0.45), th)}",
                          f"squeezed:{_cplx(rng.uniform(0.2, 0.3), th + rng.uniform(-1.0, 1.0))}"))
    for _ in range(24):
        ops.append(_ps_op("ps-pp", "pp", f"thermal:{_num(rng.uniform(1.5, 3.5))}",
                          f"thermal:{_num(rng.uniform(1.5, 3.5))}"))
    for _ in range(2):
        ops.append(_ps_op("ps-qp", "qp", f"thermal:{_num(rng.uniform(0.47, 0.63))}",
                          f"thermal:{_num(rng.uniform(0.47, 0.63))}"))
    return ops


PASSES = {"cli_oneshot": cli_pass, "matrix_route": matrix_pass, "grid_route": grid_pass}


def make_pass(workload: str, seed: int, p: int) -> list[dict]:
    ops = PASSES[workload](seed, p)
    # The order is shuffled by the pass index alone: every seed runs the
    # same op classes in the same order, so the allocator and cache state
    # each op meets does not depend on the seed.
    random.Random(f"order:{workload}:{p}").shuffle(ops)
    for i, op in enumerate(ops):
        op["id"] = f"{p}.{i}"
    return ops


def warmup_op(workload: str, seed: int) -> dict:
    """The untimed warm-up op of set-up: a light op of the workload's own kind."""
    rng = random.Random(f"warmup:{workload}:{seed}")
    if workload == "grid_route":
        op = _ps_op("warmup", "wigner", f"coherent:{_cplx(rng.uniform(0.0, 1.2), rng.uniform(0, 6.283))}",
                    f"coherent:{_cplx(rng.uniform(0.0, 1.2), rng.uniform(0, 6.283))}")
    else:
        a, b, metric = _light_pair(rng)
        op = _distance_op("warmup", a, b, metric)
        if workload == "cli_oneshot":
            op["via"] = "proc"
    op["id"] = "warmup"
    return op
