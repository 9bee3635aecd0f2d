"""Command-line front end.

Four subcommands: ``distance`` (one metric between two states),
``sweep`` (a metric along a one-parameter family), ``figure``
(reference CSV tables of the coherent-vs-number and thermal-vs-vacuum
distance curves) and ``tomo-distance`` (the tomogram-based distances).

Output is CSV with a header row, 12 significant digits, ``.`` decimal
separator, deterministic row order.  Exit codes: 0 success, 2 parse
error, 3 numerical failure (truncation, positivity, grids), 4
unsupported state/metric combination.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import closed_forms
from .closed_forms import closed_form_lookup
from .distances import METRIC_NAMES, evaluate_metric
from .errors import (
    QdistError,
    SpecParseError,
    StateValidationError,
    TruncationInfeasibleError,
    UnsupportedCombinationError,
)
from .states import MAX_HORIZON, StateSpec, adaptive_dim, build_state, parse_state_spec
from .tomography import DIVERGENCE_KINDS, tomographic_distance

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_NUMERICAL = 3
EXIT_UNSUPPORTED = 4

# rows one sweep may print; the values are built before the first row
MAX_SWEEP_ROWS = 100_000


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _max_dim() -> int:
    text = os.environ.get("QDIST_MAX_DIM", "512")
    top = MAX_HORIZON - 64  # the tail sums at the cap run over dim + 64 levels
    if not text.strip().isdecimal() or not 1 <= int(text) <= top:
        raise SpecParseError(f"QDIST_MAX_DIM must be an integer in [1, {top}], got {text!r}")
    return int(text)


def _resolve_dim(spec_a: StateSpec, spec_b: StateSpec, dim_arg: str) -> int:
    cap = _max_dim()
    if dim_arg == "auto":
        return max(adaptive_dim(spec_a, max_dim=cap), adaptive_dim(spec_b, max_dim=cap))
    try:
        dim = int(dim_arg)
    except ValueError as exc:
        raise SpecParseError(f"--dim takes 'auto' or an integer, got {dim_arg!r}") from exc
    if dim < 1 or dim > cap:
        raise TruncationInfeasibleError(f"dim {dim} outside [1, {cap}]")
    return dim


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _emit(lines: list[str], out: str | None) -> None:
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _distance_row(spec_a: StateSpec, spec_b: StateSpec, metric: str, dim: int) -> str:
    sa = build_state(spec_a, dim)
    sb = build_state(spec_b, dim)
    report = evaluate_metric(metric, sa, sb)
    oracle = closed_form_lookup(spec_a, spec_b, metric)
    if oracle is None:
        return f"{metric},{_fmt(report.value)},{dim},,"
    return f"{metric},{_fmt(report.value)},{dim},{_fmt(oracle)},{_fmt(abs(report.value - oracle))}"


def cmd_distance(args) -> int:
    spec_a = parse_state_spec(args.a)
    spec_b = parse_state_spec(args.b)
    if args.metric.split(":", 1)[0] not in METRIC_NAMES:
        raise SpecParseError(f"unknown metric {args.metric!r}")
    dim = _resolve_dim(spec_a, spec_b, args.dim)
    _emit(["metric,value,dim,closed_form,abs_diff", _distance_row(spec_a, spec_b, args.metric, dim)], args.out)
    return EXIT_OK


def _sweep_values(rng: str) -> list[float]:
    try:
        start, stop, step = (float(f) for f in rng.split(":"))
    except ValueError as exc:
        raise SpecParseError(f"bad range {rng!r}, want start:stop:step") from exc
    if step <= 0 or stop < start:
        raise SpecParseError(f"empty range {rng!r}")
    span = (stop - start) / step
    if not span < MAX_SWEEP_ROWS:  # also catches nan and inf
        raise SpecParseError(f"range {rng!r} must span at most {MAX_SWEEP_ROWS} rows")
    n = int(math.floor(span + 1e-9)) + 1
    return [start + i * step for i in range(n)]


def cmd_sweep(args) -> int:
    marks = args.a.count("?") + args.b.count("?")
    if marks != 1:
        raise SpecParseError("exactly one '?' placeholder must appear in --a/--b")
    values = _sweep_values(args.range)
    lines = ["param,metric,value,dim,closed_form,abs_diff"]
    for v in values:
        text_a = args.a.replace("?", _fmt(v))
        text_b = args.b.replace("?", _fmt(v))
        spec_a = parse_state_spec(text_a)
        spec_b = parse_state_spec(text_b)
        dim = _resolve_dim(spec_a, spec_b, args.dim)
        lines.append(f"{_fmt(v)},{_distance_row(spec_a, spec_b, args.metric, dim)}")
    _emit(lines, args.out)
    return EXIT_OK


def figure1_rows():
    """(alpha^2, m, d_hs, d_n) for m = 1, 2, 3 over alpha^2 in [0, 10]."""
    rows = []
    for m in (1, 2, 3):
        for i in range(101):
            s = i / 10.0
            r = closed_forms.coherent_fock(math.sqrt(s), m)
            rows.append((s, m, r["hs"], r["dN"]))
    return rows


def figure2_rows():
    """Thermal and pseudothermal distances from the vacuum over nbar in [0, 10]."""
    rows = []
    for i in range(101):
        nbar = i / 10.0
        th = closed_forms.thermal_pair(nbar, 0.0)
        eps = math.sqrt(nbar / (1.0 + nbar))
        ps = closed_forms.phase_pair(eps, 0.0)
        rows.append((nbar, th["dN"], th["hs"], th["bu"], ps["hs"], ps["dN"], th["dN_sqrt"]))
    return rows


def cmd_figure(args) -> int:
    if args.id == 1:
        lines = ["alpha2,m,d_hs,d_n"]
        lines += [f"{_fmt(s)},{m},{_fmt(d1)},{_fmt(d2)}" for s, m, d1, d2 in figure1_rows()]
    else:
        lines = ["nbar,d_n_thermal,d_hs_thermal,d_bu_thermal,d_hs_pseudo,d_n_pseudo,d_n_tilde_thermal"]
        lines += [",".join(_fmt(v) for v in row) for row in figure2_rows()]
    _emit(lines, args.out)
    return EXIT_OK


def cmd_tomo_distance(args) -> int:
    spec_a = parse_state_spec(args.a)
    spec_b = parse_state_spec(args.b)
    if args.kind not in DIVERGENCE_KINDS:
        raise SpecParseError(f"unknown divergence kind {args.kind!r}")
    value = tomographic_distance(spec_a, spec_b, kind=args.kind, angular_nodes=args.nodes_angular)
    _emit(["kind,value,nodes_angular", f"{args.kind},{_fmt(value)},{args.nodes_angular}"], args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="qdist", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    d = sub.add_parser("distance", help="one metric between two states")
    d.add_argument("--a", required=True, help="state spec, e.g. coherent:1,0")
    d.add_argument("--b", required=True)
    d.add_argument("--metric", required=True, help="|".join(METRIC_NAMES))
    d.add_argument("--dim", default="auto")
    d.add_argument("--out")
    d.set_defaults(func=cmd_distance)

    s = sub.add_parser("sweep", help="metric along a one-parameter family")
    s.add_argument("--a", required=True, help="state spec; one of --a/--b holds a '?'")
    s.add_argument("--b", required=True)
    s.add_argument("--metric", required=True)
    s.add_argument("--range", required=True, help="start:stop:step for the '?' slot")
    s.add_argument("--dim", default="auto")
    s.add_argument("--out")
    s.set_defaults(func=cmd_sweep)

    f = sub.add_parser("figure", help="reference distance-curve tables")
    f.add_argument("--id", type=int, choices=(1, 2), required=True)
    f.add_argument("--out")
    f.set_defaults(func=cmd_figure)

    t = sub.add_parser("tomo-distance", help="tomogram-based distance")
    t.add_argument("--a", required=True)
    t.add_argument("--b", required=True)
    t.add_argument("--kind", default="hellinger", help="|".join(DIVERGENCE_KINDS))
    t.add_argument("--nodes-angular", type=int, default=64)
    t.add_argument("--out")
    t.set_defaults(func=cmd_tomo_distance)
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (SpecParseError, StateValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except UnsupportedCombinationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except (QdistError, OSError) as exc:  # numerical failures (truncation, positivity, grids) and I/O
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    raise SystemExit(main())
