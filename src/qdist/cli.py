"""Command-line front end.

Four subcommands: ``distance`` (one metric between two states),
``sweep`` (a metric along a one-parameter family), ``figure``
(reference CSV tables of the coherent-vs-number and thermal-vs-vacuum
distance curves) and ``tomo-distance`` (the tomogram-based distances).

Output is CSV with a header row, 12 significant digits, ``.`` decimal
separator, deterministic row order.  Exit codes: 0 success, 2 parse
error, 3 numerical failure (truncation, positivity, grids), 4
unsupported state/metric combination.

Each subcommand imports the numeric modules it calls when it runs;
only ``closed_forms`` and ``errors`` load with this module, so
``figure``, which prints closed forms, never loads numpy.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import closed_forms
from .closed_forms import DIVERGENCE_KINDS, METRIC_NAMES, closed_form_lookup, parse_metric
from .errors import QdistError, SpecParseError

EXIT_OK = 0
EXIT_PARSE = SpecParseError.exit_code
EXIT_NUMERICAL = QdistError.exit_code

# rows one sweep may print; the values are built before the first row
MAX_SWEEP_ROWS = 100_000


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _max_dim() -> int:
    from .states import MAX_DIM, MAX_HORIZON, TAIL_MARGIN

    text = os.environ.get("QDIST_MAX_DIM", str(MAX_DIM))
    top = MAX_HORIZON - TAIL_MARGIN  # the tail sums at the cap run over dim + TAIL_MARGIN levels
    if not text.strip().isdecimal() or not 1 <= int(text) <= top:
        raise SpecParseError(f"QDIST_MAX_DIM must be an integer in [1, {top}], got {text!r}")
    return int(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _emit(lines: list[str], out: str | None) -> None:
    """Write the --out file, then stdout: an --out that cannot be written prints nothing."""
    text = "\n".join(lines) + "\n"
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    sys.stdout.write(text)


def _distance_row(spec_a, spec_b, metric: str, dim_arg: str) -> str:
    """One row at --dim ('auto' or an integer) under QDIST_MAX_DIM; ``build_pair`` sizes and builds the pair."""
    from .distances import evaluate_metric
    from .states import build_pair

    cap = _max_dim()
    try:
        dim = None if dim_arg == "auto" else int(dim_arg)
    except ValueError as exc:
        raise SpecParseError(f"--dim takes 'auto' or an integer, got {dim_arg!r}") from exc
    sa, sb = build_pair(spec_a, spec_b, dim, max_dim=cap)
    report = evaluate_metric(metric, sa, sb)
    oracle = closed_form_lookup(spec_a, spec_b, metric)
    if oracle is None:
        return f"{metric},{_fmt(report.value)},{sa.dim},,"
    return f"{metric},{_fmt(report.value)},{sa.dim},{_fmt(oracle)},{_fmt(abs(report.value - oracle))}"


def cmd_distance(args) -> int:
    from .states import parse_state_spec

    spec_a = parse_state_spec(args.a)
    spec_b = parse_state_spec(args.b)
    parse_metric(args.metric)
    _emit(["metric,value,dim,closed_form,abs_diff", _distance_row(spec_a, spec_b, args.metric, args.dim)], args.out)
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
    from .states import parse_state_spec

    marks = args.a.count("?") + args.b.count("?")
    if marks != 1:
        raise SpecParseError("exactly one '?' placeholder must appear in --a/--b")
    parse_metric(args.metric)
    values = _sweep_values(args.range)
    lines = ["param,metric,value,dim,closed_form,abs_diff"]
    for v in values:
        text_a = args.a.replace("?", _fmt(v))
        text_b = args.b.replace("?", _fmt(v))
        spec_a = parse_state_spec(text_a)
        spec_b = parse_state_spec(text_b)
        lines.append(f"{_fmt(v)},{_distance_row(spec_a, spec_b, args.metric, args.dim)}")
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
    from .states import parse_state_spec
    from .tomography import tomographic_distance

    spec_a = parse_state_spec(args.a)
    spec_b = parse_state_spec(args.b)
    value = tomographic_distance(spec_a, spec_b, kind=args.kind, angular_nodes=args.nodes_angular)
    _emit(["kind,value,nodes_angular", f"{args.kind},{_fmt(value)},{args.nodes_angular}"], args.out)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Refuses a bad command line with one ``error:`` line (exit 2), not a usage block."""

    def error(self, message):
        raise SpecParseError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="qdist", description=__doc__)
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
        return args.func(args)
    except SystemExit as exc:  # --help
        return EXIT_PARSE if exc.code not in (0, None) else EXIT_OK
    except (QdistError, OSError) as exc:  # each error type carries its code; I/O failures read as numerical
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", EXIT_NUMERICAL)


if __name__ == "__main__":
    raise SystemExit(main())
