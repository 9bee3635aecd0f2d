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
from .distances import METRIC_NAMES, evaluate_metric
from .errors import (
    GridError,
    InsufficientCutoffError,
    NotHermitianError,
    NotPositiveSemidefiniteError,
    NumericalToleranceError,
    QdistError,
    SpecParseError,
    StateValidationError,
    TailMassError,
    TruncationInfeasibleError,
    UnsupportedCombinationError,
)
from .states import StateSpec, adaptive_dim, build_state, parse_state_spec
from .tomography import DIVERGENCE_KINDS, tomographic_distance

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_NUMERICAL = 3
EXIT_UNSUPPORTED = 4

_NUMERICAL_ERRORS = (
    TailMassError,
    TruncationInfeasibleError,
    NotPositiveSemidefiniteError,
    NotHermitianError,
    NumericalToleranceError,
    GridError,
    InsufficientCutoffError,
)


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _max_dim() -> int:
    text = os.environ.get("QDIST_MAX_DIM", "512")
    if not text.strip().isdecimal() or int(text) < 1:
        raise SpecParseError(f"QDIST_MAX_DIM must be a positive integer, got {text!r}")
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
# closed-form lookup for the cross-check column
# ---------------------------------------------------------------------------

def _is_vacuum(spec: StateSpec) -> bool:
    f, p = spec.family, spec.params
    return (
        (f == "fock" and p["n"] == 0)
        or (f == "coherent" and abs(p["alpha"]) == 0.0)
        or (f == "squeezed_vacuum" and abs(p["zeta"]) == 0.0)
        or (f == "coherent_phase" and abs(p["epsilon"]) == 0.0)
        or (f == "thermal" and p["nbar"] == 0.0)
    )


def closed_form_lookup(spec_a: StateSpec, spec_b: StateSpec, metric: str, p: float = 0.5):
    """Analytic value for the metric and state pair, or None.

    The pure-state metrics hs and fs coincide, as do dn and dn-sqrt, so
    they share oracle entries; cat-family oracles require both states
    to carry the same displacement.
    """
    base = metric.split(":", 1)[0]
    fams = {spec_a.family, spec_b.family}

    def fam(spec, name):
        return spec.family == name

    a, b = spec_a, spec_b
    if fam(b, "coherent") and not fam(a, "coherent"):
        a, b = b, a  # put coherent first where it matters

    if base in ("hs", "fs"):
        if fams == {"coherent"}:
            return closed_forms.coherent_pair(a.params["alpha"], b.params["alpha"])["hs"]
        if fams == {"coherent", "fock"}:
            coh, fk = (a, b) if fam(a, "coherent") else (b, a)
            return closed_forms.coherent_fock(coh.params["alpha"], fk.params["n"])["hs"]
        if fams == {"cat"}:
            if abs(a.params["alpha"] - b.params["alpha"]) < 1e-12:
                return closed_forms.cat_distances(
                    a.params["alpha"], a.params["phi"], b.params["phi"]
                )["d_between"]
            return None
        if "cat" in fams:
            catspec = a if fam(a, "cat") else b
            other = b if fam(a, "cat") else a
            if _is_vacuum(other):
                return closed_forms.cat_distances(catspec.params["alpha"], catspec.params["phi"], 0.0)[
                    "d_to_vacuum"
                ]
            if fam(other, "coherent") and abs(other.params["alpha"] - catspec.params["alpha"]) < 1e-12:
                return closed_forms.cat_distances(catspec.params["alpha"], catspec.params["phi"], 0.0)[
                    "d_to_coherent"
                ]
            return None
        if fams == {"squeezed_vacuum"}:
            return closed_forms.squeezed_pair(a.params["zeta"], b.params["zeta"])["hs"]
        if fams == {"coherent_phase"}:
            return closed_forms.phase_pair(a.params["epsilon"], b.params["epsilon"])["hs"]
        if fams == {"thermal"} and base == "hs":
            return closed_forms.thermal_pair(a.params["nbar"], b.params["nbar"])["hs"]
        if _is_vacuum(a) or _is_vacuum(b):
            st, vac = (a, b) if _is_vacuum(b) else (b, a)
            if fam(st, "coherent"):
                return closed_forms.coherent_pair(st.params["alpha"], 0.0)["hs"]
            if fam(st, "coherent_phase"):
                return closed_forms.phase_pair(st.params["epsilon"], 0.0)["hs"]
            if fam(st, "squeezed_vacuum"):
                return closed_forms.squeezed_pair(st.params["zeta"], 0.0)["hs"]
            if fam(st, "thermal") and base == "hs":
                return closed_forms.thermal_pair(st.params["nbar"], 0.0)["hs"]
        return None

    if base in ("dn", "dn-sqrt"):
        mixed = "thermal" in fams
        if fams == {"thermal"}:
            key = "dN" if base == "dn" else "dN_sqrt"
            return closed_forms.thermal_pair(a.params["nbar"], b.params["nbar"])[key]
        if mixed:
            return None
        # for pure pairs the two polarized variants coincide
        if fams == {"coherent"}:
            return closed_forms.coherent_pair(a.params["alpha"], b.params["alpha"])["dN"]
        if fams == {"coherent", "fock"}:
            coh, fk = (a, b) if fam(a, "coherent") else (b, a)
            return closed_forms.coherent_fock(coh.params["alpha"], fk.params["n"])["dN"]
        if fams == {"fock"}:
            return closed_forms.fock_pair(a.params["n"], b.params["n"])["dN"]
        if fams == {"squeezed_vacuum"}:
            return closed_forms.squeezed_pair(a.params["zeta"], b.params["zeta"])["dN"]
        if fams == {"coherent_phase"}:
            return closed_forms.phase_pair(a.params["epsilon"], b.params["epsilon"])["dN"]
        if fams == {"cat"} and abs(a.params["alpha"] - b.params["alpha"]) < 1e-12:
            return closed_forms.cat_distances(a.params["alpha"], a.params["phi"], b.params["phi"])[
                "dN_between"
            ]
        if "cat" in fams:
            catspec = a if fam(a, "cat") else b
            other = b if fam(a, "cat") else a
            if _is_vacuum(other):
                return closed_forms.cat_distances(catspec.params["alpha"], catspec.params["phi"], 0.0)[
                    "dN_to_vacuum"
                ]
        return None

    if base == "bu" and fams == {"thermal"}:
        return closed_forms.thermal_pair(a.params["nbar"], b.params["nbar"])["bu"]
    if base == "hs-p" and fams == {"thermal"} and abs(p - 0.5) < 1e-12:
        # commuting pair: the p = 1/2 modification equals Bures-Uhlmann
        return closed_forms.thermal_pair(a.params["nbar"], b.params["nbar"])["bu"]
    if base == "DZ" and fams == {"fock"}:
        return closed_forms.fock_pair(a.params["n"], b.params["n"])["DN"]
    if base == "Da" and fams == {"coherent"}:
        return closed_forms.coherent_pair(a.params["alpha"], b.params["alpha"])["Da"]
    return None


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
    n = int(math.floor((stop - start) / step + 1e-9)) + 1
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
    except _NUMERICAL_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except QdistError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    raise SystemExit(main())
