"""Traced replays: each op as the sequence of public calls the CLI path makes.

Every call into a qdist module is one span (op id, parent, layer, name,
start, end).  Spans stay in memory and are written out when the run ends;
a layer's self time is its spans' durations minus the time their child
spans cover.  Entry points are looked up by name at call time, so one
that a later version of qdist drops makes the metrics timed through it
absent instead of failing the run.
"""

from __future__ import annotations

import importlib
import time

LAYERS = ("cli", "states", "fock_core", "distances", "closed_forms", "phase_space", "tomography")


class Absent(Exception):
    """A public entry point the replay times is gone."""


def entry(layer: str, name: str):
    try:
        return getattr(importlib.import_module(f"qdist.{layer}"), name)
    except (ImportError, AttributeError) as exc:
        raise Absent(f"qdist.{layer}.{name}") from exc


class Spans:
    """In-memory span recorder; rows are [op, id, parent, layer, name, t0, t1]."""

    def __init__(self):
        self.rows: list[list] = []
        self._stack: list[int] = []
        self.op = None
        self.absent: set[str] = set()

    def open(self, layer: str, name: str) -> list:
        row = [self.op, len(self.rows), self._stack[-1] if self._stack else None,
               layer, name, time.perf_counter(), None]
        self.rows.append(row)
        self._stack.append(row[1])
        return row

    def close(self, row: list) -> None:
        row[6] = time.perf_counter()
        self._stack.pop()

    def call(self, layer: str, name: str, *args, tag: str | None = None, **kwargs):
        """Call qdist.<layer>.<name>(*args, **kwargs) inside a span."""
        fn = entry(layer, name)
        row = self.open(layer, f"{name}:{tag}" if tag else name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(row)

    def adopt(self, child_rows: list[list], parent: int) -> None:
        """Attach spans recorded in another process under ``parent``."""
        base = len(self.rows)
        for op, sid, par, layer, name, t0, t1 in child_rows:
            self.rows.append([op, base + sid, parent if par is None else base + par, layer, name, t0, t1])

    def self_times(self) -> list[tuple]:
        """(op, layer, name, duration, self time) per span."""
        covered = [0.0] * len(self.rows)
        for op, sid, par, layer, name, t0, t1 in self.rows:
            if par is not None:
                covered[par] += t1 - t0
        return [(r[0], r[3], r[4], r[6] - r[5], r[6] - r[5] - covered[r[1]]) for r in self.rows]


# ---------------------------------------------------------------------------
# replays
# ---------------------------------------------------------------------------

def _sweep_values(rng: str) -> list[float]:
    start, stop, step = (float(f) for f in rng.split(":"))
    n = int((stop - start) / step + 1e-9) + 1
    return [start + i * step for i in range(n)]


def _dim(sp: Spans, a, b, dim_arg: str) -> int:
    if dim_arg != "auto":
        return int(dim_arg)
    return max(sp.call("states", "adaptive_dim", a), sp.call("states", "adaptive_dim", b))


def _row(sp: Spans, a, b, metric: str, dim: int, keep=None) -> float:
    sa = sp.call("states", "build_state", a, dim, tag="thermal" if a.family == "thermal" else "pure")
    sb = sp.call("states", "build_state", b, dim, tag="thermal" if b.family == "thermal" else "pure")
    mixed = a.family == "thermal" or b.family == "thermal"
    report = sp.call("distances", "evaluate_metric", metric, sa, sb,
                     tag=f"{metric}:{'mixed' if mixed else 'pure'}")
    try:
        sp.call("cli", "closed_form_lookup", a, b, metric)
    except Absent as exc:
        sp.absent.add(str(exc))
    if keep is not None:
        keep(sa, sb, dim, mixed)
    return report.value


def replay(sp: Spans, op: dict, keep=None):
    """Replay one op's public calls in CLI order; returns its value(s)."""
    parse = lambda text: sp.call("states", "parse_state_spec", text)  # noqa: E731
    if op["via"] == "ps":
        a, b = parse(op["a"]), parse(op["b"])
        return sp.call("phase_space", "hs_from_phase_space", a, b, op["form"], tag=op["form"])
    row = sp.open("cli", "parse_args")
    try:
        args = entry("cli", "build_parser")().parse_args(op["argv"])
    finally:
        sp.close(row)
    if args.command == "distance":
        a, b = parse(args.a), parse(args.b)
        return _row(sp, a, b, args.metric, _dim(sp, a, b, args.dim), keep)
    if args.command == "sweep":
        out = []
        for v in _sweep_values(args.range):
            a, b = parse(args.a.replace("?", f"{v:.12g}")), parse(args.b.replace("?", f"{v:.12g}"))
            out.append(_row(sp, a, b, args.metric, _dim(sp, a, b, args.dim), keep))
        return out
    if args.command == "figure":
        return sp.call("cli", f"figure{args.id}_rows")
    a, b = parse(args.a), parse(args.b)
    analytic = all(s.family in ("coherent", "fock") for s in (a, b))
    return sp.call("tomography", "tomographic_distance", a, b, kind=args.kind,
                   tag="analytic" if analytic else "wigner")
