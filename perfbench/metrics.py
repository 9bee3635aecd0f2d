"""The benchmark's metrics: names, units, direction, and what each should move.

END_TO_END rows are (name, unit, better, bound); BENCHMARK.json carries
the same rows.  PER_LAYER rows are (name, unit, better, moves, on): the
end-to-end metric a change in that layer should move, and the workload
it moves on.
"""

E2E = "ops_per_s, latency_p50_ms"

END_TO_END = (
    ("ops_per_s", "1/s", "higher", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("latency_tail_ms", "ms", "lower", 0.25),
    ("cpu_ms_per_op", "ms", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

_METRICS = ("fs", "minimal", "wootters", "hs", "jmg", "bu", "hs-p", "dn", "dn-sqrt", "DZ", "Da")
_KINDS = ("hellinger", "kolmogorov", "bhattacharyya", "kullback")

PER_LAYER = (
    ("cli.import_ms", "ms", "lower", "latency_p50_ms, setup_s", "cli_oneshot (setup_s everywhere)"),
    ("cli.import_ms.scipy_special", "ms", "lower", "latency_p50_ms, setup_s", "cli_oneshot (setup_s everywhere)"),
    ("cli.import_ms.scipy_ndimage", "ms", "lower", "latency_p50_ms, setup_s", "cli_oneshot (setup_s everywhere)"),
    ("cli.floor_ms.python", "ms", "lower", "nothing (detects machine drift)", "cli_oneshot"),
    ("cli.floor_ms.numpy", "ms", "lower", "nothing (detects machine drift)", "cli_oneshot"),
    *((f"cli.main_ms.{c}", "ms", "lower", "latency_p50_ms", "cli_oneshot")
      for c in ("distance", "sweep", "figure", "tomo-distance")),
    ("states.parse_us", "us", "lower", "ops_per_s, latency_tail_ms", "matrix_route"),
    ("states.adaptive_dim_ms", "ms", "lower", "ops_per_s, latency_tail_ms", "matrix_route"),
    ("states.build_ms.pure", "ms", "lower", "ops_per_s, latency_tail_ms", "matrix_route"),
    ("states.build_ms.thermal", "ms", "lower", "ops_per_s, latency_tail_ms", "matrix_route"),
    ("states.dim_mean", "count", "lower", "none (fixed by the inputs)", "matrix_route"),
    ("states.dim_max", "count", "lower", "none (fixed by the inputs)", "matrix_route"),
    *((f"fock_core.{n}", "ms", "lower", "ops_per_s", "matrix_route")
      for n in ("outer_ms", "validate_ms", "trace_norm_ms", "hermitian_sqrt_ms")),
    *((f"distances.evaluate_ms.{m}", "ms", "lower", "ops_per_s, latency_tail_ms", "matrix_route")
      for m in _METRICS + ("pure", "mixed")),
    ("closed_forms.coverage", "ratio", "higher", "none (rises with oracle work; ops_per_s stays put)", "matrix_route"),
    ("closed_forms.max_abs_diff", "abs", "lower", "none (must stay <= 1e-7)", "matrix_route"),
    ("tomography.distance_s.analytic", "s", "lower", E2E, "grid_route"),
    ("tomography.distance_s.wigner", "s", "lower", E2E, "grid_route"),
    ("tomography.marginal_ms.analytic", "ms", "lower", "ops_per_s", "grid_route"),
    ("tomography.marginal_ms.wigner", "ms", "lower", "ops_per_s", "grid_route"),
    *((f"tomography.divergence_us.{k}", "us", "lower", "ops_per_s", "grid_route") for k in _KINDS),
    ("tomography.wigner_grid_points", "count", "lower", "ops_per_s (0 once tomography leaves the grid)", "grid_route"),
    ("phase_space.wigner_ms", "ms", "lower", "ops_per_s", "grid_route"),
    ("phase_space.husimi_ms", "ms", "lower", "ops_per_s", "grid_route"),
    ("phase_space.eigenfunctions_ms", "ms", "lower", "ops_per_s", "grid_route"),
    *((f"phase_space.hs_form_ms.{f}", "ms", "lower", "ops_per_s", "grid_route") for f in ("wigner", "qp", "pp")),
    ("phase_space.wigner_grid_points", "count", "lower", "ops_per_s", "grid_route"),
    # self time per op in each layer, over every replay of the traced run
    *((f"{layer}.self_ms_per_op", "ms", "lower", E2E, "matrix_route and grid_route")
      for layer in ("cli", "states", "distances", "phase_space", "tomography", "other")),
    ("trace.ops_per_s", "1/s", "higher", "none (traced twin of ops_per_s)", "the traced workload"),
    ("trace.untraced_ops_per_s", "1/s", "higher", "none (the same pass, untraced)", "the traced workload"),
    ("trace.overhead", "ratio", "lower", "none (tracing cost)", "the traced workload"),
)

UNITS = {row[0]: row[1] for row in END_TO_END + PER_LAYER}
