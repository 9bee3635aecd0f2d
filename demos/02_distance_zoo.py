#!/usr/bin/env python3
"""Every distance functional on a handful of state pairs.

For each pair the numeric (matrix) value is printed next to the
analytic closed form when one exists, demonstrating the cross-checks
the library is built around.  On pure pairs every overlap metric (fs,
minimal, wootters, hs, jmg, bu, hs-p) follows from the one overlap
|<a|b>|; the pure-only ones are skipped for the thermal pair.  The
energy-sensitive metrics (dn, dn-sqrt, DZ, Da) tell orthogonal states
of different energy apart, which the conventional ones cannot; the
first three weight by Z = N, passed to the kernels as the weight
vector 0, 1, ..., dim - 1.
"""

from qdist import StateSpec, build_pair, evaluate_metric
from qdist.cli import closed_form_lookup

pairs = [
    ("fock:1 vs fock:2", StateSpec("fock", {"n": 1}), StateSpec("fock", {"n": 2})),
    ("fock:1 vs fock:12", StateSpec("fock", {"n": 1}), StateSpec("fock", {"n": 12})),
    (
        "coherent 0 vs 1",
        StateSpec("coherent", {"alpha": 0j}),
        StateSpec("coherent", {"alpha": 1 + 0j}),
    ),
    (
        "thermal 1 vs vacuum",
        StateSpec("thermal", {"nbar": 1.0}),
        StateSpec("fock", {"n": 0}),
    ),
]

PURE_ONLY = ("fs", "minimal", "wootters")
metrics = [*PURE_ONLY, "hs", "jmg", "bu", "hs-p:0.5", "dn", "dn-sqrt", "DZ", "Da"]

for label, sa, sb in pairs:
    a, b = build_pair(sa, sb)
    print(f"\n{label}  (dim {a.dim})")
    for m in metrics:
        if m in PURE_ONLY and not (sa.is_pure and sb.is_pure):
            continue
        r = evaluate_metric(m, a, b)
        oracle = closed_form_lookup(sa, sb, m)
        tail = f"   closed form {oracle:.10f}" if oracle is not None else ""
        print(f"  {m:9s} {r.value:.10f}{tail}")

print()
print("Note how hs/jmg/bu rate |1> vs |2> and |1> vs |12> as equally far")
print("(orthogonal is orthogonal), while dn grows with the energy gap and")
print("DZ ranks |1> vs |2> as closer, matching the phase-space picture of")
print("number states as circles with radius ~ sqrt(energy).")
