#!/usr/bin/env python3
"""Tour of the state families and their photon statistics.

Builds one state per family at an automatically chosen truncation and
prints the mean photon number, the Mandel Q parameter (negative means
sub-Poissonian statistics) and the purity.
"""

import math

import numpy as np

from qdist import (
    StateSpec,
    adaptive_dim,
    as_density,
    mandel_q,
    purity,
    yurke_stoler_phases,
)

specs = [
    StateSpec("fock", {"n": 3}),
    StateSpec("coherent", {"alpha": 1.5 + 0.5j}),
    StateSpec("cat", {"alpha": 1.2 + 0j, "phi": 0.0}),
    StateSpec("cat", {"alpha": 1.2 + 0j, "phi": math.pi}),
    StateSpec("generalized_coherent", {"alpha": 1.2 + 0j, "phases": yurke_stoler_phases(64)}),
    StateSpec("squeezed_vacuum", {"zeta": math.tanh(1.0) + 0j}),
    StateSpec("coherent_phase", {"epsilon": 0.7 + 0j}),
    StateSpec("thermal", {"nbar": 2.0}),
]

print(f"{'family':22s} {'dim':>4s} {'<N>':>8s} {'Mandel Q':>9s} {'purity':>7s}")
for spec in specs:
    dim = adaptive_dim(spec)
    rho = as_density(spec, dim)
    n = np.arange(dim)
    nbar = float((n * rho.populations).sum())
    try:
        q = f"{mandel_q(rho):+9.4f}"
    except Exception:
        q = "      n/a"
    print(f"{spec.family:22s} {dim:4d} {nbar:8.4f} {q} {purity(rho):7.4f}")

print()
print("Highlights: every generalized-coherent state is exactly Poissonian")
print("(Q = 0) no matter the phase table, even though the Yurke-Stoler")
print("member above is a bona fide cat state; the even cat is super-")
print("Poissonian and the odd cat sub-Poissonian by the same margin.")
