#!/usr/bin/env python3
"""Classical-like distances built from quadrature tomograms.

Every state is equivalently described by the family of probability
densities of the rotated-scaled quadratures mu*q + nu*p.  Averaging a
classical divergence between two such families over the (mu, nu)
plane gives a distance between quantum states computed entirely from
positive distributions.

For coherent pairs the Hellinger version starts out as 4|alpha - beta|
and saturates at 2*pi*sqrt(2); the Kullback-Leibler and Bhattacharyya
measures keep growing without bound and sit in the exact ratio 8.
"""

import math

from qdist import StateSpec, tomographic_distance

vac = StateSpec("coherent", {"alpha": 0j})

print("gap      hellinger   4*gap      kullback    4*pi*gap^2   J/B")
for gap in (0.01, 0.1, 0.5, 1.0, 2.0):
    other = StateSpec("coherent", {"alpha": gap + 0j})
    dh = tomographic_distance(vac, other, "hellinger")
    dj = tomographic_distance(vac, other, "kullback")
    db = tomographic_distance(vac, other, "bhattacharyya")
    print(
        f"{gap:5.2f} {dh:11.6f} {4 * gap:9.4f} {dj:12.6f} {4 * math.pi * gap**2:11.6f} {dj / db:6.3f}"
    )

print(f"\nsaturation value 2*pi*sqrt(2) = {2 * math.pi * math.sqrt(2):.6f}")
d20 = tomographic_distance(vac, StateSpec("coherent", {"alpha": 20.0 + 0j}), "hellinger")
print(f"hellinger at gap 20          = {d20:.6f} (approaches the limit like 1/gap)")

print("\nKolmogorov flavour between a number state and a coherent state:")
dk = tomographic_distance(
    StateSpec("fock", {"n": 1}),
    StateSpec("coherent", {"alpha": 1.0 + 0j}),
    "kolmogorov",
    angular_nodes=32,
)
print(f"  D_K(|1>, |alpha=1>) = {dk:.6f}")
