#!/usr/bin/env python3
"""Betti tables and Castelnuovo-Mumford regularity from exact homology.

Betti numbers come from reduced homology of upper Koszul complexes over the
lcm lattice, with all matrix ranks computed in exact arithmetic.  Two other
routes (restriction complexes on the polarization, strands of the
generator-subset resolution) recompute the same table independently.
"""

from itertools import combinations

from boundedpowers import (
    MonomialIdeal,
    betti_table,
    betti_table_hochster,
    betti_table_taylor,
    bounded_power_chain,
    cycle_graph,
    delta,
    has_linear_resolution,
    path_graph,
    polarize,
    regularity,
)

I = path_graph(4).edge_ideal()
print("I(P4) Betti table {(i, j): beta}:", betti_table(I))
print("regularity:", regularity(I), "-> linear resolution:", has_linear_resolution(I))
print("I(C5) regularity:", regularity(cycle_graph(5).edge_ideal()))

# Polarization replaces x_i^k by k distinct variables without changing the
# homological data.
J = MonomialIdeal(2, [(2, 0), (1, 1), (0, 2)])
polarized = polarize(J)
print("\npolarization of (x1^2, x1x2, x2^2):", polarized)
print("regularity preserved:", regularity(J), "=", regularity(polarized))

# Cross-validation: three independent computations of one table.
print("\nthree routes on the polarized ideal:")
print("  upper Koszul:", betti_table(polarized))
print("  restrictions:", betti_table_hochster(polarized))
print("  subset strands:", betti_table_taylor(polarized))

# Regularity can depend on the coefficient field: the 6-vertex projective
# plane's face ideal is the classical example (reg 3 over Q, 4 over F2).
facets = [(1, 2, 5), (1, 2, 6), (1, 3, 4), (1, 3, 5), (1, 4, 6),
          (2, 3, 4), (2, 3, 6), (2, 4, 5), (3, 5, 6), (4, 5, 6)]
faces = {sub for f in facets for k in range(len(f) + 1) for sub in combinations(f, k)}
nonfaces = [
    tuple(1 if v in sub else 0 for v in range(1, 7))
    for size in range(1, 7)
    for sub in combinations(range(1, 7), size)
    if sub not in faces and all(sub[:k] + sub[k + 1:] in faces for k in range(size))
]
rp2 = MonomialIdeal(6, nonfaces)
print("\nprojective-plane face ideal: reg over Q =", regularity(rp2, 0),
      ", over F2 =", regularity(rp2, 2))

# The headline bound: reg((I(G)^s)_c) <= delta_c + s for every level s, with
# equality at the top.
G = cycle_graph(4)
c = (2, 2, 2, 2)
top = delta(G.edge_ideal(), c)
print(f"\nC4 with c={c}: delta = {top}")
for s, power in enumerate(bounded_power_chain(G.edge_ideal(), c), start=1):
    print(f"  s={s}: reg = {regularity(power)}  (bound {top + s},"
          f" generators in degree {2 * s})")
