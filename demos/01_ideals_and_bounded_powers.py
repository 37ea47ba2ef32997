#!/usr/bin/env python3
"""Tour of exact monomial-ideal arithmetic and bounded powers.

A monomial is a tuple of exponents; an ideal is its canonical minimal
generating set.  The s-th c-bounded power (I^s)_c keeps exactly the members
of I^s whose exponent vectors stay under the bound vector c.
"""

from boundedpowers import (
    MonomialIdeal,
    bounded_power,
    complete_graph,
    cycle_graph,
    delta,
    delta_bmatching,
    path_graph,
    squarefree_power,
)

# The constructor takes any generating set and keeps its minimal generators.
I = MonomialIdeal(3, [(1, 1, 0), (0, 1, 1), (1, 1, 1)])
print("minimal generators of (x1x2, x2x3, x1x2x3):", I)

# Ordinary powers multiply generators; bounded powers then filter by c.
print("I^2 =", I.power(2))
print("(I^2) bounded by (1,2,1) =", bounded_power(I, 2, (1, 2, 1)))

# Edge ideals: one quadric per edge of a graph, vertices = variables.
P4 = path_graph(4)
print("\nedge ideal of the path 1-2-3-4:", P4.edge_ideal())

# With c = (1,...,1) the bounded power is the squarefree power; it vanishes
# exactly beyond the matching number.
for s in (1, 2, 3):
    print(f"squarefree power s={s}:", squarefree_power(P4.edge_ideal(), s))
print("matching number of P4 (a b-matching at c = ones):", delta_bmatching(P4, (1,) * P4.n))

# delta(I, c) is the largest s with a nonzero bounded power.  For edge
# ideals it has a purely combinatorial twin: a maximum b-matching, where
# vertex i may carry at most c_i edge-endpoints.
K2 = complete_graph(2)
print("\ndelta of I(K2) with c=(3,2):", delta(K2.edge_ideal(), (3, 2)))
print("same value as a b-matching:", delta_bmatching(K2, (3, 2)))

C4 = cycle_graph(4)
c = (2, 1, 1, 2)
print("\nC4 with c =", c)
print("  monomial route:  ", delta(C4.edge_ideal(), c))
print("  b-matching route:", delta_bmatching(C4, c))
print("  (the two capacity-2 vertices are adjacent here, allowing 3 copies)")
